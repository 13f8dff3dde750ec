"""The consolidated results store: one index across every sweep.

A sweep manifest records what *one* run did; the result cache holds
content-addressed entries with no notion of history.  The store is
the missing join: an **append-only** ``<cache>/store/index.jsonl``
whose records key every result by spec hash *and* by the label of the
sweep that produced it, across all historical sweeps sharing the
cache.  That turns a pile of cached scenario results into a queryable
asset:

- ``fleet compare A B --html`` renders a regression report between
  any two labels ever recorded, without re-reading their manifests;
- the serve daemon probes the store as an extra resolution tier, so a
  result computed by *any* fleet warms SLO queries.

Appends are one ``O_APPEND`` write of one line per record — safe
under concurrent fleet workers on a local filesystem — and readers
skip torn trailing lines, so a reader racing a writer sees a valid
prefix.  Records are deduplicated on ``(label, spec_hash)``:
re-running a sweep re-lands the same results without bloating the
index.

**Scale** (millions of records, tens of thousands of points) comes
from three mechanisms layered on the same append-only file:

- **Streaming reads.**  No reader materializes the index; every scan
  is a line-buffered pass tracking byte offsets.
- **The offset sidecar** (``store/index.offsets``): a persistent map
  ``spec_hash → newest byte offset`` plus the per-label key sets,
  stamped with the index generation and the byte range it *covers*.
  ``get_result`` becomes one seek + one line read instead of a full
  scan; ``__len__``/``labels`` read the sidecar's key sets.  The
  sidecar is derived data: when it is missing, torn, from an older
  generation, or covers more bytes than the index holds, it is
  rebuilt from the index; when the index merely grew past it, only
  the tail is scanned.  A lookup whose seek lands on a record with
  the wrong hash (a compaction swapped the file mid-flight) rebuilds
  and retries — the sidecar can be stale, never wrong.
- **Compaction** (``fleet store compact``): rewrites the index
  keeping the newest record per ``(label, spec_hash)`` — in
  first-occurrence key order, so every read result is identical to
  the uncompacted store's — via an atomic swap, and bumps the
  **generation stamp** (``store/generation``) so every reader's
  sidecar invalidates instead of trusting offsets into the new file.
  Run it while no fleet is appending: a record landed between the
  final tail merge and the swap would be lost with the old inode.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..scenarios.runner import ScenarioResult, atomic_write_text
from ..scenarios.spec import ScenarioSpec

#: Persist the sidecar when a refresh had to scan at least this many
#: tail bytes — frequent small appends stay in memory, and whichever
#: reader next folds a grown tail writes the catch-up snapshot.
SIDECAR_PERSIST_MIN_BYTES = 65536


class ResultStore:
    """Append-only cross-sweep result index (see module doc).

    Lives under ``<cache_dir>/store/``; the index file is created
    lazily on first append, so opening a store for reading never
    mutates the cache directory tree beyond its own folder.  Opening
    is cheap — the sidecar (or, failing that, a full scan) is loaded
    lazily on the first read or append, not in ``__init__``.
    """

    def __init__(self, cache_dir: os.PathLike | str) -> None:
        self.root = Path(cache_dir) / "store"
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.jsonl"
        self.offsets_path = self.root / "index.offsets"
        self.generation_path = self.root / "generation"
        #: spec_hash → byte offset of its newest record (sidecar core).
        self._offsets: Optional[Dict[str, int]] = None
        #: label → set of spec hashes (dedup + accounting).
        self._keys: Dict[str, Set[str]] = {}
        #: Byte length of the complete-line prefix the sidecar covers.
        self._covers = 0
        #: Index generation the in-memory sidecar was built against.
        self._generation = 0
        self.appended = 0
        self.skipped = 0
        # sidecar observability (the serve tier surfaces these)
        self.sidecar_rebuilds = 0
        self.sidecar_tail_refreshes = 0
        self.sidecar_persists = 0

    # -- writing ------------------------------------------------------------
    def record(self, spec: ScenarioSpec, result: ScenarioResult,
               label: str, scenario: str) -> bool:
        """Append one result record (dedup'd on label × spec hash).

        Returns True when a record was actually appended.  This is the
        shape :attr:`~repro.scenarios.runner.ResultCache.on_put` hooks
        feed — fleet workers index each result as it lands.
        """
        return self.record_raw({
            "spec_hash": result.spec_hash,
            "name": spec.name,
            "label": label,
            "scenario": scenario,
            "result": result.to_dict(),
        })

    def record_raw(self, record: Dict[str, Any]) -> bool:
        """Append a pre-shaped record (the dispatcher's finalize
        sync); dedup'd.

        Dedup consults the sidecar refreshed to the index's current
        tail, so records landed by *other* processes since this store
        was opened are seen — two workers recording the same
        ``(label, spec_hash)`` can still both append in the window
        between refresh and write, which is why every reader
        deduplicates again (newest wins).
        """
        self._refresh_sidecar()
        label, spec_hash = record["label"], record["spec_hash"]
        if spec_hash in self._keys.get(label, ()):
            self.skipped += 1
            return False
        payload = dict(record)
        payload.setdefault("ts", time.time())
        line = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
        # one O_APPEND write per record: concurrent fleet workers each
        # land whole lines; interleaving between lines is fine, torn
        # lines (a crash mid-write) are skipped by readers
        fd = os.open(self.index_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        # note the key but not an offset: under concurrent appenders
        # our line's offset is unknowable here, so `_covers` stays put
        # and the next refresh folds the tail (our line included)
        self._keys.setdefault(label, set()).add(spec_hash)
        self.appended += 1
        return True

    # -- streaming scans ----------------------------------------------------
    def _scan(self, start: int = 0,
              end_box: Optional[List[int]] = None):
        """Yield ``(offset, record)`` for each complete, parseable
        line from byte ``start``.  ``end_box[0]`` (when given) tracks
        the byte length of the complete-line prefix consumed — a torn
        or in-progress trailing line is left for the next scan."""
        if end_box is not None:
            end_box[0] = start
        try:
            fh = open(self.index_path, "rb")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(start)
            offset = start
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn trailing line: a writer mid-write
                stripped = raw.strip()
                if stripped:
                    try:
                        record = json.loads(stripped)
                    except ValueError:
                        record = None  # torn interior line: skip it
                    if isinstance(record, dict) and "spec_hash" in record:
                        yield offset, record
                offset += len(raw)
                if end_box is not None:
                    end_box[0] = offset

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Every index record, in append order (torn lines skipped).

        A streaming pass — nothing is materialized, so iterating a
        millions-of-records index is O(1) in memory.
        """
        for _offset, record in self._scan():
            yield record

    # -- the offset sidecar -------------------------------------------------
    def _read_generation(self) -> int:
        try:
            payload = json.loads(self.generation_path.read_text())
            return int(payload["generation"])
        except (OSError, ValueError, TypeError, KeyError):
            return 0

    def _index_size(self) -> int:
        try:
            return os.stat(self.index_path).st_size
        except OSError:
            return 0

    def _fold(self, offset: int, record: Dict[str, Any]) -> None:
        self._offsets[record["spec_hash"]] = offset
        self._keys.setdefault(record["label"], set()) \
            .add(record["spec_hash"])

    def _rebuild_sidecar(self, generation: int) -> None:
        """Full scan → fresh sidecar (missing/torn/cross-generation)."""
        self._offsets = {}
        self._keys = {}
        end = [0]
        for offset, record in self._scan(end_box=end):
            self._fold(offset, record)
        self._covers = end[0]
        self._generation = generation
        self.sidecar_rebuilds += 1
        self._persist_sidecar()

    def _refresh_sidecar(self) -> None:
        """Bring the in-memory sidecar up to the index's current tail.

        Resolution order: a warm in-memory sidecar of the current
        generation only scans the grown tail; a cold instance adopts
        the on-disk sidecar when its generation matches and it covers
        no more than the index holds; anything else — missing, torn,
        older/newer generation, or covering bytes the (compacted)
        index no longer has — triggers a full rebuild.
        """
        generation = self._read_generation()
        size = self._index_size()
        if self._offsets is None:
            adopted = self._load_sidecar_file(generation, size)
            if not adopted:
                self._rebuild_sidecar(generation)
                return
        if generation != self._generation or size < self._covers:
            self._rebuild_sidecar(generation)
            return
        if size > self._covers:
            scanned_from = self._covers
            end = [self._covers]
            for offset, record in self._scan(self._covers, end_box=end):
                self._fold(offset, record)
            self._covers = end[0]
            self.sidecar_tail_refreshes += 1
            if self._covers - scanned_from >= SIDECAR_PERSIST_MIN_BYTES:
                self._persist_sidecar()

    def _load_sidecar_file(self, generation: int, size: int) -> bool:
        """Adopt ``index.offsets`` if it is sound; False otherwise."""
        try:
            payload = json.loads(self.offsets_path.read_text())
        except (OSError, ValueError):
            return False
        if not isinstance(payload, dict):
            return False
        try:
            covers = int(payload["covers"])
            file_generation = int(payload["generation"])
            offsets = {str(k): int(v)
                       for k, v in payload["offsets"].items()}
            keys = {str(label): set(map(str, hashes))
                    for label, hashes in payload["keys"].items()}
        except (KeyError, TypeError, ValueError, AttributeError):
            return False  # torn or foreign: rebuild from the index
        if file_generation != generation or covers > size or covers < 0:
            return False
        self._offsets = offsets
        self._keys = keys
        self._covers = covers
        self._generation = generation
        return True

    def _persist_sidecar(self) -> None:
        """Atomic snapshot of the in-memory sidecar (derived data:
        concurrent persisters are last-writer-wins, and every snapshot
        is valid for the covers it declares)."""
        atomic_write_text(self.offsets_path, json.dumps({
            "generation": self._generation,
            "covers": self._covers,
            "offsets": self._offsets,
            "keys": {label: sorted(hashes)
                     for label, hashes in self._keys.items()},
        }, sort_keys=True, separators=(",", ":")))
        self.sidecar_persists += 1

    def _read_record_at(self, offset: int) -> Optional[Dict[str, Any]]:
        try:
            with open(self.index_path, "rb") as fh:
                fh.seek(offset)
                raw = fh.readline()
        except OSError:
            return None
        if not raw.endswith(b"\n"):
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None

    # -- reading ------------------------------------------------------------
    def labels(self) -> Dict[str, int]:
        """Recorded sweep labels → number of indexed points.

        Deduplicated on ``(label, spec_hash)``: duplicate physical
        lines from concurrent writers count once, matching what
        :meth:`sweep_points` would actually return.
        """
        self._refresh_sidecar()
        return {label: len(hashes)
                for label, hashes in sorted(self._keys.items()) if hashes}

    def sweep_points(self, label: str) -> List[Dict[str, Any]]:
        """A label's points in manifest shape (``name`` + ``result``),
        ready for :class:`repro.analysis.compare.SweepData`.

        Deduplicated per spec hash (newest record wins, first-seen
        order kept): a reassignment race that indexed a point twice
        must not double-weight it in a comparison.  This is a
        streaming pass over the label's records — compaction is what
        keeps it proportional to live points rather than history.
        """
        by_hash: Dict[str, Dict[str, Any]] = {}
        for record in self.entries():
            if record["label"] != label:
                continue
            entry = {"name": record["name"],
                     "spec_hash": record["spec_hash"],
                     "result": record["result"]}
            if record["spec_hash"] in by_hash:
                by_hash[record["spec_hash"]].update(entry)
            else:
                by_hash[record["spec_hash"]] = entry
        return list(by_hash.values())

    def get_result(self, spec_hash: str) -> Optional[ScenarioResult]:
        """Newest indexed result for ``spec_hash``, or None.

        One sidecar probe + one seek + one line read — never a full
        scan on the hot path (the serve tier calls this per store-tier
        probe).  A record read back with the wrong hash means the
        index was compacted under our offsets; rebuild once and
        retry.

        Content-addressed trust: the hash covers the full spec payload
        (schema version included), so serving an indexed result is
        exactly as safe as serving a per-spec cache file.
        """
        self._refresh_sidecar()
        for _attempt in range(2):
            offset = self._offsets.get(spec_hash)
            if offset is None:
                return None
            record = self._read_record_at(offset)
            if record is not None and \
                    record.get("spec_hash") == spec_hash:
                return ScenarioResult.from_dict(record["result"])
            # stale offset (index swapped between refresh and seek):
            # rebuild against the current generation and retry once
            self._rebuild_sidecar(self._read_generation())
        return None

    def __len__(self) -> int:
        """Distinct ``(label, spec_hash)`` records (duplicate physical
        lines from concurrent writers count once)."""
        self._refresh_sidecar()
        return sum(len(hashes) for hashes in self._keys.values())

    def superseded_fraction(self) -> float:
        """Fraction of physical records shadowed by a newer record of
        the same ``(label, spec_hash)`` — what :meth:`compact` would
        drop, as a ratio.  The dispatcher's auto-compaction trigger
        compares this against its threshold at finalize; an empty
        store is 0.0 (nothing to reclaim)."""
        total = sum(1 for _ in self.entries())
        if total == 0:
            return 0.0
        return (total - len(self)) / total

    # -- compaction ---------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Rewrite the index keeping the newest record per
        ``(label, spec_hash)``; atomic swap + generation bump.

        Surviving records keep the **first-occurrence order** of their
        keys with the newest payload per key, so every read —
        ``get_result``, ``sweep_points``, ``labels``, ``len`` — returns
        byte-identical answers before and after (pinned by the tier-1
        suite).  The generation stamp is bumped *before* the swap:
        a reader refreshing in the window rebuilds from whichever file
        it sees instead of trusting offsets across the swap, and the
        wrong-hash retry in :meth:`get_result` covers the rest.

        Run while no fleet is appending: the final tail merge closes
        the window, but a record appended after it and before the
        ``os.replace`` would die with the old inode.
        """
        newest: Dict[Tuple[str, str], Dict[str, Any]] = {}
        records_before = 0
        covers = 0
        # first pass, then re-merge any tail that landed while we
        # scanned (bounds, not closes, the race — see the docstring)
        while True:
            end = [covers]
            for _offset, record in self._scan(covers, end_box=end):
                key = (record["label"], record["spec_hash"])
                if key in newest:
                    newest[key].update(record)  # newest payload, old slot
                else:
                    newest[key] = dict(record)
                records_before += 1
            covers = end[0]
            if self._index_size() <= covers:
                break
        lines = [json.dumps(record, sort_keys=True,
                            separators=(",", ":")) + "\n"
                 for record in newest.values()]
        generation = self._read_generation() + 1
        atomic_write_text(self.generation_path,
                          json.dumps({"generation": generation,
                                      "compacted_at": time.time()}))
        atomic_write_text(self.index_path, "".join(lines))
        stats = {
            "records_before": records_before,
            "records_after": len(lines),
            "dropped": records_before - len(lines),
            "bytes_after": self._index_size(),
            "generation": generation,
        }
        # our own sidecar is now stale by construction; rebuild it
        # (and persist) against the compacted file
        self._rebuild_sidecar(generation)
        return stats
