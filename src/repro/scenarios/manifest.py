"""Sweep-manifest serialization — the byte-identity substrate.

One canonical payload shape and one canonical serializer for both
writers of sweep manifests: the sweep CLI and the fleet dispatcher.
Fleet manifests must be *byte-identical* to the manifest a serial
sweep writes, so both producers flow through these helpers — a second
serializer would be a second chance to drift.

A manifest is ``{"label", "scenario", "points": [{"name",
"spec_hash", "result"}, ...]}`` in grid order, dumped with
``indent=1, sort_keys=True`` via the atomic-write primitive.
In-flight manifests add ``"partial": true``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Sequence

from .runner import ScenarioResult, atomic_write_text
from .spec import ScenarioSpec


def sweeps_dir(cache_dir: os.PathLike | str) -> Path:
    """Where a cache directory keeps its sweep manifests."""
    return Path(cache_dir) / "sweeps"


def manifest_payload(label: str, scenario: str,
                     points: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The canonical manifest dict (see module doc for the shape)."""
    return {"label": label, "scenario": scenario, "points": list(points)}


def point_entry(spec: ScenarioSpec,
                result: ScenarioResult) -> Dict[str, Any]:
    """One manifest point: name, spec hash, and the full result."""
    return {"name": spec.name, "spec_hash": result.spec_hash,
            "result": result.to_dict()}


def dump_manifest(payload: Dict[str, Any], path: Path) -> None:
    """Serialize ``payload`` to ``path`` (atomic, canonical bytes)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))
