"""Tests for the scenario engine: specs, registry, runner, cache, CLI.

The sweep-runner tests use tiny heat-app predict scenarios so a full
parallel/serial/cache matrix stays cheap — the engine is the subject
here, not the workload.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import (
    SCENARIOS,
    ResultCache,
    ScenarioResult,
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.cli import main
from repro.scenarios.runner import clear_memo
from repro.scenarios.spec import (
    ChurnEventSpec,
    PlatformPlan,
    ProtocolPlan,
    WorkloadPlan,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    """A fast predict scenario (small heat instance, 4-host cluster)."""
    defaults = dict(
        name="tiny",
        kind="predict",
        platform=PlatformPlan(kind="cluster", n_hosts=4),
        workload=WorkloadPlan(app="heat", n=64, nit=30, level="O1"),
        n_peers=2,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


#: A cheap all-deploy grid: no workload calibration, each point only
#: builds and settles a small overlay (~tens of ms).
DEPLOY_ARGS = [
    "--set", "platform.n_hosts=32", "--set", "n_peers=4,6,8",
    "--set", "n_zones=1,2", "--set", "seed=2011,2013",
]


def _sweep(cache: Path, *extra: str) -> int:
    return main(["sweep", "large-overlay-512", "--serial", "--label", "g",
                 "--cache-dir", str(cache)] + DEPLOY_ARGS + list(extra))


def _manifest(cache: Path, name: str = "g.json") -> Path:
    return cache / "sweeps" / name


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts with an empty in-process memo."""
    clear_memo()
    yield
    clear_memo()


class TestSpec:
    def test_hash_is_stable_across_processes(self):
        """The hash is content-derived: a hard-coded value pins it so
        accidental hash-scheme changes (which would orphan every
        on-disk cache) are caught.  If this fails because you bumped
        SCHEMA_VERSION or repro.__version__, updating the constant is
        the deliberate acknowledgment that existing caches invalidate.
        """
        spec = ScenarioSpec(name="x")
        assert spec.spec_hash() == "5c8dd843d1a1a33f"
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_name_excluded_from_hash(self):
        a = tiny_spec(name="a")
        b = tiny_spec(name="completely-different")
        assert a.spec_hash() == b.spec_hash()

    def test_any_field_change_changes_hash(self):
        from repro.scenarios.spec import (
            ChurnProfile,
            RecoveryPlan,
            TcpPlan,
            TimerPlan,
        )

        base = tiny_spec()
        variants = [
            tiny_spec(n_peers=4),
            tiny_spec(seed=1),
            tiny_spec(workload=WorkloadPlan(app="heat", n=64, nit=31,
                                            level="O1")),
            tiny_spec(platform=PlatformPlan(kind="cluster", n_hosts=5)),
            tiny_spec(protocol=ProtocolPlan(cmax=8)),
            tiny_spec(churn=(ChurnEventSpec(1.0, "server-down"),)),
            tiny_spec(host_policy="spread"),
            tiny_spec(tcp=TcpPlan(window=65536.0)),
            tiny_spec(timers=TimerPlan(peer_expiry=90.0)),
            tiny_spec(churn_profile=ChurnProfile(rate=0.5)),
            tiny_spec(churn_profile=ChurnProfile(rate=0.5, rejoin_rate=1.0)),
            tiny_spec(churn_profile=ChurnProfile(tracker_churn_rate=0.1)),
            tiny_spec(churn_profile=ChurnProfile(
                coordinator_churn_rate=0.4)),
            tiny_spec(churn_profile=ChurnProfile(rejoin_rate=1.0),
                      recovery=RecoveryPlan(election=True)),
            tiny_spec(selection_policy="failure_aware"),
            tiny_spec(time_limit=100.0),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_round_trip_through_dict(self):
        spec = tiny_spec(
            churn=(ChurnEventSpec(2.0, "tracker", "tracker-0"),),
            protocol=ProtocolPlan(scheme="async", grouping="random"),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(name="x", kind="dream")
        with pytest.raises(ValueError, match="app"):
            WorkloadPlan(app="tetris")
        with pytest.raises(ValueError, match="speed_min"):
            PlatformPlan(speed_min=1.0, speed_max=0.5)

    def test_with_override_dotted(self):
        spec = tiny_spec()
        assert spec.with_override("workload.level", "O3").workload.level == "O3"
        assert spec.with_override("n_peers", 8).n_peers == 8
        with pytest.raises(KeyError):
            spec.with_override("workload.flavour", 1)
        with pytest.raises(KeyError):
            spec.with_override("nonsense", 1)


class TestRegistry:
    def test_at_least_ten_named_scenarios(self):
        assert len(SCENARIOS) >= 10

    def test_every_entry_expands_and_hashes(self):
        for name in scenario_names():
            entry = get_scenario(name)
            points = entry.points()
            assert len(points) == entry.n_points >= 1
            hashes = {p.spec_hash() for p in points}
            assert len(hashes) == len(points), f"{name}: duplicate points"

    def test_covers_all_kinds_and_both_apps(self):
        kinds = {e.base.kind for e in SCENARIOS.values()}
        assert kinds == {"reference", "predict", "deploy"}
        apps = {e.base.workload.app for e in SCENARIOS.values()}
        assert apps == {"obstacle", "heat"}

    def test_unknown_name_helpful_error(self):
        with pytest.raises(KeyError, match="fig9-cluster-o0"):
            get_scenario("nope")

    def test_experiment_specs_share_registry_cache_keys(self):
        """The stage runners and the registry draw from one spec space:
        the same (platform, workload, peers) point must hash to the
        same cache entry wherever it is built."""
        from repro.experiments import heterogeneous, stage1, stage2

        fig10 = SCENARIOS["fig10-cluster-o3"].points()
        assert (stage1.prediction_spec(2, "O3").spec_hash()
                == fig10[0].spec_hash())
        fig11_xdsl = SCENARIOS["fig11-xdsl-o0"].points()
        assert (stage2.prediction_spec("xdsl", 4, "O0").spec_hash()
                == fig11_xdsl[1].spec_hash())
        hetero = SCENARIOS["hetero-fastest"].points()
        assert (heterogeneous.prediction_spec(8, "O0", "fastest").spec_hash()
                == hetero[2].spec_hash())


class TestExpandGrid:
    def test_cartesian_product_and_names(self):
        base = tiny_spec(name="base")
        specs = expand_grid(
            base, {"n_peers": (2, 4), "workload.level": ("O0", "O1")}
        )
        assert len(specs) == 4
        assert specs[0].name == "base[n_peers=2,workload.level=O0]"
        assert {(s.n_peers, s.workload.level) for s in specs} == {
            (2, "O0"), (2, "O1"), (4, "O0"), (4, "O1"),
        }

    def test_empty_grid_is_base(self):
        base = tiny_spec()
        assert expand_grid(base, {}) == [base]


class TestRunnerAndCache:
    def grid_specs(self, n_levels=3):
        return expand_grid(
            tiny_spec(), {"n_peers": (2, 4), "workload.level":
                          ("O0", "O1", "O2", "O3")[:n_levels]}
        )

    def test_cache_hit_miss_accounting(self, tmp_path):
        specs = self.grid_specs(2)  # 4 points
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(specs, parallel=False)
        assert (runner.hits, runner.misses) == (0, 4)
        assert len(runner.cache) == 4

        # same process, fresh runner: memo serves everything
        second = SweepRunner(cache_dir=tmp_path)
        second.run(specs, parallel=False)
        assert (second.hits, second.misses) == (4, 0)

        # cold process simulated: memo cleared, disk serves everything
        clear_memo()
        third = SweepRunner(cache_dir=tmp_path)
        third.run(specs, parallel=False)
        assert (third.hits, third.misses) == (4, 0)
        assert third.cache_ratio == 1.0

    def test_cached_result_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        fresh = run_scenario(spec).canonical_json()
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run([spec], parallel=False)
        clear_memo()
        from_disk = SweepRunner(cache_dir=tmp_path).run(
            [spec], parallel=False
        )[0]
        assert from_disk.canonical_json() == fresh

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        (tmp_path / f"{spec.spec_hash()}.json").write_text("{not json")
        assert cache.get(spec) is None

    def test_duplicate_specs_computed_once(self, tmp_path):
        spec = tiny_spec()
        runner = SweepRunner(cache_dir=tmp_path)
        results = runner.run([spec, spec, spec], parallel=False)
        assert len(results) == 3
        assert runner.misses == 1  # one computation serves all slots
        assert results[0].canonical_json() == results[2].canonical_json()

    def test_parallel_equals_serial(self, tmp_path):
        """The acceptance contract: a parallel sweep returns exactly
        the serial results, point for point."""
        specs = self.grid_specs(3)  # 6 points
        serial = [run_scenario(s) for s in specs]

        clear_memo()
        runner = SweepRunner(cache_dir=tmp_path / "par", max_workers=4)
        parallel = runner.run(specs, parallel=True)
        assert runner.misses == len(specs)

        assert [r.canonical_json() for r in parallel] == [
            r.canonical_json() for r in serial
        ]

    def test_second_sweep_served_from_disk(self, tmp_path):
        """≥90% of a repeated 12-point sweep comes from the cache (here:
        all of it)."""
        specs = expand_grid(
            tiny_spec(),
            {"n_peers": (2, 4), "workload.level": ("O0", "O1", "O2"),
             "workload.nit": (30, 40)},
        )
        assert len(specs) == 12
        first = SweepRunner(cache_dir=tmp_path, max_workers=4)
        first.run(specs)
        clear_memo()
        again = SweepRunner(cache_dir=tmp_path, max_workers=4)
        again.run(specs)
        assert again.cache_ratio >= 0.9
        assert again.misses == 0


class TestScenarioExecution:
    def test_deploy_scenario_reports_overlay_metrics(self):
        spec = ScenarioSpec(
            name="deploy-tiny", kind="deploy",
            platform=PlatformPlan(kind="cluster", n_hosts=8), n_peers=8,
            n_zones=2,
        )
        result = run_scenario(spec)
        assert result.ok
        assert result.metrics["n_peers"] == 8
        assert result.metrics["control_messages"] > 0

    def test_oversubscribed_fails_gracefully(self):
        result = run_scenario(SCENARIOS["oversubscribed-allocation"].base)
        assert not result.ok
        assert "collected only" in result.reason

    def test_churn_under_load_completes(self):
        result = run_scenario(SCENARIOS["churn-under-load"].base)
        assert result.ok, result.reason
        assert result.t > 2.0  # churn events at 0.5/1.0/2.0 land mid-run

    def test_random_grouping_slower_than_proximity(self):
        prox = run_scenario(SCENARIOS["heterogeneous-multisite"].base)
        rand = run_scenario(SCENARIOS["random-grouping"].base)
        assert prox.ok and rand.ok
        assert rand.metrics["makespan"] > prox.metrics["makespan"]


class TestCli:
    def test_list_names_every_scenario(self, capsys):
        from repro.scenarios.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_show_dumps_spec_json(self, capsys):
        from repro.scenarios.cli import main

        assert main(["show", "fig10-cluster-o3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["base"]["kind"] == "predict"
        assert len(payload["points"]) == 5

    def test_sweep_runs_grid_with_cache(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        argv = [
            "sweep", "xdsl-daisy-chain",
            "--set", "n_peers=2",
            "--set", "workload.n=64", "--set", "workload.nit=30",
            "--cache-dir", str(tmp_path), "--serial",
        ]
        assert main(argv) == 0
        assert "1 executed" in capsys.readouterr().out
        clear_memo()
        assert main(argv) == 0
        assert "1 from cache" in capsys.readouterr().out

    def test_sweep_then_compare_round_trip(self, tmp_path, capsys):
        """Two CLI sweeps, one compare: the documented churn workflow."""
        from repro.scenarios.cli import main

        common = [
            "sweep", "xdsl-daisy-chain",
            "--set", "workload.n=64", "--set", "workload.nit=30",
            "--cache-dir", str(tmp_path), "--serial",
        ]
        assert main(common + ["--set", "n_peers=2",
                              "--label", "two"]) == 0
        assert main(common + ["--set", "n_peers=2,4",
                              "--label", "scale"]) == 0
        capsys.readouterr()
        assert main(["compare", "two", "scale",
                     "--cache-dir", str(tmp_path)]) == 0
        report = capsys.readouterr().out
        assert "`two` vs `scale`" in report
        assert "n_peers=2" in report and "n_peers=4" in report

        out = tmp_path / "diff.json"
        assert main(["compare", "two", "scale", "--format", "json",
                     "--out", str(out),
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(out.read_text())
        assert "n_peers" in payload["shared_axes"]
        assert len(payload["rows"]) == 2

    def test_compare_unknown_label_is_usage_error(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        assert main(["compare", "nope", "also-nope",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "no sweep manifest" in capsys.readouterr().err

    def test_bad_label_rejected_before_running(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        assert main(["run", "flat-allocation", "--cache-dir",
                     str(tmp_path), "--label", "a/b"]) == 2
        assert "--label" in capsys.readouterr().err

    def test_label_with_no_cache_rejected(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        assert main(["run", "flat-allocation", "--no-cache",
                     "--label", "x"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_compare_label_not_shadowed_by_cwd_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """A stray same-named file in the cwd must not shadow a
        recorded sweep, and a non-manifest path is a clean error."""
        from repro.scenarios.cli import main

        argv = [
            "sweep", "xdsl-daisy-chain",
            "--set", "n_peers=2", "--set", "workload.n=64",
            "--set", "workload.nit=30",
            "--cache-dir", str(tmp_path), "--serial", "--label", "lbl",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        (workdir / "lbl").write_text("not json")
        monkeypatch.chdir(workdir)
        assert main(["compare", "lbl", "lbl",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "`lbl` vs `lbl`" in capsys.readouterr().out
        assert main(["compare", str(workdir / "lbl"), "lbl",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "not a sweep manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "large-overlay-512", "--shard", "0/2"],
        ["merge-shards", "g"],
    ])
    def test_static_sharding_is_gone(self, argv, capsys):
        """A grid splits across processes through the fleet only."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    def test_labelless_manifest_is_usage_error(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        bad = tmp_path / "foo.json"
        bad.write_text('{"points": []}')
        assert main(["compare", str(bad), str(bad),
                     "--cache-dir", str(tmp_path)]) == 2
        assert "not a sweep manifest" in capsys.readouterr().err


class TestIncrementalManifests:
    def test_compare_rejects_partial_manifest(self, tmp_path, capsys):
        """A killed sweep leaves `"partial": true` at the label path;
        compare must refuse it rather than report over a fragment."""
        clear_memo()
        cache = tmp_path / "c"
        assert _sweep(cache) == 0
        path = _manifest(cache)
        payload = json.loads(path.read_text())
        payload["partial"] = True
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        assert main(["compare", "g", "g", "--cache-dir", str(cache)]) == 2
        assert "partial manifest" in capsys.readouterr().err

    def test_incremental_manifest_marks_progress(self, tmp_path):
        """During a sweep the manifest on disk is a partial record of
        what finished; the final write clears the marker.  (A killed
        sweep therefore leaves both the partial manifest and the
        worker-written cache entries behind — the resume path.)"""
        clear_memo()
        cache = tmp_path / "c"
        stages = []
        from repro.scenarios import cli as cli_mod

        original = cli_mod._dump_manifest

        def spy(payload, path):
            stages.append((payload.get("partial", False),
                           len(payload["points"])))
            original(payload, path)

        cli_mod._dump_manifest = spy
        try:
            assert _sweep(cache) == 0
        finally:
            cli_mod._dump_manifest = original
        assert stages[-1] == (False, 12)  # final manifest: complete
        partials = [n for partial, n in stages if partial]
        assert partials == sorted(partials)  # grows monotonically
        assert len(partials) == 12  # one incremental write per point
        final = json.loads(_manifest(cache).read_text())
        assert "partial" not in final

    def test_manifest_holds_the_grid_and_nothing_else(self, tmp_path):
        """The final manifest is one file per label: label, scenario
        and one name/hash/result entry per point, in grid order."""
        from repro.params import parse_grid_sets

        cache = tmp_path / "c"
        assert _sweep(cache) == 0
        assert [p.name for p in (cache / "sweeps").iterdir()] == ["g.json"]
        payload = json.loads(_manifest(cache).read_text())
        assert set(payload) == {"label", "scenario", "points"}
        assert payload["label"] == "g"
        assert payload["scenario"] == "large-overlay-512"
        specs = expand_grid(get_scenario("large-overlay-512").base,
                            parse_grid_sets(DEPLOY_ARGS[1::2]))
        assert [p["spec_hash"] for p in payload["points"]] \
            == [s.spec_hash() for s in specs]
        assert all(set(p) == {"name", "spec_hash", "result"}
                   for p in payload["points"])

    def test_label_defaults_to_the_scenario_name(self, tmp_path, capsys):
        cache = tmp_path / "c"
        assert main(["sweep", "large-overlay-512", "--serial",
                     "--cache-dir", str(cache)] + DEPLOY_ARGS) == 0
        path = _manifest(cache, "large-overlay-512.json")
        assert f"# sweep manifest: {path}" in capsys.readouterr().out
        assert json.loads(path.read_text())["label"] == "large-overlay-512"
        assert main(["compare", "large-overlay-512", "large-overlay-512",
                     "--cache-dir", str(cache)]) == 0
