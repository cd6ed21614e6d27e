"""Pins the public ``repro.api`` surface.

Every name in ``api.__all__`` must resolve; removing or breaking a
re-export is a compatibility break and should fail here first.  v2
promoted job submission (``submit``/``JobHandle``/``JobStatus``/
``serve``) to the front door and demoted ``ParallelRunner``/
``ResultCache``/``RunKey`` to warn-once compatibility re-exports.
"""

import ast
import asyncio
import dataclasses
import inspect
import warnings

import pytest

from repro import api


def test_every_exported_name_resolves():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_all_is_sorted_sets_no_duplicates():
    assert len(api.__all__) == len(set(api.__all__))


def test_expected_entry_points_present():
    expected = {"run", "figure", "list_figures", "list_benchmarks",
                "build_config", "enhancement_preset", "configure_parallel",
                "RunResult", "RunSummary", "EnhancementConfig",
                "StallCategory", "trace", "trace_diff"}
    assert expected <= set(api.__all__)


def test_enhancement_presets():
    assert api.ENHANCEMENT_PRESET_NAMES == ("none", "t_drrip", "t_ship",
                                            "atp", "full")
    none = api.enhancement_preset("none")
    assert not any([none.t_drrip, none.t_ship, none.newsign, none.atp,
                    none.tempo])
    full = api.enhancement_preset("full")
    assert all([full.t_drrip, full.t_ship, full.newsign, full.atp,
                full.tempo])
    # Fresh object per call: mutating one must not leak into the next.
    full.tempo = False
    assert api.enhancement_preset("full").tempo is True


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown enhancement preset"):
        api.enhancement_preset("everything")


def test_build_config_applies_enhancements_and_overrides():
    cfg = api.build_config(enhancements="t_drrip",
                           llc_inclusion="inclusive")
    assert cfg.enhancements.t_drrip and not cfg.enhancements.t_ship
    assert cfg.llc_inclusion == "inclusive"
    with pytest.raises(TypeError):
        api.build_config(no_such_field=True)


def test_run_rejects_config_and_enhancements_together():
    with pytest.raises(ValueError, match="not both"):
        api.run("pr", config=api.build_config(), enhancements="full")


def test_list_figures_and_benchmarks():
    figures = api.list_figures()
    assert isinstance(figures, tuple)
    assert "fig14" in figures and "table2" in figures
    assert "pr" in api.list_benchmarks()


def test_figure_unknown_name():
    with pytest.raises(KeyError, match="unknown figure"):
        api.figure("fig99")


def test_run_returns_runresult():
    result = api.run("tc", instructions=2_000, warmup=500)
    assert isinstance(result, api.RunResult)
    assert result.ipc > 0
    assert result.sampler is None  # observability off by default
    assert result.tracer is None  # tracing off by default
    with pytest.raises(ValueError, match="not traced"):
        result.trace_document()


def test_api_trace_returns_valid_document():
    doc = api.trace("tc", instructions=2_000, warmup=500)
    assert doc["schema"] == "repro.obs/trace-v1"
    assert doc["spans"]


def test_api_trace_diff_accepts_documents():
    a = api.trace("tc", instructions=2_000, warmup=500)
    b = api.trace("tc", instructions=2_000, warmup=500,
                  enhancements="full")
    diff = api.trace_diff(a, b)
    assert set(diff["attribution"]) == {
        "walk_latency", "replay_release", "insertion_policy"}


# ----------------------------------------------------------------------
# v1.1 additions: bench, frozen SimConfig, facade-only CLI
# ----------------------------------------------------------------------
def test_api_version_pinned():
    assert api.__api_version__ == "3.0"
    assert "__api_version__" in api.__all__


def test_v11_exports_present():
    assert {"bench", "BenchResult", "figure_spec",
            "SimConfig"} <= set(api.__all__)


def test_figure_spec_metadata():
    spec = api.figure_spec("fig14")
    assert spec.name == "fig14" and callable(spec)
    names = [s.name for s in api.figure_spec(None)]
    assert names == list(api.list_figures())


def test_simconfig_is_frozen():
    cfg = api.build_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.llc_inclusion = "inclusive"


def test_simconfig_with_resolves_preset_names():
    cfg = api.build_config()
    full = cfg.with_(enhancements="full")
    assert full.enhancements.atp and full.enhancements.tempo
    assert not cfg.enhancements.atp  # original untouched
    with pytest.raises(ValueError, match="unknown enhancement preset"):
        cfg.with_(enhancements="everything")
    with pytest.raises(TypeError):
        cfg.with_(no_such_field=1)


# SimConfig.replace was removed under the v2 major bump; its removal
# (RuntimeError naming SimConfig.with_) is pinned in
# tests/test_removed_shims.py alongside the JourneyTracer retirement.


def test_cli_routes_through_api_only():
    """The CLI is a shell over ``repro.api``: its module-level imports
    must not reach past the facade (and ``repro.bench``, which owns its
    own subcommand)."""
    import repro.__main__ as cli
    tree = ast.parse(inspect.getsource(cli))
    allowed = {"repro", "repro.api", "repro.bench", "argparse", "sys",
               "os", "__future__"}
    module_level = [node for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))]
    for node in module_level:
        if isinstance(node, ast.ImportFrom):
            assert node.module in allowed, node.module
        else:
            for alias in node.names:
                assert alias.name in allowed, alias.name


def test_bench_runs_and_is_schema_stable(tmp_path):
    from repro.bench import BENCH_SCHEMA, BenchCase
    tiny = (BenchCase("tc", instructions=2_000, warmup=500),)
    result = api.bench(matrix=tiny, out_dir=tmp_path)
    doc = result.document
    assert doc["schema"] == BENCH_SCHEMA
    assert {"schema", "created_utc", "python", "platform", "repeats",
            "calibration_ops_per_sec", "configs",
            "aggregate"} <= set(doc)
    (entry,) = doc["configs"]
    assert {"benchmark", "enhancements", "scale", "instructions",
            "warmup", "wall_s", "accesses", "accesses_per_sec", "ipc",
            "cycles", "phases"} <= set(entry)
    assert entry["accesses"] > 0 and result.accesses_per_sec > 0
    assert result.path is not None and result.path.exists()
    assert result.path.name.startswith("BENCH_")


def test_bench_regression_verdict():
    from repro.bench import compare_to_baseline

    def doc(aps, cal, benchmarks=("tc",)):
        return {"aggregate": {"accesses_per_sec": aps},
                "calibration_ops_per_sec": cal,
                "configs": [{"benchmark": b} for b in benchmarks]}

    cal = 2_000_000.0  # plausible ops/sec for the calibration loop
    # Same machine speed: 10% drop passes, 20% drop fails at 15%.
    assert compare_to_baseline(doc(900, cal), doc(1000, cal))["ok"]
    assert not compare_to_baseline(doc(800, cal), doc(1000, cal))["ok"]
    # Half-speed machine: the baseline expectation scales down with it.
    verdict = compare_to_baseline(doc(500, cal / 2), doc(1000, cal))
    assert verdict["ok"] and verdict["machine_ratio"] == 0.5
    # A different matrix always fails: numbers aren't comparable.
    verdict = compare_to_baseline(doc(1000, cal),
                                  doc(1000, cal, benchmarks=("pr",)))
    assert not verdict["ok"] and verdict["matrix_mismatch"]


# ----------------------------------------------------------------------
# v1.2 additions: scenario DSL, calibration-gate guards
# ----------------------------------------------------------------------
def test_v12_exports_present():
    assert {"run_scenario", "list_scenarios", "load_scenario",
            "validate_scenario", "ScenarioDoc", "ScenarioError",
            "ScenarioResult"} <= set(api.__all__)


def test_bench_verdict_rejects_degenerate_calibration():
    from repro.bench import compare_to_baseline

    def doc(aps, cal, benchmarks=("tc",)):
        return {"aggregate": {"accesses_per_sec": aps},
                "calibration_ops_per_sec": cal,
                "configs": [{"benchmark": b} for b in benchmarks]}

    # Near-zero current calibration would scale the floor to ~0 and
    # wave every regression through: must fail loudly instead.
    with pytest.raises(ValueError, match="degenerate document"):
        compare_to_baseline(doc(1, 1e-9), doc(1000, 2e6))
    # Near-zero baseline calibration would inflate the floor and fail
    # every run regardless of the code under test.
    with pytest.raises(ValueError, match="degenerate baseline"):
        compare_to_baseline(doc(1000, 2e6), doc(1000, 0.0))
    # Non-positive recorded throughput makes the floor meaningless.
    with pytest.raises(ValueError, match="accesses_per_sec"):
        compare_to_baseline(doc(1000, 2e6), doc(0, 2e6))
    # Calibration-free documents still compare unscaled.
    assert compare_to_baseline(doc(1000, None), doc(1000, None))["ok"]


# ----------------------------------------------------------------------
# v1.3 additions: execution backends (scalar reference vs vectorized)
# ----------------------------------------------------------------------
def test_v13_exports_present():
    assert "BACKENDS" in api.__all__
    assert api.BACKENDS == ("python", "numpy")


def test_build_config_accepts_backend_override():
    cfg = api.build_config(backend="numpy")
    assert cfg.backend == "numpy"
    with pytest.raises(ValueError, match="backend"):
        api.build_config(backend="fortran")


def test_bench_entries_record_backend(tmp_path):
    from repro.bench import BenchCase
    tiny = (BenchCase("tc", instructions=2_000, warmup=500),
            BenchCase("tc", instructions=2_000, warmup=500,
                      backend="numpy"))
    result = api.bench(matrix=tiny, out_dir=tmp_path)
    doc = result.document
    assert [e["backend"] for e in doc["configs"]] == ["python", "numpy"]
    by_backend = doc["aggregate"]["by_backend"]
    assert set(by_backend) == {"python", "numpy"}
    assert all(e["accesses_per_sec"] > 0 for e in by_backend.values())
    # Same trace, same simulated work under both backends.
    assert doc["configs"][0]["accesses"] == doc["configs"][1]["accesses"]
    assert doc["configs"][0]["cycles"] == doc["configs"][1]["cycles"]


def test_bench_verdict_gates_each_backend():
    from repro.bench import compare_to_baseline

    def doc(aps, by_backend):
        return {"aggregate": {"accesses_per_sec": aps,
                              "by_backend": by_backend},
                "calibration_ops_per_sec": None,
                "configs": [{"benchmark": "tc"}]}

    def bb(python, numpy):
        return {"python": {"accesses_per_sec": python},
                "numpy": {"accesses_per_sec": numpy}}

    base = doc(1000, bb(1000, 1000))
    assert compare_to_baseline(doc(1000, bb(1000, 1000)), base)["ok"]
    # A numpy-only collapse fails even when the aggregate still clears.
    verdict = compare_to_baseline(doc(950, bb(1100, 700)), base)
    assert not verdict["ok"]
    assert verdict["backends"]["numpy"]["ok"] is False
    assert verdict["backends"]["python"]["ok"] is True
    # Pre-backend baselines (no by_backend) gate on the aggregate only.
    legacy = {"aggregate": {"accesses_per_sec": 1000},
              "calibration_ops_per_sec": None,
              "configs": [{"benchmark": "tc"}]}
    verdict = compare_to_baseline(doc(950, bb(1100, 700)), legacy)
    assert verdict["ok"] and verdict["backends"] == {}


def test_calibrate_guards_sub_resolution_timer(monkeypatch):
    import repro.bench as bench_mod

    # A perf_counter frozen in time models a sub-resolution delta: the
    # old code divided by zero / returned inf; now it retries with a
    # bigger loop and ultimately refuses.
    monkeypatch.setattr(bench_mod.time, "perf_counter", lambda: 1.0)
    with pytest.raises(RuntimeError, match="calibration unmeasurable"):
        bench_mod.calibrate(iterations=1)


def test_calibrate_returns_credible_score():
    from repro.bench import MIN_CREDIBLE_CALIBRATION, calibrate
    score = calibrate(iterations=50_000)
    assert score >= MIN_CREDIBLE_CALIBRATION


# ----------------------------------------------------------------------
# v2.0: job surface promoted, v1 internals demoted (docs/service.md)
# ----------------------------------------------------------------------
def test_v2_job_surface_present():
    assert {"submit", "serve", "JobHandle", "JobStatus",
            "configure_service"} <= set(api.__all__)
    import repro.service
    assert api.JobHandle is repro.service.JobHandle
    assert api.JobStatus is repro.service.JobStatus
    assert asyncio.iscoroutinefunction(api.submit)
    assert callable(api.serve)


def test_v2_jobstatus_values():
    values = {s.value for s in api.JobStatus}
    assert values == {"pending", "running", "done", "failed",
                      "cancelled"}
    assert api.JobStatus.DONE.terminal
    assert not api.JobStatus.RUNNING.terminal


def test_v1_internals_still_importable_with_one_warning():
    """``api.RunKey``/``ParallelRunner``/``ResultCache`` keep working in
    v2 but direct callers to the job surface, once per name."""
    from repro.experiments import parallel
    for name in ("RunKey", "ParallelRunner", "ResultCache"):
        assert name in api.__all__
        with pytest.warns(DeprecationWarning, match="api.submit"):
            obj = getattr(api, name)
        assert obj is getattr(parallel, name)
        # Second access is silent (warn-once).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert getattr(api, name) is obj


def test_unknown_api_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        api.no_such_name


def test_submit_roundtrip_matches_direct_run(tmp_path):
    """Acceptance: a job-submitted run's RunSummary is bit-identical to
    the direct api.run summary on the same config/seed, and an
    identical resubmission is served from the store without executing."""
    from repro.service import JobStore, SweepService

    service = SweepService(store=JobStore(root=tmp_path), workers=0)

    async def scenario():
        h1 = await api.submit("run", benchmark="tc",
                              instructions=2_000, warmup=500,
                              service=service)
        await h1.wait()
        h2 = await api.submit("run", benchmark="tc",
                              instructions=2_000, warmup=500,
                              service=service)
        await h2.wait()
        await service.close()
        return h1, h2

    h1, h2 = asyncio.run(scenario())
    assert h1.status is api.JobStatus.DONE and h1.source == "run"
    assert h2.status is api.JobStatus.DONE and h2.source == "store"
    assert service.metrics.executed == 1
    assert service.metrics.store_hits == 1

    direct = api.run("tc", instructions=2_000, warmup=500)
    expected = api.RunSummary.from_run(direct, seed=1)
    assert h1.summary().to_dict() == expected.to_dict()
    assert h2.summary().to_dict() == expected.to_dict()


# ----------------------------------------------------------------------
# v2.2 additions: backend-aware surface
# ----------------------------------------------------------------------
def test_v22_exports_present():
    assert {"BatchStats", "FallbackReason", "BACKENDS"} <= set(api.__all__)


def test_run_backend_keyword():
    scalar = api.run("tc", instructions=2_000, warmup=500)
    vector = api.run("tc", instructions=2_000, warmup=500,
                     backend="numpy")
    # Bit-identical results; the batch record only on the numpy run.
    assert vector.summary() == scalar.summary()
    assert scalar.batch is None
    assert isinstance(vector.batch, api.BatchStats)
    assert vector.batch.windows > 0 and not vector.batch.fell_back
    assert vector.config.backend == "numpy"


def test_run_backend_layers_onto_config():
    cfg = api.build_config(enhancements="full")
    result = api.run("tc", config=cfg, instructions=2_000, warmup=500,
                     backend="numpy")
    assert result.config.backend == "numpy"
    assert result.config.enhancements.tempo


def test_run_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        api.run("tc", backend="fortran")


def test_bench_backend_pins_matrix():
    from repro.bench import BenchCase
    tiny = (BenchCase("tc", instructions=2_000, warmup=500),
            BenchCase("tc", instructions=2_000, warmup=500,
                      backend="numpy"))
    result = api.bench(matrix=tiny, backend="numpy")
    entries = result.document["configs"]
    # Both input rows collapse to the one numpy-pinned configuration.
    assert len(entries) == 1
    assert entries[0]["backend"] == "numpy"
    assert "batch" in entries[0]
    with pytest.raises(ValueError, match="unknown backend"):
        api.bench(matrix=tiny, backend="fortran")


def test_submit_validates_backend():
    from repro.service.jobs import JobError, JobSpec
    spec = JobSpec.make("run", benchmark="tc", backend="numpy")
    assert spec.param("backend") == "numpy"
    assert spec.run_key().config.backend == "numpy"
    with pytest.raises(JobError, match="unknown backend"):
        JobSpec.make("run", benchmark="tc", backend="fortran")
    with pytest.raises(JobError, match="unknown backend"):
        JobSpec.make("sweep", runs=["tc"], backend="fortran")


def test_batchstats_is_stable_dataclass():
    stats = api.BatchStats()
    assert not stats.fell_back and stats.excursion_fraction == 0.0
    stats.record_window(1024, fast_hits=700, fast_merges=10,
                        scalar_excursions=300)
    stats.record_fallback(api.FallbackReason.HUGE_PAGES)
    doc = stats.to_dict()
    assert {"windows", "instructions", "fast_hits", "fast_merges",
            "scalar_excursions", "fallbacks", "cohort_buckets",
            "cohort_sizes"} == set(doc)
    assert doc["fallbacks"] == {"huge_pages": 1}
    assert sum(doc["cohort_sizes"]) == 1


def test_vector_parity_gate():
    from repro.bench import vector_parity

    def entry(benchmark, backend, sim, batch=...):
        if batch is ...:
            batch = {"windows": 100, "fallbacks": {}}
        return {"benchmark": benchmark, "backend": backend,
                "wall_s": sim + 0.01, "phases": {"simulate": sim},
                "batch": batch}

    def doc(*configs):
        return {"configs": list(configs)}

    # Engaged and at parity: passes.
    verdict = vector_parity(doc(entry("pr", "python", 1.0),
                                entry("pr", "numpy", 1.0)))
    assert verdict["ok"] and verdict["workloads"]["pr"]["speedup"] == 1.0
    # 10% slower is inside the 15% noise tolerance; 50% slower is not.
    assert vector_parity(doc(entry("pr", "python", 1.0),
                             entry("pr", "numpy", 1.1)))["ok"]
    verdict = vector_parity(doc(entry("pr", "python", 1.0),
                                entry("pr", "numpy", 1.5)))
    assert not verdict["ok"]
    assert verdict["workloads"]["pr"]["speedup"] < \
        verdict["workloads"]["pr"]["floor"]
    # A fast run that fell back to the scalar core must not pass: the
    # speed floor alone would wave a disengaged backend through.
    fallback = {"windows": 0, "fallbacks": {"sampler_tracer": 1}}
    verdict = vector_parity(doc(entry("pr", "python", 1.0),
                                entry("pr", "numpy", 0.5,
                                      batch=fallback)))
    assert not verdict["ok"]
    assert verdict["workloads"]["pr"]["fallback_rate"] == 1.0
    # A scalar entry masquerading as numpy (no batch record) fails too.
    assert not vector_parity(doc(entry("pr", "python", 1.0),
                                 entry("pr", "numpy", 0.5,
                                       batch=None)))["ok"]
    # Pre-backend documents (no numpy entry) skip the gate.
    verdict = vector_parity(doc(entry("pr", "python", 1.0)))
    assert verdict["ok"] and verdict["workloads"] == {}


def test_compare_to_baseline_folds_in_vector_parity():
    from repro.bench import compare_to_baseline

    def doc(numpy_sim):
        configs = [
            {"benchmark": "pr", "backend": "python", "wall_s": 1.01,
             "phases": {"simulate": 1.0}},
            {"benchmark": "pr", "backend": "numpy",
             "wall_s": numpy_sim + 0.01,
             "phases": {"simulate": numpy_sim},
             "batch": {"windows": 100, "fallbacks": {}}},
        ]
        return {"aggregate": {"accesses_per_sec": 1000.0},
                "calibration_ops_per_sec": None, "configs": configs}

    base = doc(1.0)
    assert compare_to_baseline(doc(1.0), base)["ok"]
    # Aggregate throughput is unchanged, but the numpy entry collapsed
    # to 2x the scalar simulate wall: the folded-in vector gate fails.
    verdict = compare_to_baseline(doc(2.0), base)
    assert not verdict["ok"]
    assert not verdict["vector"]["ok"]
