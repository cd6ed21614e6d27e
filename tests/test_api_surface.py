"""Pins the public ``repro.api`` surface.

Every name in ``api.__all__`` must resolve; removing or breaking a
re-export is a compatibility break and should fail here first.  v2
promoted job submission (``submit``/``JobHandle``/``JobStatus``/
``serve``) to the front door and demoted the v1 runner, cache and
run-key classes to warn-once compatibility re-exports; v4 removed those
three and the timed bench harness; v5 removed the runner knob and the
policy-spelling shim; v6 removed the in-process job client and
``trace_diff``; v8 removed the execution backends.
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
                "build_config", "enhancement_preset",
                "RunResult", "RunSummary", "EnhancementConfig",
                "StallCategory", "trace"}
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


# ----------------------------------------------------------------------
# v1.1 additions: frozen SimConfig, facade-only CLI
# ----------------------------------------------------------------------
def test_api_version_pinned():
    assert api.__api_version__ == "8.1"
    assert "__api_version__" in api.__all__


def test_v11_exports_present():
    assert {"figure_spec", "SimConfig"} <= set(api.__all__)


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


# SimConfig.replace, removed under the v2 major bump, is gone
# altogether (tests/test_params.py::test_retired_name_shims_are_gone).


def test_cli_routes_through_api_only():
    """The CLI is a shell over ``repro.api``: its module-level imports
    must not reach past the facade."""
    import repro.__main__ as cli
    tree = ast.parse(inspect.getsource(cli))
    allowed = {"repro", "repro.api", "argparse", "sys", "os",
               "__future__"}
    module_level = [node for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))]
    for node in module_level:
        if isinstance(node, ast.ImportFrom):
            assert node.module in allowed, node.module
        else:
            for alias in node.names:
                assert alias.name in allowed, alias.name


# ----------------------------------------------------------------------
# v1.2 additions: scenario DSL
# ----------------------------------------------------------------------
def test_v12_exports_present():
    assert {"run_scenario", "list_scenarios", "load_scenario",
            "validate_scenario", "ScenarioDoc", "ScenarioError",
            "ScenarioResult"} <= set(api.__all__)


# ----------------------------------------------------------------------
# v1.3 additions: execution backends (v8: one core; until 9.0
# ``backend=`` takes v1.3's two names and does nothing)
# ----------------------------------------------------------------------
def test_v13_exports_present(monkeypatch):
    """v1.3 exported ``BACKENDS == ("python", "numpy")``.  v8 drops the
    export; until 9.0 those two names, and no other, are what
    ``backend=`` accepts on ``run`` and ``build_config``."""
    monkeypatch.setattr(api, "_backend_warned", False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        for name in ("python", "numpy"):
            assert api.build_config(backend=name) == api.build_config()
    for name in ("", "Python", "vector", "fortran"):
        with pytest.raises(ValueError, match="unknown backend"):
            api.build_config(backend=name)
        with pytest.raises(ValueError, match="unknown backend"):
            api.run("tc", backend=name)


def test_build_config_accepts_backend_override(monkeypatch):
    """Until api 9.0, ``build_config(backend=...)`` is accepted as
    ``run``'s is: it warns once per process, rejects any other value
    and leaves the config as it was."""
    monkeypatch.setattr(api, "_backend_warned", False)
    with pytest.warns(DeprecationWarning, match=r"build_config\(backend="):
        cfg = api.build_config(backend="numpy")
    assert cfg == api.build_config()
    assert "backend" not in {f.name for f in dataclasses.fields(cfg)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = api.build_config(enhancements="full", backend="python")
    assert full == api.build_config(enhancements="full")
    with pytest.raises(ValueError, match="backend"):
        api.build_config(backend="fortran")


# ----------------------------------------------------------------------
# v2.0: job surface promoted, v1 internals demoted (docs/service.md)
# ----------------------------------------------------------------------
def test_v2_job_surface_present():
    assert {"serve", "JobStatus"} <= set(api.__all__)
    import repro.service
    assert api.JobStatus is repro.service.JobStatus
    assert callable(api.serve)


def test_v2_jobstatus_values():
    values = {s.value for s in api.JobStatus}
    assert values == {"pending", "running", "done", "failed",
                      "cancelled"}
    assert api.JobStatus.DONE.terminal
    assert not api.JobStatus.RUNNING.terminal


def test_v4_removed_names_raise_attribute_error():
    """v4 removed the warn-once v1 re-exports and the bench harness from
    the facade; ``repro.experiments.parallel`` keeps the three classes."""
    from repro.experiments import parallel
    for name in ("RunKey", "ParallelRunner", "ResultCache", "bench"):
        assert name not in api.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(api, name)
    for name in ("RunKey", "ResultCache"):
        assert isinstance(getattr(parallel, name), type)


def test_v5_removed_names_raise_attribute_error():
    """v5 removed the second scheduler's knob and the policy-spelling
    shim; ``run_many`` binds to the sweep service instead."""
    for name in ("configure_parallel", "canonical_policy"):
        assert name not in api.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(api, name)


def test_v6_removed_names_raise_attribute_error():
    """v6 removed the in-process job client and ``trace_diff``: no entry
    point used them.  ``serving()`` and the HTTP service remain, and
    ``repro trace diff`` attributes cycle deltas."""
    import repro.service
    for name in ("submit", "JobHandle", "configure_service",
                 "telemetry_snapshot", "trace_diff"):
        assert name not in api.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(api, name)
    for name in ("submit", "JobHandle", "configure_service",
                 "get_service", "telemetry_snapshot"):
        assert not hasattr(repro.service, name)


def test_v8_removed_names_raise_attribute_error():
    """v8 removed the execution backends (v1.3's ``BACKENDS``, v2.2's
    ``FallbackReason`` and ``SimConfig.backend``): every single-stream
    run takes the core's fast path wherever it is exact."""
    for name in ("BACKENDS", "FallbackReason"):
        assert name not in api.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(api, name)
    assert "backend" not in {f.name for f in
                             dataclasses.fields(api.SimConfig)}
    with pytest.raises(TypeError, match="backend"):
        api.default_config().with_(backend="numpy")


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
        await service.start()
        jobs = []
        for _ in range(2):
            job = await service.submit("run", benchmark="tc",
                                       instructions=2_000, warmup=500)
            await service.wait(job)
            jobs.append(job)
        await service.close()
        return jobs

    j1, j2 = asyncio.run(scenario())
    assert j1.status is api.JobStatus.DONE and j1.source == "run"
    assert j2.status is api.JobStatus.DONE and j2.source == "store"
    assert service.metrics.executed == 1
    assert service.metrics.store_hits == 1

    direct = api.run("tc", instructions=2_000, warmup=500)
    expected = api.RunSummary.from_run(direct, seed=1)
    assert j1.payload == expected.to_dict()
    assert j2.payload == expected.to_dict()


# ----------------------------------------------------------------------
# v2.2 additions: fast-path engagement (v8: one core, no backends)
# ----------------------------------------------------------------------
def test_v22_exports_present():
    assert "BatchStats" in api.__all__


def test_run_backend_keyword(monkeypatch):
    """Until api 9.0, ``backend=`` is accepted, warns once per process
    and changes nothing: not the config, not the results."""
    monkeypatch.setattr(api, "_backend_warned", False)
    cfg = api.build_config(enhancements="full")
    plain = api.run("tc", config=cfg, instructions=2_000, warmup=500)
    with pytest.warns(DeprecationWarning, match="backend"):
        python = api.run("tc", config=cfg, instructions=2_000,
                         warmup=500, backend="python")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        numpy = api.run("tc", config=cfg, instructions=2_000, warmup=500,
                        backend="numpy")
    for result in (python, numpy):
        assert result.summary() == plain.summary()
        assert result.batch == plain.batch
    assert isinstance(plain.batch, api.BatchStats)
    assert plain.batch.windows > 0 and plain.batch.fallbacks == {}


@pytest.mark.filterwarnings("ignore:run\\(backend=:DeprecationWarning")
def test_run_backend_layers_onto_config():
    """``backend=`` layered a backend onto ``config`` until api 8.0;
    now the config a run reports is the one it was given."""
    cfg = api.build_config(enhancements="full")
    result = api.run("tc", config=cfg, instructions=2_000, warmup=500,
                     backend="numpy")
    assert result.config is cfg
    assert result.config.enhancements.tempo


def test_run_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        api.run("tc", backend="fortran")


def test_submit_validates_backend():
    """A job that still names a backend is refused, and told why."""
    from repro.service.jobs import JobError, JobSpec
    for kind, params in (("run", {"benchmark": "tc"}),
                         ("sweep", {"runs": ["tc"]}),
                         ("scenario", {"scenario": "SYN-01-STLB-THRASH"})):
        with pytest.raises(JobError, match="removed in api 8.0"):
            JobSpec.make(kind, backend="numpy", **params)


def test_batchstats_is_stable_dataclass():
    stats = api.BatchStats(windows=1, instructions=1024, fast_hits=700,
                           fast_merges=10, scalar_excursions=300,
                           fallbacks={"huge_pages": 1})
    doc = stats.to_dict()
    assert doc == {"windows": 1, "instructions": 1024, "fast_hits": 700,
                   "fast_merges": 10, "scalar_excursions": 300,
                   "fallbacks": {"huge_pages": 1}}
    assert doc["fallbacks"] is not stats.fallbacks


