"""Stable public facade for the reproduction (v2).

Everything a caller needs lives here; the deep module paths
(``repro.experiments.runner``, ``repro.service.core``, ...) remain
importable but are implementation detail and may move between releases.
The v2 surface promotes *job submission* to the front door:

* :func:`submit` / :class:`JobHandle` / :class:`JobStatus` -- the async
  in-process client of the sweep service: runs, scenarios, sweeps,
  figures, benches and traces submitted as deduplicated, memoised jobs
  (``await api.submit("run", benchmark="pr")``; see ``docs/service.md``);
* :func:`serve` -- the HTTP sweep service (``python -m repro serve``:
  ``POST /jobs``, ``GET /jobs/<id>/events``, ``GET /store/<digest>``);
* :func:`run` -- simulate one benchmark synchronously, optionally
  observed (``metrics=...``) and/or traced (``trace=...``);
* :func:`trace` / :func:`trace_diff` -- request-level causal tracing:
  run-and-export, and cycle-delta attribution between two traced runs;
* :func:`figure` / :func:`list_figures` -- regenerate any registered
  figure/table by name (see :mod:`repro.experiments.registry`);
* :func:`bench` -- the pinned performance-benchmark matrix
  (``python -m repro bench``; see ``docs/performance.md``);
* :func:`run_scenario` / :func:`list_scenarios` / :func:`load_scenario`
  -- the ``repro.scenario/v1`` traffic-mix DSL (see ``docs/scenarios.md``);
* :func:`build_config` / :func:`enhancement_preset` -- config builders
  around the frozen :class:`SimConfig` (derive variants with
  ``cfg.with_(...)``);
* :class:`RunResult` / :class:`RunSummary` -- what runs return (live
  object vs. picklable snapshot);
* :func:`configure_parallel` -- fan figure batches out over worker
  processes with on-disk memoisation (the CLI ``--jobs`` path).

Quickstart::

    import asyncio
    from repro import api

    base = api.run("pr")
    enhanced = api.run("pr", enhancements="full")
    print(enhanced.speedup_over(base))

    async def sweep():
        handle = await api.submit("run", benchmark="pr",
                                  enhancements="full")
        await handle.wait()
        return handle.summary()
    print(asyncio.run(sweep()).ipc)

v1 -> v2: ``ParallelRunner`` / ``ResultCache`` / ``RunKey`` are demoted
to internals.  They remain importable from here for compatibility but
emit a one-time ``DeprecationWarning`` pointing at :func:`submit`; the
shims ``JourneyTracer`` and ``SimConfig.replace`` are removed outright
(see README "Migrating to api v2").

``tests/test_api_surface.py`` pins this module's exports; extend
``__all__`` deliberately, never remove from it within a major version.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.bench import (BenchCase, BenchResult, REGRESSION_THRESHOLD,
                         WORKLOAD_MATRIX)
from repro.bench import run_bench as _run_bench
from repro.core.fallback import BatchStats, FallbackReason
from repro.core.rob import StallCategory
from repro.experiments import registry
from repro.experiments.figures import FigureResult
from repro.experiments.parallel import RunSummary
from repro.experiments.parallel import configure as _configure_parallel
from repro.experiments.runner import (DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP,
                                      RunResult, run_benchmark)
from repro.obs import DEFAULT_SAMPLE_INTERVAL, Profiler
from repro.params import (BACKENDS, DEFAULT_SCALE,
                          ENHANCEMENT_PRESET_NAMES, CacheConfig,
                          EnhancementConfig, IdealConfig, SimConfig,
                          TLBConfig, _warn_once, canonical_policy,
                          default_config, enhancement_preset, paper_config)
from repro.scenarios import (ScenarioDoc, ScenarioError, ScenarioResult,
                             list_scenarios, load_scenario, run_scenario,
                             validate_scenario)
from repro.service import (JobHandle, JobStatus, configure_service, serve,
                           submit, telemetry_snapshot)
from repro.workloads.registry import benchmark_names

#: Version of this facade.  Bumped on compatible additions (minor) and
#: on breaking changes (major); ``tests/test_api_surface.py`` pins it.
#: 2.1: telemetry plane (telemetry_snapshot, JobHandle.watch, /metrics).
#: 2.2: backend-aware surface (``backend=`` on run/bench/submit,
#: ``BatchStats``/``FallbackReason`` exports, ``RunResult.batch``).
#: 3.0: ``BatchStats`` drops ``walk_cohort``/``precomputed_walks`` (and
#: their keys in ``RunSummary.batch`` payloads).
__api_version__ = "3.0"

__all__ = [
    # entry points
    "run", "figure", "figure_spec", "list_figures", "list_benchmarks",
    "configure_parallel", "trace", "trace_diff", "bench",
    # jobs (the v2 front door; see docs/service.md)
    "submit", "serve", "JobHandle", "JobStatus", "configure_service",
    "telemetry_snapshot",
    # scenarios (repro.scenario/v1; see docs/scenarios.md)
    "run_scenario", "list_scenarios", "load_scenario", "validate_scenario",
    "ScenarioDoc", "ScenarioError", "ScenarioResult",
    # results
    "RunResult", "RunSummary", "FigureResult",
    "StallCategory", "BenchResult", "BatchStats", "FallbackReason",
    # config builders
    "build_config", "enhancement_preset", "default_config", "paper_config",
    "canonical_policy", "SimConfig", "CacheConfig", "TLBConfig",
    "EnhancementConfig", "IdealConfig",
    # constants
    "DEFAULT_INSTRUCTIONS", "DEFAULT_WARMUP", "DEFAULT_SCALE",
    "DEFAULT_SAMPLE_INTERVAL", "ENHANCEMENT_PRESET_NAMES", "BACKENDS",
    "Profiler", "__api_version__",
    # v1 compatibility re-exports (deprecated; DeprecationWarning on
    # first access -- the job surface above replaces them)
    "RunKey", "ParallelRunner", "ResultCache",
]

#: Names demoted to internals in v2: still importable, but the first
#: access warns.  ``repro.params.reset_deprecation_warnings`` (and the
#: autouse fixture in ``tests/conftest.py``) resets the warn-once state.
_V1_INTERNALS = ("ParallelRunner", "ResultCache", "RunKey")


def __getattr__(name: str):
    if name in _V1_INTERNALS:
        import repro.experiments.parallel as _parallel
        _warn_once(f"api.{name}", "api.submit (repro.service)",
                   "api export")
        return getattr(_parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _resolve_enhancements(
        enhancements: Union[str, EnhancementConfig, None]
) -> Optional[EnhancementConfig]:
    if enhancements is None or isinstance(enhancements, EnhancementConfig):
        return enhancements
    return enhancement_preset(enhancements)


def _check_backend(backend: str) -> str:
    """Validate a ``backend=`` keyword against :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: "
                         f"{' '.join(BACKENDS)}")
    return backend


def build_config(scale: int = DEFAULT_SCALE, *,
                 enhancements: Union[str, EnhancementConfig, None] = None,
                 **overrides) -> SimConfig:
    """The scale-reduced default config with named tweaks applied.

    ``enhancements`` accepts a preset name or an
    :class:`EnhancementConfig`; every other keyword is a
    :class:`SimConfig` field (``l2c_prefetcher="spp"``,
    ``llc_inclusion="inclusive"``, ...).  Unknown fields raise.
    """
    cfg = default_config(scale)
    enh = _resolve_enhancements(enhancements)
    if enh is not None:
        cfg = cfg.with_(enhancements=enh)
    if overrides:
        cfg = cfg.with_(**overrides)
    return cfg


def run(benchmark: str, *,
        config: Optional[SimConfig] = None,
        enhancements: Union[str, EnhancementConfig, None] = None,
        backend: Optional[str] = None,
        instructions: int = DEFAULT_INSTRUCTIONS,
        warmup: int = DEFAULT_WARMUP,
        scale: int = DEFAULT_SCALE,
        seed: int = 1,
        metrics=None,
        sample_interval: Optional[int] = None,
        trace=None,
        trace_sample: Optional[int] = None) -> RunResult:
    """Simulate one benchmark; the facade over
    :func:`repro.experiments.runner.run_benchmark`.

    ``enhancements`` (a preset name or :class:`EnhancementConfig`) is a
    shortcut for building ``config``; passing both raises.

    ``backend`` selects the execution core (one of :data:`BACKENDS`):
    ``"python"`` is the scalar reference, ``"numpy"`` the windowed
    batch core -- bit-identical results, different wall clock (see
    ``docs/performance.md``).  It layers onto ``config`` when both are
    given (``config.with_(backend=...)``), so a shared base config can
    be run under either backend.  On a ``"numpy"`` run,
    ``result.batch`` carries the engine's :class:`BatchStats`
    (fast-path engagement and fallback accounting).

    Observability: ``sample_interval=N`` attaches the interval sampler
    (``result.intervals``); ``metrics=PATH`` additionally profiles the
    run and writes the schema-validated JSON export there, defaulting the
    interval to :data:`DEFAULT_SAMPLE_INTERVAL`.  Tracing:
    ``trace_sample=N`` attaches the 1-in-N request span tracer
    (``result.tracer``); ``trace=PATH`` writes the schema-validated
    ``repro.obs/trace-v1`` export there, defaulting the sampling to
    every request.  All off (the default) costs nothing.
    """
    enh = _resolve_enhancements(enhancements)
    if enh is not None:
        if config is not None:
            raise ValueError("pass either config= or enhancements=, "
                             "not both")
        config = build_config(scale, enhancements=enh)
    if backend is not None:
        _check_backend(backend)
        config = (config or default_config(scale)).with_(backend=backend)
    if metrics is not None and sample_interval is None:
        sample_interval = DEFAULT_SAMPLE_INTERVAL
    if trace is not None and trace_sample is None:
        trace_sample = 1
    profiler = Profiler() if metrics is not None else None
    result = run_benchmark(benchmark, config=config,
                           instructions=instructions, warmup=warmup,
                           scale=scale, seed=seed,
                           sample_interval=sample_interval,
                           profiler=profiler, trace_sample=trace_sample)
    if metrics is not None:
        result.export_metrics(metrics)
    if trace is not None:
        result.export_trace(trace)
    return result


def trace(benchmark: str, *, path=None, sample: int = 1,
          **run_kwargs) -> Dict:
    """Trace one run and return its validated ``repro.obs/trace-v1``
    document (written to ``path`` too, when given).

    Remaining keywords pass through to :func:`run`
    (``enhancements=...``, ``instructions=...``, ``seed=...``, ...).
    """
    from repro.obs.trace import validate_trace_strict
    result = run(benchmark, trace_sample=sample, **run_kwargs)
    doc = validate_trace_strict(result.trace_document())
    if path is not None:
        from repro.obs.trace import export_trace
        export_trace(path, doc)
    return doc


def trace_diff(baseline, enhanced, top: int = 10) -> Dict:
    """Attribute the cycle delta between two traced runs of the same
    workload (see :mod:`repro.obs.trace.diff`).

    ``baseline``/``enhanced`` are trace documents (dicts, e.g. from
    :func:`trace`) or paths to ``repro.obs/trace-v1`` exports.
    """
    from repro.obs.trace import load_trace
    from repro.obs.trace import trace_diff as _trace_diff
    if not isinstance(baseline, dict):
        baseline = load_trace(baseline)
    if not isinstance(enhanced, dict):
        enhanced = load_trace(enhanced)
    return _trace_diff(baseline, enhanced, top=top)


def figure(name: str, **kwargs) -> FigureResult:
    """Regenerate one registered figure/table (see :func:`list_figures`).

    Keyword arguments pass through to the harness
    (``instructions=...``, ``warmup=...``, and -- where supported --
    ``benchmarks=[...]``).
    """
    return registry.get(name)(**kwargs)


def figure_spec(name: str):
    """The registered spec for one figure/table: a callable harness with
    metadata attributes (``name``, ``title``, ``paper``,
    ``takes_benchmarks``).  ``name=None`` returns every spec in display
    order -- what ``python -m repro list`` renders."""
    if name is None:
        return registry.specs()
    return registry.get(name)


def bench(matrix=WORKLOAD_MATRIX, repeats: int = 1,
          out_dir=None, backend: Optional[str] = None) -> BenchResult:
    """Run the pinned performance-benchmark matrix (see
    :mod:`repro.bench` and ``docs/performance.md``).

    ``backend`` (one of :data:`BACKENDS`) restricts the matrix to one
    execution backend: every distinct workload configuration runs once,
    pinned to that backend.  The default runs the full matrix -- each
    entry under both backends -- which is what the regression gate
    expects.

    Returns a :class:`BenchResult` whose ``document`` is the
    schema-stable ``repro.bench/v1`` dict (written as
    ``BENCH_<date>.json`` when ``out_dir`` is given);
    ``result.compare(baseline)`` yields the regression verdict the CI
    gate uses.
    """
    if backend is not None:
        from dataclasses import replace
        _check_backend(backend)
        seen = set()
        pinned = []
        for case in matrix:
            case = replace(case, backend=backend)
            if case.key not in seen:
                seen.add(case.key)
                pinned.append(case)
        matrix = tuple(pinned)
    return _run_bench(matrix=matrix, repeats=repeats, out_dir=out_dir)


def list_figures() -> Tuple[str, ...]:
    """Every registered figure/table name, in display order."""
    return registry.names()


def list_benchmarks() -> Tuple[str, ...]:
    """Every synthetic workload name (Table II of the paper)."""
    return tuple(benchmark_names())


def configure_parallel(jobs: int = 1, use_cache: bool = False,
                       cache_dir=None, progress=None,
                       timeout: float = 600.0) -> ParallelRunner:
    """Install the ambient parallel runner the figure harnesses route
    through (the CLI's ``--jobs`` / ``--no-cache`` land here)."""
    return _configure_parallel(jobs=jobs, use_cache=use_cache,
                               cache_dir=cache_dir, progress=progress,
                               timeout=timeout)
