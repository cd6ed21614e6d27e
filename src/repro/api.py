"""Stable public facade for the reproduction (v8).

Everything a caller needs lives here; the deep module paths
(``repro.experiments.runner``, ``repro.service.core``, ...) remain
importable but are implementation detail and may move between releases.

* :func:`serve` / :class:`JobStatus` -- the HTTP sweep service
  (``python -m repro serve``: ``POST /jobs``, ``GET /jobs/<id>/events``,
  ``GET /store/<digest>``; see ``docs/service.md``): runs, scenarios,
  sweeps, figures and traces submitted as deduplicated, memoised jobs;
* :func:`run` -- simulate one benchmark synchronously, optionally
  observed (``metrics=...``) and/or traced (``trace=...``);
* :func:`trace` -- request-level causal tracing: run and export (``repro
  trace diff`` attributes the cycle delta between two exports);
* :func:`figure` / :func:`list_figures` -- regenerate any registered
  figure/table by name (see :mod:`repro.experiments.registry`);
* :func:`run_scenario` / :func:`list_scenarios` / :func:`load_scenario`
  -- the ``repro.scenario/v1`` traffic-mix DSL (see ``docs/scenarios.md``);
* :func:`build_config` / :func:`enhancement_preset` -- config builders
  around the frozen :class:`SimConfig` (derive variants with
  ``cfg.with_(...)``);
* :class:`RunResult` / :class:`RunSummary` -- what runs return (live
  object vs. picklable snapshot).

Quickstart::

    from repro import api

    base = api.run("pr")
    enhanced = api.run("pr", enhancements="full")
    print(enhanced.speedup_over(base))

v2 demoted the v1 runner, cache and run-key classes to internals
behind a one-time ``DeprecationWarning``; v4 drops them from this
module along with the timed bench harness; v5 drops the runner knob
(the sweep service is the one executor) and the policy-spelling shim;
v6 drops the in-process job client (``submit``, ``JobHandle``,
``configure_service``, ``telemetry_snapshot``) and ``trace_diff``, which
no entry point used; v7 drops the ``other`` stall category, the
``sampler_tracer`` fallback reason (now ``tracer``) and the
``repro.obs/v1`` export; v8 drops the execution backends (their
names, ``SimConfig.backend`` and the enum of refusal reasons): every
single-stream run takes the core's fast path wherever it is exact, and
since 8.1 every SMT thread and multicore core too.
Simulator host time is measured by ``perfbench/`` and
``tools/perfbench_ab.py`` (see README "Migrating").

``tests/test_api_surface.py`` pins this module's exports; extend
``__all__`` deliberately, never remove from it within a major version.
"""

from __future__ import annotations

import importlib
import warnings
from typing import Dict, Optional, Tuple, Union

from repro.experiments.runner import (DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP,
                                      RunResult, run_benchmark)
from repro.params import (DEFAULT_SCALE, EnhancementConfig, SimConfig,
                          default_config, enhancement_preset)
from repro.workloads.registry import benchmark_names

#: Version of this facade.  Bumped on compatible additions (minor) and
#: on breaking changes (major); ``tests/test_api_surface.py`` pins it.
#: 2.1: telemetry plane (telemetry_snapshot, JobHandle.watch, /metrics).
#: 2.2: backend-aware surface (``backend=`` on run/bench/submit, the
#: ``BatchStats`` and refusal-reason exports, ``RunResult.batch``).
#: 3.0: ``BatchStats`` drops its two walk counters (and their keys in
#: ``RunSummary.batch`` payloads).
#: 4.0: the timed bench harness (``bench``, its result type and the
#: ``bench`` job kind) goes, and so do the warn-once v1 runner, cache
#: and run-key re-exports.
#: 5.0: the runner knob and the policy-spelling shim go; figure points
#: run through the sweep service.
#: 6.0: the in-process job client (``submit``, ``JobHandle``,
#: ``configure_service``, ``telemetry_snapshot``) and ``trace_diff`` go.
#: 6.1: ``RunSummary`` gains ``streams``, ``replay_loads`` and
#: ``replay_latency_total``; a ``run`` spec may name the ``threads`` of
#: an SMT pair or the ``cores`` of a multicore mix.
#: 7.0: ``StallCategory.OTHER`` goes; the ``sampler_tracer`` refusal
#: becomes ``tracer``; exports are ``repro.obs/v2``.
#: 8.0: the backend names, ``SimConfig.backend`` and the refusal-reason
#: enum go; ``run(backend=...)`` and ``build_config(backend=...)`` do
#: nothing but warn, once;
#: ``BatchStats`` drops its histogram of excursions per window.
#: 8.1: a mix's ``RunResult.batch`` is stream 0's ``BatchStats`` (it
#: was None): SMT threads and multicore cores take the fast path.
__api_version__ = "8.1"

__all__ = [
    # entry points
    "run", "figure", "figure_spec", "list_figures", "list_benchmarks",
    "trace",
    # jobs (the HTTP sweep service; see docs/service.md)
    "serve", "JobStatus",
    # scenarios (repro.scenario/v1; see docs/scenarios.md)
    "run_scenario", "list_scenarios", "load_scenario", "validate_scenario",
    "ScenarioDoc", "ScenarioError", "ScenarioResult",
    # results
    "RunResult", "RunSummary", "FigureResult",
    "StallCategory", "BatchStats",
    # config builders
    "build_config", "enhancement_preset", "default_config", "paper_config",
    "SimConfig", "CacheConfig", "TLBConfig",
    "EnhancementConfig", "IdealConfig",
    # constants
    "DEFAULT_INSTRUCTIONS", "DEFAULT_WARMUP", "DEFAULT_SCALE",
    "DEFAULT_SAMPLE_INTERVAL", "ENHANCEMENT_PRESET_NAMES",
    "Profiler", "__api_version__",
]

#: The defining module of every exported name this module does not bind
#: itself.  They resolve on first access (PEP 562), so importing the
#: facade loads the simulator but not the service, scenario or figure
#: stacks.
_EXPORTS = {name: module for module, names in (
    ("repro.service", ("serve", "JobStatus")),
    ("repro.scenarios", ("run_scenario", "list_scenarios", "load_scenario",
                         "validate_scenario", "ScenarioDoc",
                         "ScenarioError", "ScenarioResult")),
    ("repro.experiments.parallel", ("RunSummary",)),
    ("repro.experiments.figures", ("FigureResult",)),
    ("repro.core.rob", ("StallCategory",)),
    ("repro.core.ooo_core", ("BatchStats",)),
    ("repro.params", ("paper_config", "CacheConfig",
                      "TLBConfig", "IdealConfig",
                      "ENHANCEMENT_PRESET_NAMES")),
    ("repro.obs.sampler", ("DEFAULT_SAMPLE_INTERVAL",)),
    ("repro.obs.manifest", ("Profiler",)),
) for name in names}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def _resolve_enhancements(
        enhancements: Union[str, EnhancementConfig, None]
) -> Optional[EnhancementConfig]:
    if enhancements is None or isinstance(enhancements, EnhancementConfig):
        return enhancements
    return enhancement_preset(enhancements)


#: Whether ``run(backend=...)`` or ``build_config(backend=...)`` has
#: warned in this process.
_backend_warned = False


def _ignore_backend(backend: str, caller: str) -> None:
    """``backend=`` on ``run`` and ``build_config`` until api 9.0: the
    two old values are accepted, with one warning per process, and
    change nothing."""
    global _backend_warned
    if backend not in ("python", "numpy"):
        raise ValueError(f"unknown backend {backend!r}; known: "
                         "python numpy")
    if not _backend_warned:
        _backend_warned = True
        warnings.warn(
            f"{caller}(backend=...) does nothing since api 8.0 and goes "
            "in 9.0: every run takes the core's fast path where it is "
            "exact", DeprecationWarning, stacklevel=3)


def build_config(scale: int = DEFAULT_SCALE, *,
                 enhancements: Union[str, EnhancementConfig, None] = None,
                 backend: Optional[str] = None,
                 **overrides) -> SimConfig:
    """The scale-reduced default config with named tweaks applied.

    ``enhancements`` accepts a preset name or an
    :class:`EnhancementConfig`; every other keyword is a
    :class:`SimConfig` field (``l2c_prefetcher="spp"``,
    ``llc_inclusion="inclusive"``, ...).  Unknown fields raise.
    ``backend`` is accepted until api 9.0, as :func:`run` accepts it,
    and does nothing.
    """
    if backend is not None:
        _ignore_backend(backend, "build_config")
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

    The core takes its fast path (every access translated in the core)
    wherever that is exact; ``result.batch`` (:class:`BatchStats`)
    records how much of the run took it, or why it was refused (see
    ``docs/performance.md``).  ``backend`` is accepted until api 9.0
    and does nothing.

    Observability: ``sample_interval=N`` attaches the interval sampler
    (``result.intervals``); ``metrics=PATH`` additionally profiles the
    run and writes the schema-validated JSON export there, defaulting the
    interval to :data:`DEFAULT_SAMPLE_INTERVAL`; the sampler runs at
    slice edges and keeps the fast path on.  Tracing:
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
        _ignore_backend(backend, "run")
    profiler = None
    if metrics is not None:
        from repro.obs.manifest import Profiler
        from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL
        profiler = Profiler()
        if sample_interval is None:
            sample_interval = DEFAULT_SAMPLE_INTERVAL
    if trace is not None and trace_sample is None:
        trace_sample = 1
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


def figure(name: str, **kwargs) -> FigureResult:
    """Regenerate one registered figure/table (see :func:`list_figures`).

    Keyword arguments pass through to the harness
    (``instructions=...``, ``warmup=...``, and -- where supported --
    ``benchmarks=[...]``).
    """
    from repro.experiments import registry
    return registry.get(name)(**kwargs)


def figure_spec(name: str):
    """The registered spec for one figure/table: a callable harness with
    metadata attributes (``name``, ``title``, ``paper``,
    ``takes_benchmarks``).  ``name=None`` returns every spec in display
    order -- what ``python -m repro list`` renders."""
    from repro.experiments import registry
    if name is None:
        return registry.specs()
    return registry.get(name)


def list_figures() -> Tuple[str, ...]:
    """Every registered figure/table name, in display order."""
    from repro.experiments import registry
    return registry.names()


def list_benchmarks() -> Tuple[str, ...]:
    """Every synthetic workload name: Table II of the paper, then the
    control workloads (``compute``)."""
    return tuple(benchmark_names(include_controls=True))

