"""Simulation drivers.

``run_benchmark`` simulates one benchmark: generate the trace, build
the hierarchy, run the core, return a :class:`RunResult` exposing the
metrics the paper reports.  ``run_mix`` does the same for several
streams on a 2-way SMT core or a multicore with a shared LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.ooo_core import CoreResult, OOOCore
from repro.core.rob import StallCategory
from repro.params import DEFAULT_SCALE, SimConfig, default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.registry import make_trace

#: Default ROI / warmup lengths for the reduced-scale runs.  The paper uses
#: 10B-instruction ROIs after 100M warmup; these are scaled to keep Python
#: runs in seconds while still exercising steady-state cache behaviour.
DEFAULT_INSTRUCTIONS = 120_000
DEFAULT_WARMUP = 20_000


@dataclass
class RunResult:
    """Everything the figures need from one simulation."""

    benchmark: str
    config: SimConfig = field(repr=False)
    core: CoreResult = field(repr=False)
    #: Run geometry (recorded for the observability manifest).
    seed: int = 1
    warmup: int = DEFAULT_WARMUP
    scale: int = DEFAULT_SCALE
    #: Attached only on observed runs (``sample_interval=...``).
    sampler: Optional[object] = field(repr=False, default=None)
    profiler: Optional[object] = field(repr=False, default=None)
    #: Attached only on traced runs (``trace_sample=...``).
    tracer: Optional[object] = field(repr=False, default=None)
    #: Every stream's :class:`CoreResult` of a mix (``core`` is stream
    #: 0's); empty for one benchmark.
    streams: List[CoreResult] = field(repr=False, default_factory=list)

    # -- headline metrics ------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.core.cycles

    @property
    def ipc(self) -> float:
        return self.core.ipc

    @property
    def instructions(self) -> int:
        return self.core.instructions

    @property
    def batch(self):
        """How the run took the core's fast path
        (:class:`repro.core.ooo_core.BatchStats`); a mix's is stream
        0's."""
        return self.core.batch

    def speedup_over(self, baseline: "RunResult") -> float:
        return baseline.cycles / self.cycles

    # -- memory-system metrics -------------------------------------------
    @property
    def hierarchy(self) -> MemoryHierarchy:
        return self.core.hierarchy

    @property
    def stlb_mpki(self) -> float:
        return self.hierarchy.mmu.stlb.mpki(self.instructions)

    def cache_mpki(self, level: str, category: str) -> float:
        cache = getattr(self.hierarchy, level)
        return cache.stats.mpki(category, self.instructions)

    def leaf_mpki(self, level: str) -> float:
        cache = getattr(self.hierarchy, level)
        return cache.stats.leaf_mpki(self.instructions)

    # -- stall metrics -----------------------------------------------------
    def stall_cycles(self, category: StallCategory) -> int:
        return self.core.stalls.total(category)

    def translation_replay_stalls(self) -> int:
        return self.core.stalls.translation_plus_replay()

    def summary(self) -> Dict[str, float]:
        return {
            "ipc": self.ipc,
            "cycles": self.cycles,
            "stlb_mpki": self.stlb_mpki,
            "l2c_replay_mpki": self.cache_mpki("l2c", "replay"),
            "l2c_non_replay_mpki": self.cache_mpki("l2c", "non_replay"),
            "l2c_ptl1_mpki": self.leaf_mpki("l2c"),
            "llc_replay_mpki": self.cache_mpki("llc", "replay"),
            "llc_non_replay_mpki": self.cache_mpki("llc", "non_replay"),
            "llc_ptl1_mpki": self.leaf_mpki("llc"),
            "stall_translation": self.stall_cycles(StallCategory.TRANSLATION),
            "stall_replay": self.stall_cycles(StallCategory.REPLAY),
            "stall_non_replay": self.stall_cycles(StallCategory.NON_REPLAY),
        }

    # -- observability ---------------------------------------------------
    @property
    def intervals(self) -> list:
        """Interval time-series (empty unless the run was observed)."""
        return self.sampler.intervals if self.sampler is not None else []

    def metrics_document(self) -> Dict:
        """The run's ``repro.obs/v2`` export (manifest + intervals +
        summary).  Valid for unobserved runs too -- the time-series is
        just empty."""
        from repro.obs.export import run_document
        from repro.obs.manifest import build_manifest
        manifest = build_manifest(
            self.benchmark, self.config, instructions=self.instructions,
            warmup=self.warmup, scale=self.scale, seed=self.seed,
            sample_interval=self.sampler.interval if self.sampler else None,
            hierarchy=self.hierarchy, result=self.core,
            profiler=self.profiler)
        return run_document(manifest, self.intervals, self.summary())

    def export_metrics(self, path) -> Dict:
        """Write the run's metrics export as JSON; returns the document."""
        from repro.obs.export import export_json, validate_strict
        doc = validate_strict(self.metrics_document())
        export_json(path, doc)
        return doc

    def trace_document(self) -> Dict:
        """The run's ``repro.obs/trace-v1`` export (manifest + spans).

        Only valid for traced runs (``trace_sample=...``)."""
        if self.tracer is None:
            raise ValueError(
                "run was not traced; pass trace_sample= to run_benchmark")
        from repro.obs.manifest import build_manifest
        from repro.obs.trace import trace_document
        manifest = build_manifest(
            self.benchmark, self.config, instructions=self.instructions,
            warmup=self.warmup, scale=self.scale, seed=self.seed,
            sample_interval=self.sampler.interval if self.sampler else None,
            hierarchy=self.hierarchy, result=self.core,
            profiler=self.profiler)
        return trace_document(manifest, self.tracer)

    def export_trace(self, path) -> Dict:
        """Write the run's span trace as JSON; returns the document."""
        from repro.obs.trace import export_trace
        return export_trace(path, self.trace_document())


def _phase(profiler, name: str):
    """``profiler.phase(name)`` or a no-op scope when unobserved."""
    if profiler is None:
        from contextlib import nullcontext
        return nullcontext()
    return profiler.phase(name)


def run_benchmark(name: str, config: Optional[SimConfig] = None,
                  instructions: int = DEFAULT_INSTRUCTIONS,
                  warmup: int = DEFAULT_WARMUP,
                  scale: int = DEFAULT_SCALE, seed: int = 1,
                  sample_interval: Optional[int] = None,
                  profiler=None,
                  trace_sample: Optional[int] = None,
                  progress=None) -> RunResult:
    """Simulate one benchmark under one configuration.

    ``sample_interval`` attaches an interval metrics sampler (see
    :mod:`repro.obs`): every N retired ROI instructions the hierarchy is
    snapshotted into ``result.intervals``.  ``profiler`` (a
    :class:`repro.obs.manifest.Profiler`) attributes wall-clock time to the
    trace/build/simulate phases.  ``trace_sample`` attaches a 1-in-N
    request span tracer (see :mod:`repro.obs.trace`); the trace covers
    the post-warmup ROI only.  ``progress`` (a
    :class:`repro.obs.forward.ProgressForwarder`) forwards a condensed row per
    interval to the sweep service -- purely observational; the sampler
    it implies runs at ``sample_interval`` when both are given, else at
    the forwarder's own interval.  All default to off.  The sampler
    runs at slice edges, so a sampled or forwarding run executes the
    same per-instruction code as a plain one.
    """
    cfg = config or default_config(scale)
    with _phase(profiler, "trace"):
        trace = make_trace(name, instructions + warmup, scale=scale,
                           seed=seed)
    with _phase(profiler, "build"):
        hierarchy = MemoryHierarchy(cfg)
        core = OOOCore(cfg, hierarchy)
    sampler = None
    if sample_interval is not None or progress is not None:
        from repro.obs.sampler import IntervalSampler
        sampler = IntervalSampler(
            hierarchy, sample_interval or progress.interval,
            forward=progress.on_interval if progress is not None else None)
        hierarchy.sampler = sampler
    tracer = None
    if trace_sample is not None:
        from repro.obs.trace import SpanTracer, attach
        # Disabled through warmup; the core enables it at the ROI
        # boundary (mirroring sampler.begin).
        tracer = SpanTracer(sample_every=trace_sample, enabled=False)
        attach(hierarchy, tracer)
    with _phase(profiler, "simulate"):
        result = core.run(trace, warmup=warmup)
    if hierarchy.checker is not None:
        # End-of-run exhaustive sweep (strict mode raises on violation).
        hierarchy.checker.final_check()
    return RunResult(benchmark=name, config=cfg, core=result, seed=seed,
                     warmup=warmup, scale=scale, sampler=sampler,
                     profiler=profiler, tracer=tracer)


def run_mix(threads: Optional[Sequence[str]] = None,
            cores: Optional[Sequence[str]] = None,
            config: Optional[SimConfig] = None,
            instructions: int = DEFAULT_INSTRUCTIONS,
            warmup: int = DEFAULT_WARMUP,
            scale: int = DEFAULT_SCALE, seed: int = 1) -> RunResult:
    """Simulate a mix: the two ``threads`` of a 2-way SMT core, or one of
    ``cores`` per core of a multicore sharing its LLC and DRAM.

    Stream ``i`` is traced with ``seed + i``.  The result's ``core`` is
    stream 0's and ``streams`` holds every stream's.  A checked run ends
    with ``final_check()`` on every hierarchy, as :func:`run_benchmark`
    does.
    """
    from repro.core.multicore import MultiCore
    from repro.core.smt import SMTCore
    cfg = config or default_config(scale)
    names = list(threads or cores)
    traces = [make_trace(name, instructions + warmup, scale=scale,
                         seed=seed + i)
              for i, name in enumerate(names)]
    if threads:
        hierarchies = [MemoryHierarchy(cfg)]
        results = SMTCore(cfg, hierarchies[0]).run(traces, warmup=warmup)
    else:
        machine = MultiCore(cfg, len(names))
        hierarchies = machine.hierarchies
        results = machine.run(traces, warmup=warmup)
    for hierarchy in hierarchies:
        if hierarchy.checker is not None:
            hierarchy.checker.final_check()
    return RunResult(benchmark="+".join(names), config=cfg,
                     core=results[0], seed=seed, warmup=warmup,
                     scale=scale, streams=results)
