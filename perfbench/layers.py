"""The simulator's layer boundaries, their class-level span wrappers and
the per-layer metric table.

Each boundary names one public function of a ``repro`` module and the
span it is timed under.  :func:`resolve` checks every path before
anything is wrapped, so a rename fails loudly instead of silently
dropping a layer.  Wrappers go on the defining class (or module), never
on instances: ``BatchCore`` refuses instance-patched hot methods with
reason ``instance_patch`` and would trace the scalar core instead, and
ATP/TEMPO bind their callbacks at ``attach()``, so everything must be
installed before a hierarchy is built.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Sequence, Tuple

from spans import SpanRecorder, traced

def cache_level(cache) -> str:
    """Span name of one ``Cache.access`` call: ``cache.<level>``."""
    return "cache." + cache.name.lower()


#: (span, module, attribute path, collapse).  ``Cache.access`` recurses
#: level to level and through same-level prefetches, so it never
#: collapses; every other layer counts entries into it.
SIM_BOUNDARIES: Tuple[Tuple, ...] = (
    ("workloads.trace", "repro.workloads.synthetic",
     "SyntheticWorkload.generate", True),
    ("uncore.build", "repro.uncore.hierarchy", "MemoryHierarchy.__init__",
     True),
    ("uncore.load", "repro.uncore.hierarchy", "MemoryHierarchy.load", True),
    ("uncore.store", "repro.uncore.hierarchy", "MemoryHierarchy.store",
     True),
    ("core.run", "repro.core.ooo_core", "OOOCore.run", True),
    ("core.run", "repro.core.batch_engine", "BatchCore.run", True),
    ("vm.translate", "repro.vm.mmu", "MMU.translate", True),
    ("vm.tlb", "repro.vm.tlb", "TLB.lookup", True),
    ("vm.tlb", "repro.vm.tlb", "TLB.fill", True),
    ("vm.walk", "repro.vm.walker", "PageTableWalker.walk", True),
    ("vm.page_table", "repro.vm.page_table", "PageTable.walk_entries", True),
    ("vm.psc", "repro.vm.psc", "PagingStructureCaches.lookup", True),
    ("vm.psc", "repro.vm.psc", "PagingStructureCaches.fill", True),
    (cache_level, "repro.cache.cache", "Cache.access", False),
    ("memsys.mshr", "repro.memsys.mshr", "MSHR.admission_delay", True),
    ("memsys.mshr", "repro.memsys.mshr", "MSHR.allocate", True),
    ("memsys.mshr", "repro.memsys.mshr", "MSHR.allocate_prefetch", True),
    ("memsys.mshr", "repro.memsys.mshr", "MSHR.occupancy", True),
    ("memsys.dram", "repro.memsys.dram", "DRAM.access", True),
    ("memsys.request", "repro.memsys.request", "acquire", True),
    ("memsys.request", "repro.memsys.request", "release", True),
    ("prefetch.atp", "repro.prefetch.atp", "ATPPrefetcher.on_l2c_hit", True),
    ("prefetch.atp", "repro.prefetch.atp", "ATPPrefetcher.on_llc_hit", True),
    ("prefetch.tempo", "repro.prefetch.tempo",
     "TEMPOPrefetcher.on_dram_leaf_translation", True),
    ("stats.recall", "repro.stats.recall", "RecallPair.on_access", True),
    ("stats.recall", "repro.stats.recall", "RecallTracker.on_evict", True),
    ("obs.sampler", "repro.obs.sampler", "IntervalSampler.on_retire", True),
)

#: The service-side calls, the only ones wrapped on ``sweep_mix``: the
#: simulations run in pool workers, which the parent cannot trace.
SERVICE_BOUNDARIES: Tuple[Tuple, ...] = (
    ("service.submit", "repro.service.core", "SweepService.submit_spec",
     True),
    ("experiments.store.get", "repro.experiments.parallel",
     "ResultCache.get_raw", True),
    ("experiments.store.put", "repro.experiments.parallel",
     "ResultCache.put_raw", True),
)

#: Every concrete ``ReplacementPolicy`` definition of these is wrapped.
POLICY_METHODS = ("victim", "on_hit", "on_fill", "on_evict")


class LayerPathError(RuntimeError):
    """A layer boundary no longer resolves to a function."""


def _policy_targets() -> List[Tuple]:
    """``(owner, attribute, span, collapse)`` for every replacement policy
    class that defines one of :data:`POLICY_METHODS` itself."""
    import repro.cache.replacement  # noqa: F401  (registers every policy)
    from repro.cache.replacement.base import ReplacementPolicy
    classes, todo = [], [ReplacementPolicy]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    targets, seen = [], set()
    for cls in classes:
        for attr in POLICY_METHODS:
            fn = vars(cls).get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            targets.append((cls, attr, "cache.policy", True))
            seen.add(attr)
    missing = [m for m in POLICY_METHODS if m not in seen]
    if missing:
        raise LayerPathError(
            f"no replacement policy defines {', '.join(missing)}")
    return targets


def resolve(boundaries: Sequence[Tuple], policies: bool
            ) -> List[Tuple]:
    """``(owner, attribute, span, collapse)`` for every boundary.

    Raises :class:`LayerPathError` naming every path that no longer
    resolves to a function defined on its owner.
    """
    targets, missing = [], []
    for span, module, path, collapse in boundaries:
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(module)
        except ImportError:
            missing.append(f"{module}.{path}")
            continue
        for part in owners:
            owner = getattr(owner, part, None)
        fn = vars(owner).get(attr) if owner is not None else None
        if not callable(fn):
            missing.append(f"{module}.{path}")
            continue
        targets.append((owner, attr, span, collapse))
    if missing:
        raise LayerPathError("layer boundaries do not resolve: "
                             + ", ".join(missing))
    if policies:
        targets.extend(_policy_targets())
    return targets


class Tracing:
    """Context manager: wraps every target at class (or module) level
    and restores the originals on exit."""

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Tuple]):
        self.recorder = recorder
        self.targets = targets
        self._saved: List[Tuple] = []

    def __enter__(self) -> "Tracing":
        for owner, attr, span, collapse in self.targets:
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, traced(fn, self.recorder, span, collapse))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


# ----------------------------------------------------------------------
# Per-layer metric table
# ----------------------------------------------------------------------
#: (name, unit, better, what it should move).  Span metrics are per
#: traced unit (one simulation; one burst round on sweep_mix); "(sim)"
#: values are simulated counts, the mean over the run's distinct seeds.
#: A layer that does not run, or is not traced, on a workload reads 0.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("workloads.trace.calls", "count", "lower",
     "setup_s on all; sim_kips on hit_stream"),
    ("workloads.trace.self_s", "s", "lower",
     "setup_s on all; sim_kips on hit_stream"),
    ("uncore.build.self_s", "s", "lower", "setup_s on all"),
    ("uncore.load.calls", "count", "lower",
     "sim_kips on hit_stream and walk_storm"),
    ("uncore.store.calls", "count", "lower",
     "sim_kips on hit_stream and walk_storm"),
    ("uncore.access.self_s", "s", "lower",
     "sim_kips on hit_stream and walk_storm"),
    ("core.run.self_s", "s", "lower",
     "sim_kips on hit_stream; <=5% of walk_storm"),
    ("core.cycles", "cycles", "lower", "(sim) none: a simulated count"),
    ("core.ipc", "instr/cycle", "higher", "(sim) none: a simulated count"),
    ("core.stall.translation", "cycles", "lower", "(sim) none"),
    ("core.stall.replay", "cycles", "lower", "(sim) none"),
    ("core.stall.non_replay", "cycles", "lower", "(sim) none"),
    ("core.batch.fast_hit_share", "ratio", "higher", "sim_kips on hit_stream"),
    ("core.batch.fallbacks", "count", "lower", "sim_kips on hit_stream"),
    ("vm.translate.calls", "count", "lower", "sim_kips on walk_storm"),
    ("vm.translate.self_s", "s", "lower",
     "sim_kips on walk_storm; no change on hit_stream"),
    ("vm.tlb.self_s", "s", "lower",
     "sim_kips on walk_storm; no change on hit_stream"),
    ("vm.walk.calls", "count", "lower", "sim_kips on walk_storm"),
    ("vm.walk.self_s", "s", "lower",
     "sim_kips on walk_storm; no change on hit_stream"),
    ("vm.page_table.self_s", "s", "lower",
     "sim_kips on walk_storm; no change on hit_stream"),
    ("vm.psc.self_s", "s", "lower",
     "sim_kips on walk_storm; no change on hit_stream"),
    ("vm.dtlb.hit_ratio", "ratio", "higher", "sim_kips on walk_storm"),
    ("vm.stlb.hit_ratio", "ratio", "higher", "sim_kips on walk_storm"),
    ("vm.psc.hit_ratio", "ratio", "higher", "sim_kips on walk_storm"),
    ("vm.walk_cycles", "cycles", "lower", "(sim) none"),
    ("cache.l1d.calls", "count", "lower",
     "sim_kips on walk_storm and hit_stream"),
    ("cache.l1d.self_s", "s", "lower",
     "sim_kips on walk_storm and hit_stream"),
    ("cache.l1d.hit_ratio", "ratio", "higher",
     "sim_kips on walk_storm and hit_stream"),
    ("cache.l2c.calls", "count", "lower", "sim_kips on walk_storm"),
    ("cache.l2c.self_s", "s", "lower", "sim_kips on walk_storm"),
    ("cache.l2c.hit_ratio", "ratio", "higher", "sim_kips on walk_storm"),
    ("cache.llc.calls", "count", "lower", "sim_kips on walk_storm"),
    ("cache.llc.self_s", "s", "lower", "sim_kips on walk_storm"),
    ("cache.llc.hit_ratio", "ratio", "higher", "sim_kips on walk_storm"),
    ("cache.policy.calls", "count", "lower", "sim_kips on walk_storm"),
    ("cache.policy.self_s", "s", "lower", "sim_kips on walk_storm"),
    ("cache.l2c.replay_mpki", "per_kinstr", "lower", "(sim) none"),
    ("cache.llc.replay_mpki", "per_kinstr", "lower", "(sim) none"),
    ("cache.llc.leaf_mpki", "per_kinstr", "lower", "(sim) none"),
    ("memsys.mshr.calls", "count", "lower", "sim_kips on walk_storm"),
    ("memsys.mshr.self_s", "s", "lower", "sim_kips on walk_storm"),
    ("memsys.dram.calls", "count", "lower", "sim_kips on walk_storm"),
    ("memsys.dram.self_s", "s", "lower", "sim_kips on walk_storm"),
    ("memsys.dram.row_hit_ratio", "ratio", "higher", "sim_kips on walk_storm"),
    ("memsys.request.self_s", "s", "lower", "sim_kips on walk_storm"),
    ("memsys.mshr.merges", "count", "higher", "(sim) none"),
    ("memsys.mshr.admission_stall_cycles", "cycles", "lower", "(sim) none"),
    ("prefetch.atp.calls", "count", "lower", "sim_kips on walk_storm only"),
    ("prefetch.atp.self_s", "s", "lower", "sim_kips on walk_storm only"),
    ("prefetch.tempo.calls", "count", "lower", "sim_kips on walk_storm only"),
    ("prefetch.tempo.self_s", "s", "lower", "sim_kips on walk_storm only"),
    ("prefetch.useful_ratio", "ratio", "higher",
     "sim_kips on walk_storm only"),
    ("stats.recall.calls", "count", "lower", "sim_kips on walk_storm"),
    ("stats.recall.self_s", "s", "lower", "sim_kips on walk_storm"),
    ("obs.sampler.calls", "count", "lower", "sim_kips on sweep_mix"),
    ("obs.sampler.self_s", "s", "lower", "sim_kips on sweep_mix"),
    ("obs.observed_slowdown", "ratio", "lower", "sim_kips on sweep_mix"),
    ("obs.progress_rows", "count", "lower", "sim_kips on sweep_mix"),
    ("experiments.store.put.calls", "count", "lower", "sim_kips on sweep_mix"),
    ("experiments.store.put.self_s", "s", "lower", "sim_kips on sweep_mix"),
    ("experiments.store.get.calls", "count", "lower",
     "service.warm_hit_ms on sweep_mix"),
    ("experiments.store.get.self_s", "s", "lower",
     "service.warm_hit_ms on sweep_mix"),
    ("service.job_wait_s.p50", "s", "lower",
     "sim_kips and setup_s on sweep_mix"),
    ("service.job_run_s.p50", "s", "lower",
     "sim_kips and setup_s on sweep_mix"),
    ("service.executed", "count", "lower", "sim_kips on sweep_mix"),
    ("service.store_hits", "count", "higher",
     "service.warm_hit_ms on sweep_mix"),
    ("service.dedup_hits", "count", "higher", "sim_kips on sweep_mix"),
    ("service.requeues", "count", "lower", "sim_kips on sweep_mix"),
    ("service.failed", "count", "lower", "sim_kips on sweep_mix"),
    ("service.warm_hit_ratio", "ratio", "higher",
     "service.warm_hit_ms on sweep_mix"),
    ("service.warm_hit_ms", "ms", "lower",
     "none: warm-store latency, unbounded (see README)"),
    ("trace.overhead", "ratio", "lower", "none: traced / untraced wall"),
)

#: Span metrics: metric prefix -> the span names it sums.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "workloads.trace": ("workloads.trace",),
    "uncore.build": ("uncore.build",),
    "uncore.load": ("uncore.load",),
    "uncore.store": ("uncore.store",),
    "uncore.access": ("uncore.load", "uncore.store"),
    "core.run": ("core.run",),
    "vm.translate": ("vm.translate",),
    "vm.tlb": ("vm.tlb",),
    "vm.walk": ("vm.walk",),
    "vm.page_table": ("vm.page_table",),
    "vm.psc": ("vm.psc",),
    "cache.l1d": ("cache.l1d",),
    "cache.l2c": ("cache.l2c",),
    "cache.llc": ("cache.llc",),
    "cache.policy": ("cache.policy",),
    "memsys.mshr": ("memsys.mshr",),
    "memsys.dram": ("memsys.dram",),
    "memsys.request": ("memsys.request",),
    "prefetch.atp": ("prefetch.atp",),
    "prefetch.tempo": ("prefetch.tempo",),
    "stats.recall": ("stats.recall",),
    "obs.sampler": ("obs.sampler",),
    "experiments.store.put": ("experiments.store.put",),
    "experiments.store.get": ("experiments.store.get",),
}


def span_metrics(calls: Dict[str, int], self_s: Dict[str, float],
                 units: int) -> Dict[str, float]:
    """``<prefix>.calls`` and ``<prefix>.self_s`` per traced unit for
    every :data:`SPAN_METRICS` prefix named in :data:`PER_LAYER`."""
    wanted = {name for name, *_ in PER_LAYER}
    out: Dict[str, float] = {}
    for prefix, names in SPAN_METRICS.items():
        for suffix, table in (("calls", calls), ("self_s", self_s)):
            metric = f"{prefix}.{suffix}"
            if metric in wanted:
                out[metric] = sum(table.get(n, 0) for n in names) / units
    return out


def sim_counts(result) -> Dict[str, float]:
    """The raw simulated counts the per-layer ratios are pooled from."""
    from repro.core.rob import StallCategory
    h = result.hierarchy
    mmu = h.mmu
    counts = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "stall.translation": result.stall_cycles(StallCategory.TRANSLATION),
        "stall.replay": result.stall_cycles(StallCategory.REPLAY),
        "stall.non_replay": result.stall_cycles(StallCategory.NON_REPLAY),
        "dtlb.hits": mmu.dtlb.hits, "dtlb.accesses": mmu.dtlb.accesses,
        "stlb.hits": mmu.stlb.hits, "stlb.accesses": mmu.stlb.accesses,
        "psc.lookups": mmu.psc.lookups, "psc.misses": mmu.psc.misses,
        "walk_cycles": mmu.walk_cycles_total,
        "l2c.replay_mpki": result.cache_mpki("l2c", "replay"),
        "llc.replay_mpki": result.cache_mpki("llc", "replay"),
        "llc.leaf_mpki": result.leaf_mpki("llc"),
        "dram.row_hits": h.dram.row_hits, "dram.accesses": h.dram.accesses,
        "mshr.merges": 0, "mshr.admission_stall_cycles": 0,
        "prefetch.useful": 0, "prefetch.fills": 0,
    }
    for level in ("l1d", "l2c", "llc"):
        cache = getattr(h, level)
        counts[f"{level}.hits"] = sum(cache.stats.hits.values())
        counts[f"{level}.accesses"] = sum(cache.stats.accesses.values())
        counts["mshr.merges"] += cache.mshr.merges
        counts["mshr.admission_stall_cycles"] += \
            cache.mshr.admission_stall_cycles
        if level != "l1d":
            counts["prefetch.useful"] += cache.stats.prefetch_useful
            counts["prefetch.fills"] += cache.stats.prefetch_fills
    batch = result.batch
    counts["batch.fast_hits"] = batch.fast_hits if batch else 0
    counts["batch.excursions"] = batch.scalar_excursions if batch else 0
    counts["batch.fallbacks"] = sum(batch.fallbacks.values()) if batch else 0
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_metrics(per_seed: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer (sim) values and ratios from one :func:`sim_counts` per
    distinct seed: means of the counts, ratios pooled over the seeds."""
    n = len(per_seed)
    total: Dict[str, float] = {}
    for counts in per_seed:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    mean = {key: value / n for key, value in total.items()}
    return {
        "core.cycles": mean["cycles"],
        "core.ipc": _ratio(total["instructions"], total["cycles"]),
        "core.stall.translation": mean["stall.translation"],
        "core.stall.replay": mean["stall.replay"],
        "core.stall.non_replay": mean["stall.non_replay"],
        "core.batch.fast_hit_share": _ratio(
            total["batch.fast_hits"],
            total["batch.fast_hits"] + total["batch.excursions"]),
        "vm.dtlb.hit_ratio": _ratio(total["dtlb.hits"],
                                    total["dtlb.accesses"]),
        "vm.stlb.hit_ratio": _ratio(total["stlb.hits"],
                                    total["stlb.accesses"]),
        "vm.psc.hit_ratio": _ratio(total["psc.lookups"] - total["psc.misses"],
                                   total["psc.lookups"]),
        "vm.walk_cycles": mean["walk_cycles"],
        "cache.l1d.hit_ratio": _ratio(total["l1d.hits"],
                                      total["l1d.accesses"]),
        "cache.l2c.hit_ratio": _ratio(total["l2c.hits"],
                                      total["l2c.accesses"]),
        "cache.llc.hit_ratio": _ratio(total["llc.hits"],
                                      total["llc.accesses"]),
        "cache.l2c.replay_mpki": mean["l2c.replay_mpki"],
        "cache.llc.replay_mpki": mean["llc.replay_mpki"],
        "cache.llc.leaf_mpki": mean["llc.leaf_mpki"],
        "memsys.dram.row_hit_ratio": _ratio(total["dram.row_hits"],
                                            total["dram.accesses"]),
        "memsys.mshr.merges": mean["mshr.merges"],
        "memsys.mshr.admission_stall_cycles":
            mean["mshr.admission_stall_cycles"],
        "prefetch.useful_ratio": _ratio(total["prefetch.useful"],
                                        total["prefetch.fills"]),
    }


def layer_report(values: Dict[str, float]) -> Dict[str, Dict]:
    """Every :data:`PER_LAYER` metric as ``{"value", "unit"}``, in table
    order; metrics the workload did not produce read 0."""
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _better, _moves in PER_LAYER}


def moves(name: str) -> str:
    """What a per-layer metric should move (its :data:`PER_LAYER` row)."""
    for row in PER_LAYER:
        if row[0] == name:
            return row[3]
    raise KeyError(name)
