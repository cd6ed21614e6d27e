"""Interval-sampling metrics engine.

Every ``interval`` retired instructions the sampler snapshots the whole
hierarchy -- per-level :class:`~repro.stats.counters.CacheStats` *deltas*,
MSHR and ROB occupancy, RRPV distributions, TLB/PSC hit rates, DRAM row
behaviour and per-category head-of-ROB stall attribution -- into one
time-series record.  Counters are cumulative inside the simulator, so the
sampler differences consecutive snapshots: each interval describes only
what happened *during* it.

Cost model: when no sampler is attached (the default) the core's retire
loop pays a single ``is None`` test per instruction, the same pattern the
validate subsystem uses.  When attached, the per-retire work is three
integer updates; the O(sets x ways) structure scans run only at interval
boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Default sampling period in retired instructions.  At the default
#: 120K-instruction ROI this yields 24 intervals.
DEFAULT_SAMPLE_INTERVAL = 5_000

_LEVELS = ("l1d", "l2c", "llc")
_STALL_CATEGORIES = ("translation", "replay", "non_replay", "other")


def _diff(now: Dict[str, int], then: Dict[str, int]) -> Dict[str, int]:
    return {k: now.get(k, 0) - then.get(k, 0) for k in now}


class IntervalSampler:
    """Snapshots per-interval hierarchy state into ``self.intervals``.

    Lifecycle (driven by :class:`~repro.core.ooo_core.OOOCore`):

    * :meth:`begin` when ``OOOCore.begin_roi`` opens the ROI (in
      ``run``, right after the warmup stat reset);
    * :meth:`on_retire` once per retired ROI instruction, from inside
      ``OOOCore.run_slice``;
    * :meth:`finalize` at the end of ``OOOCore.run`` (flushes a partial
      interval).

    The multi-stream scheduler (:func:`repro.core.engine.interleave`)
    never calls :meth:`finalize`: samplers observe single-stream runs.
    """

    def __init__(self, hierarchy, interval: int = DEFAULT_SAMPLE_INTERVAL):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.hierarchy = hierarchy
        self.interval = interval
        self.intervals: List[Dict] = []
        self._stalls = None
        self._since = 0
        self._rob_sum = 0
        self._rob_max = 0
        self._interval_start_cycle = 0
        self._last_cycle = 0
        self._baseline: Optional[Dict] = None

    # -- lifecycle -----------------------------------------------------
    def begin(self, stalls, start_cycle: int) -> None:
        """Start sampling: ``stalls`` is the live ROI StallAccounting."""
        self._stalls = stalls
        self._interval_start_cycle = start_cycle
        self._last_cycle = start_cycle
        self._since = 0
        self._rob_sum = 0
        self._rob_max = 0
        self._baseline = self._cumulative()

    def on_retire(self, cycle: int, rob_occupancy: int) -> None:
        """One instruction retired at ``cycle`` with ``rob_occupancy``
        instructions in flight."""
        self._since += 1
        self._rob_sum += rob_occupancy
        if rob_occupancy > self._rob_max:
            self._rob_max = rob_occupancy
        self._last_cycle = cycle
        if self._since >= self.interval:
            self._emit(cycle)

    def finalize(self, cycle: int) -> None:
        """Flush the trailing partial interval (if any instruction retired
        since the last boundary)."""
        if self._since > 0 and self._baseline is not None:
            self._emit(max(cycle, self._last_cycle))

    # -- snapshotting --------------------------------------------------
    def _cumulative(self) -> Dict:
        """Copy every cumulative counter the intervals difference."""
        h = self.hierarchy
        state: Dict = {"stalls": {}, "levels": {}}
        if self._stalls is not None:
            snap = self._stalls.snapshot()
            state["stalls"] = {cat: snap[cat]["total"]
                               for cat in _STALL_CATEGORIES}
        for name in _LEVELS:
            cache = getattr(h, name)
            s = cache.stats
            state["levels"][name] = {
                "accesses": dict(s.accesses),
                "misses": dict(s.misses),
                "leaf_accesses": s.leaf_accesses,
                "leaf_misses": s.leaf_misses,
                "prefetch_useful": s.prefetch_useful,
                "prefetch_fills": s.prefetch_fills,
                "mshr_merges": cache.mshr.merges,
                "admission_stall_cycles": cache.mshr.admission_stall_cycles,
                "writebacks": cache.writebacks_issued,
            }
        state["tlb"] = {
            "dtlb": {"accesses": h.mmu.dtlb.accesses,
                     "misses": h.mmu.dtlb.misses},
            "stlb": {"accesses": h.mmu.stlb.accesses,
                     "misses": h.mmu.stlb.misses},
        }
        psc = h.mmu.psc
        state["psc"] = {"lookups": psc.lookups, "misses": psc.misses,
                        "hits_by_level": {str(lvl): n for lvl, n
                                          in psc.hits_by_level.items()}}
        state["dram"] = {"accesses": h.dram.accesses,
                         "row_hits": h.dram.row_hits}
        state["walks"] = {"walks": h.mmu.walker.walks,
                          "pte_reads": h.mmu.walker.pte_reads,
                          "walk_cycles": h.mmu.walk_cycles_total}
        return state

    @staticmethod
    def _hit_rate(accesses: int, misses: int) -> float:
        return 1.0 - misses / accesses if accesses else 0.0

    def _emit(self, cycle: int) -> None:
        now = self._cumulative()
        then = self._baseline
        h = self.hierarchy
        dcycles = max(1, cycle - self._interval_start_cycle)
        n = self._since

        levels: Dict[str, Dict] = {}
        for name in _LEVELS:
            a, b = now["levels"][name], then["levels"][name]
            accesses = _diff(a["accesses"], b["accesses"])
            misses = _diff(a["misses"], b["misses"])
            total_acc = sum(accesses.values())
            total_miss = sum(misses.values())
            cache = getattr(h, name)
            levels[name] = {
                "accesses": accesses,
                "misses": misses,
                "hit_rate": self._hit_rate(total_acc, total_miss),
                "leaf_accesses": a["leaf_accesses"] - b["leaf_accesses"],
                "leaf_misses": a["leaf_misses"] - b["leaf_misses"],
                "prefetch_useful": a["prefetch_useful"]
                - b["prefetch_useful"],
                "prefetch_fills": a["prefetch_fills"] - b["prefetch_fills"],
                "mshr_merges": a["mshr_merges"] - b["mshr_merges"],
                "admission_stall_cycles": a["admission_stall_cycles"]
                - b["admission_stall_cycles"],
                "writebacks": a["writebacks"] - b["writebacks"],
                "mshr_occupancy": cache.mshr.occupancy(cycle),
            }

        tlb = {}
        for name in ("dtlb", "stlb"):
            acc = now["tlb"][name]["accesses"] - then["tlb"][name]["accesses"]
            mis = now["tlb"][name]["misses"] - then["tlb"][name]["misses"]
            tlb[name] = {"accesses": acc, "misses": mis,
                         "hit_rate": self._hit_rate(acc, mis)}

        psc_lookups = now["psc"]["lookups"] - then["psc"]["lookups"]
        psc_misses = now["psc"]["misses"] - then["psc"]["misses"]
        record = {
            "index": len(self.intervals),
            "instructions": n,
            "cycle_start": self._interval_start_cycle,
            "cycle_end": cycle,
            "ipc": n / dcycles,
            "rob": {"avg_occupancy": self._rob_sum / n if n else 0.0,
                    "max_occupancy": self._rob_max},
            "levels": levels,
            "rrpv": {name: getattr(h, name).rrpv_histogram()
                     for name in ("l2c", "llc")},
            "occupancy": {name: getattr(h, name).occupancy_by_category()
                          for name in ("l2c", "llc")},
            "tlb": tlb,
            "psc": {
                "lookups": psc_lookups,
                "misses": psc_misses,
                "hit_rate": self._hit_rate(psc_lookups, psc_misses),
                "hits_by_level": _diff(now["psc"]["hits_by_level"],
                                       then["psc"]["hits_by_level"]),
            },
            "dram": _diff(now["dram"], then["dram"]),
            "walks": _diff(now["walks"], then["walks"]),
            "stalls": _diff(now["stalls"], then["stalls"]),
        }
        self.intervals.append(record)

        self._baseline = now
        self._interval_start_cycle = cycle
        self._since = 0
        self._rob_sum = 0
        self._rob_max = 0
