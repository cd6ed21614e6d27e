"""Interval-sampling metrics engine.

Every ``interval`` retired instructions the sampler snapshots the whole
hierarchy -- per-level :class:`~repro.stats.counters.CacheStats` *deltas*,
MSHR occupancy, RRPV distributions, TLB/PSC hit rates, DRAM row
behaviour and per-category head-of-ROB stall attribution -- into one
time-series record.  Counters are cumulative inside the simulator, so the
sampler differences consecutive snapshots: each interval describes only
what happened *during* it.

Cost model: the cores run the region of interest in slices that end at
the sampler's next edge (:attr:`IntervalSampler.next_edge`) and call it
once per edge, so an observed run executes the same per-instruction code
as an unobserved one; the O(sets x ways) structure scans run only at
interval boundaries.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional

from repro.core.rob import StallCategory

#: Default sampling period in retired instructions.  At the default
#: 120K-instruction ROI this yields 24 intervals.
DEFAULT_SAMPLE_INTERVAL = 5_000

_LEVELS = ("l1d", "l2c", "llc")


def _diff(now: Dict[str, int], then: Dict[str, int]) -> Dict[str, int]:
    return {k: now.get(k, 0) - then.get(k, 0) for k in now}


class IntervalSampler:
    """Snapshots per-interval hierarchy state into ``self.intervals``.

    Lifecycle (driven by :class:`~repro.core.ooo_core.OOOCore`):

    * :meth:`begin` when the region of interest opens (right after the
      warmup stat reset);
    * :meth:`on_retire` each time the core has retired through
      :attr:`next_edge`, and once more at the end of the trace, which
      records the trailing partial interval.

    The multi-stream scheduler (:func:`repro.core.engine.interleave`)
    drives no edges: samplers observe single-stream runs.  ``forward``
    (for example :meth:`repro.obs.forward.ProgressForwarder.on_interval`)
    sees each record as it is appended.
    """

    def __init__(self, hierarchy, interval: int = DEFAULT_SAMPLE_INTERVAL,
                 forward: Optional[Callable[[Dict], None]] = None):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        # Weak: the hierarchy holds its sampler, and a cycle would keep a
        # finished run's hierarchy alive until a full collection.
        self.hierarchy = weakref.proxy(hierarchy)
        self.interval = interval
        self.forward = forward
        self.intervals: List[Dict] = []
        #: Trace index at which the next interval ends.
        self.next_edge = 0
        self._stalls = None
        self._interval_start_index = 0
        self._interval_start_cycle = 0
        self._baseline: Optional[Dict] = None

    # -- lifecycle -----------------------------------------------------
    def begin(self, stalls, start_cycle: int, start_index: int) -> None:
        """Start sampling at trace index ``start_index`` and retire clock
        ``start_cycle``; ``stalls`` is the live ROI StallAccounting."""
        self._stalls = stalls
        self._interval_start_index = start_index
        self._interval_start_cycle = start_cycle
        self.next_edge = start_index + self.interval
        self._baseline = self._cumulative()

    def on_retire(self, cycle: int, index: int) -> None:
        """The core retired every instruction before trace index
        ``index``, the last at ``cycle``: record the interval that ends
        here (if it holds any instruction)."""
        if index > self._interval_start_index:
            self._emit(cycle, index - self._interval_start_index)
            self._interval_start_index = index
            self.next_edge = index + self.interval

    # -- snapshotting --------------------------------------------------
    def _cumulative(self) -> Dict:
        """Copy every cumulative counter the intervals difference."""
        h = self.hierarchy
        stalls = self._stalls
        state: Dict = {"stalls": {cat.value: stalls.total(cat)
                                  for cat in StallCategory},
                       "levels": {}}
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

    def _emit(self, cycle: int, n: int) -> None:
        now = self._cumulative()
        then = self._baseline
        h = self.hierarchy
        dcycles = max(1, cycle - self._interval_start_cycle)

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
        if self.forward is not None:
            self.forward(record)
