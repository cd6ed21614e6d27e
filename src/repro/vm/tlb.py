"""Set-associative TLB with LRU replacement.

Used for both the first-level DTLB and the unified second-level STLB.  The
STLB additionally tracks recall distance of evicted entries (Fig 18: more
than 40% of STLB entries are "dead", recall distance > 50).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.params import TLBConfig
from repro.stats.recall import RecallTracker


class TLB:
    """Maps virtual page numbers to physical frame numbers."""

    def __init__(self, config: TLBConfig, track_recall: bool = False):
        self.config = config
        self.name = config.name
        self.num_sets = config.num_sets
        self.num_ways = config.ways
        self.latency = config.latency
        # Per-set: vpn -> lru timestamp; capacity num_ways.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._frames: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        # Plain int so the core's fast path can advance it in a local;
        # the increment-then-stamp sequence below yields the exact values
        # the old ``itertools.count(1)`` produced.
        self._clock = 0
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.recall: Optional[RecallTracker] = None
        if track_recall:
            self.recall = RecallTracker(f"{self.name}/translation")
        #: Optional observer with on_stlb_fill / on_stlb_reuse /
        #: on_stlb_evict hooks (DpPred training).
        self.observer = None

    def lookup(self, vpn: int, count: bool = True) -> Optional[int]:
        """Probe the TLB; returns the frame on a hit, None on a miss.

        ``count=False`` suppresses statistics and recall tracking (used for
        prefetch-initiated translations, which the paper's MPKI numbers
        exclude)."""
        set_idx = vpn % self.num_sets
        if count:
            rec = self.recall
            if rec is not None and rec.pending:
                rec.on_access(set_idx, vpn)
            self.accesses += 1
        entries = self._sets[set_idx]
        if vpn in entries:
            if count:
                self.hits += 1
            if self.observer is not None:
                self.observer.on_stlb_reuse(vpn)
            self._clock += 1
            entries[vpn] = self._clock
            return self._frames[set_idx][vpn]
        if count:
            self.misses += 1
        return None

    def fill(self, vpn: int, pfn: int, ip: int = 0,
             bypass: bool = False) -> None:
        """Install a translation, evicting LRU if the set is full.

        ``bypass=True`` (DpPred dead-page bypassing) inserts the entry at
        the LRU end of its set, making it the next victim."""
        set_idx = vpn % self.num_sets
        entries = self._sets[set_idx]
        frames = self._frames[set_idx]
        if vpn not in entries and len(entries) >= self.num_ways:
            victim = min(entries, key=entries.__getitem__)
            del entries[victim]
            del frames[victim]
            self.evictions += 1
            if self.recall is not None:
                self.recall.on_evict(set_idx, victim)
            if self.observer is not None:
                self.observer.on_stlb_evict(victim)
        if bypass:
            entries[vpn] = 0
        else:
            self._clock += 1
            entries[vpn] = self._clock
        frames[vpn] = pfn
        if self.observer is not None:
            self.observer.on_stlb_fill(vpn, ip)

    def reset_stats(self) -> None:
        """Zero counters at the warmup boundary; contents persist."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self.recall is not None:
            self.recall = RecallTracker(f"{self.name}/translation")

    def invalidate_all(self) -> None:
        for entries, frames in zip(self._sets, self._frames):
            entries.clear()
            frames.clear()

    def mpki(self, instructions: int) -> float:
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / instructions
