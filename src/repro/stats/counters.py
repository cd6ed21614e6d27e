"""Hit/miss counters broken down by the paper's request categories."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

#: Request categories tracked everywhere (matches
#: :meth:`repro.memsys.request.MemoryRequest.category`).
CATEGORIES = ("translation", "replay", "non_replay", "prefetch", "writeback")


class CacheStats:
    """Per-category access/hit/miss counters for one cache level."""

    def __init__(self, name: str):
        self.name = name
        self.accesses: Dict[str, int] = defaultdict(int)
        self.hits: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)
        #: Leaf-level translations tracked separately (the paper's "PTL1").
        self.leaf_accesses = 0
        self.leaf_hits = 0
        self.leaf_misses = 0
        #: Demand requests that hit on a prefetched, not-yet-used block.
        self.prefetch_useful = 0
        self.prefetch_fills = 0

    def mpki(self, category: str, instructions: int) -> float:
        """Misses per kilo-instruction for one category."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses[category] / instructions

    def leaf_mpki(self, instructions: int) -> float:
        """Leaf-level translation (PTL1) misses per kilo-instruction."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.leaf_misses / instructions


class LevelDistribution:
    """Which level of the hierarchy served each request class (Fig 3)."""

    LEVELS = ("L1D", "L2C", "LLC", "DRAM")

    def __init__(self):
        self.counts: Dict[str, Dict[str, int]] = {
            "translation": defaultdict(int), "replay": defaultdict(int),
            "non_replay": defaultdict(int)}

    def fractions(self, category: str) -> Dict[str, float]:
        total = sum(self.counts[category].values())
        if total == 0:
            return {lvl: 0.0 for lvl in self.LEVELS}
        return {lvl: self.counts[category][lvl] / total for lvl in self.LEVELS}
