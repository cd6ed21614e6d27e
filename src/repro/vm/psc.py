"""Paging-structure caches (PSCL5/PSCL4/PSCL3/PSCL2).

PSCL*n* caches the result of walking *through* level ``n`` -- i.e. the
physical frame of the level-(n-1) table -- keyed by the VA path prefix.
All four are probed concurrently in one cycle after an STLB miss; when more
than one hits, the level *farthest from the root* (PSCL2 is best) wins, as
it minimizes the remaining walk (a PSCL2 hit leaves a single leaf-PTE read).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.params import PSCConfig
from repro.vm.address import psc_tag

#: PSC levels from deepest (checked first) to shallowest.
PSC_LEVELS = (2, 3, 4, 5)


class _SmallLRU:
    """Tiny fully-associative LRU map."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: Dict[int, int] = {}
        self._stamps: Dict[int, int] = {}
        self._clock = itertools.count(1)

    def get(self, key: int) -> Optional[int]:
        if key in self._data:
            self._stamps[key] = next(self._clock)
            return self._data[key]
        return None

    def put(self, key: int, value: int) -> None:
        if key not in self._data and len(self._data) >= self.capacity:
            victim = min(self._stamps, key=self._stamps.__getitem__)
            del self._data[victim]
            del self._stamps[victim]
        self._data[key] = value
        self._stamps[key] = next(self._clock)

    def __len__(self) -> int:
        return len(self._data)


class PagingStructureCaches:
    """The four PSCs, probed in parallel."""

    def __init__(self, config: PSCConfig):
        self.config = config
        self.latency = config.latency
        self._caches: Dict[int, _SmallLRU] = {
            level: _SmallLRU(config.entries_for_level(level))
            for level in PSC_LEVELS}
        self.lookups = 0
        self.hits_by_level: Dict[int, int] = {level: 0 for level in PSC_LEVELS}
        self.misses = 0

    def lookup(self, va: int) -> Tuple[Optional[int], Optional[int]]:
        """Probe all levels; returns ``(hit_level, next_table_frame)``.

        ``hit_level`` is the deepest level with a match (2 is deepest); the
        returned frame is the base of the level-(hit_level - 1) table, so
        the walk resumes at level ``hit_level - 1``.  ``(None, None)`` on a
        full miss (walk starts at the root, level 5).
        """
        self.lookups += 1
        for level in PSC_LEVELS:
            frame = self._caches[level].get(psc_tag(va, level))
            if frame is not None:
                self.hits_by_level[level] += 1
                return level, frame
        self.misses += 1
        return None, None

    def fill(self, va: int, level: int, next_table_frame: int) -> None:
        """Cache the outcome of walking through ``level`` for ``va``."""
        if level in self._caches:
            self._caches[level].put(psc_tag(va, level), next_table_frame)

    def entries(self, level: int) -> int:
        return len(self._caches[level])

    def reset_stats(self) -> None:
        """Zero the counters (warmup boundary); cached entries persist."""
        self.lookups = 0
        self.misses = 0
        self.hits_by_level = {level: 0 for level in PSC_LEVELS}
