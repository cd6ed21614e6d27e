"""Offline Belady-OPT replacement analysis.

Hawkeye is trained to mimic Belady's optimal policy; this module computes
what OPT itself would have achieved on a recorded access stream -- the
lower bound that contextualizes Fig 4's policy comparison (how far from
optimal is each policy's translation MPKI?).

The analysis is set-aware and per-category: given the (line, category)
stream observed at one cache level, it replays each set with Belady's
MIN (evict the line whose next use is farthest in the future) and
reports hits/misses per category.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: A recorded access: (line_addr, category).
Access = Tuple[int, str]

_INFINITY = 1 << 62


class OPTAnalysis:
    """Belady's MIN over a recorded stream of one cache's accesses."""

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.hits: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)

    def run(self, stream: Sequence[Access], count_from: int = 0) -> None:
        """Replay ``stream`` under OPT (two passes: next-use then MIN).

        ``count_from`` marks the warmup boundary: earlier accesses still
        warm OPT's cache but are excluded from the hit/miss counters,
        mirroring how the simulator resets its statistics."""
        per_set: Dict[int, List[Tuple[int, str, bool]]] = defaultdict(list)
        for i, (line, category) in enumerate(stream):
            per_set[line % self.num_sets].append(
                (line, category, i >= count_from))
        for accesses in per_set.values():
            self._run_set(accesses)

    def _run_set(self, accesses: List[Tuple[int, str, bool]]) -> None:
        n = len(accesses)
        next_use = [_INFINITY] * n
        last_seen: Dict[int, int] = {}
        for i in range(n - 1, -1, -1):
            line = accesses[i][0]
            next_use[i] = last_seen.get(line, _INFINITY)
            last_seen[line] = i
        resident: Dict[int, int] = {}  # line -> its next-use index
        for i, (line, category, counted) in enumerate(accesses):
            if line in resident:
                if counted:
                    self.hits[category] += 1
            else:
                if counted:
                    self.misses[category] += 1
                if len(resident) >= self.num_ways:
                    victim = max(resident, key=resident.__getitem__)
                    del resident[victim]
            resident[line] = next_use[i]


class AccessRecorder:
    """Wraps a cache's ``access`` to record its (line, category) stream.

    Attach with :meth:`attach`; the recorded stream feeds
    :class:`OPTAnalysis`."""

    def __init__(self, cache):
        self.cache = cache
        self.stream: List[Access] = []
        self.count_from = 0
        self._original = None

    def attach(self) -> "AccessRecorder":
        original = self.cache.access
        original_reset = self.cache.reset_stats

        def recording_access(req):
            self.stream.append((req.line_addr, req.category()))
            return original(req)

        def resetting(*args, **kwargs):
            # Align OPT's counting window with the statistics window:
            # accesses so far still warm OPT's cache, but only later
            # ones are counted (the core resets stats at this boundary).
            self.count_from = len(self.stream)
            return original_reset(*args, **kwargs)

        self._original = (original, original_reset)
        self.cache.access = recording_access
        self.cache.reset_stats = resetting
        return self

    def detach(self) -> None:
        if self._original is not None:
            self.cache.access, self.cache.reset_stats = self._original
            self._original = None

    def analyze(self) -> OPTAnalysis:
        """Run Belady-OPT over the recorded stream (counting from the
        statistics-reset boundary, if one occurred)."""
        opt = OPTAnalysis(self.cache.num_sets, self.cache.num_ways)
        opt.run(self.stream, count_from=self.count_from)
        return opt
