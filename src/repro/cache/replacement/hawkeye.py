"""Hawkeye (Jain & Lin, ISCA'16).

Hawkeye reconstructs what Belady's OPT would have done on a sampled history
(OPTgen) and trains a PC-indexed predictor with the outcome: PCs whose loads
OPT would have hit are *cache-friendly* (insert at RRPV 0), the rest are
*cache-averse* (insert at RRPV 7, 3-bit RRPVs).

OPTgen uses per-set *usage intervals*: an access to line X at set-local time
``t`` with a previous access at ``t_prev`` is an OPT hit iff every time
quantum in ``[t_prev, t)`` still has spare cache capacity; on a hit the
occupancy of that interval is incremented.

The signature computation is factored into :meth:`signature` so T-Hawkeye
can make translation and replay training independent.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.cache.replacement.base import RRIPBase
from repro.memsys.request import MemoryRequest


class _SetHistory:
    """Sliding OPTgen history for one sampled set."""

    __slots__ = ("capacity", "window", "time", "base_time", "occupancy",
                 "last_access")

    def __init__(self, ways: int):
        self.capacity = ways
        self.window = 8 * ways
        self.time = 0
        self.base_time = 0
        self.occupancy: Deque[int] = deque()
        # line -> (set-local time of last access, signature of last access)
        self.last_access: Dict[int, Tuple[int, int]] = {}

    def access(self, line_addr: int, signature: int):
        """Record an access; returns (opt_hit, previous_signature) or None
        when the line has no (in-window) previous access."""
        prev = self.last_access.get(line_addr)
        result = None
        if prev is not None and prev[0] >= self.base_time:
            start = prev[0] - self.base_time
            end = self.time - self.base_time
            interval = list(self.occupancy)[start:end]
            if all(o < self.capacity for o in interval):
                occ = self.occupancy
                for i in range(start, end):
                    occ[i] += 1
                result = (True, prev[1])
            else:
                result = (False, prev[1])
        self.last_access[line_addr] = (self.time, signature)
        self.occupancy.append(0)
        self.time += 1
        while len(self.occupancy) > self.window:
            self.occupancy.popleft()
            self.base_time += 1
        if len(self.last_access) > 4 * self.window:
            cutoff = self.base_time
            self.last_access = {l: v for l, v in self.last_access.items()
                                if v[0] >= cutoff}
        return result


class HawkeyePolicy(RRIPBase):
    """Hawkeye with set sampling and a 3-bit PC predictor."""

    name = "hawkeye"
    rrpv_bits = 3
    PREDICTOR_SIZE = 8192
    COUNTER_MAX = 7
    FRIENDLY_THRESHOLD = 4
    SAMPLED_SETS = 64

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._predictor = [self.FRIENDLY_THRESHOLD] * self.PREDICTOR_SIZE
        step = max(1, num_sets // self.SAMPLED_SETS)
        self._histories: Dict[int, _SetHistory] = {
            s: _SetHistory(num_ways) for s in range(0, num_sets, step)}

    # -- signatures -------------------------------------------------------
    def signature(self, req: MemoryRequest) -> int:
        ip = req.ip
        return (ip ^ (ip >> 13) ^ (ip >> 26)) % self.PREDICTOR_SIZE

    def _is_friendly(self, sig: int) -> bool:
        return self._predictor[sig] >= self.FRIENDLY_THRESHOLD

    def _train(self, sig: int, positive: bool) -> None:
        c = self._predictor[sig]
        if positive:
            if c < self.COUNTER_MAX:
                self._predictor[sig] = c + 1
        elif c > 0:
            self._predictor[sig] = c - 1

    def _observe(self, set_idx: int, req: MemoryRequest) -> None:
        history = self._histories.get(set_idx)
        if history is None:
            return
        outcome = history.access(req.line_addr, self.signature(req))
        if outcome is not None:
            opt_hit, prev_sig = outcome
            self._train(prev_sig, opt_hit)

    # -- replacement ------------------------------------------------------
    def victim(self, set_idx: int, req: MemoryRequest) -> int:
        # Prefer a cache-averse block (RRPV == max); otherwise the oldest
        # friendly block (highest RRPV).  No aging loop: Hawkeye ages
        # friendly blocks on fills instead.  Either way the victim is the
        # first way holding the set's maximum RRPV.
        base = set_idx * self.num_ways
        seg = self.store.rrpv[base:base + self.num_ways]
        return seg.index(max(seg))

    def on_fill(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        self._observe(set_idx, req)
        sig = self.signature(req)
        slot = set_idx * self.num_ways + way
        self.store.signature[slot] = sig
        if self._is_friendly(sig):
            self.store.rrpv[slot] = 0
            # Age other friendly blocks so older ones become victims.
            # (The cache passes fills through here one at a time; aging is
            # applied lazily on victim selection via stored RRPVs.)
        else:
            self.store.rrpv[slot] = self.max_rrpv

    def on_hit(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        self._observe(set_idx, req)
        sig = self.signature(req)
        slot = set_idx * self.num_ways + way
        self.store.signature[slot] = sig
        self.store.rrpv[slot] = 0 if self._is_friendly(sig) \
            else self.max_rrpv - 1

    def on_evict(self, set_idx: int, way: int) -> None:
        # Detrain the PC of a friendly block evicted without reuse: OPT
        # would not have kept it either.
        slot = set_idx * self.num_ways + way
        if (self.store.rrpv[slot] < self.max_rrpv
                and not self.store.reused[slot]):
            self._train(self.store.signature[slot], False)
