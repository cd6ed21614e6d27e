"""DRRIP: dynamic RRIP via set dueling (Jaleel et al., ISCA'10).

A few *leader* sets always use SRRIP insertion and a few always use BRRIP;
misses in leader sets steer a saturating PSEL counter, and *follower* sets
use whichever policy is currently winning.
"""

from __future__ import annotations

from repro.cache.replacement.base import RRIPBase
from repro.memsys.request import MemoryRequest

#: A set's role in the duel (:attr:`DRRIPPolicy._leader`).
FOLLOWER, SRRIP_LEADER, BRRIP_LEADER = 0, 1, 2


class DRRIPPolicy(RRIPBase):
    """Set-dueling DRRIP (the paper's L2C baseline)."""

    name = "drrip"
    rrpv_bits = 2
    PSEL_BITS = 10
    LONG_INTERVAL = 32  # BRRIP's bimodal throttle

    def __init__(self, num_sets: int, num_ways: int, leader_sets: int = 32):
        super().__init__(num_sets, num_ways)
        leader_sets = min(leader_sets, max(1, num_sets // 2))
        self._psel_max = (1 << self.PSEL_BITS) - 1
        self._psel = self._psel_max // 2
        self._brrip_fills = 0
        # Interleave leaders: even slots SRRIP, odd slots BRRIP (SRRIP
        # keeps a set that both claim).  One per-set table holds each
        # set's role.
        stride = max(1, num_sets // (2 * leader_sets))
        srrip = {2 * i * stride % num_sets for i in range(leader_sets)}
        brrip = {(2 * i + 1) * stride % num_sets
                 for i in range(leader_sets)}
        self._leader = [SRRIP_LEADER if s in srrip
                        else BRRIP_LEADER if s in brrip else FOLLOWER
                        for s in range(num_sets)]

    # -- set dueling ------------------------------------------------------
    def record_miss(self, set_idx: int) -> None:
        """Called by the cache on every demand miss (leader training)."""
        leader = self._leader[set_idx]
        if leader == SRRIP_LEADER:
            self._psel = min(self._psel_max, self._psel + 1)
        elif leader == BRRIP_LEADER:
            self._psel = max(0, self._psel - 1)

    # -- insertion --------------------------------------------------------
    def insertion_rrpv(self, set_idx: int, req: MemoryRequest) -> int:
        leader = self._leader[set_idx]
        # A follower takes the winning policy: high PSEL means SRRIP
        # leaders are missing more.
        if leader == SRRIP_LEADER or (
                leader == FOLLOWER and self._psel <= self._psel_max // 2):
            return self.max_rrpv - 1
        self._brrip_fills += 1
        if self._brrip_fills % self.LONG_INTERVAL == 0:
            return self.max_rrpv - 1
        return self.max_rrpv
