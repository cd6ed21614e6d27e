"""SHiP: Signature-based Hit Predictor (Wu et al., MICRO'11).

SHiP keeps a Signature History Counter Table (SHCT) of saturating counters
indexed by a hashed signature (we use the instruction pointer, as the paper
does).  A block whose signature's counter is zero is predicted dead and
inserted at distant RRPV (max); otherwise at long (max-1).  Training: +1
when a block is re-referenced, -1 when it is evicted unreused.

The signature computation is a separate method so the translation-conscious
variants of Section IV can redefine it (``IP << IsTranslation`` etc.).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement.base import RRIPBase
from repro.memsys.request import MemoryRequest


class SHiPPolicy(RRIPBase):
    """SHiP-PC with a 16K-entry, 3-bit SHCT."""

    name = "ship"
    rrpv_bits = 2
    SHCT_SIZE = 16384
    SHCT_MAX = 7

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._shct = [1] * self.SHCT_SIZE

    # -- signatures -------------------------------------------------------
    def signature(self, req: MemoryRequest) -> int:
        """Hash of the filling IP (overridden by translation-aware variants)."""
        ip = req.ip
        return (ip ^ (ip >> 14) ^ (ip >> 28)) % self.SHCT_SIZE

    # -- insertion --------------------------------------------------------
    def insertion_rrpv(self, set_idx: int, req: MemoryRequest,
                       sig: Optional[int] = None) -> int:
        """RRPV of an incoming block; ``sig`` is ``signature(req)`` when
        the caller has already hashed it."""
        if sig is None:
            sig = self.signature(req)
        if self._shct[sig] == 0:
            return self.max_rrpv
        return self.max_rrpv - 1

    def on_fill(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        slot = set_idx * self.num_ways + way
        sig = self.signature(req)
        self.store.signature[slot] = sig
        self.store.rrpv[slot] = self.insertion_rrpv(set_idx, req, sig)

    # -- training ---------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        slot = set_idx * self.num_ways + way
        self.store.rrpv[slot] = 0
        sig = self.store.signature[slot]
        counter = self._shct[sig]
        if counter < self.SHCT_MAX:
            self._shct[sig] = counter + 1

    def on_evict(self, set_idx: int, way: int) -> None:
        slot = set_idx * self.num_ways + way
        if not self.store.reused[slot]:
            sig = self.store.signature[slot]
            counter = self._shct[sig]
            if counter > 0:
                self._shct[sig] = counter - 1
