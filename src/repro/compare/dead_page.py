"""DpPred + CbPred (Mazumdar, Mitra & Basu, HPCA'21), compact model.

*DpPred* predicts **dead pages** at the STLB: pages whose translation
entry will not be re-referenced before eviction.  Predicted-dead entries
are inserted at the eviction end of their set, effectively bypassing the
STLB.  *CbPred* extends the prediction to the LLC: data blocks belonging
to predicted-dead pages bypass the LLC (they are filled upward without
being installed).

Training uses an eviction sampler: when an STLB entry is evicted, the
signature that filled it is rewarded if the entry was re-referenced and
punished otherwise.  The signature is the filling instruction pointer,
as in the original proposal's PC-based predictor.

The paper's point (Section V-B) is that this helps cache capacity but
does *not* attack the head-of-ROB stalls: dead pages/blocks are exactly
the ones with recall distance > 50 (Fig 18), so bypassing them cannot
accelerate the costly misses; replay loads stay uncovered.
"""

from __future__ import annotations

from typing import Dict, List

from repro.memsys.request import MemoryRequest
from repro.params import PAGE_SHIFT


class DeadPagePredictor:
    """PC-indexed dead-page predictor trained by STLB eviction outcomes."""

    TABLE_SIZE = 4096
    COUNTER_MAX = 7
    #: Counters at or below this predict "dead".
    DEAD_THRESHOLD = 1

    def __init__(self):
        self._counters = [self.COUNTER_MAX // 2] * self.TABLE_SIZE
        # vpn -> (fill signature, referenced since fill?)
        self._live: Dict[int, list] = {}
        self.predictions = 0
        self.dead_predictions = 0

    def _signature(self, ip: int) -> int:
        return (ip ^ (ip >> 12) ^ (ip >> 24)) % self.TABLE_SIZE

    # -- training hooks (wired to the STLB) ------------------------------
    def on_stlb_fill(self, vpn: int, ip: int) -> None:
        self._live[vpn] = [self._signature(ip), False]
        if len(self._live) > 65536:
            self._live.clear()  # sampler overflow: restart

    def on_stlb_reuse(self, vpn: int) -> None:
        entry = self._live.get(vpn)
        if entry is not None:
            entry[1] = True

    def on_stlb_evict(self, vpn: int) -> None:
        entry = self._live.pop(vpn, None)
        if entry is None:
            return
        sig, reused = entry
        counter = self._counters[sig]
        if reused:
            self._counters[sig] = min(self.COUNTER_MAX, counter + 1)
        elif counter > 0:
            self._counters[sig] = counter - 1

    # -- prediction --------------------------------------------------------
    def is_dead(self, ip: int) -> bool:
        """Would a page touched by ``ip`` be dead in the STLB?"""
        self.predictions += 1
        dead = self._counters[self._signature(ip)] <= self.DEAD_THRESHOLD
        if dead:
            self.dead_predictions += 1
        return dead


class DeadBlockBypass:
    """CbPred: bypass LLC fills of blocks in predicted-dead pages.

    Installed as a cache's ``bypass_predicate``: a demand data block
    whose filling IP predicts dead is served upward without being
    installed in the LLC, freeing capacity for live blocks.
    Translations are never bypassed (the original also keeps them).
    A shared LLC judges each core's fills with that core's predictor:
    ``predictors[i]`` is core ``i``'s (``predictor`` is core 0's, and
    each core that joins the LLC appends its own), and a demand request
    names its core in ``cpu``.
    """

    def __init__(self, predictor: DeadPagePredictor):
        self.predictors: List[DeadPagePredictor] = [predictor]
        self.bypassed = 0

    def __call__(self, req: MemoryRequest) -> bool:
        if not req.is_demand_data:
            return False
        if self.predictors[req.cpu].is_dead(req.ip):
            self.bypassed += 1
            return True
        return False
