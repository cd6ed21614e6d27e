"""The paper's translation- and replay-conscious replacement policies
(Section IV).

**T-DRRIP** (L2C): leaf-level address translations are inserted at RRPV=0
(lowest eviction priority, so they survive ~10 extra set accesses and catch
the short-recall-distance population of Fig 5), while replay loads are
inserted at RRPV=3 (they are dead, Fig 7) so they cannot age the
translation blocks out.

**T-SHiP / T-Hawkeye** (LLC): leaf translations inserted at RRPV=0, plus the
*new signatures* of Section IV that keep reuse training of translations,
replay loads and non-replay loads independent::

    signature_translations = IP << IsTranslation
    signature_replayloads  = IP << (IsReplay + IsTranslation)

**NewSignSHiP** is the signature-only ablation plotted in Fig 12.

The Fig 10 misconfiguration (replays *also* inserted at RRPV=0) is exposed
via ``replay_rrpv0=True``.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement.drrip import DRRIPPolicy
from repro.cache.replacement.hawkeye import HawkeyePolicy
from repro.cache.replacement.ship import SHiPPolicy
from repro.memsys.request import MemoryRequest


def _aware_ip(req: MemoryRequest) -> int:
    """Apply the paper's signature transformation to the request IP.

    Translations shift the IP by one, replay loads by two (IsReplay +
    IsTranslation occupies two flag positions), making the three request
    classes hash into disjoint signature populations.
    """
    if req.is_translation:
        return (req.ip << 1) | 1
    if req.is_replay:
        return (req.ip << 2) | 2
    return req.ip


class TDRRIPPolicy(DRRIPPolicy):
    """Address-translation-conscious DRRIP for the L2C (Fig 9)."""

    name = "t_drrip"

    def __init__(self, num_sets: int, num_ways: int, leader_sets: int = 32,
                 replay_rrpv0: bool = False):
        super().__init__(num_sets, num_ways, leader_sets)
        self.replay_rrpv0 = replay_rrpv0

    def insertion_rrpv(self, set_idx: int, req: MemoryRequest) -> int:
        if req.is_leaf_translation:
            return 0
        if req.is_demand_data and req.is_replay:
            return 0 if self.replay_rrpv0 else self.max_rrpv
        # Named, not super(): a fill then builds no super object.
        return DRRIPPolicy.insertion_rrpv(self, set_idx, req)


class NewSignSHiPPolicy(SHiPPolicy):
    """SHiP with translation/replay-aware signatures only (Fig 12 ablation)."""

    name = "newsign_ship"

    def signature(self, req: MemoryRequest) -> int:
        ip = _aware_ip(req)
        return (ip ^ (ip >> 14) ^ (ip >> 28)) % self.SHCT_SIZE


class TSHiPPolicy(NewSignSHiPPolicy):
    """Address-translation-conscious SHiP for the LLC (Fig 11).

    New signatures + leaf translations pinned to RRPV=0 on insertion.  The
    promotion and eviction sub-policies are unchanged from SHiP.
    """

    name = "t_ship"

    def __init__(self, num_sets: int, num_ways: int,
                 replay_rrpv0: bool = False):
        super().__init__(num_sets, num_ways)
        self.replay_rrpv0 = replay_rrpv0

    def insertion_rrpv(self, set_idx: int, req: MemoryRequest,
                       sig: Optional[int] = None) -> int:
        if req.is_leaf_translation:
            return 0
        if self.replay_rrpv0 and req.is_demand_data and req.is_replay:
            return 0
        # Named, not super(): a fill then builds no super object.
        return SHiPPolicy.insertion_rrpv(self, set_idx, req, sig)


class THawkeyePolicy(HawkeyePolicy):
    """Address-translation-conscious Hawkeye (evaluated alongside T-SHiP)."""

    name = "t_hawkeye"

    def signature(self, req: MemoryRequest) -> int:
        ip = _aware_ip(req)
        return (ip ^ (ip >> 13) ^ (ip >> 26)) % self.PREDICTOR_SIZE

    def on_fill(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        super().on_fill(set_idx, way, req)
        if req.is_leaf_translation:
            self.store.rrpv[set_idx * self.num_ways + way] = 0
