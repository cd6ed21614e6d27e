"""Replacement policies: baselines (LRU, SRRIP, DRRIP, SHiP, Hawkeye) and
the paper's translation-conscious variants (T-DRRIP, T-SHiP,
T-Hawkeye, plus the signature-only "NewSign" ablation)."""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.cache.replacement.drrip import DRRIPPolicy
from repro.cache.replacement.ship import SHiPPolicy
from repro.cache.replacement.hawkeye import HawkeyePolicy
from repro.cache.replacement.translation_aware import (
    TDRRIPPolicy, TSHiPPolicy, THawkeyePolicy, NewSignSHiPPolicy)

_REGISTRY = {
    "lru": LRUPolicy,
    "srrip": SRRIPPolicy,
    "drrip": DRRIPPolicy,
    "ship": SHiPPolicy,
    "hawkeye": HawkeyePolicy,
    "t_drrip": TDRRIPPolicy,
    "t_ship": TSHiPPolicy,
    "t_hawkeye": THawkeyePolicy,
    "newsign_ship": NewSignSHiPPolicy,
}


def make_policy(name: str, num_sets: int, num_ways: int,
                **kwargs) -> ReplacementPolicy:
    """Instantiate a replacement policy by registry name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"available: {sorted(_REGISTRY)}") from None
    return cls(num_sets, num_ways, **kwargs)


__all__ = ["ReplacementPolicy", "LRUPolicy", "SRRIPPolicy",
           "DRRIPPolicy", "SHiPPolicy", "HawkeyePolicy",
           "TDRRIPPolicy", "TSHiPPolicy",
           "THawkeyePolicy", "NewSignSHiPPolicy", "make_policy"]
