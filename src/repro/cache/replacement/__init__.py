"""Replacement policies: baselines (LRU, Random, SRRIP, BRRIP, DRRIP, SHiP,
Hawkeye) and the paper's translation-conscious variants (T-DRRIP, T-SHiP,
T-Hawkeye, plus the signature-only "NewSign" ablation)."""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.random_policy import RandomPolicy
from repro.cache.replacement.srrip import SRRIPPolicy, BRRIPPolicy
from repro.cache.replacement.drrip import DRRIPPolicy
from repro.cache.replacement.ship import SHiPPolicy
from repro.cache.replacement.hawkeye import HawkeyePolicy
from repro.cache.replacement.translation_aware import (
    AdaptiveTDRRIPPolicy, TDRRIPPolicy, TSHiPPolicy, THawkeyePolicy,
    NewSignSHiPPolicy)

_REGISTRY = {
    "lru": LRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
    "drrip": DRRIPPolicy,
    "ship": SHiPPolicy,
    "hawkeye": HawkeyePolicy,
    "t_drrip": TDRRIPPolicy,
    "t_drrip_adaptive": AdaptiveTDRRIPPolicy,
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


def available_policies():
    """Names of all registered policies."""
    return sorted(_REGISTRY)


__all__ = ["ReplacementPolicy", "LRUPolicy", "RandomPolicy", "SRRIPPolicy",
           "BRRIPPolicy", "DRRIPPolicy", "SHiPPolicy", "HawkeyePolicy",
           "TDRRIPPolicy", "AdaptiveTDRRIPPolicy", "TSHiPPolicy",
           "THawkeyePolicy", "NewSignSHiPPolicy", "make_policy",
           "available_policies"]
