"""Tests for the paper's translation-conscious policies (Section IV)."""

import pytest

from repro.cache.replacement import make_policy
from repro.cache.replacement.drrip import SRRIP_LEADER
from repro.cache.replacement.translation_aware import (
    NewSignSHiPPolicy, TDRRIPPolicy, THawkeyePolicy, TSHiPPolicy, _aware_ip)
from repro.cache.store import CacheStore
from repro.memsys.request import AccessType, MemoryRequest


def bound(pol):
    store = CacheStore(pol.num_sets, pol.num_ways)
    pol.bind(store)
    return store


def leaf_translation(ip=0x400):
    return MemoryRequest(address=0x1000, cycle=0, ip=ip,
                         access_type=AccessType.TRANSLATION, pt_level=1)


def upper_translation(ip=0x400):
    return MemoryRequest(address=0x1000, cycle=0, ip=ip,
                         access_type=AccessType.TRANSLATION, pt_level=4)


def replay_load(ip=0x400):
    return MemoryRequest(address=0x1000, cycle=0, ip=ip, is_replay=True)


def non_replay_load(ip=0x400):
    return MemoryRequest(address=0x1000, cycle=0, ip=ip)


# -- T-DRRIP (Fig 9) ----------------------------------------------------
def test_tdrrip_leaf_translations_insert_at_zero():
    pol = TDRRIPPolicy(64, 8)
    assert pol.insertion_rrpv(0, leaf_translation()) == 0


def test_tdrrip_upper_levels_use_default_insertion():
    pol = TDRRIPPolicy(64, 8)
    assert pol.insertion_rrpv(0, upper_translation()) != 0


def test_tdrrip_replays_insert_at_max():
    pol = TDRRIPPolicy(64, 8)
    assert pol.insertion_rrpv(0, replay_load()) == pol.max_rrpv


def test_tdrrip_non_replays_keep_drrip_insertion():
    pol = TDRRIPPolicy(64, 8)
    leader = pol._leader.index(SRRIP_LEADER)
    assert pol.insertion_rrpv(leader, non_replay_load()) == pol.max_rrpv - 1


def test_tdrrip_fig10_misconfiguration():
    pol = TDRRIPPolicy(64, 8, replay_rrpv0=True)
    assert pol.insertion_rrpv(0, replay_load()) == 0


# -- signatures (Section IV) ---------------------------------------------
def test_aware_ip_separates_classes():
    ip = 0x1234
    sigs = {_aware_ip(leaf_translation(ip)), _aware_ip(replay_load(ip)),
            _aware_ip(non_replay_load(ip))}
    assert len(sigs) == 3


def test_newsign_signatures_disjoint_per_class():
    pol = NewSignSHiPPolicy(64, 16)
    ip = 0x1234
    sig_t = pol.signature(leaf_translation(ip))
    sig_r = pol.signature(replay_load(ip))
    sig_n = pol.signature(non_replay_load(ip))
    assert len({sig_t, sig_r, sig_n}) == 3


def test_newsign_training_isolated_between_classes():
    """Dead replay loads from IP X must not poison X's translations."""
    pol = NewSignSHiPPolicy(64, 16)
    bound(pol)
    ip = 0x77
    for _ in range(10):
        pol.on_fill(0, 0, replay_load(ip))
        pol.on_evict(0, 0)  # dead (never marked reused)
    assert pol.insertion_rrpv(0, replay_load(ip)) == pol.max_rrpv
    # Translations from the same IP are unaffected.
    assert pol.insertion_rrpv(0, leaf_translation(ip)) == pol.max_rrpv - 1


# -- T-SHiP (Fig 11) -----------------------------------------------------
def test_tship_leaf_translations_pinned_to_zero():
    pol = TSHiPPolicy(64, 16)
    assert pol.insertion_rrpv(0, leaf_translation()) == 0


def test_tship_promotion_unchanged_from_ship():
    pol = TSHiPPolicy(64, 16)
    store = bound(pol)
    pol.on_fill(0, 0, non_replay_load())
    store.rrpv[0] = 2
    pol.on_hit(0, 0, non_replay_load())
    assert store.rrpv[0] == 0


def test_tship_replay_rrpv0_misconfiguration():
    pol = TSHiPPolicy(64, 16, replay_rrpv0=True)
    assert pol.insertion_rrpv(0, replay_load()) == 0


# -- T-Hawkeye ------------------------------------------------------------
def test_thawkeye_leaf_translations_fill_at_zero():
    pol = THawkeyePolicy(64, 16)
    store = bound(pol)
    sig = pol.signature(leaf_translation())
    for _ in range(10):
        pol._train(sig, positive=False)  # predictor says averse
    pol.on_fill(0, 0, leaf_translation())
    assert store.rrpv[0] == 0  # pinned regardless of the predictor


def test_thawkeye_signatures_disjoint():
    pol = THawkeyePolicy(64, 16)
    ip = 0x1234
    assert pol.signature(leaf_translation(ip)) != pol.signature(
        non_replay_load(ip))


# -- registry -------------------------------------------------------------
@pytest.mark.parametrize("name,cls", [
    ("t_drrip", TDRRIPPolicy), ("t_ship", TSHiPPolicy),
    ("t_hawkeye", THawkeyePolicy), ("newsign_ship", NewSignSHiPPolicy)])
def test_registry_builds_translation_aware_policies(name, cls):
    pol = make_policy(name, 64, 8)
    assert isinstance(pol, cls)


def test_registry_rejects_unknown():
    with pytest.raises(ValueError):
        make_policy("belady", 64, 8)
