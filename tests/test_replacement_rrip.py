"""Tests for the RRIP-family replacement policies (SRRIP, DRRIP)."""

import pytest

from repro.cache.replacement.drrip import (BRRIP_LEADER, FOLLOWER,
                                           SRRIP_LEADER, DRRIPPolicy)
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.cache.store import CacheStore
from repro.memsys.request import MemoryRequest


def bound(pol, fill_set=None):
    """Bind a fresh store; optionally mark every way of one set valid."""
    store = CacheStore(pol.num_sets, pol.num_ways)
    pol.bind(store)
    if fill_set is not None:
        base = fill_set * pol.num_ways
        for way in range(pol.num_ways):
            store.valid[base + way] = 1
            store.line[base + way] = fill_set + way * pol.num_sets
    return store


def req(ip=0x400):
    return MemoryRequest(address=0x1000, cycle=0, ip=ip)


def sets_with(pol, role):
    """The sets whose entry in DRRIP's per-set table is ``role``."""
    return [s for s, r in enumerate(pol._leader) if r == role]


def test_srrip_inserts_long():
    pol = SRRIPPolicy(4, 4)
    assert pol.insertion_rrpv(0, req()) == pol.max_rrpv - 1


def test_srrip_hit_promotes_to_zero():
    pol = SRRIPPolicy(4, 4)
    store = bound(pol)
    store.rrpv[0] = 3
    pol.on_hit(0, 0, req())
    assert store.rrpv[0] == 0


def test_srrip_victim_prefers_max_rrpv():
    pol = SRRIPPolicy(4, 4)
    store = bound(pol, fill_set=0)
    store.rrpv[2] = pol.max_rrpv
    assert pol.victim(0, req()) == 2


def test_srrip_victim_ages_until_max():
    pol = SRRIPPolicy(4, 2)
    store = bound(pol, fill_set=0)
    store.rrpv[0], store.rrpv[1] = 1, 2
    way = pol.victim(0, req())
    assert way == 1                # aged by one: block 1 reaches 3 first
    assert store.rrpv[0] == 2      # aging side effect


def test_drrip_has_disjoint_leader_sets():
    pol = DRRIPPolicy(64, 8)
    # One table entry per set, so no set leads for both sides.
    assert len(pol._leader) == 64
    assert sets_with(pol, SRRIP_LEADER) == list(range(0, 64, 2))
    assert sets_with(pol, BRRIP_LEADER) == list(range(1, 64, 2))


def test_drrip_srrip_leader_always_inserts_long():
    pol = DRRIPPolicy(64, 8)
    leader = sets_with(pol, SRRIP_LEADER)[0]
    for _ in range(50):
        assert pol.insertion_rrpv(leader, req()) == pol.max_rrpv - 1


def test_drrip_psel_steers_followers():
    pol = DRRIPPolicy(256, 8)
    follower = sets_with(pol, FOLLOWER)[0]
    # Drive PSEL low: misses in BRRIP leaders mean BRRIP is bad -> SRRIP wins.
    brrip_leader = sets_with(pol, BRRIP_LEADER)[0]
    for _ in range(600):
        pol.record_miss(brrip_leader)
    assert pol.insertion_rrpv(follower, req()) == pol.max_rrpv - 1
    assert pol._brrip_fills == 0
    # Now punish SRRIP leaders harder.
    srrip_leader = sets_with(pol, SRRIP_LEADER)[0]
    for _ in range(1200):
        pol.record_miss(srrip_leader)
    assert pol.insertion_rrpv(follower, req()) == pol.max_rrpv
    assert pol._brrip_fills == 1


def test_demote_sets_max_rrpv():
    pol = SRRIPPolicy(4, 4)
    store = bound(pol)
    store.rrpv[0] = 0
    pol.demote(0, 0)
    assert store.rrpv[0] == pol.max_rrpv
