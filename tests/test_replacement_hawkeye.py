"""Tests for the Hawkeye policy (OPTgen + PC predictor)."""

import pytest

from repro.cache.replacement.hawkeye import HawkeyePolicy, _SetHistory
from repro.cache.store import CacheStore
from repro.memsys.request import MemoryRequest


def req(ip=0x400, addr=0x1000):
    return MemoryRequest(address=addr, cycle=0, ip=ip)


def bound(pol):
    store = CacheStore(pol.num_sets, pol.num_ways)
    pol.bind(store)
    return store


def test_set_history_first_access_has_no_outcome():
    h = _SetHistory(ways=2)
    assert h.access(0x1, signature=7) is None


def test_set_history_opt_hit_within_capacity():
    h = _SetHistory(ways=2)
    h.access(0x1, 7)
    h.access(0x2, 8)
    outcome = h.access(0x1, 7)
    assert outcome == (True, 7)


def test_set_history_opt_miss_when_interval_full():
    h = _SetHistory(ways=1)
    h.access(0x1, 7)
    # Two other lines hit-reuse in between, saturating occupancy 1.
    h.access(0x2, 8)
    h.access(0x2, 8)   # opt hit: occupies the interval
    h.access(0x3, 9)
    h.access(0x3, 9)   # opt hit: occupies
    outcome = h.access(0x1, 7)
    assert outcome is not None
    assert outcome[0] is False  # OPT would not have kept line 1


def test_predictor_trains_toward_averse():
    pol = HawkeyePolicy(64, 4)
    r = req(ip=0x42)
    sig = pol.signature(r)
    for _ in range(10):
        pol._train(sig, positive=False)
    assert not pol._is_friendly(sig)
    store = bound(pol)
    pol.on_fill(0, 0, r)
    assert store.rrpv[0] == pol.max_rrpv


def test_predictor_trains_toward_friendly():
    pol = HawkeyePolicy(64, 4)
    r = req(ip=0x42)
    sig = pol.signature(r)
    for _ in range(10):
        pol._train(sig, positive=True)
    assert pol._is_friendly(sig)
    store = bound(pol)
    pol.on_fill(0, 0, r)
    assert store.rrpv[0] == 0


def test_victim_prefers_cache_averse():
    pol = HawkeyePolicy(64, 4)
    store = bound(pol)
    store.rrpv[3] = pol.max_rrpv
    assert pol.victim(0, req()) == 3


def test_victim_falls_back_to_oldest_friendly():
    pol = HawkeyePolicy(64, 4)
    store = bound(pol)
    for way in range(4):
        store.rrpv[way] = way  # none at max (7)
    assert pol.victim(0, req()) == 3


def test_on_fill_observes_sampled_sets_only():
    pol = HawkeyePolicy(1024, 4)
    assert len(pol._histories) <= 2 * HawkeyePolicy.SAMPLED_SETS
    bound(pol)
    sampled = next(iter(pol._histories))
    before = pol._histories[sampled].time
    pol.on_fill(sampled, 0, req())
    assert pol._histories[sampled].time == before + 1


def test_detrain_on_unreused_friendly_eviction():
    pol = HawkeyePolicy(64, 4)
    store = bound(pol)
    r = req(ip=0x42)
    sig = pol.signature(r)
    start = pol._predictor[sig]
    set_idx = 9999 % 64
    slot = set_idx * pol.num_ways
    store.valid[slot] = 1
    pol.on_fill(set_idx, 0, r)  # friendly predictor: inserts at RRPV 0
    assert store.rrpv[slot] == 0
    assert not store.reused[slot]
    pol.on_evict(set_idx, 0)
    assert pol._predictor[sig] == max(0, start - 1)
