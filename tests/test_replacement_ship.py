"""Tests for SHiP and the signature machinery."""

import pytest

from repro.cache.replacement.ship import SHiPPolicy
from repro.cache.store import CacheStore
from repro.memsys.request import AccessType, MemoryRequest


def req(ip=0x400, **kw):
    return MemoryRequest(address=0x1000, cycle=0, ip=ip, **kw)


def bound(pol):
    store = CacheStore(pol.num_sets, pol.num_ways)
    pol.bind(store)
    return store


def fill(pol, store, r):
    """Fill way 0 of set 0 and return its slot index."""
    store.reset_slot(0, r.line_addr, 0)
    pol.on_fill(0, 0, r)
    return 0


def test_fill_records_signature():
    pol = SHiPPolicy(16, 4)
    store = bound(pol)
    slot = fill(pol, store, req(ip=0x1234))
    assert store.signature[slot] == pol.signature(req(ip=0x1234))


def test_hit_trains_signature_up():
    pol = SHiPPolicy(16, 4)
    store = bound(pol)
    r = req(ip=0x42)
    before = pol._shct[pol.signature(r)]
    slot = fill(pol, store, r)
    pol.on_hit(0, 0, r)
    assert pol._shct[pol.signature(r)] == min(before + 1, pol.SHCT_MAX)
    assert store.rrpv[slot] == 0


def test_unreused_eviction_trains_down():
    pol = SHiPPolicy(16, 4)
    store = bound(pol)
    r = req(ip=0x42)
    before = pol._shct[pol.signature(r)]
    slot = fill(pol, store, r)
    store.reused[slot] = 0
    pol.on_evict(0, 0)
    assert pol._shct[pol.signature(r)] == max(before - 1, 0)


def test_reused_eviction_does_not_train_down():
    pol = SHiPPolicy(16, 4)
    store = bound(pol)
    r = req(ip=0x42)
    before = pol._shct[pol.signature(r)]
    slot = fill(pol, store, r)
    store.reused[slot] = 1
    pol.on_evict(0, 0)
    assert pol._shct[pol.signature(r)] == before


def test_dead_signature_inserts_distant():
    pol = SHiPPolicy(16, 4)
    store = bound(pol)
    r = req(ip=0x42)
    # Train the signature to zero via repeated dead evictions.
    for _ in range(10):
        fill(pol, store, r)
        pol.on_evict(0, 0)
    assert pol._shct[pol.signature(r)] == 0
    assert pol.insertion_rrpv(0, r) == pol.max_rrpv


def test_live_signature_inserts_long():
    pol = SHiPPolicy(16, 4)
    store = bound(pol)
    r = req(ip=0x42)
    fill(pol, store, r)
    for _ in range(5):
        pol.on_hit(0, 0, r)
    assert pol.insertion_rrpv(0, r) == pol.max_rrpv - 1


def test_training_is_per_signature():
    pol = SHiPPolicy(16, 4)
    store = bound(pol)
    dead, live = req(ip=0x42), req(ip=0x1000043)
    assert pol.signature(dead) != pol.signature(live)
    for _ in range(10):
        fill(pol, store, dead)
        pol.on_evict(0, 0)
    assert pol.insertion_rrpv(0, dead) == pol.max_rrpv
    assert pol.insertion_rrpv(0, live) == pol.max_rrpv - 1
