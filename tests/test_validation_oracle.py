"""Tests for repro.validate.oracle: the functional reference model must
agree with the timed cache on clean runs, catch injected policy bugs, and
taint itself out of timing-dependent comparisons."""

import random

import pytest

from repro.cache.cache import Cache
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import CacheConfig
from repro.validate.invariants import CheckContext, ValidationError
from repro.validate.oracle import CacheOracle, FunctionalCache


class Null:
    def access(self, req):
        req.served_by = "DRAM"
        return req.cycle + 100


def lru_cache(sets=8, ways=4):
    cache = Cache(CacheConfig("T", sets * ways * 64, ways, 10), Null())
    assert cache.policy.name == "lru"
    return cache


def shadowed(sets=8, ways=4, strict=True):
    cache = lru_cache(sets, ways)
    oracle = CacheOracle(cache, CheckContext(strict)).attach()
    return cache, oracle


def req(line, cycle=0, kind=AccessType.LOAD):
    return MemoryRequest(address=line << 6, cycle=cycle, access_type=kind)


# ----------------------------------------------------------------------
def test_functional_cache_true_lru():
    shadow = FunctionalCache(num_sets=1, num_ways=2)
    for line in (0, 8, 0, 16):  # 16 evicts 8 (0 was promoted)
        shadow.access(req(line))
    assert list(shadow.sets[0]) == [0, 16]  # LRU first
    assert (shadow.hits, shadow.misses) == (1, 3)


def test_functional_cache_writeback_sets_dirty_without_promotion():
    shadow = FunctionalCache(num_sets=1, num_ways=2)
    shadow.access(req(0))
    shadow.access(req(8))
    shadow.access(req(0, kind=AccessType.WRITEBACK))  # dirty, stays LRU order
    shadow.access(req(16))  # evicts 0: WRITEBACK hit must not promote
    assert 0 not in shadow.sets[0]


def test_oracle_agrees_on_random_stream():
    cache, oracle = shadowed()
    rng = random.Random(7)
    cycle = 0
    for _ in range(2000):
        kind = (AccessType.STORE if rng.random() < 0.25 else AccessType.LOAD)
        cycle = cache.access(req(rng.randrange(64), cycle, kind)) + 1
    oracle.final_check()
    assert oracle.compared == 2000
    assert oracle.ctx.violations == []


def test_oracle_agrees_with_eviction_during_inflight_fill():
    """Regression for the merge re-install fix: a line evicted while its
    fill is in flight must be re-installed when a later request merges,
    exactly as the functional model predicts."""
    cache, oracle = shadowed(sets=1, ways=2)
    cache.access(req(0, cycle=0))      # miss, fill at 110
    cache.access(req(1, cycle=0))      # miss
    cache.access(req(2, cycle=0))      # miss, evicts 0 (fill in flight)
    done = cache.access(req(0, cycle=5))  # merges with 0's pending fill
    assert done == 110
    assert cache.contains(0)           # re-installed by the merge
    oracle.final_check()
    assert oracle.ctx.violations == []


def test_oracle_catches_injected_promotion_bug():
    """Sabotage the timed policy so hits stop promoting: the shadow model
    must flag the divergence once an eviction decision differs."""
    cache, oracle = shadowed(sets=1, ways=2, strict=False)
    cache.policy.on_hit = lambda set_idx, way, req: None
    cycle = 0
    for line in (0, 8, 0, 16, 0):  # sabotaged LRU evicts 0 instead of 8
        cycle = cache.access(req(line, cycle)) + 1
    assert oracle.ctx.violations != []


def test_oracle_catches_phantom_eviction():
    cache, oracle = shadowed(strict=False)
    cycle = 0
    for line in range(16):
        cycle = cache.access(req(line, cycle)) + 1
    store = cache.store
    line = next(iter(store.slot_of))
    store.valid[store.slot_of.pop(line)] = 0  # vanishes behind oracle's back
    oracle.final_check()
    assert any("residency" in v for v in oracle.ctx.violations)


def test_oracle_taints_on_prefetch_traffic():
    cache, oracle = shadowed()
    cache.access(req(0, cycle=0))
    cache.access(req(1, cycle=0, kind=AccessType.PREFETCH))
    assert oracle.taint_reason is not None
    compared = oracle.compared
    cache.access(req(2, cycle=0))  # no longer compared
    assert oracle.compared == compared
    oracle.final_check()  # tainted: silent regardless of divergence
    assert oracle.ctx.violations == []


def test_oracle_taints_on_bypass_predicate():
    cache, oracle = shadowed()
    cache.bypass_predicate = lambda r: True
    cache.access(req(0, cycle=0))
    assert oracle.taint_reason is not None


def test_oracle_reset_follows_cache_reset():
    cache, oracle = shadowed()
    cycle = 0
    for line in range(8):
        cycle = cache.access(req(line, cycle)) + 1
    cache.reset_stats()
    assert (oracle.shadow.hits, oracle.shadow.misses) == (0, 0)
    for line in range(8):
        cycle = cache.access(req(line, cycle)) + 1  # all hits, both models
    oracle.final_check()
    assert oracle.ctx.violations == []
