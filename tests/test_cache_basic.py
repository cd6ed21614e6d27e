"""Tests for repro.cache.cache: hits, misses, fills, evictions,
writebacks, MSHR interaction, ideal modes and prefetch handling."""

import pytest

from repro.cache.cache import Cache
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import CacheConfig


class FakeMemory:
    """Constant-latency backing store that records accesses."""

    def __init__(self, latency=100):
        self.latency = latency
        self.accesses = []

    def access(self, req):
        self.accesses.append((req.line_addr, req.cycle, req.access_type))
        req.served_by = "DRAM"
        return req.cycle + self.latency


def small_cache(**kwargs):
    mem = FakeMemory()
    config = CacheConfig("T", size_bytes=4 * 64 * 2, ways=2, latency=10,
                         mshr_entries=8, replacement="lru")
    cache = Cache(config, mem, **kwargs)
    return cache, mem


def load(addr, cycle=0, **kw):
    return MemoryRequest(address=addr, cycle=cycle, **kw)


def test_geometry():
    cache, _ = small_cache()
    assert cache.num_sets == 4
    assert cache.num_ways == 2


def test_miss_then_hit():
    cache, mem = small_cache()
    first = cache.access(load(0x1000, cycle=0))
    assert first == 10 + 100  # lookup + backing latency
    assert len(mem.accesses) == 1
    second = cache.access(load(0x1000, cycle=500))
    assert second == 510  # hit latency only
    assert len(mem.accesses) == 1
    assert cache.stats.hits["non_replay"] == 1
    assert cache.stats.misses["non_replay"] == 1


def test_hit_on_inflight_fill_waits_for_data():
    cache, _ = small_cache()
    done1 = cache.access(load(0x1000, cycle=0))
    # Second access 5 cycles later: tag matches but data not yet arrived.
    done2 = cache.access(load(0x1000, cycle=5))
    assert done2 == done1
    assert cache.stats.hits["non_replay"] == 1  # still counted as a hit


def test_mshr_merge_same_line_different_word():
    cache, mem = small_cache()
    cache.access(load(0x1000, cycle=0))
    # Evict nothing; access same line via a different word offset.
    done = cache.access(load(0x1008, cycle=1))
    assert done == 110
    assert len(mem.accesses) == 1  # merged, no duplicate fetch


def test_eviction_lru_within_set():
    cache, mem = small_cache()
    sets = cache.num_sets
    stride = sets * 64
    a, b, c = 0x0, stride, 2 * stride  # all map to set 0
    cache.access(load(a, cycle=0))
    cache.access(load(b, cycle=1000))
    cache.access(load(a, cycle=2000))  # touch a: b is now LRU
    cache.access(load(c, cycle=3000))  # evicts b
    assert cache.contains(a >> 6)
    assert cache.contains(c >> 6)
    assert not cache.contains(b >> 6)


def test_dirty_eviction_writes_back():
    cache, mem = small_cache()
    stride = cache.num_sets * 64
    cache.access(load(0x0, cycle=0, access_type=AccessType.STORE))
    cache.access(load(stride, cycle=1000))
    cache.access(load(2 * stride, cycle=2000))  # evicts the dirty line
    wb = [a for a in mem.accesses if a[2] is AccessType.WRITEBACK]
    assert len(wb) == 1
    assert cache.writebacks_issued == 1


def test_store_hit_marks_dirty():
    cache, _ = small_cache()
    cache.access(load(0x40, cycle=0))
    cache.access(load(0x40, cycle=500, access_type=AccessType.STORE))
    store = cache.store
    assert store.dirty[store.slot_of[0x40 >> 6]]


def test_ideal_translation_mode_responds_at_hit_latency():
    cache, mem = small_cache(ideal_translations=True)
    req = load(0x1000, cycle=0, access_type=AccessType.TRANSLATION,
               pt_level=1)
    done = cache.access(req)
    assert done == 10  # hit latency despite the miss
    assert len(mem.accesses) == 1  # bandwidth still consumed below


def test_ideal_mode_only_applies_to_matching_class():
    cache, _ = small_cache(ideal_translations=True)
    done = cache.access(load(0x2000, cycle=0))  # plain load
    assert done == 110


def test_ideal_replay_mode():
    cache, _ = small_cache(ideal_replays=True)
    done = cache.access(load(0x3000, cycle=0, is_replay=True))
    assert done == 10


def test_issue_prefetch_fills_cache():
    cache, mem = small_cache()
    done = cache.issue_prefetch(0x5000 >> 6, cycle=0)
    assert done == 110
    assert cache.contains(0x5000 >> 6)
    assert cache.stats.prefetch_fills == 1


def test_issue_prefetch_skips_resident_line():
    cache, mem = small_cache()
    cache.access(load(0x5000, cycle=0))
    n = len(mem.accesses)
    cache.issue_prefetch(0x5000 >> 6, cycle=10)
    assert len(mem.accesses) == n


def test_demand_hit_on_prefetch_counts_useful():
    cache, _ = small_cache()
    cache.issue_prefetch(0x5000 >> 6, cycle=0)
    cache.access(load(0x5000, cycle=500))
    assert cache.stats.prefetch_useful == 1


def test_evict_priority_prefetch_is_first_victim():
    cache, _ = small_cache()
    stride = cache.num_sets * 64
    cache.access(load(0x0, cycle=0))
    cache.issue_prefetch(stride >> 6, cycle=100, evict_priority=True)
    # Set 0 is now full; next fill should evict the demoted prefetch even
    # though it is the most recently touched line.
    cache.access(load(2 * stride, cycle=1000))
    assert cache.contains(0)
    assert not cache.contains(stride >> 6)


def test_dead_on_hit_block_stays_victim_after_consumption():
    cache, _ = small_cache()
    stride = cache.num_sets * 64
    cache.issue_prefetch(0x0, cycle=0, evict_priority=True)
    cache.access(load(0x0, cycle=500))           # consume (LRU-promotes)
    cache.access(load(stride, cycle=1000))       # fill the other way
    cache.access(load(2 * stride, cycle=2000))   # must evict the dead block
    assert not cache.contains(0)
    assert cache.contains(stride >> 6)


def test_leaf_translation_hit_callback():
    cache, _ = small_cache()
    seen = []
    cache.on_leaf_translation_hit = lambda req, cycle: seen.append(cycle)
    req = load(0x1000, cycle=0, access_type=AccessType.TRANSLATION,
               pt_level=1, replay_line_addr=0x77)
    cache.access(req)                       # miss: no callback
    cache.access(load(0x1000, cycle=500,
                      access_type=AccessType.TRANSLATION, pt_level=1))
    assert seen == [510]


def test_leaf_stats_tracked_separately():
    cache, _ = small_cache()
    cache.access(load(0x1000, cycle=0, access_type=AccessType.TRANSLATION,
                      pt_level=1))
    cache.access(load(0x2000, cycle=0, access_type=AccessType.TRANSLATION,
                      pt_level=3))
    assert cache.stats.leaf_accesses == 1
    assert cache.stats.leaf_misses == 1


def test_reset_stats_preserves_contents():
    cache, _ = small_cache()
    cache.access(load(0x1000, cycle=0))
    cache.reset_stats()
    assert sum(cache.stats.misses.values()) == 0
    assert cache.contains(0x1000 >> 6)


def test_occupancy_by_category():
    cache, _ = small_cache()
    cache.access(load(0x1000, cycle=0))
    cache.access(load(0x2040, cycle=0, is_replay=True))
    cache.access(load(0x3080, cycle=0, access_type=AccessType.TRANSLATION,
                      pt_level=1))
    occ = cache.occupancy_by_category()
    assert occ == {"translation": 1, "replay": 1, "other": 1}


def test_writeback_miss_installs_line():
    cache, mem = small_cache()
    cache.access(load(0x9000, cycle=0, access_type=AccessType.WRITEBACK))
    assert cache.contains(0x9000 >> 6)
    assert cache.store.dirty[cache.store.slot_of[0x9000 >> 6]]
    assert not mem.accesses  # absorbed, not forwarded


def test_post_throttle_request_to_throttling_line_still_merges():
    """Regression for the MSHR merge-loss bug: when a full MSHR delays a
    new miss, the earliest in-flight entry used to be deleted, so a
    later request to that line got the bare hit latency instead of
    waiting for (merging with) its in-flight fill."""
    cache, mem = small_cache()
    first = 0x10000
    # Saturate the 8-entry MSHR; every fill lands at cycle 110.
    for i in range(8):
        cache.access(load(first + i * 0x1000, cycle=0))
    n_mem = len(mem.accesses)
    # The 9th miss is admission-throttled until the earliest fill (110).
    cache.access(load(0x50000, cycle=0))
    assert cache.mshr.admission_stall_cycles > 0
    # A request to the throttling line while its fill is in flight must
    # complete at the fill time (110), not the tag-hit latency (60).
    done = cache.access(load(first, cycle=50))
    assert done == 110
    assert len(mem.accesses) == n_mem + 1  # only the throttled miss went down


class _InvalidateRecorder:
    """Stand-in upper level that holds a clean copy of every line."""

    def invalidate(self, line_addr):
        return False


def test_reset_stats_clears_congestion_counters():
    """Regression for the warmup stat leak: admission stalls, bypassed
    fills and back-invalidations from the warmup phase must not leak
    into ROI-reported numbers."""
    cache, _ = small_cache()
    cache.back_invalidate_targets.append(_InvalidateRecorder())
    cache.bypass_predicate = lambda req: req.line_addr == (0x9999 << 6) >> 6
    # All of these map to set 0 (stride = 0x1000 lines x 64B): 8 distinct
    # lines overflow the 2 ways (back-invalidations) and fill the MSHR.
    for i in range(8):
        cache.access(load(0x10000 + i * 0x1000, cycle=0))
    cache.access(load(0x50000, cycle=0))        # admission-throttled
    cache.access(load(0x9999 << 6, cycle=5000))  # bypassed fill
    assert cache.mshr.admission_stall_cycles > 0
    assert cache.back_invalidations > 0
    assert cache.fills_bypassed == 1
    cache.reset_stats()
    assert cache.mshr.admission_stall_cycles == 0
    assert cache.back_invalidations == 0
    assert cache.fills_bypassed == 0
    assert cache.mshr.peak_occupancy == 0
