"""Tests for the TLB model."""

import pytest

from repro.params import TLBConfig
from repro.vm.tlb import TLB


def make_tlb(entries=8, ways=2, track_recall=False):
    return TLB(TLBConfig("STLB", entries, ways, latency=8),
               track_recall=track_recall)


def test_miss_then_hit():
    tlb = make_tlb()
    assert tlb.lookup(0x10) is None
    tlb.fill(0x10, 0x99)
    assert tlb.lookup(0x10) == 0x99
    assert tlb.misses == 1
    assert tlb.hits == 1


def test_lru_eviction_within_set():
    tlb = make_tlb(entries=4, ways=2)  # 2 sets
    s = tlb.num_sets
    a, b, c = 0, s, 2 * s  # same set
    tlb.fill(a, 1)
    tlb.fill(b, 2)
    tlb.lookup(a)          # refresh a
    tlb.fill(c, 3)         # evicts b
    assert tlb.lookup(b) is None
    assert tlb.lookup(a) == 1
    assert tlb.lookup(c) == 3
    assert tlb.evictions == 1


def test_refill_existing_updates_frame():
    tlb = make_tlb()
    tlb.fill(0x10, 1)
    tlb.fill(0x10, 2)
    assert tlb.lookup(0x10) == 2
    assert tlb.evictions == 0


def test_uncounted_lookup_skips_stats():
    tlb = make_tlb()
    tlb.fill(0x10, 1)
    assert tlb.lookup(0x10, count=False) == 1
    assert tlb.lookup(0x99, count=False) is None
    assert tlb.accesses == 0
    assert tlb.misses == 0


def test_mpki_and_miss_rate():
    tlb = make_tlb()
    tlb.lookup(1)
    tlb.fill(1, 1)
    tlb.lookup(1)
    assert (tlb.misses, tlb.accesses) == (1, 2)
    assert tlb.mpki(1000) == 1.0


def test_recall_tracker_records_evicted_reuse():
    tlb = make_tlb(entries=2, ways=2, track_recall=True)  # 1 set
    tlb.fill(1, 1)
    tlb.fill(2, 2)
    tlb.lookup(1)
    tlb.fill(3, 3)  # evicts vpn 2
    for vpn in (4, 5, 6):
        tlb.lookup(vpn)  # unique accesses after the eviction
    tlb.lookup(2)        # recall!
    tlb.recall.flush()
    assert tlb.recall.samples >= 1
    assert tlb.recall.histogram[0] >= 1  # distance 3 <= 10


def test_invalidate_all():
    tlb = make_tlb()
    tlb.fill(0x10, 1)
    tlb.invalidate_all()
    assert tlb.lookup(0x10) is None


def test_reset_stats_preserves_contents():
    tlb = make_tlb()
    tlb.fill(0x10, 1)
    tlb.lookup(0x10)
    tlb.reset_stats()
    assert tlb.accesses == 0
    assert tlb.lookup(0x10) == 1
