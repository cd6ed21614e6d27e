"""Tests for counters, recall tracking and report formatting."""

import pytest

from repro.stats.counters import CacheStats, LevelDistribution
from repro.stats.recall import RECALL_BUCKETS, RecallTracker
from repro.stats.report import format_table, geometric_mean, harmonic_mean


# -- CacheStats ---------------------------------------------------------
def test_cache_stats_mpki():
    s = CacheStats("L2C")
    s.accesses["replay"], s.misses["replay"] = 6, 5
    assert s.mpki("replay", 1000) == 5.0
    assert s.mpki("replay", 0) == 0.0


def test_cache_stats_leaf_tracking():
    s = CacheStats("LLC")
    s.leaf_accesses = s.leaf_misses = 1
    s.misses["translation"] = 1
    assert s.leaf_mpki(1000) == 1.0
    assert s.leaf_mpki(0) == 0.0


def test_level_distribution_fractions():
    d = LevelDistribution()
    d.counts["replay"]["DRAM"] += 2
    d.counts["replay"]["LLC"] += 1
    f = d.fractions("replay")
    assert f["DRAM"] == pytest.approx(2 / 3)
    assert f["L1D"] == 0.0
    assert d.fractions("translation")["DRAM"] == 0.0


# -- RecallTracker -------------------------------------------------------
def test_recall_exact_distance():
    t = RecallTracker("x")
    t.on_evict(0, line_addr=100)
    for line in (1, 2, 3):
        t.on_access(0, line)
    t.on_access(0, 100)  # recall at distance 3
    assert t.samples == 1
    assert t.histogram[0] == 1  # <=10 bucket


def test_recall_duplicate_accesses_counted_once():
    t = RecallTracker("x")
    t.on_evict(0, 100)
    for _ in range(20):
        t.on_access(0, 1)  # same line over and over: 1 unique
    t.on_access(0, 100)
    assert t.histogram[0] == 1


def test_recall_overflow_bucket():
    t = RecallTracker("x")
    t.on_evict(0, 100)
    for line in range(1, 60):
        t.on_access(0, line)
    t.on_access(0, 100)
    assert t.histogram[-1] == 1  # >50


def test_recall_per_set_isolation():
    t = RecallTracker("x")
    t.on_evict(0, 100)
    for line in range(1, 30):
        t.on_access(1, line)  # different set: not counted
    t.on_access(0, 100)
    assert t.histogram[0] == 1


def test_recall_flush_resolves_pending():
    t = RecallTracker("x")
    t.on_evict(0, 100)
    for line in range(1, 60):
        t.on_access(0, line)
    t.flush()
    assert t.samples == 1
    assert t.histogram[-1] == 1


def test_recall_cdf_monotone():
    t = RecallTracker("x")
    for i in range(30):
        t.on_evict(0, 1000 + i)
        for line in range(i):
            t.on_access(0, line)
        t.on_access(0, 1000 + i)
    cdf = t.cdf()
    assert all(a <= b + 1e-12 for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] == pytest.approx(1.0)


def test_recall_bounded_pending():
    t = RecallTracker("x")
    for i in range(1000):
        t.on_evict(0, i)
    # Old pending evictions resolved rather than leaking memory.
    assert t.samples > 0


# -- report --------------------------------------------------------------
def test_format_table_alignment():
    out = format_table("Title", ["a", "bench"], [["x", 1.5], ["yy", 2]])
    lines = out.splitlines()
    assert lines[0] == "Title"
    assert "bench" in lines[2]
    assert "1.500" in out


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    with pytest.raises(ValueError):
        geometric_mean([1.0, -1.0])


def test_harmonic_mean():
    assert harmonic_mean([1.0, 1.0]) == pytest.approx(1.0)
    assert harmonic_mean([2.0, 2.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harmonic_mean([0.0])
    assert harmonic_mean([]) == 0.0
