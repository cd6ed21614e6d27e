"""Tests for trace generation and the benchmark registry."""

import numpy as np
import pytest

from repro.params import DEFAULT_SCALE, PAGE_SHIFT
from repro.workloads.analysis import working_set
from repro.workloads.registry import (BENCHMARKS, benchmark_names,
                                      categorize, make_trace)
from repro.workloads.synthetic import (RANDOM_BASE, SEQ_BASE, PatternMix,
                                       SyntheticWorkload)
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, KIND_STORE, Trace


def test_trace_validates_lengths():
    with pytest.raises(ValueError):
        Trace(np.zeros(3), np.zeros(2, dtype=np.int8), np.zeros(3))


def test_trace_slicing_and_records():
    t = make_trace("tc", 100)
    half = t[:50]
    assert len(half) == 50
    assert (half.ips == t.ips[:50]).all()
    assert (half.addrs == t.addrs[:50]).all()


def test_trace_concatenate():
    a = make_trace("tc", 50)
    b = make_trace("pr", 50)
    c = Trace.concatenate([a, b])
    assert len(c) == 100


def test_generation_deterministic_per_seed():
    t1 = make_trace("pr", 500, seed=3)
    t2 = make_trace("pr", 500, seed=3)
    assert np.array_equal(t1.addrs, t2.addrs)
    t3 = make_trace("pr", 500, seed=4)
    assert not np.array_equal(t1.addrs, t3.addrs)


def test_load_rate_matches_mix():
    info = BENCHMARKS["pr"]
    t = make_trace("pr", 50_000)
    expected = info.mix.loads_per_kilo
    assert t.loads_per_kilo() == pytest.approx(expected, rel=0.1)


def test_kinds_are_valid():
    t = make_trace("canneal", 5000)
    assert set(np.unique(t.kinds)) <= {KIND_NONMEM, KIND_LOAD, KIND_STORE}


def test_nonmem_addresses_zero():
    t = make_trace("mcf", 5000)
    nonmem = t.kinds == KIND_NONMEM
    assert (t.addrs[nonmem] == 0).all()


def test_memory_addresses_populated():
    t = make_trace("mcf", 5000)
    mem = t.kinds != KIND_NONMEM
    assert (t.addrs[mem] > 0).all()


def test_footprint_scales_down():
    big = make_trace("pr", 20_000, scale=1)
    small = make_trace("pr", 20_000, scale=DEFAULT_SCALE)
    assert working_set(small)["pages"] < working_set(big)["pages"]


def test_random_region_bounded_by_mix():
    info = BENCHMARKS["cc"]
    t = make_trace("cc", 30_000, scale=DEFAULT_SCALE)
    rand = t.addrs[(t.addrs >= RANDOM_BASE)]
    pages = np.unique(rand >> PAGE_SHIFT) - (RANDOM_BASE >> PAGE_SHIFT)
    assert pages.max() < max(64, info.mix.random_pages // DEFAULT_SCALE)


def test_pointer_chase_revisits_sequence():
    """mcf's permutation cycle gives recurring page sequences."""
    mix = PatternMix(loads_per_kilo=1000, stores_per_kilo=0,
                     random_fraction=1.0, seq_fraction=0.0,
                     random_pages=1600, pointer_chase=True)
    t = SyntheticWorkload(mix).generate(400, scale=16, seed=1)
    pages = (t.addrs[t.kinds == KIND_LOAD] >> PAGE_SHIFT)
    n = 1600 // 16
    first, second = pages[:n], pages[n:2 * n]
    assert np.array_equal(first, second)  # the cycle repeats


def test_fractions_validation():
    with pytest.raises(ValueError):
        SyntheticWorkload(PatternMix(random_fraction=0.7, seq_fraction=0.5))


def test_generate_validates_count():
    with pytest.raises(ValueError):
        SyntheticWorkload(PatternMix()).generate(0)


def test_registry_has_table2_benchmarks():
    assert benchmark_names() == ["xalancbmk", "tc", "canneal", "mis", "mcf",
                                 "bf", "radii", "cc", "pr"]
    for name in benchmark_names():
        info = BENCHMARKS[name]
        assert info.category in ("Low", "Medium", "High")


def test_registry_unknown_benchmark():
    with pytest.raises(ValueError, match="unknown benchmark"):
        make_trace("gcc", 1000)


def test_categorize_thresholds():
    assert categorize(4.0) == "Low"
    assert categorize(15.0) == "Medium"
    assert categorize(80.0) == "High"


def test_categories_match_registry():
    """The registry categories agree with the paper's Table II bands."""
    from repro.workloads.registry import TABLE2_REFERENCE
    for name, ref in TABLE2_REFERENCE.items():
        assert categorize(ref["stlb"]) == BENCHMARKS[name].category
