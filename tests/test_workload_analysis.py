"""Tests for the trace-analysis utilities."""

import numpy as np
import pytest

from repro.workloads.analysis import (leaf_pte_lines, memory_addresses,
                                      stlb_reach_ratio, summarize,
                                      working_set)
from repro.workloads.registry import make_trace
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, Trace


def simple_trace(addrs, kinds=None):
    n = len(addrs)
    return Trace(np.zeros(n, dtype=np.int64),
                 np.array(kinds if kinds is not None
                          else [KIND_LOAD] * n, dtype=np.int8),
                 np.array(addrs, dtype=np.int64))


def test_memory_addresses_skips_nonmem():
    t = simple_trace([0x1000, 0, 0x2000],
                     kinds=[KIND_LOAD, KIND_NONMEM, KIND_LOAD])
    assert list(memory_addresses(t)) == [0x1000, 0x2000]


def test_working_set_counts():
    t = simple_trace([0x1000, 0x1040, 0x2000])
    ws = working_set(t)
    assert ws["pages"] == 2
    assert ws["lines"] == 3


def test_working_set_empty():
    t = simple_trace([0], kinds=[KIND_NONMEM])
    assert working_set(t) == {"pages": 0, "lines": 0}


def test_leaf_pte_lines_groups_eight_pages():
    pages = [0x10000000 + (i << 12) for i in range(16)]
    t = simple_trace(pages)
    assert leaf_pte_lines(t) == 2


def test_stlb_reach_ratio():
    t = simple_trace([i << 12 for i in range(256)])
    assert stlb_reach_ratio(t, 128) == pytest.approx(2.0)


def test_summarize_on_real_benchmark():
    t = make_trace("pr", 5000)
    s = summarize(t)
    assert s["instructions"] == 5000
    assert s["loads_per_kilo"] > 100
    assert s["stlb_reach_ratio"] > 1.0  # pr cannot fit in the STLB
    assert s["leaf_pte_lines"] <= s["pages"]
