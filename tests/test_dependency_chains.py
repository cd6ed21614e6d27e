"""Tests for load-to-load dependency chains (pointer chasing)."""

import numpy as np
import pytest

from repro.core.ooo_core import OOOCore
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va
from repro.workloads.registry import make_trace
from repro.workloads.trace import KIND_LOAD, Trace


def chain_trace(n, dependent):
    addrs = np.array([make_va([6, 0, 0, i // 512, i % 512])
                      for i in range(n)], dtype=np.int64)
    deps = np.full(n, 1 if dependent else 0, dtype=np.int8)
    return Trace(np.full(n, 0x500, dtype=np.int64),
                 np.full(n, KIND_LOAD, dtype=np.int8), addrs, deps=deps)


def test_deps_default_zero():
    t = make_trace("pr", 1000)
    # pr is not a pointer chaser.
    assert int(t.deps.sum()) == 0


def test_mcf_marks_chase_loads_dependent():
    t = make_trace("mcf", 20_000)
    assert int(t.deps.sum()) > 0
    # Only loads carry the flag.
    assert (t.kinds[t.deps == 1] == KIND_LOAD).all()


def test_dependent_chain_serializes():
    """N dependent cold loads take ~N serial memory latencies; the same
    loads independent overlap massively."""
    cfg = default_config()
    n = 60
    serial = OOOCore(cfg, MemoryHierarchy(cfg)).run(chain_trace(n, True))
    parallel = OOOCore(cfg, MemoryHierarchy(cfg)).run(chain_trace(n, False))
    assert serial.cycles > 3 * parallel.cycles
    # Each chain step costs at least an L1D->DRAM round trip.
    assert serial.cycles > n * cfg.dram.row_hit_latency


def test_slicing_preserves_deps():
    t = make_trace("mcf", 4000)
    half = t[:2000]
    assert np.array_equal(half.deps, t.deps[:2000])
