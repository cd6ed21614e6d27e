"""Direct tests for the steppable ThreadState engine."""

import numpy as np
import pytest

from repro.api import build_config
from repro.core.engine import ThreadState
from repro.core.ooo_core import OOOCore
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.validate.oracle import hierarchy_counters
from repro.workloads.registry import make_trace as make_benchmark_trace
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, Trace


def make_trace(records):
    ips = np.array([r[0] for r in records], dtype=np.int64)
    kinds = np.array([r[1] for r in records], dtype=np.int8)
    addrs = np.array([r[2] for r in records], dtype=np.int64)
    return Trace(ips, kinds, addrs)


def build_thread(records, rob=8, dispatch=2, retire=2, warmup=0):
    cfg = default_config()
    return ThreadState(make_trace(records), MemoryHierarchy(cfg),
                       rob_entries=rob, dispatch_width=dispatch,
                       retire_width=retire, warmup=warmup)


def test_thread_steps_to_completion():
    t = build_thread([(0x400, KIND_NONMEM, 0)] * 20)
    while not t.finished:
        t.step()
    assert t.index == 20
    assert t.roi_instructions == 20
    assert t.roi_cycles >= 10  # 2-wide dispatch floor


def test_dispatch_width_bounds_throughput():
    t = build_thread([(0x400, KIND_NONMEM, 0)] * 100, rob=1000,
                     dispatch=2, retire=2)
    while not t.finished:
        t.step()
    # 2-wide: at least 50 cycles for 100 instructions.
    assert t.roi_cycles >= 50


def test_rob_occupancy_blocks_dispatch():
    """A long-latency load at the head throttles a tiny ROB."""
    records = [(0x500, KIND_LOAD, 0x1000_0000)]
    records += [(0x400, KIND_NONMEM, 0)] * 50
    small = build_thread(records, rob=4)
    while not small.finished:
        small.step()
    big = build_thread(records, rob=512)
    while not big.finished:
        big.step()
    assert small.roi_cycles >= big.roi_cycles


def test_warmup_boundary_marks_roi():
    t = build_thread([(0x400, KIND_NONMEM, 0)] * 100, warmup=40)
    while not t.finished:
        t.step()
    assert t.crossed_warmup
    assert t.roi_instructions == 60


def test_stall_accounting_only_counts_roi():
    records = [(0x500, KIND_LOAD, 0x1000_0000)]  # in warmup
    records += [(0x400, KIND_NONMEM, 0)] * 99
    t = build_thread(records, warmup=50)
    while not t.finished:
        t.step()
    assert t.stalls.total_stall_cycles() == 0


# ----------------------------------------------------------------------
# One stream, stepped one instruction at a time, is the core
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,enhancements,instructions,warmup", [
    ("pr", "full", 20_000, 4_000),
    ("compute", None, 20_000, 4_000),
    ("mcf", "full", 20_000, 4_000),
    ("pr", "full", 20_000, 0),
])
def test_single_thread_stepping_matches_core(name, enhancements,
                                             instructions, warmup):
    """A single ``ThreadState`` stepped to the end of a trace runs the
    recurrence ``OOOCore.run`` runs: same ROI, stalls and counters."""
    cfg = build_config(enhancements=enhancements)
    trace = make_benchmark_trace(name, instructions + warmup)

    core_hierarchy = MemoryHierarchy(cfg)
    result = OOOCore(cfg, core_hierarchy).run(trace, warmup=warmup)

    hierarchy = MemoryHierarchy(cfg)
    core = cfg.core
    thread = ThreadState(trace, hierarchy, rob_entries=core.rob_entries,
                         dispatch_width=core.dispatch_width,
                         retire_width=core.retire_width,
                         nonmem_latency=core.nonmem_latency, warmup=warmup)
    while not thread.finished:
        # The core resets the statistics right before the warmup edge.
        if not thread.counting and thread.index == warmup:
            hierarchy.reset_stats()
        thread.step()

    assert thread.roi_cycles == result.cycles
    assert thread.roi_instructions == result.instructions == instructions
    assert thread.stalls.snapshot() == result.stalls.snapshot()
    assert hierarchy_counters(hierarchy) == hierarchy_counters(
        core_hierarchy)
