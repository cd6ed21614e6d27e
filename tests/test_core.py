"""Tests for the OOO core model and stall attribution."""

import dataclasses

import numpy as np

from repro.core.ooo_core import OOOCore
from repro.core.rob import StallAccounting, StallCategory
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, KIND_STORE, Trace


def make_trace(records):
    ips = np.array([r[0] for r in records], dtype=np.int64)
    kinds = np.array([r[1] for r in records], dtype=np.int8)
    addrs = np.array([r[2] for r in records], dtype=np.int64)
    return Trace(ips, kinds, addrs)


def build_core():
    cfg = default_config()
    hierarchy = MemoryHierarchy(cfg)
    return OOOCore(cfg, hierarchy), cfg


def build_narrow_core(rob=8, dispatch=2, retire=2):
    cfg = default_config()
    cfg = cfg.with_(core=dataclasses.replace(
        cfg.core, rob_entries=rob, dispatch_width=dispatch,
        retire_width=retire))
    return OOOCore(cfg, MemoryHierarchy(cfg))


def test_nonmem_ipc_bounded_by_retire_width():
    core, cfg = build_core()
    trace = make_trace([(0x400, KIND_NONMEM, 0)] * 4000)
    result = core.run(trace)
    assert result.instructions == 4000
    # Retire width 4: IPC can approach but not exceed it.
    assert 3.0 < result.ipc <= cfg.core.retire_width


def test_single_cold_load_stalls_head():
    core, _ = build_core()
    records = [(0x400, KIND_NONMEM, 0)] * 10
    records.append((0x500, KIND_LOAD, 0x1000_0000))
    records += [(0x400, KIND_NONMEM, 0)] * 10
    result = core.run(make_trace(records))
    stalls = result.stalls
    # The cold load misses STLB: both translation and replay stall.
    assert stalls.total(StallCategory.TRANSLATION) > 0
    assert stalls.total(StallCategory.REPLAY) > 0
    assert stalls.total(StallCategory.NON_REPLAY) == 0


def test_warm_load_attributed_to_non_replay():
    core, _ = build_core()
    records = [(0x500, KIND_LOAD, 0x1000_0000)]    # warms TLB+cache
    records += [(0x400, KIND_NONMEM, 0)] * 500
    records += [(0x500, KIND_LOAD, 0x2000_0000)]   # STLB miss again
    records += [(0x400, KIND_NONMEM, 0)] * 500
    records += [(0x500, KIND_LOAD, 0x2000_0040)]   # same page: STLB hit
    result = core.run(make_trace(records))
    # The last load is a non-replay (TLB hit) but a cache miss.
    assert result.stalls.total(StallCategory.NON_REPLAY) > 0


def test_stores_do_not_stall_head():
    core, _ = build_core()
    records = [(0x500, KIND_STORE, 0x1000_0000 + i * 4096)
               for i in range(50)]
    result = core.run(make_trace(records))
    assert result.stalls.total(StallCategory.REPLAY) == 0
    assert result.stalls.total(StallCategory.NON_REPLAY) == 0


def test_warmup_excludes_early_stats():
    core, _ = build_core()
    records = [(0x500, KIND_LOAD, 0x1000_0000)]
    records += [(0x400, KIND_NONMEM, 0)] * 999
    result = core.run(make_trace(records), warmup=500)
    assert result.instructions == 500
    # The only (stalling) load was in the warmup region.
    assert result.stalls.total(StallCategory.REPLAY) == 0
    assert core.hierarchy.loads == 0  # stats were reset at the boundary


def test_dispatch_width_bounds_throughput():
    core = build_narrow_core(rob=1000, dispatch=2, retire=2)
    result = core.run(make_trace([(0x400, KIND_NONMEM, 0)] * 100))
    assert result.instructions == 100
    # 2-wide: at least 50 cycles for 100 instructions.
    assert result.cycles >= 50


def test_rob_occupancy_blocks_dispatch():
    """A long-latency load at the head throttles a tiny ROB: the second
    cold load cannot issue until the first retires."""
    records = [(0x500, KIND_LOAD, 0x1000_0000)]
    records += [(0x400, KIND_NONMEM, 0)] * 50
    records += [(0x501, KIND_LOAD, 0x7000_0000)]
    small = build_narrow_core(rob=4).run(make_trace(records))
    big = build_narrow_core(rob=512).run(make_trace(records))
    assert small.cycles > 1.3 * big.cycles


def test_warmup_boundary_marks_roi():
    """The ROI counts from the retire clock at instruction ``warmup``."""
    core = build_narrow_core()
    trace = make_trace([(0x400, KIND_NONMEM, 0)] * 100)
    core.start(trace, warmup=40)
    core.run_slice(40)
    edge_cycle = core.retire_cycle
    result = core.run(trace, warmup=40)
    assert core.counting
    assert result.instructions == 60
    assert result.cycles == core.retire_cycle - edge_cycle


def test_stall_accounting_only_counts_roi():
    records = [(0x500, KIND_LOAD, 0x1000_0000)]  # in warmup
    records += [(0x400, KIND_NONMEM, 0)] * 99
    result = build_narrow_core().run(make_trace(records), warmup=50)
    assert result.stalls.total_stall_cycles() == 0


def test_limit_truncates():
    core, _ = build_core()
    trace = make_trace([(0x400, KIND_NONMEM, 0)] * 100)
    result = core.run(trace, limit=10)
    assert result.instructions == 10


def test_mlp_overlaps_independent_misses():
    """Two independent cold loads should overlap, costing much less than
    2x one load's latency."""
    core, _ = build_core()
    one = make_trace([(0x500, KIND_LOAD, 0x1000_0000)])
    t_one = core.run(one).cycles

    core2, _ = build_core()
    two = make_trace([(0x500, KIND_LOAD, 0x1000_0000),
                      (0x501, KIND_LOAD, 0x7000_0000)])
    t_two = core2.run(two).cycles
    assert t_two < 2 * t_one


def test_stall_accounting_split():
    acc = StallAccounting()
    acc.record_load_stall(100, is_replay=True, translation_pending=30)
    assert acc.total(StallCategory.TRANSLATION) == 30
    assert acc.total(StallCategory.REPLAY) == 70
    acc.record_load_stall(50, is_replay=False, translation_pending=0)
    assert acc.total(StallCategory.NON_REPLAY) == 50
    assert acc.translation_plus_replay() == 100
    assert acc.total_stall_cycles() == 150


def test_stall_accounting_clamps_translation_portion():
    acc = StallAccounting()
    # Translation pending longer than the stall window: all translation.
    acc.record_load_stall(40, is_replay=True, translation_pending=100)
    assert acc.total(StallCategory.TRANSLATION) == 40
    assert acc.total(StallCategory.REPLAY) == 0
    # Negative pending (walk done before the window): all replay.
    acc.record_load_stall(40, is_replay=True, translation_pending=-5)
    assert acc.total(StallCategory.REPLAY) == 40


def test_stall_accounting_ignores_nonpositive():
    acc = StallAccounting()
    acc.record_load_stall(0, is_replay=True, translation_pending=0)
    assert acc.total_stall_cycles() == 0
    assert acc.snapshot()["replay"]["avg"] == 0.0


def test_snapshot_shape():
    acc = StallAccounting()
    acc.record_load_stall(10, is_replay=False, translation_pending=0)
    snap = acc.snapshot()
    assert snap["non_replay"]["events"] == 1
    assert snap["non_replay"]["max"] == 10
