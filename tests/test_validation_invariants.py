"""Tests for repro.validate.invariants: the checkers must be silent on
healthy runs, loud on seeded corruption, and absent when disabled."""

import pytest

from repro.core.multicore import MultiCore
from repro.core.ooo_core import OOOCore
from repro.core.smt import SMTCore
from repro.experiments.runner import run_benchmark
from repro.params import EnhancementConfig, default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.validate.invariants import (CheckContext, HierarchyChecker,
                                       ROBChecker, ValidationError,
                                       mshr_queue_limit)
from repro.vm.address import make_va
from repro.workloads.registry import make_trace


@pytest.fixture
def checked(monkeypatch):
    """A small hierarchy with the full checker stack attached."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    cfg = default_config(16).with_(
        enhancements=EnhancementConfig.full())
    hierarchy = MemoryHierarchy(cfg)
    assert hierarchy.checker is not None
    return hierarchy


def drive(hierarchy, n=64):
    cycle = 0
    for i in range(n):
        res = hierarchy.load(make_va([1, 0, 0, i % 4, i % 32]), cycle)
        cycle = res.data_done + 1


# ----------------------------------------------------------------------
def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    hierarchy = MemoryHierarchy(default_config(16))
    assert hierarchy.checker is None
    # Zero-cost-when-off contract: the bound methods are untouched.
    assert "access" not in hierarchy.l1d.__dict__
    assert "translate" not in hierarchy.mmu.__dict__


def test_clean_run_counts_events_and_stays_silent(checked):
    drive(checked)
    checked.checker.final_check()
    assert checked.checker.events > 0
    assert checked.checker.violations == []


def test_run_benchmark_final_check(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    result = run_benchmark("pr", instructions=4_000, warmup=1_000, scale=16)
    checker = result.hierarchy.checker
    assert checker is not None
    assert checker.events > 0
    assert checker.violations == []


# -- seeded corruption: every checker family must catch its fault ------
def test_detects_stats_corruption(checked):
    drive(checked, 8)
    checked.l1d.stats.hits["non_replay"] += 1
    with pytest.raises(ValidationError, match="hits"):
        drive(checked, 1)


def test_detects_duplicate_way_mapping(checked):
    drive(checked, 32)
    slot_of = checked.l1d.store.slot_of
    lines = list(slot_of)[:2]
    slot_of[lines[0]] = slot_of[lines[1]]  # two lines now share a slot
    with pytest.raises(ValidationError):
        checked.checker.final_check()


def test_detects_rrpv_out_of_bounds(checked):
    drive(checked, 32)
    llc = checked.llc
    max_rrpv = llc.policy.max_rrpv
    store = llc.store
    slot = next(s for s in range(store.size) if store.valid[s])
    store.rrpv[slot] = max_rrpv + 5
    with pytest.raises(ValidationError, match="RRPV"):
        checked.checker.final_check()


def test_detects_mshr_conservation_break(checked):
    drive(checked, 8)
    checked.l2c.mshr.allocations += 3  # phantom allocations
    with pytest.raises(ValidationError, match="conservation"):
        drive(checked, 1)


def test_detects_mshr_leak(checked):
    drive(checked, 8)
    mshr = checked.l1d.mshr
    bound = 2 * (mshr.entries + checked.l1d._prefetch_queue)
    far_future = 10**9
    for i in range(bound + 1):
        mshr.allocate(0x900000 + i, far_future, 0)
    with pytest.raises(ValidationError, match="leaking"):
        drive(checked, 1)


def test_mshr_queue_is_bounded_separately(checked):
    """Misses admitted for a later start are not leaks, but a queue
    past the stated limit still fails."""
    drive(checked, 8)
    l1d = checked.l1d
    (checker,) = [c for c in checked.checker.cache_checkers
                  if c.cache is l1d]
    checker.queue_limit = 4
    for i in range(5):
        l1d.mshr.allocate(0x900000 + i, 10**9, 10**8)
    with pytest.raises(ValidationError, match="running away"):
        drive(checked, 1)


@pytest.mark.parametrize("argv", [
    ["run", "SYN-03-REPLAY-DEAD-STREAMS", "--instructions", "6000",
     "--warmup", "1000", "--check"],
    ["figure", "hugepages", "--benchmarks", "mis", "--instructions",
     "4000", "--warmup", "1000", "--check"],
], ids=["syn03", "hugepages-mis"])
def test_misses_queued_behind_a_full_mshr_are_not_leaks(monkeypatch,
                                                        argv):
    """Both runs hold many L1D misses admitted for a later start behind
    a full MSHR; the detector counts only the entries admitted and live
    at its probe against the capacity."""
    from repro.__main__ import main
    monkeypatch.setenv("REPRO_CHECK", "0")  # restored after --check
    assert main(argv) == 0


def test_detects_inclusion_violation(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    cfg = default_config(16).with_(llc_inclusion="inclusive")
    hierarchy = MemoryHierarchy(cfg)
    drive(hierarchy, 32)
    # Drop a line from the LLC behind the back-invalidation machinery's
    # back: its L1D/L2C copies now violate inclusion.
    victim = next(line for line in hierarchy.l2c.store.slot_of
                  if hierarchy.llc.contains(line))
    slot = hierarchy.llc.store.slot_of.pop(victim)
    hierarchy.llc.store.valid[slot] = 0
    with pytest.raises(ValidationError, match="inclusive"):
        hierarchy.checker.final_check()


def test_detects_translation_mismatch(checked):
    mmu = checked.mmu
    va = make_va([1, 0, 0, 0, 7])
    mmu.translate(va, 0)  # maps the page
    # Corrupt the cached frame in the DTLB: the differential check against
    # the page table must catch the stale/wrong translation.
    for frames in mmu.dtlb._frames:
        for key in frames:
            frames[key] += 1
    with pytest.raises(ValidationError, match="page"):
        mmu.translate(va, 100)


def test_rob_checker_occupancy_and_order():
    ctx = CheckContext()
    rob = ROBChecker(rob_entries=4, ctx=ctx)
    for dispatch, retire in ((0, 5), (0, 5), (1, 7), (1, 7)):
        rob.on_retire(dispatch, retire)
    # The fifth instruction takes the first one's slot: it may dispatch
    # once that one retired, at cycle 5, and not before.
    with pytest.raises(ValidationError, match="occupancy"):
        rob.on_retire(4, 8)
    rob.on_retire(5, 8)
    with pytest.raises(ValidationError, match="out-of-order"):
        rob.on_retire(6, 7)
    with pytest.raises(ValidationError, match="not after dispatch"):
        rob.on_retire(9, 9)


class _AlwaysFree(list):
    """A ROB ring whose every slot reads as retired at cycle 0."""

    def __getitem__(self, pos):
        return 0


class _NoROBWaitCore(OOOCore):
    """A planted fault: dispatch never waits for a ROB slot."""

    def start(self, *args, **kwargs):
        super().start(*args, **kwargs)
        self.rob = _AlwaysFree(self.rob)


def test_rob_checker_catches_a_core_that_skips_the_rob_wait():
    cfg = default_config(16)
    trace = make_trace("mcf", 3_000, scale=16, seed=1)
    for core_cls, fails in ((OOOCore, False), (_NoROBWaitCore, True)):
        core = core_cls(cfg, MemoryHierarchy(cfg))
        core.checker = ROBChecker(core.rob_entries, CheckContext())
        if fails:
            with pytest.raises(ValidationError, match="occupancy"):
                core.run(trace, warmup=500)
        else:
            core.run(trace, warmup=500)
            assert core.checker.ctx.events == 3_000


def test_smt_and_multicore_threads_are_rob_checked(monkeypatch):
    """Every SMT thread and every core retires under its own ROB checker,
    sized to its share of the ROB."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    cfg = default_config().with_(enhancements=EnhancementConfig.full())
    hierarchy = MemoryHierarchy(cfg)
    SMTCore(cfg, hierarchy).run(
        [make_trace("mcf", 2000, seed=7), make_trace("tc", 2000, seed=8)],
        warmup=500)
    multicore = MultiCore(cfg, 2)
    multicore.run(
        [make_trace("pr", 2000, seed=11), make_trace("cc", 2000, seed=12)],
        warmup=500)
    assert [rob.rob_entries for rob in hierarchy.checker.rob_checkers] \
        == [176, 176]
    for core_hierarchy in multicore.hierarchies:
        assert [rob.rob_entries
                for rob in core_hierarchy.checker.rob_checkers] == [352]
    for checked_hierarchy in (hierarchy, *multicore.hierarchies):
        checked_hierarchy.checker.final_check()
        assert checked_hierarchy.checker.violations == []


def test_shared_llc_queue_limit_counts_every_core(monkeypatch):
    """Core 0's checker checks a multicore run's shared LLC, and every
    core queues misses there: 4 cores give it 4 cores' limit, while
    each private level keeps one core's."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    multicore = MultiCore(default_config(), 4)
    one_core = mshr_queue_limit(default_config().core.rob_entries)
    l1d, l2c, llc = multicore.hierarchies[0].checker.cache_checkers
    assert llc.cache is multicore.llc
    assert llc.queue_limit == 4 * one_core
    assert l1d.queue_limit == l2c.queue_limit == one_core


def test_record_mode_collects_instead_of_raising(checked):
    hierarchy = MemoryHierarchy(default_config(16))
    checker = hierarchy.checker or HierarchyChecker(hierarchy, strict=False)
    checker.ctx.strict = False
    drive(hierarchy, 8)
    hierarchy.l1d.stats.hits["non_replay"] += 1
    drive(hierarchy, 4)  # keeps running, recording violations
    assert len(checker.violations) > 0


def test_shared_llc_not_double_attached(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    cfg = default_config(16)
    first = MemoryHierarchy(cfg)
    second = MemoryHierarchy(cfg, first.page_table.allocator,
                             shared_llc=first.llc, shared_dram=first.dram)
    checked_names = [c.cache.name for c in second.checker.cache_checkers]
    assert "LLC" not in checked_names  # first hierarchy owns its checks
    drive(first, 16)
    drive(second, 16)
    first.checker.final_check()
    second.checker.final_check()
