"""Tests for the SMT and multi-core models."""

import pytest

from repro.core.multicore import MultiCore
from repro.core.smt import SMTCore
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.registry import make_trace


def test_smt_requires_two_traces():
    cfg = default_config()
    smt = SMTCore(cfg, MemoryHierarchy(cfg))
    with pytest.raises(ValueError):
        smt.run([make_trace("tc", 100)])


def test_smt_runs_both_threads():
    cfg = default_config()
    smt = SMTCore(cfg, MemoryHierarchy(cfg))
    traces = [make_trace("tc", 2000, seed=1), make_trace("pr", 2000, seed=2)]
    results = smt.run(traces, warmup=500)
    assert len(results) == 2
    for r in results:
        assert r.instructions == 1500
        assert r.cycles > 0
        assert r.ipc > 0


def test_smt_slower_than_solo():
    """Sharing the hierarchy must cost each thread something."""
    cfg = default_config()
    from repro.core.ooo_core import OOOCore
    solo_h = MemoryHierarchy(cfg)
    t = make_trace("pr", 4000, seed=1)
    solo = OOOCore(cfg, solo_h).run(t, warmup=500)

    smt = SMTCore(cfg, MemoryHierarchy(cfg))
    both = smt.run([make_trace("pr", 4000, seed=1),
                    make_trace("pr", 4000, seed=2)], warmup=500)
    assert both[0].cycles > solo.cycles


def test_multicore_validates_inputs():
    with pytest.raises(ValueError):
        MultiCore(default_config(), 0)
    mc = MultiCore(default_config(), 2)
    with pytest.raises(ValueError):
        mc.run([make_trace("tc", 100)])


def test_multicore_shares_llc_and_dram():
    mc = MultiCore(default_config(), 4)
    assert all(h.llc is mc.llc for h in mc.hierarchies)
    assert all(h.dram is mc.dram for h in mc.hierarchies)
    l2cs = {id(h.l2c) for h in mc.hierarchies}
    assert len(l2cs) == 4  # private L2Cs


def test_multicore_address_spaces_disjoint():
    """Different cores' pages must get different physical frames."""
    mc = MultiCore(default_config(), 2)
    va = 0x4000_0000_0000
    f0 = mc.hierarchies[0].page_table.translate(va)
    f1 = mc.hierarchies[1].page_table.translate(va)
    assert f0 != f1


def test_multicore_runs_all_cores():
    mc = MultiCore(default_config(), 2)
    traces = [make_trace("tc", 1500, seed=1), make_trace("cc", 1500, seed=2)]
    results = mc.run(traces, warmup=300)
    assert len(results) == 2
    assert all(r.instructions == 1200 for r in results)
    assert sum(mc.llc.stats.misses.values()) > 0


def test_a_multicore_mix_maps_its_huge_page_region():
    """Under ``huge_page_policy="gather_region"`` every core's page table
    maps the region with 2MB pages, drawing frames from the one shared
    allocator; each stream is refused the fast path for it."""
    from repro.experiments.runner import run_mix

    cfg = default_config().with_(huge_page_policy="gather_region")
    mc = MultiCore(cfg, 2)
    allocator = mc.hierarchies[0].page_table.allocator
    for hierarchy in mc.hierarchies:
        assert hierarchy.page_table.allocator is allocator
        assert hierarchy.page_table.huge_page_predicate is not None
    run = run_mix(cores=("pr", "cc"), config=cfg, instructions=2000,
                  warmup=500)
    plain = run_mix(cores=("pr", "cc"), config=default_config(),
                    instructions=2000, warmup=500)
    assert run.hierarchy.page_table.huge_pages > 0
    assert run.hierarchy.mmu.walker.walks < plain.hierarchy.mmu.walker.walks
    assert [core.batch.fallbacks for core in run.streams] \
        == [{"huge_pages": 1}] * 2
