"""Tests for the 2MB huge-page extension."""

import pytest

from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va
from repro.vm.mmu import MMU, _HUGE_TAG
from repro.vm.page_table import (FRAMES_PER_HUGE_PAGE, FrameAllocator,
                                 PageTable)


def huge_everything(va):
    return True


def test_huge_walk_path_stops_at_level2():
    pt = PageTable(huge_page_predicate=huge_everything)
    _, entries = pt.walk_entries(make_va([1, 2, 3, 4, 5]))
    assert [lvl for lvl, _, _ in entries] == [5, 4, 3, 2]


def test_huge_translate_contiguous_within_page():
    pt = PageTable(huge_page_predicate=huge_everything)
    base_va = make_va([1, 2, 3, 4, 0])
    pfns = [pt.translate(base_va + (i << 12)) for i in range(8)]
    assert pfns == list(range(pfns[0], pfns[0] + 8))


def test_huge_base_frame_aligned():
    pt = PageTable(huge_page_predicate=huge_everything)
    pfn = pt.translate(make_va([1, 2, 3, 4, 77]))
    assert (pfn - 77) % FRAMES_PER_HUGE_PAGE == 0


def test_huge_lookup_matches_translate():
    pt = PageTable(huge_page_predicate=huge_everything)
    va = make_va([1, 2, 3, 4, 200], 0x88)
    assert pt.lookup(va) is None
    pfn = pt.translate(va)
    assert pt.lookup(va) == pfn


def test_mixed_regions():
    pt = PageTable(huge_page_predicate=lambda va: va >= (1 << 40))
    small = make_va([0, 0, 3, 4, 5])
    big = make_va([1, 2, 3, 4, 5])
    assert not pt.is_huge(small) and pt.is_huge(big)
    assert pt.leaf_level(small) == 1
    assert pt.leaf_level(big) == 2
    pt.translate(small)
    pt.translate(big)
    assert pt.data_pages == 1
    assert pt.huge_pages == 1


def test_contiguous_allocator_no_overlap_with_4k():
    alloc = FrameAllocator(num_frames=1 << 20)
    small = [alloc.allocate() for _ in range(100)]
    base = alloc.allocate_contiguous(512)
    huge = set(range(base, base + 512))
    assert not huge & set(small)


def test_mmu_huge_tlb_reach():
    """One STLB entry covers 512 pages of a huge region."""
    cfg = default_config()
    pt = PageTable(huge_page_predicate=huge_everything)

    class FlatMemory:
        def access(self, req):
            req.served_by = "L1D"
            return req.cycle + 10

    mmu = MMU(cfg, pt, FlatMemory())
    base = make_va([1, 2, 3, 4, 0])
    first = mmu.translate(base, cycle=0)
    assert not first.stlb_hit
    assert first.walk.levels_walked == 4  # walk terminates at level 2
    # Any other 4KB page of the same 2MB page now hits the DTLB/STLB.
    other = mmu.translate(base + (300 << 12), cycle=100)
    assert other.dtlb_hit
    # Physical contiguity within the huge page.
    assert (other.paddr >> 12) == (first.paddr >> 12) + 300


def test_huge_leaf_read_flagged_for_atp():
    """The level-2 leaf read of a huge walk carries ATP's information."""
    pt = PageTable(huge_page_predicate=huge_everything)
    seen = []

    class Recorder:
        def access(self, req):
            seen.append(req)
            req.served_by = "L1D"
            return req.cycle + 10

    from repro.vm.psc import PagingStructureCaches
    from repro.vm.walker import PageTableWalker
    from repro.params import PSCConfig
    walker = PageTableWalker(pt, PagingStructureCaches(PSCConfig()),
                             Recorder())
    result = walker.walk(make_va([1, 2, 3, 4, 5], 0x80), cycle=0)
    leaf = seen[-1]
    assert leaf.pt_level == 2
    assert leaf.is_leaf_translation
    assert leaf.replay_line_addr == ((result.pfn << 12) | 0x80) >> 6


def test_hierarchy_gather_region_policy():
    cfg = default_config().with_(huge_page_policy="gather_region")
    h = MemoryHierarchy(cfg)
    from repro.workloads.synthetic import RANDOM_BASE, LOCAL_BASE
    assert h.page_table.is_huge(RANDOM_BASE + 123)
    assert not h.page_table.is_huge(LOCAL_BASE)


def test_hierarchy_rejects_unknown_huge_policy():
    cfg = default_config().with_(huge_page_policy="all_the_pages")
    with pytest.raises(ValueError):
        MemoryHierarchy(cfg)


def test_huge_pages_collapse_stlb_mpki():
    from repro.experiments.runner import run_benchmark
    cfg = default_config().with_(huge_page_policy="gather_region")
    base = run_benchmark("pr", instructions=6000, warmup=1500)
    huge = run_benchmark("pr", config=cfg, instructions=6000, warmup=1500)
    assert huge.stlb_mpki < 0.25 * base.stlb_mpki
