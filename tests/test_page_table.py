"""Tests for the 5-level radix page table and frame allocator."""

import pytest

from repro.params import LINE_SHIFT, PAGE_SHIFT, PT_LEVELS
from repro.vm.address import make_va
from repro.vm.page_table import FrameAllocator, PageTable


def test_allocator_unique_frames():
    alloc = FrameAllocator(num_frames=1 << 20, scatter=True)
    frames = [alloc.allocate() for _ in range(1000)]
    assert len(set(frames)) == len(frames)


def test_allocator_sequential_mode():
    alloc = FrameAllocator(scatter=False)
    assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]


def test_allocator_deterministic_for_seed():
    a = FrameAllocator(seed=7, scatter=True)
    b = FrameAllocator(seed=7, scatter=True)
    assert [a.allocate() for _ in range(10)] == [b.allocate()
                                                 for _ in range(10)]


def test_allocator_exhaustion():
    alloc = FrameAllocator(num_frames=2)
    alloc.allocate()
    alloc.allocate()
    with pytest.raises(MemoryError):
        alloc.allocate()


def test_translate_is_stable():
    pt = PageTable()
    va = make_va([1, 2, 3, 4, 5], 0x80)
    pfn = pt.translate(va)
    assert pt.translate(va) == pfn
    assert pt.lookup(va) == pfn


def test_lookup_untouched_returns_none():
    pt = PageTable()
    assert pt.lookup(make_va([9, 9, 9, 9, 9])) is None


def test_same_page_different_offset_same_frame():
    pt = PageTable()
    va = make_va([1, 2, 3, 4, 5])
    assert pt.translate(va) == pt.translate(va + 0xFFF)


def test_walk_path_levels_descend():
    pt = PageTable()
    va = make_va([1, 2, 3, 4, 5])
    _, entries = pt.walk_entries(va)
    assert [lvl for lvl, _, _ in entries] == [5, 4, 3, 2, 1]


def test_walk_path_pte_addresses_in_table_frames():
    pt = PageTable()
    va = make_va([1, 2, 3, 4, 5])
    _, entries = pt.walk_entries(va)
    # Each PTE lives in the table page the level above points to.
    for (_, _, next_frame), (_, pte_pa, _) in zip(entries, entries[1:]):
        assert pte_pa >> PAGE_SHIFT == next_frame
    assert entries[-1][2] == 0  # the leaf points at data, not a table


def test_adjacent_pages_share_leaf_pte_line():
    """Eight contiguous PTEs live in one 64-byte line (8B each)."""
    pt = PageTable()
    base = make_va([1, 2, 3, 4, 0])
    def leaf_line(va):
        return pt.walk_entries(va)[1][-1][1] >> LINE_SHIFT

    lines = {leaf_line(base + (i << PAGE_SHIFT)) for i in range(8)}
    assert len(lines) == 1
    lines16 = {leaf_line(base + (i << PAGE_SHIFT)) for i in range(16)}
    assert len(lines16) == 2


def test_distinct_regions_use_distinct_tables():
    pt = PageTable()
    va1 = make_va([1, 0, 0, 0, 0])
    va2 = make_va([2, 0, 0, 0, 0])
    path1 = {lvl: pa for lvl, pa, _ in pt.walk_entries(va1)[1]}
    path2 = {lvl: pa for lvl, pa, _ in pt.walk_entries(va2)[1]}
    assert path1[5] != path2[5]          # different level-5 slots
    assert (path1[4] >> PAGE_SHIFT) != (path2[4] >> PAGE_SHIFT)


def test_table_page_accounting():
    pt = PageTable()
    assert pt.table_pages == 1  # root only
    pt.translate(make_va([1, 2, 3, 4, 5]))
    assert pt.table_pages == 1 + (PT_LEVELS - 1)
    assert pt.data_pages == 1
