"""Functional 5-level radix page table with demand paging.

The table is *real*: intermediate table pages and data pages are allocated
physical frames, and every PTE has a concrete physical address, so the
page-table walker's reads travel through the cache hierarchy exactly like
ChampSim's (eight 8-byte PTEs share one 64-byte line).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.params import BITS_PER_LEVEL, PAGE_SHIFT, PTE_SIZE, PT_LEVELS
from repro.vm.address import level_index


class FrameAllocator:
    """Hands out physical frame numbers.

    Frames are scattered with a multiplicative hash (Weyl sequence) so that
    consecutive allocations do not all land in the same DRAM row, while
    remaining deterministic for a given seed.
    """

    _MULT = 0x9E3779B97F4A7C15

    def __init__(self, num_frames: int = 1 << 24, seed: int = 1,
                 scatter: bool = False):
        if num_frames <= 0:
            raise ValueError("need a positive number of frames")
        self.num_frames = num_frames
        self.scatter = scatter
        self._counter = seed
        self._allocated = 0
        # Contiguous (huge-page) allocations grow downward from the top
        # of physical memory, away from the 4KB allocations.
        self._huge_next = num_frames

    def allocate(self) -> int:
        if self._allocated >= self.num_frames:
            raise MemoryError("out of physical frames")
        self._allocated += 1
        self._counter += 1
        if not self.scatter:
            return self._allocated - 1
        return ((self._counter * self._MULT) >> 16) % self.num_frames

    def allocate_contiguous(self, count: int) -> int:
        """Reserve ``count`` aligned, contiguous frames (2MB pages need
        512); returns the base frame."""
        base = (self._huge_next - count) // count * count
        if base < 0:
            raise MemoryError("out of contiguous physical frames")
        self._huge_next = base
        self._allocated += count
        return base


class _TableNode:
    """One page of the radix tree: 512 slots plus its own frame."""

    __slots__ = ("frame", "slots")

    def __init__(self, frame: int):
        self.frame = frame
        self.slots: Dict[int, object] = {}


#: 4KB frames per 2MB huge page.
FRAMES_PER_HUGE_PAGE = 1 << BITS_PER_LEVEL

_IDX_MASK = (1 << BITS_PER_LEVEL) - 1
_TOP_SHIFT = PAGE_SHIFT + (PT_LEVELS - 1) * BITS_PER_LEVEL


class PageTable:
    """Radix page table rooted at a CR3 frame.

    ``huge_page_predicate`` (VA -> bool) selects regions mapped with 2MB
    pages: their walk terminates with a leaf PTE at level 2 and the data
    page occupies 512 contiguous frames (the THP extension study).
    """

    def __init__(self, allocator: Optional[FrameAllocator] = None,
                 huge_page_predicate=None):
        self.allocator = allocator or FrameAllocator()
        self.huge_page_predicate = huge_page_predicate
        self._root = _TableNode(self.allocator.allocate())
        self.data_pages = 0
        self.huge_pages = 0
        self.table_pages = 1

    def is_huge(self, va: int) -> bool:
        return (self.huge_page_predicate is not None
                and self.huge_page_predicate(va))

    def leaf_level(self, va: int) -> int:
        """Page-table level holding ``va``'s leaf PTE (1, or 2 for 2MB)."""
        return 2 if self.is_huge(va) else 1

    # ------------------------------------------------------------------
    def _descend(self, va: int, allocate: bool) -> Optional[List[_TableNode]]:
        """Nodes along the walk path, root (level 5) first; the node
        holding the leaf PTE last (level-1 table, or level-2 for huge)."""
        leaf_level = self.leaf_level(va)
        path = [self._root]
        node = self._root
        shift = _TOP_SHIFT
        for level in range(PT_LEVELS, leaf_level, -1):
            idx = (va >> shift) & _IDX_MASK
            shift -= BITS_PER_LEVEL
            child = node.slots.get(idx)
            if child is None:
                if not allocate:
                    return None
                child = _TableNode(self.allocator.allocate())
                node.slots[idx] = child
                self.table_pages += 1
            node = child
            path.append(node)
        return path

    def translate(self, va: int) -> int:
        """Physical frame of ``va``'s 4KB-grain page, allocating on first
        touch (huge pages allocate 512 contiguous frames at once)."""
        leaf_level = self.leaf_level(va)
        path = self._descend(va, allocate=True)
        leaf = path[-1]
        idx = level_index(va, leaf_level)
        pfn = leaf.slots.get(idx)
        if pfn is None:
            if leaf_level == 2:
                pfn = self.allocator.allocate_contiguous(
                    FRAMES_PER_HUGE_PAGE)
                self.huge_pages += 1
            else:
                pfn = self.allocator.allocate()
                self.data_pages += 1
            leaf.slots[idx] = pfn
        if leaf_level == 2:
            return pfn + level_index(va, 1)  # 4KB frame within the 2MB page
        return pfn

    def lookup(self, va: int) -> Optional[int]:
        """Physical frame of ``va``'s page, or None if never touched."""
        leaf_level = self.leaf_level(va)
        path = self._descend(va, allocate=False)
        if path is None:
            return None
        pfn = path[-1].slots.get(level_index(va, leaf_level))
        if pfn is None:
            return None
        if leaf_level == 2:
            return pfn + level_index(va, 1)
        return pfn

    # ------------------------------------------------------------------
    def walk_entries(self, va: int) -> Tuple[int, List[Tuple[int, int, int]]]:
        """One-descent walk info for the hardware walker.

        Returns ``(pfn, [(level, pte_physical_address, child_frame), ...])``
        root (level 5) first.  ``child_frame`` is the frame of the next
        level's table page -- what PSCL<level> caches after reading that
        level's PTE -- and 0 at the leaf: ``translate`` plus the walk's
        PTE addresses in a single radix descent (this is the walker's hot
        path, hence the inlined descend).
        """
        pred = self.huge_page_predicate
        leaf_level = 2 if pred is not None and pred(va) else 1
        path = [self._root]
        node = self._root
        shift = _TOP_SHIFT
        for _level in range(PT_LEVELS, leaf_level, -1):
            idx = (va >> shift) & _IDX_MASK
            shift -= BITS_PER_LEVEL
            child = node.slots.get(idx)
            if child is None:
                child = _TableNode(self.allocator.allocate())
                node.slots[idx] = child
                self.table_pages += 1
            node = child
            path.append(node)
        # Leaf PTE; allocate the data page on first touch (== translate).
        idx = (va >> shift) & _IDX_MASK
        pfn = node.slots.get(idx)
        if pfn is None:
            if leaf_level == 2:
                pfn = self.allocator.allocate_contiguous(
                    FRAMES_PER_HUGE_PAGE)
                self.huge_pages += 1
            else:
                pfn = self.allocator.allocate()
                self.data_pages += 1
            node.slots[idx] = pfn
        if leaf_level == 2:
            pfn += (va >> PAGE_SHIFT) & _IDX_MASK  # 4KB frame in the 2MB page
        out = []
        last = len(path) - 1
        shift = _TOP_SHIFT
        for pos, pnode in enumerate(path):
            idx = (va >> shift) & _IDX_MASK
            pte_pa = (pnode.frame << PAGE_SHIFT) | (idx * PTE_SIZE)
            out.append((PT_LEVELS - pos, pte_pa,
                        path[pos + 1].frame if pos < last else 0))
            shift -= BITS_PER_LEVEL
        return pfn, out
