"""Virtual memory: 5-level radix page table, TLBs, paging-structure caches
and the hardware page-table walker."""

from repro.vm.address import level_index, psc_tag, make_va
from repro.vm.page_table import PageTable, FrameAllocator
from repro.vm.tlb import TLB
from repro.vm.psc import PagingStructureCaches
from repro.vm.walker import PageTableWalker, WalkResult
from repro.vm.mmu import MMU, TranslationResult

__all__ = ["level_index", "psc_tag", "make_va",
           "PageTable", "FrameAllocator", "TLB", "PagingStructureCaches",
           "PageTableWalker", "WalkResult", "MMU", "TranslationResult"]
