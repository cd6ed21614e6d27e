"""Hardware page-table walker.

After an STLB miss the walker probes the paging-structure caches (one
cycle, all levels in parallel) and then issues one *dependent* 64-byte read
per remaining page-table level through the data-cache hierarchy
(L1D -> L2C -> LLC -> DRAM).  The leaf-level read carries the paper's extra
PTW flags: ``pt_level == 1`` (IsLeafLevel) and ``replay_line_addr`` -- the
physical line the corresponding replay load will touch, derivable because
the PTW carries the upper six page-offset bits of the faulting access.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsys import request as request_pool
from repro.memsys.request import AccessType
from repro.params import LINE_SHIFT, PAGE_SHIFT
from repro.vm.page_table import PageTable
from repro.vm.psc import PagingStructureCaches

_TRANSLATION = AccessType.TRANSLATION


@dataclass(slots=True)
class WalkResult:
    """Outcome of one page-table walk."""

    pfn: int
    done_cycle: int
    levels_walked: int
    psc_hit_level: int  # 0 when no PSC hit (walk started at the root)
    leaf_served_by: str


class PageTableWalker:
    """Walks the radix page table, reading PTEs through the cache hierarchy."""

    def __init__(self, page_table: PageTable, psc: PagingStructureCaches,
                 first_cache):
        self.page_table = page_table
        self.psc = psc
        self.first_cache = first_cache
        self.walks = 0
        self.pte_reads = 0
        #: Request-level span tracer (None unless the run is traced).
        self.tracer = None
        #: ``{vpn: (pfn, entries)}`` descent memo, filled lazily by
        #: :meth:`walk`: one entry per distinct page walked.  None turns
        #: it off (a test's unmemoised reference walker).
        self.entries_cache = {}

    def walk(self, va: int, cycle: int, ip: int = 0) -> WalkResult:
        """Translate ``va`` starting at ``cycle``; returns the walk result.

        Each PTE read depends on the previous level's data, so reads are
        strictly serial (this is what makes STLB misses so expensive).
        """
        self.walks += 1
        tracer = self.tracer
        # The descent memo keys on VPN: walk_entries depends only on
        # page-number bits, and mappings are immutable once allocated,
        # so a memoised descent is exact, and the first walk of a page
        # makes the same walk_entries call, allocating the same frames,
        # as an unmemoised walker would.  Huge pages split the leaf PFN
        # per 4KB sub-frame, so the memo is bypassed while a predicate
        # is installed.
        cached = None
        cacheable = (self.entries_cache is not None
                     and self.page_table.huge_page_predicate is None)
        if cacheable:
            cached = self.entries_cache.get(va >> PAGE_SHIFT)
        if cached is not None:
            pfn, entries = cached
        else:
            pfn, entries = self.page_table.walk_entries(va)
            if cacheable:
                # Re-walks of this page (TLB thrashing) become lookups.
                self.entries_cache[va >> PAGE_SHIFT] = (pfn, entries)
        leaf_level = entries[-1][0]  # 1, or 2 for 2MB huge pages

        t = cycle + self.psc.latency
        hit_level, _frame = self.psc.lookup(va)
        start_level = (hit_level - 1) if hit_level is not None else 5

        wspan = None
        if tracer is not None:
            wspan = tracer.begin("walk", cycle, cat="translation")

        replay_line = ((pfn << PAGE_SHIFT) | (va & 0xFFF)) >> LINE_SHIFT
        leaf_served_by = ""
        levels_walked = 0
        for level, pte_pa, child_frame in entries:
            if level > start_level:
                continue
            is_leaf = level == leaf_level
            # (address, cycle, ip, access_type, is_replay, pt_level,
            #  leaf_walk, replay_line_addr)
            req = request_pool.acquire(
                pte_pa, t, ip, _TRANSLATION, False, level, is_leaf,
                replay_line if is_leaf else None)
            pspan = None
            if tracer is not None:
                pspan = tracer.begin(f"pte_L{level}", t, cat="translation",
                                     level=level, leaf=is_leaf)
            t = self.first_cache.access(req)
            if tracer is not None:
                tracer.end(pspan, t, served_by=req.served_by)
            self.pte_reads += 1
            levels_walked += 1
            if is_leaf:
                leaf_served_by = req.served_by
            else:
                # Cache the walk-through-``level`` outcome in PSCL<level>.
                self.psc.fill(va, level, child_frame)
            request_pool.release(req)

        if tracer is not None:
            tracer.end(wspan, t, psc_hit_level=hit_level or 0,
                       levels_walked=levels_walked,
                       leaf_served_by=leaf_served_by)
        return WalkResult(pfn, t, levels_walked, hit_level or 0,
                          leaf_served_by)
