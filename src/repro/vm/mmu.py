"""Memory-management unit: DTLB -> STLB -> page-table walk orchestration.

``translate`` returns both the physical address and the translation's
completion cycle, plus the classification the rest of the simulator needs:
a demand load whose translation missed the STLB is a **replay load**.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import BITS_PER_LEVEL, PAGE_SHIFT, SimConfig

#: Tag bit distinguishing 2MB-page TLB entries from 4KB ones (the key of
#: a huge entry is its 2MB-aligned virtual page number, tagged).
_HUGE_TAG = 1 << 60
_HUGE_OFFSET_MASK = (1 << BITS_PER_LEVEL) - 1
_PAGE_OFFSET_MASK = (1 << PAGE_SHIFT) - 1
from repro.vm.page_table import PageTable
from repro.vm.psc import PagingStructureCaches
from repro.vm.tlb import TLB
from repro.vm.walker import PageTableWalker, WalkResult


@dataclass(slots=True)
class TranslationResult:
    """Outcome of translating one virtual address."""

    paddr: int
    done_cycle: int
    dtlb_hit: bool
    stlb_hit: bool
    #: Set on STLB misses: the walk that produced the translation.
    walk: WalkResult = None

    @property
    def is_replay(self) -> bool:
        """The corresponding data access is a replay load."""
        return not self.dtlb_hit and not self.stlb_hit


class MMU:
    """Per-core data-side MMU."""

    def __init__(self, config: SimConfig, page_table: PageTable,
                 first_cache):
        self.config = config
        self.page_table = page_table
        self.dtlb = TLB(config.dtlb)
        self.stlb = TLB(config.stlb, track_recall=config.track_recall)
        self.psc = PagingStructureCaches(config.psc)
        self.walker = PageTableWalker(page_table, self.psc, first_cache)
        self.stlb_fill_latency = config.stlb_fill_latency
        self.translations = 0
        self.walk_cycles_total = 0
        #: Optional DpPred dead-page predictor (Section V-B comparison):
        #: predicted-dead pages bypass the STLB.
        self.dead_page_predictor = None
        #: Request-level span tracer (None unless the run is traced).
        self.tracer = None

    def translate(self, va: int, cycle: int, ip: int = 0,
                  count_stats: bool = True) -> TranslationResult:
        """Translate ``va``; allocates the page on first touch.

        ``count_stats=False`` keeps prefetch-initiated translations out of
        the TLB miss counters (they still warm the TLBs and caches)."""
        if count_stats:
            self.translations += 1
        tracer = self.tracer
        tspan = None
        if tracer is not None:
            tspan = tracer.begin(
                "translate", cycle,
                cat="translation" if count_stats else "prefetch")
        vpn = va >> PAGE_SHIFT
        offset = va & _PAGE_OFFSET_MASK
        pred = self.page_table.huge_page_predicate  # inlined is_huge
        if pred is not None and pred(va):
            key = _HUGE_TAG | (vpn >> BITS_PER_LEVEL)
            sub = vpn & _HUGE_OFFSET_MASK  # 4KB chunk within the 2MB page
        else:
            key, sub = vpn, 0

        t = cycle + self.dtlb.latency
        base = self.dtlb.lookup(key, count_stats)
        if base is not None:
            pfn = base + sub
            if tracer is not None:
                tracer.end(tspan, t, dtlb_hit=True, stlb_hit=True)
            return TranslationResult((pfn << PAGE_SHIFT) | offset, t, True,
                                     True)

        t += self.stlb.latency
        base = self.stlb.lookup(key, count_stats)
        if base is not None:
            self.dtlb.fill(key, base)
            pfn = base + sub
            if tracer is not None:
                tracer.end(tspan, t, dtlb_hit=False, stlb_hit=True)
            return TranslationResult((pfn << PAGE_SHIFT) | offset, t, False,
                                     True)

        walk = self.walker.walk(va, t, ip)
        self.walk_cycles_total += walk.done_cycle - t
        done = walk.done_cycle + self.stlb_fill_latency
        bypass = (self.dead_page_predictor is not None
                  and self.dead_page_predictor.is_dead(ip))
        fill_frame = walk.pfn - sub  # huge entries store the 2MB base
        self.stlb.fill(key, fill_frame, ip=ip, bypass=bypass)
        self.dtlb.fill(key, fill_frame)
        if tracer is not None:
            tracer.end(tspan, done, dtlb_hit=False, stlb_hit=False)
        return TranslationResult((walk.pfn << PAGE_SHIFT) | offset, done,
                                 False, False, walk)

    def stlb_mpki(self, instructions: int) -> float:
        return self.stlb.mpki(instructions)
