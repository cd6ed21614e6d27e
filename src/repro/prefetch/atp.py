"""ATP: Address-Translation-hit triggered replay-load Prefetcher
(Section IV of the paper).

When a leaf-level page-table read *hits* at the L2C or the LLC, the page's
physical frame is known immediately -- and the PTW carries the upper six
bits of the faulting access's page offset -- so the replay load's cache
line address is fully determined.  ATP prefetches that line into the level
where the translation hit, inserted with the highest eviction priority
(the block is dead after its single use, Fig 7).

ATP is 100% accurate by construction: it is not speculative.  It improves
replay-load *latency*, not miss rate -- the prefetched block is on its way
from DRAM before the replay demand reaches the L2C/LLC (Fig 13).

No translation hit at the L1D triggers prefetching: the time gap between an
L1D translation hit and the data request is too small to hide anything.
"""

from __future__ import annotations

import weakref

from repro.memsys.request import MemoryRequest


class ATPPrefetcher:
    """Subscribes to leaf-translation hits at L2C and LLC."""

    def __init__(self, l2c, llc):
        # Weak: each level holds a hook bound to this prefetcher, and a
        # cycle would keep a finished run's caches alive until a full
        # collection.  The hierarchy owns the levels.
        self.l2c = weakref.proxy(l2c)
        self.llc = weakref.proxy(llc)
        self.triggered_l2c = 0
        self.triggered_llc = 0
        #: Request-level span tracer (None unless the run is traced).
        self.tracer = None

    def attach(self) -> None:
        """Register the hit callbacks on both cache levels."""
        self.l2c.on_leaf_translation_hit = self.on_l2c_hit
        self.llc.on_leaf_translation_hit = self.on_llc_hit

    def on_l2c_hit(self, req: MemoryRequest, cycle: int) -> None:
        if req.replay_line_addr is None:
            return
        # Already-resident lines need no prefetch and must not count as
        # triggers (they would inflate the accuracy denominator).
        if self.l2c.contains(req.replay_line_addr):
            return
        self.triggered_l2c += 1
        if self.tracer is not None:
            self.tracer.instant("atp_trigger", cycle, cat="prefetch",
                                level="L2C", line=req.replay_line_addr)
        self.l2c.issue_prefetch(req.replay_line_addr, cycle,
                                evict_priority=True)

    def on_llc_hit(self, req: MemoryRequest, cycle: int) -> None:
        if req.replay_line_addr is None:
            return
        if self.llc.contains(req.replay_line_addr):
            return
        self.triggered_llc += 1
        if self.tracer is not None:
            self.tracer.instant("atp_trigger", cycle, cat="prefetch",
                                level="LLC", line=req.replay_line_addr)
        self.llc.issue_prefetch(req.replay_line_addr, cycle,
                                evict_priority=True)

    @property
    def triggered(self) -> int:
        return self.triggered_l2c + self.triggered_llc
