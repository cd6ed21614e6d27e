"""TEMPO-style translation-triggered prefetching at the DRAM controller
(Bhattacharjee, ASPLOS'17; used by the paper as the fallback when a leaf
translation misses the whole on-chip hierarchy).

When the memory controller services a leaf-level PTE read, the translated
physical frame is in the returning data, so the controller can immediately
fetch the replay data line and push it into the LLC (with highest eviction
priority, like ATP fills).  With the paper's T-DRRIP/T-SHiP enhancements
only ~2% of leaf translations reach DRAM, which is why TEMPO adds just
0.3% on top of ATP in Fig 14.
"""

from __future__ import annotations

import weakref

from repro.memsys.request import MemoryRequest


class TEMPOPrefetcher:
    """Subscribes to leaf-translation services at the DRAM controller."""

    def __init__(self, dram, llc):
        # Weak: the DRAM holds a hook bound to this prefetcher, and the
        # LLC holds the DRAM, so strong references would form cycles
        # that keep a finished run's LLC and DRAM alive until a full
        # collection.  The hierarchy owns both.
        self.dram = weakref.proxy(dram)
        self.llc = weakref.proxy(llc)
        self.triggered = 0
        #: Request-level span tracer (None unless the run is traced).
        self.tracer = None

    def attach(self) -> None:
        self.dram.on_leaf_translation = self.on_dram_leaf_translation

    def on_dram_leaf_translation(self, req: MemoryRequest,
                                 done_cycle: int) -> None:
        if req.replay_line_addr is None:
            return
        # Already-resident replay lines need no fetch and must not count
        # as triggers (same suppression rule as ATP).
        if self.llc.contains(req.replay_line_addr):
            return
        self.triggered += 1
        if self.tracer is not None:
            self.tracer.instant("tempo_trigger", done_cycle, cat="prefetch",
                                level="DRAM", line=req.replay_line_addr)
        # The replay line fetch starts once the PTE data reaches the
        # controller; it descends from the LLC (missing there) to DRAM and
        # fills the LLC with highest eviction priority.
        self.llc.issue_prefetch(req.replay_line_addr, done_cycle,
                                evict_priority=True)
