"""2-way SMT core (Section V, Fig 17).

Two threads share the core's structures (each gets half the ROB and half
the dispatch/retire bandwidth -- a static-partition SMT model) and the
entire memory hierarchy: TLBs, caches, page-table walker and DRAM.  Each
thread is an :class:`~repro.core.ooo_core.OOOCore` on that halved core;
:func:`repro.core.engine.interleave` runs whichever thread's dispatch
clock is behind, so memory accesses from the two threads interleave in
approximate global time order.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.core.engine import interleave
from repro.core.ooo_core import CoreResult, OOOCore
from repro.params import SimConfig
from repro.uncore.hierarchy import MemoryHierarchy


class SMTCore:
    """Two hardware threads on one core, sharing one memory hierarchy."""

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy):
        self.config = config
        self.hierarchy = hierarchy

    def run(self, traces: Sequence, warmup: int = 0) -> List[CoreResult]:
        """Run the two traces to completion; returns per-thread results."""
        if len(traces) != 2:
            raise ValueError("the SMT model is 2-way")
        core = self.config.core
        thread_config = self.config.with_(core=dataclasses.replace(
            core, rob_entries=core.rob_entries // 2,
            dispatch_width=max(1, core.dispatch_width // 2),
            retire_width=max(1, core.retire_width // 2)))
        threads = [OOOCore(thread_config, self.hierarchy) for _ in traces]
        return interleave(threads, traces, warmup)
