"""Trace-driven out-of-order core with in-order retirement.

Rather than a cycle-by-cycle loop, the core computes per-instruction
dispatch and retire times with O(1) recurrences -- the standard
"ROB-occupancy" approximation:

* an instruction dispatches when a ROB slot is free (the instruction
  ``rob_entries`` older has retired) and a dispatch slot (6/cycle) is free;
* loads issue to the memory system at dispatch (trace-driven addresses are
  ready), so independent misses overlap naturally (MLP);
* instructions retire strictly in order, up to 4/cycle; when the head's
  completion is in the future the gap is a head-of-ROB stall, attributed
  via :class:`repro.core.rob.StallAccounting`.

This reproduces the behaviour the paper measures: a 352-entry ROB amortizes
DTLB misses and short L2 hits, but 200+-cycle replay loads and serial page
walks stall the head.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Optional, Tuple

from repro.core.rob import StallAccounting, StallCategory
from repro.params import SimConfig
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, KIND_STORE

#: Drain window (instructions): the cores read the trace this many
#: instructions at a time (``Trace.window``), so a run holds list copies
#: of one window, not of the whole trace.  No window straddles the
#: warmup edge.  The numpy backend flushes its deferred fast-path
#: counters once per window (the unit of ``BatchStats.windows``).
WINDOW = 1024


@dataclass
class CoreResult:
    """Outcome of one core run (post-warmup region of interest)."""

    instructions: int
    cycles: int
    stalls: StallAccounting
    hierarchy: MemoryHierarchy = field(repr=False, default=None)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def execution_time(self) -> int:
        """Cycles taken for the ROI (the paper's performance metric is the
        reduction in execution time)."""
        return self.cycles

    def speedup_over(self, baseline: "CoreResult") -> float:
        """Normalized performance: baseline time / this time."""
        return baseline.cycles / self.cycles if self.cycles else 0.0


class OOOCore:
    """Single-thread core bound to one memory hierarchy."""

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy,
                 cpu_id: int = 0):
        self.config = config
        self.hierarchy = hierarchy
        self.cpu_id = cpu_id
        core = config.core
        self.rob_entries = core.rob_entries
        self.dispatch_width = core.dispatch_width
        self.retire_width = core.retire_width
        self.nonmem_latency = core.nonmem_latency
        from repro import validate
        self.checker = validate.maybe_attach_core(self)

    # ------------------------------------------------------------------
    def run(self, trace, warmup: int = 0,
            limit: Optional[int] = None) -> CoreResult:
        """Execute ``trace``; statistics cover only the post-warmup region.

        ``trace`` is a :class:`repro.workloads.trace.Trace`, read one
        :data:`WINDOW` at a time through its ``window`` method.
        """
        total = len(trace) if limit is None else min(limit, len(trace))
        # Completion of the most recent dependent-chain load: a load with
        # deps[i] set cannot issue before it (pointer chasing).
        chain_completion = 0

        stalls = StallAccounting()
        hierarchy = self.hierarchy
        checker = self.checker
        sampler = hierarchy.sampler
        tracer = hierarchy.tracer
        frontend = hierarchy.frontend
        fetch_hidden = frontend.hidden_latency if frontend else 0
        prev_fetch_line = -1
        rob_entries = self.rob_entries
        dispatch_width = self.dispatch_width
        retire_width = self.retire_width
        nonmem_latency = self.nonmem_latency
        hierarchy_load = hierarchy.load
        hierarchy_store = hierarchy.store
        kind_load, kind_store = KIND_LOAD, KIND_STORE

        dispatch_cycle = 0
        dispatch_slots = 0
        retire_cycle = 0
        retire_slots = 0
        retire_times: Deque[int] = deque()
        roi_start_cycle = 0
        counting = warmup == 0
        if counting and sampler is not None:
            sampler.begin(stalls, roi_start_cycle)
        if counting and tracer is not None:
            tracer.enable()

        lo = 0
        while lo < total:
            if not counting and lo == warmup:
                counting = True
                roi_start_cycle = retire_cycle
                hierarchy.reset_stats()
                if sampler is not None:
                    sampler.begin(stalls, roi_start_cycle)
                if tracer is not None:
                    tracer.enable()
            hi = lo + WINDOW
            if hi > total:
                hi = total
            if not counting and hi > warmup:
                hi = warmup  # windows never straddle the ROI boundary
            ips, kinds, addrs, deps = trace.window(lo, hi)
            for i in range(hi - lo):
                # -- dispatch ------------------------------------------------
                dc = dispatch_cycle
                if len(retire_times) >= rob_entries:
                    free_at = retire_times.popleft()
                    if free_at > dc:
                        dc = free_at
                        dispatch_slots = 0
                if dc > dispatch_cycle:
                    dispatch_cycle = dc
                    dispatch_slots = 0
                dispatch_slots += 1
                if dispatch_slots >= dispatch_width:
                    dispatch_cycle += 1
                    dispatch_slots = 0

                # -- fetch (optional frontend) -------------------------------
                if frontend is not None:
                    fetch_line = ips[i] >> 6
                    if fetch_line != prev_fetch_line:
                        prev_fetch_line = fetch_line
                        fetch_done = frontend.fetch(ips[i], dc)
                        # An L1I hit is hidden by the fetch pipeline; misses
                        # push dispatch back by the uncovered latency.
                        if fetch_done - dc > fetch_hidden:
                            dc = fetch_done - fetch_hidden
                            dispatch_cycle = dc
                            dispatch_slots = 0

                # -- execute --------------------------------------------------
                kind = kinds[i]
                is_replay = False
                translation_done = dc
                if kind == kind_load:
                    issue_at = dc
                    if deps[i] and chain_completion > issue_at:
                        issue_at = chain_completion
                    res = hierarchy_load(addrs[i], issue_at, ips[i])
                    completion = res.data_done
                    is_replay = res.is_replay
                    translation_done = res.translation_done
                    if deps[i]:
                        chain_completion = completion
                elif kind == kind_store:
                    hierarchy_store(addrs[i], dc, ips[i])
                    completion = dc + nonmem_latency
                else:
                    completion = dc + nonmem_latency

                # -- retire (in order, retire_width per cycle) ---------------
                earliest = retire_cycle
                if retire_slots >= retire_width:
                    earliest += 1
                if earliest < dc + 1:
                    earliest = dc + 1
                if completion > earliest:
                    stall = completion - earliest
                    if counting:
                        if kind == KIND_LOAD:
                            stalls.record_load_stall(
                                stall, is_replay, translation_pending=(
                                    translation_done - earliest))
                            if tracer is not None:
                                tracer.attach_load_stall(
                                    earliest, completion, is_replay,
                                    translation_done, ip=ips[i])
                        else:
                            stalls.record_other_stall(stall)
                    rt = completion
                else:
                    rt = earliest
                if rt > retire_cycle:
                    retire_cycle = rt
                    retire_slots = 1
                else:
                    retire_slots += 1
                retire_times.append(rt)
                if checker is not None:
                    checker.on_retire(rt, len(retire_times))
                if sampler is not None and counting:
                    sampler.on_retire(rt, len(retire_times))
            lo = hi

        instructions = total - warmup if warmup < total else 0
        cycles = max(1, retire_cycle - roi_start_cycle)
        if sampler is not None:
            sampler.finalize(retire_cycle)
        return CoreResult(instructions=instructions, cycles=cycles,
                          stalls=stalls, hierarchy=hierarchy)
