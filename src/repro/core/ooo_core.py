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

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.core.rob import StallAccounting
from repro.params import SimConfig
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.trace import KIND_LOAD, KIND_STORE

#: Drain window (instructions): the cores read the trace this many
#: instructions at a time (``Trace.window``), so a run holds list copies
#: of one window, not of the whole trace.  The numpy backend's windows
#: never straddle the warmup edge or an interval sampler's edge; it
#: flushes its deferred fast-path counters once per window (the unit of
#: ``BatchStats.windows``).
WINDOW = 1024

#: :meth:`OOOCore.run_slice` bound that no dispatch clock reaches.
UNBOUNDED = sys.maxsize


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


class OOOCore:
    """Single-thread core bound to one memory hierarchy.

    :meth:`run` executes a whole trace.  Underneath it, a trace runs in
    slices: :meth:`start` binds the trace, :meth:`run_slice` advances the
    recurrence with its state in locals, :meth:`begin_roi` opens the
    region of interest and :meth:`result` reads it.  Between slices the
    state lives on the core, so :func:`repro.core.engine.interleave` can
    run several cores a slice at a time (SMT threads, multicore).
    """

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy,
                 cpu_id: int = 0):
        self.config = config
        self.hierarchy = hierarchy
        self.cpu_id = cpu_id
        core = config.core
        self.rob_entries = core.rob_entries
        self.dispatch_width = core.dispatch_width
        self.retire_width = core.retire_width
        from repro import validate
        self.checker = validate.maybe_attach_core(self)

    # ------------------------------------------------------------------
    def run(self, trace, warmup: int = 0,
            limit: Optional[int] = None) -> CoreResult:
        """Execute ``trace``; statistics cover only the post-warmup region.

        ``trace`` is a :class:`repro.workloads.trace.Trace`, read one
        :data:`WINDOW` at a time through its ``window`` method.  The run
        is one slice to the warmup edge, the statistics reset, and one
        slice to the end -- or, with an interval sampler attached, one
        slice to each of its edges.
        """
        self.start(trace, warmup, limit)
        self.run_slice(warmup)
        if not self.counting and warmup < self.total:
            self.hierarchy.reset_stats()
            self.begin_roi()
        sampler = self.hierarchy.sampler
        if sampler is None:
            self.run_slice(self.total)
        else:
            while self.index < self.total:
                self.run_slice(sampler.next_edge)
                sampler.on_retire(self.retire_cycle, self.index)
        return self.result()

    def start(self, trace, warmup: int = 0,
              limit: Optional[int] = None) -> None:
        """Bind ``trace`` and reset the recurrence to its first instruction.

        With ``warmup == 0`` the region of interest opens here; otherwise
        the caller opens it (:meth:`begin_roi`) at index ``warmup``.
        """
        self.trace = trace
        self.warmup = warmup
        self.total = len(trace) if limit is None else min(limit, len(trace))
        self.index = 0
        # Completion of the most recent dependent-chain load: a load with
        # deps[i] set cannot issue before it (pointer chasing).
        self.chain_completion = 0
        self.dispatch_cycle = 0
        self.dispatch_slots = 0
        self.retire_cycle = 0
        self.retire_slots = 0
        self.retire_times: Deque[int] = deque()
        self.stalls = StallAccounting()
        self.roi_start_cycle = 0
        self.counting = False
        # The window read last: its first index and its four columns.
        self._window = (0, [], [], [], [])
        if warmup == 0:
            self.begin_roi()

    def begin_roi(self) -> None:
        """Open the region of interest at the current retire clock."""
        self.counting = True
        self.roi_start_cycle = self.retire_cycle
        hierarchy = self.hierarchy
        if hierarchy.sampler is not None:
            hierarchy.sampler.begin(self.stalls, self.roi_start_cycle,
                                    self.index)
        if hierarchy.tracer is not None:
            hierarchy.tracer.enable()

    def result(self) -> CoreResult:
        """The region of interest executed so far."""
        return CoreResult(
            instructions=max(0, self.index - self.warmup),
            cycles=max(1, self.retire_cycle - self.roi_start_cycle),
            stalls=self.stalls, hierarchy=self.hierarchy)

    def run_slice(self, stop: int, bound: int = UNBOUNDED) -> None:
        """Execute instructions until the index reaches ``stop`` (at most
        the end of the trace) or the dispatch clock reaches ``bound``."""
        trace = self.trace
        total = self.total
        stop = min(stop, total)
        stalls = self.stalls
        counting = self.counting
        hierarchy = self.hierarchy
        checker = self.checker
        tracer = hierarchy.tracer
        rob_entries = self.rob_entries
        dispatch_width = self.dispatch_width
        retire_width = self.retire_width
        hierarchy_load = hierarchy.load
        hierarchy_store = hierarchy.store
        kind_load, kind_store = KIND_LOAD, KIND_STORE

        i = self.index
        chain_completion = self.chain_completion
        dispatch_cycle = self.dispatch_cycle
        dispatch_slots = self.dispatch_slots
        retire_cycle = self.retire_cycle
        retire_slots = self.retire_slots
        retire_times = self.retire_times
        lo, ips, kinds, addrs, deps = self._window
        hi = lo + len(kinds)

        while i < stop and dispatch_cycle < bound:
            if i == hi:
                lo = i
                hi = lo + WINDOW
                if hi > total:
                    hi = total
                ips, kinds, addrs, deps = trace.window(lo, hi)
            for j in range(i - lo, min(hi, stop) - lo):
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

                # -- execute --------------------------------------------------
                kind = kinds[j]
                is_replay = False
                translation_done = dc
                if kind == kind_load:
                    issue_at = dc
                    if deps[j] and chain_completion > issue_at:
                        issue_at = chain_completion
                    res = hierarchy_load(addrs[j], issue_at, ips[j])
                    completion = res.data_done
                    is_replay = res.is_replay
                    translation_done = res.translation_done
                    if deps[j]:
                        chain_completion = completion
                elif kind == kind_store:
                    hierarchy_store(addrs[j], dc, ips[j])
                    completion = dc + 1
                else:
                    completion = dc + 1

                # -- retire (in order, retire_width per cycle) ---------------
                earliest = retire_cycle
                if retire_slots >= retire_width:
                    earliest += 1
                if earliest < dc + 1:
                    earliest = dc + 1
                if completion > earliest:
                    # Only a load gets here: every other instruction
                    # completes at dc + 1, and ``earliest`` is never less.
                    stall = completion - earliest
                    if counting:
                        stalls.record_load_stall(
                            stall, is_replay, translation_pending=(
                                translation_done - earliest))
                        if tracer is not None:
                            tracer.attach_load_stall(
                                earliest, completion, is_replay,
                                translation_done, ip=ips[j])
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
                if dispatch_cycle >= bound:
                    break
            i = lo + j + 1

        self.index = i
        self.chain_completion = chain_completion
        self.dispatch_cycle = dispatch_cycle
        self.dispatch_slots = dispatch_slots
        self.retire_cycle = retire_cycle
        self.retire_slots = retire_slots
        self._window = (lo, ips, kinds, addrs, deps)
