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

The ROB is a ring of ``rob_entries`` retire times in retire order: the
slot an instruction takes holds the retire time of the instruction
``rob_entries`` older (0 until the ROB fills, which no dispatch cycle is
below), so dispatch reads one slot and retire overwrites it.

A single-stream :meth:`OOOCore.run` takes the core's fast path wherever
it is exact (:func:`fast_path_refusal` names why not): an access that
hits the DTLB is translated inline instead of through
``hierarchy.load``/``store``, and then takes an inlined copy of the
L1D-hit path's side effects or goes straight to ``l1d.access``; see
:meth:`OOOCore.run_slice`.  :class:`BatchStats` records how much of the
run took it.

This reproduces the behaviour the paper measures: a 352-entry ROB amortizes
DTLB misses and short L2 hits, but 200+-cycle replay loads and serial page
walks stall the head.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.core.rob import StallAccounting
from repro.memsys import request as request_pool
from repro.memsys.request import AccessType
from repro.params import LINE_SHIFT, PAGE_SHIFT, SimConfig
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM

#: Drain window (instructions): the core reads the trace this many
#: instructions at a time (``Trace.window``), so a run holds list copies
#: of one window, not of the whole trace.  The fast path flushes its
#: deferred counters at the end of each window and of each slice.
WINDOW = 1024

#: :meth:`OOOCore.run_slice` bound that no dispatch clock reaches.
UNBOUNDED = sys.maxsize

_PAGE_OFF_MASK = (1 << PAGE_SHIFT) - 1
_PFN_TO_LINE = PAGE_SHIFT - LINE_SHIFT
_LOAD = AccessType.LOAD
_STORE = AccessType.STORE


@dataclass
class BatchStats:
    """How one :meth:`OOOCore.run` took the fast path (stable api
    surface: ``RunResult.batch``, and ``RunSummary.batch`` as a dict).

    The counters cover the whole run, warmup included: they describe how
    it executed, not the region of interest.  ``fallbacks`` is
    ``{slug: 1}`` when :func:`fast_path_refusal` kept the path off, and
    then every counter stays zero.
    """

    #: Trace windows (``WINDOW`` instructions, the last one shorter)
    #: read with the fast path on; slice ends, such as a sampler's
    #: edges, do not split them.
    windows: int = 0
    #: Instructions run with the fast path on.
    instructions: int = 0
    #: Memory accesses completed on the inlined DTLB-hit/L1D-hit path.
    fast_hits: int = 0
    #: Fast-path completions that merged with an in-flight MSHR fill.
    fast_merges: int = 0
    #: Memory accesses that took the miss path instead: a DTLB miss
    #: through the hierarchy, a DTLB hit that misses the L1D straight
    #: to the L1D.
    scalar_excursions: int = 0
    #: The refusal, keyed by its slug.
    fallbacks: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Plain-JSON form (run payloads)."""
        return asdict(self)


def fast_path_refusal(config: SimConfig,
                      hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why a run on ``hierarchy`` must keep the fast path off, as a slug,
    or None.

    On a DTLB hit the fast path writes only the DTLB stamp and the
    translation counters, and then either the L1D LRU stamp, the reused
    and dirty bits and the MSHR merge count (an L1D hit) or calls
    ``l1d.access`` itself (an L1D miss), bypassing ``hierarchy.load``/
    ``store``, ``mmu.translate`` and ``dtlb.lookup``.  So a machine or
    attachment with any other side effect on those calls is refused;
    its run takes the reference loop for every access and is
    bit-identical by construction.
    """
    if config.huge_page_policy != "none" \
            or hierarchy.page_table.huge_page_predicate is not None:
        return "huge_pages"  # a per-access key/sub split
    if config.comparison != "none" \
            or hierarchy.mmu.dead_page_predictor is not None:
        return "comparison"  # predictor side effects
    l1d = hierarchy.l1d
    if config.l1d_prefetcher != "none" or l1d.prefetcher is not None \
            or hierarchy.ipcp is not None:
        return "l1d_prefetcher"  # per-hit training
    if l1d.policy.name != "lru":
        return "l1d_policy"  # the fast path writes LRU stamps
    if l1d.recall_translation is not None:
        return "l1d_recall"
    mmu = hierarchy.mmu
    dtlb = mmu.dtlb
    if dtlb.recall is not None or dtlb.observer is not None:
        return "dtlb_recall"
    if hierarchy.checker is not None:
        return "checker"  # per-event hooks
    if hierarchy.tracer is not None or mmu.tracer is not None:
        return "tracer"  # per-request hooks
    # The oracle and some tests wrap hot methods on an instance, with
    # per-access side effects.  A bound method whose function is not its
    # class's shows one; a wrapper on the class itself (perfbench's
    # spans) does not refuse.  Reading the instance ``__dict__`` instead
    # would build it on CPython 3.11, and the object's attribute reads
    # would stay slower for the rest of the run.
    for obj, name in ((hierarchy, "load"), (hierarchy, "store"),
                      (l1d, "access"), (mmu, "translate"),
                      (dtlb, "lookup")):
        if getattr(getattr(obj, name), "__func__", None) \
                is not getattr(type(obj), name):
            return "instance_patch"
    return None


@dataclass
class CoreResult:
    """Outcome of one core run (post-warmup region of interest)."""

    instructions: int
    cycles: int
    stalls: StallAccounting
    hierarchy: MemoryHierarchy = field(repr=False, default=None)
    #: How a single-stream :meth:`OOOCore.run` took the fast path;
    #: None for the streams of :func:`repro.core.engine.interleave`.
    batch: Optional[BatchStats] = field(repr=False, default=None)

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
    run several cores a slice at a time (SMT threads, multicore), with
    the fast path off.
    """

    #: Keep the fast path off in :meth:`run`: the reference loop that
    #: the differential tests and the fuzz driver compare the fast path
    #: against.  No config field, api keyword or job param sets it.
    _reference = False

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy,
                 cpu_id: int = 0):
        self.config = config
        self.hierarchy = hierarchy
        self.cpu_id = cpu_id
        core = config.core
        self.rob_entries = core.rob_entries
        self.dispatch_width = core.dispatch_width
        self.retire_width = core.retire_width
        #: Take the inlined DTLB-hit/L1D-hit path.  :meth:`run` sets it
        #: per run, with ``batch``, the :class:`BatchStats` that
        #: :meth:`_flush` records into.
        self.fast_path = False
        self.batch: Optional[BatchStats] = None
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
        slice to each of its edges.  The fast path is on unless
        :func:`fast_path_refusal` refuses it; the result's ``batch``
        records how much of the run took it.
        """
        reason = fast_path_refusal(self.config, self.hierarchy)
        self.fast_path = reason is None and not self._reference
        self.batch = BatchStats(fallbacks={reason: 1} if reason else {})
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
        the caller opens it (:meth:`begin_roi`) at index ``warmup``.  The
        run starts here, so each cache level probes which policy hooks
        it may skip (:meth:`repro.cache.cache.Cache.probe_hooks`).
        """
        hierarchy = self.hierarchy
        for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
            cache.probe_hooks()
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
        # The ROB ring; instruction i takes slot i % rob_entries.
        self.rob = [0] * self.rob_entries
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
            stalls=self.stalls, hierarchy=self.hierarchy,
            batch=self.batch)

    def run_slice(self, stop: int, bound: int = UNBOUNDED) -> None:
        """Execute instructions until the index reaches ``stop`` (at most
        the end of the trace) or the dispatch clock reaches ``bound``.

        The fast path (:attr:`fast_path`) translates an access whose VPN
        is resident in its DTLB set itself -- an O(1) probe of the live
        scalar dicts and the TLB stamp.  If the line is resident in the
        L1D too, it answers the access with the exact side effects of
        the scalar DTLB-hit/L1D-hit path: the LRU stamp, the reused and
        dirty bits and ``Cache.access``'s MSHR merge probe.  Otherwise it
        sends one pooled request straight to ``l1d.access`` at the
        translation's done cycle, as ``hierarchy.load``/``store`` would,
        and adds a load's response-distribution sample.  The TLB and
        LRU clocks stay in locals, synced around every ``l1d.access``
        and every DTLB miss, which goes through the real
        ``hierarchy.load``/``store``.  The TLB, load/store and L1D-hit
        counter adds are deferred and flushed at each window's and
        slice's end, so the warmup reset, a sampler edge and
        :func:`repro.core.engine.interleave` all see them.  :meth:`run`
        sets the flag only where :func:`fast_path_refusal` finds no
        per-access side effect the path does not model, checkers and
        tracers among them, so a fast-path access needs neither.
        """
        trace = self.trace
        total = self.total
        stop = min(stop, total)
        counting = self.counting
        record_load = self.stalls.record_load_stall
        hierarchy = self.hierarchy
        checker = self.checker
        tracer = hierarchy.tracer
        rob = self.rob
        rob_entries = self.rob_entries
        dispatch_width = self.dispatch_width
        retire_width = self.retire_width
        hierarchy_load = hierarchy.load
        hierarchy_store = hierarchy.store
        kind_load, kind_nonmem = KIND_LOAD, KIND_NONMEM

        i = self.index
        pos = i % rob_entries
        chain_completion = self.chain_completion
        dispatch_cycle = self.dispatch_cycle
        dispatch_slots = self.dispatch_slots
        retire_cycle = self.retire_cycle
        retire_slots = self.retire_slots
        lo, ips, kinds, addrs, deps = self._window
        hi = lo + len(kinds)

        fast = self.fast_path
        hit_ok = False
        if fast:
            dtlb = hierarchy.mmu.dtlb
            dtlb_sets = dtlb._sets
            dtlb_frames = dtlb._frames
            dtlb_num_sets = dtlb.num_sets
            dtlb_lat = dtlb.latency
            l1d = hierarchy.l1d
            l1d_lat = l1d.latency
            l1d_store = l1d.store
            slot_of_get = l1d_store.slot_of.get
            reused_col = l1d_store.reused
            dirty_col = l1d_store.dirty
            inflight_get = l1d.mshr._inflight.get
            l1d_access = l1d.access
            acquire = request_pool.acquire
            release = request_pool.release
            # Bound per slice: a warmup reset replaces the table, and it
            # runs only between slices.
            served_non_replay = \
                hierarchy.response_distribution.counts["non_replay"]
            policy = l1d.policy
            pstamp = policy._stamp
            clock_d = dtlb._clock
            clock_p = policy._clock
            hit_ok = _hits_plain(l1d_store)
            flushed = i
            n_fast = n_fast_loads = n_merges = n_excursions = 0
            n_direct = n_direct_loads = 0

        while i < stop and dispatch_cycle < bound:
            if i == hi:
                if fast:
                    self._flush(i - flushed, n_fast, n_fast_loads,
                                n_direct, n_direct_loads, n_merges,
                                n_excursions)
                    flushed = i
                    n_fast = n_fast_loads = n_merges = n_excursions = 0
                    n_direct = n_direct_loads = 0
                    hit_ok = _hits_plain(l1d_store)
                    self.batch.windows += 1
                lo = i
                hi = lo + WINDOW
                if hi > total:
                    hi = total
                ips, kinds, addrs, deps = trace.window(lo, hi)
            for j in range(i - lo, min(hi, stop) - lo):
                # -- dispatch: into the ROB slot of the instruction
                # rob_entries older once it retired, then a dispatch slot
                free_at = rob[pos]
                if free_at > dispatch_cycle:
                    dispatch_cycle = free_at
                    dispatch_slots = 0
                dc = dispatch_cycle
                dispatch_slots += 1
                if dispatch_slots >= dispatch_width:
                    dispatch_cycle += 1
                    dispatch_slots = 0

                kind = kinds[j]
                if kind == kind_nonmem:
                    # -- retire: complete at dc + 1, never after the
                    # earliest retire slot, so never a stall ------------
                    if dc >= retire_cycle:
                        retire_cycle = dc + 1
                        retire_slots = 1
                    elif retire_slots >= retire_width:
                        retire_cycle += 1
                        retire_slots = 1
                    else:
                        retire_slots += 1
                    rt = retire_cycle
                else:
                    # -- execute -------------------------------------------
                    addr = addrs[j]
                    line = slot = None
                    if hit_ok:
                        vpn = addr >> PAGE_SHIFT
                        si = vpn % dtlb_num_sets
                        entries = dtlb_sets[si]
                        # The frame dict is the TLB's own pfn store, so
                        # the line is exact by construction.
                        if vpn in entries:
                            frame = dtlb_frames[si][vpn]
                            line = (frame << _PFN_TO_LINE) \
                                | ((addr & _PAGE_OFF_MASK) >> LINE_SHIFT)
                            slot = slot_of_get(line)
                    if slot is not None:
                        # A hit on a line whose fill is in flight
                        # completes when the data arrives.
                        pending = inflight_get(line)
                        if kind == kind_load:
                            is_replay = False
                            issue_at = dc
                            if deps[j] and chain_completion > issue_at:
                                issue_at = chain_completion
                            translation_done = issue_at + dtlb_lat
                            completion = translation_done + l1d_lat
                            if pending is not None \
                                    and pending > translation_done:
                                n_merges += 1
                                if pending > completion:
                                    completion = pending
                            if deps[j]:
                                chain_completion = completion
                            n_fast_loads += 1
                        else:
                            if pending is not None \
                                    and pending > dc + dtlb_lat:
                                n_merges += 1
                            completion = dc + 1
                            dirty_col[slot] = 1
                        n_fast += 1
                        clock_d += 1
                        entries[vpn] = clock_d
                        reused_col[slot] = 1
                        clock_p += 1
                        pstamp[slot] = clock_p
                    elif line is not None:
                        # A DTLB hit that misses the L1D: translated
                        # here, then one request straight to the L1D at
                        # the translation's done cycle, as
                        # hierarchy.load/store send it.
                        n_excursions += 1
                        n_direct += 1
                        clock_d += 1
                        entries[vpn] = clock_d
                        paddr = (frame << PAGE_SHIFT) \
                            | (addr & _PAGE_OFF_MASK)
                        policy._clock = clock_p
                        if kind == kind_load:
                            is_replay = False
                            issue_at = dc
                            if deps[j] and chain_completion > issue_at:
                                issue_at = chain_completion
                            translation_done = issue_at + dtlb_lat
                            req = acquire(paddr, translation_done, ips[j],
                                          _LOAD)
                            completion = l1d_access(req)
                            # a request no cache level served came from
                            # DRAM
                            served_non_replay[req.served_by or "DRAM"] += 1
                            if deps[j]:
                                chain_completion = completion
                            n_direct_loads += 1
                        else:
                            req = acquire(paddr, dc + dtlb_lat, ips[j],
                                          _STORE)
                            l1d_access(req)
                            completion = dc + 1
                        release(req)
                        clock_p = policy._clock
                    else:
                        if fast:
                            n_excursions += 1
                            dtlb._clock = clock_d
                            policy._clock = clock_p
                        if kind == kind_load:
                            issue_at = dc
                            if deps[j] and chain_completion > issue_at:
                                issue_at = chain_completion
                            res = hierarchy_load(addr, issue_at, ips[j])
                            completion = res.data_done
                            is_replay = res.is_replay
                            translation_done = res.translation_done
                            if deps[j]:
                                chain_completion = completion
                        else:
                            hierarchy_store(addr, dc, ips[j])
                            completion = dc + 1
                        if fast:
                            clock_d = dtlb._clock
                            clock_p = policy._clock

                    # -- retire (in order, retire_width per cycle) -----------
                    earliest = retire_cycle
                    if retire_slots >= retire_width:
                        earliest += 1
                    if earliest <= dc:
                        earliest = dc + 1
                    if completion > earliest:
                        # Only a load gets here: a store completes at
                        # dc + 1, and ``earliest`` is never less.
                        if counting:
                            record_load(completion - earliest, is_replay,
                                        translation_done - earliest)
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
                rob[pos] = rt
                pos += 1
                if pos == rob_entries:
                    pos = 0
                if checker is not None:
                    checker.on_retire(dc, rt)
                if dispatch_cycle >= bound:
                    break
            i = lo + j + 1

        if fast:
            dtlb._clock = clock_d
            policy._clock = clock_p
            self._flush(i - flushed, n_fast, n_fast_loads, n_direct,
                        n_direct_loads, n_merges, n_excursions)
        self.index = i
        self.chain_completion = chain_completion
        self.dispatch_cycle = dispatch_cycle
        self.dispatch_slots = dispatch_slots
        self.retire_cycle = retire_cycle
        self.retire_slots = retire_slots
        self._window = (lo, ips, kinds, addrs, deps)

    def _flush(self, instructions: int, fast: int, fast_loads: int,
               direct: int, direct_loads: int, merges: int,
               excursions: int) -> None:
        """Add the fast path's deferred counters to the hierarchy and to
        ``batch``: ``fast`` DTLB-hit/L1D-hit accesses, ``fast_loads`` of
        them loads, and ``direct`` DTLB-hit accesses sent straight to
        the L1D, ``direct_loads`` of them loads."""
        if instructions == 0:
            return
        hierarchy = self.hierarchy
        translated = fast + direct
        if translated:
            mmu = hierarchy.mmu
            dtlb = mmu.dtlb
            loads = fast_loads + direct_loads
            hierarchy.loads += loads
            hierarchy.stores += translated - loads
            mmu.translations += translated
            dtlb.accesses += translated
            dtlb.hits += translated
        if fast:
            stats = hierarchy.l1d.stats
            if fast_loads:
                # Only loads record a response-distribution sample
                # (stores are buffered; see MemoryHierarchy.store).
                hierarchy.response_distribution.counts["non_replay"][
                    "L1D"] += fast_loads
            stats.accesses["non_replay"] += fast
            stats.hits["non_replay"] += fast
        if merges:
            hierarchy.l1d.mshr.merges += merges
        batch = self.batch
        batch.instructions += instructions
        batch.fast_hits += fast
        batch.fast_merges += merges
        batch.scalar_excursions += excursions


def _hits_plain(store) -> bool:
    """Whether no L1D line is a prefetch or dead-on-hit fill, whose hit
    has side effects the fast path does not model.  Eligible machines
    never fill one (ATP/TEMPO fill the L2C and LLC), but a live check at
    each window keeps the path honest."""
    return 1 not in store.is_prefetch and 1 not in store.dead_on_hit
