"""Windowed batch-simulation backend (``SimConfig.backend == "numpy"``).

:class:`BatchCore` is a drop-in replacement for
:class:`repro.core.ooo_core.OOOCore` that drains the trace through one
fused scalar loop in fixed windows of :data:`WINDOW` instructions:

* an access whose VPN is resident in its DTLB set and whose physical
  line is resident in the L1D -- both checked with O(1) probes against
  the *live* scalar dicts -- takes an inlined hit path: engine
  recurrences plus the exact side-effect set of the scalar
  DTLB-hit/L1D-hit path (LRU/TLB stamps, reused/dirty bits, the MSHR
  merge probe), with counters accumulated per window;
* everything else (walks, L1D misses, conflicts) goes through the
  *real* ``hierarchy.load``/``store`` -- identical by construction.

While an eligible run drains, the walker carries a per-VPN descent memo
(``PageTableWalker.entries_cache``), filled lazily by the walks the
scalar excursions perform, so TLB-thrashing re-walks of a page become
dict lookups.

Bit-identity argument (pinned by ``tests/test_backend_parity.py`` and
the ``repro.validate`` fuzz axis):

* Page-table mappings never change once allocated, so a memoised
  descent is exact for the rest of the run.  The memo is filled by the
  same ``walk_entries`` calls the scalar core makes, at the same points,
  so the frame allocator sees the same calls in the same order; later
  hits on the memo replace pure lookups.  The memo is attached only
  while an eligible ``run`` is draining and is bypassed while a
  huge-page predicate is installed.
* The inlined hit path reproduces the scalar side effects exactly: the
  DTLB/LRU clocks advance by one per touch (kept in locals, synced
  around every scalar excursion), dict stamp assignment preserves
  insertion order, reused/dirty writes are idempotent, the MSHR merge
  probe replicates ``_handle_hit``'s inline check (including the merges
  counter and the fill-completion max), and the deferred counter adds
  are plain integer arithmetic whose total is order-independent.
* Configurations with per-hit side effects the fast path does not model
  (huge pages, L1D prefetchers, non-LRU L1D policy, comparison
  modes, attached checkers/tracers, instance-patched hot methods) are
  refused wholesale: :func:`vector_ineligibility` routes the entire run
  through an ordinary :class:`OOOCore`, recording a
  :class:`repro.core.fallback.FallbackReason`.
* An interval sampler needs no per-instruction hook: windows end at
  its edges, after the deferred counters are flushed.

The engine recurrences below are verbatim copies of ``OOOCore.run_slice`` --
divergence there is divergence in cycles, which the parity suite pins.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.fallback import BatchStats, FallbackReason
from repro.core.ooo_core import WINDOW, CoreResult, OOOCore
from repro.core.rob import StallAccounting
from repro.params import LINE_SHIFT, PAGE_SHIFT, SimConfig
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM

_PAGE_OFF_MASK = (1 << PAGE_SHIFT) - 1
_PFN_TO_LINE = PAGE_SHIFT - LINE_SHIFT


def vector_ineligibility(config: SimConfig,
                         hierarchy: MemoryHierarchy
                         ) -> Optional[FallbackReason]:
    """Why this machine cannot take the batch fast path (or None).

    Every condition here names scalar state or a per-hit side effect the
    fast path does not model; ineligible runs execute on the scalar core
    and remain bit-identical by construction.
    """
    if config.huge_page_policy != "none" \
            or hierarchy.page_table.huge_page_predicate is not None:
        return FallbackReason.HUGE_PAGES
    if config.comparison != "none" \
            or hierarchy.mmu.dead_page_predictor is not None:
        return FallbackReason.COMPARISON
    l1d = hierarchy.l1d
    if config.l1d_prefetcher != "none" or l1d.prefetcher is not None \
            or hierarchy.ipcp is not None:
        return FallbackReason.L1D_PREFETCHER
    if l1d.policy.name != "lru":
        return FallbackReason.L1D_POLICY
    if l1d.recall_translation is not None:
        return FallbackReason.L1D_RECALL
    dtlb = hierarchy.mmu.dtlb
    if dtlb.recall is not None or dtlb.observer is not None:
        return FallbackReason.DTLB_RECALL
    return None


class BatchCore:
    """Windowed batch core, bit-identical to :class:`OOOCore`."""

    backend = "numpy"

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy,
                 cpu_id: int = 0):
        self.config = config
        self.hierarchy = hierarchy
        self.cpu_id = cpu_id
        core = config.core
        self.rob_entries = core.rob_entries
        self.dispatch_width = core.dispatch_width
        self.retire_width = core.retire_width
        #: Why the last ``run`` fell back to the scalar core (or None).
        self.last_fallback_reason: Optional[FallbackReason] = None
        #: Engagement record of the last ``run`` (stable api surface).
        self.batch_stats = BatchStats()
        self._static_reason = vector_ineligibility(config, hierarchy)
        self._scalar_core: Optional[OOOCore] = None

    # ------------------------------------------------------------------
    def _scalar(self) -> OOOCore:
        if self._scalar_core is None:
            self._scalar_core = OOOCore(self.config, self.hierarchy,
                                        self.cpu_id)
        return self._scalar_core

    def _runtime_reason(self) -> Optional[FallbackReason]:
        h = self.hierarchy
        if h.checker is not None:
            return FallbackReason.CHECKER
        if h.tracer is not None or h.mmu.tracer is not None:
            return FallbackReason.TRACER
        # The oracle and some tests shadow bound methods on *instances*;
        # a shadowed hot method means per-access hooks we must honour.
        for obj, name in ((h, "load"), (h, "store"), (h.l1d, "access"),
                          (h.mmu, "translate"), (h.mmu.dtlb, "lookup")):
            if name in getattr(obj, "__dict__", {}):
                return FallbackReason.INSTANCE_PATCH
        return None

    # ------------------------------------------------------------------
    def run(self, trace, warmup: int = 0,
            limit: Optional[int] = None) -> CoreResult:
        """Execute ``trace``; same contract as :meth:`OOOCore.run`."""
        self.batch_stats = bstats = BatchStats()
        reason = self._static_reason or self._runtime_reason()
        if reason is not None:
            self.last_fallback_reason = reason
            bstats.record_fallback(reason)
            return self._scalar().run(trace, warmup, limit)
        self.last_fallback_reason = None

        hierarchy = self.hierarchy
        mmu = hierarchy.mmu
        walker = mmu.walker
        walker.entries_cache = {}
        try:
            return self._run_vector(trace, warmup, limit, bstats)
        finally:
            walker.entries_cache = None

    def _run_vector(self, trace, warmup: int, limit: Optional[int],
                    bstats: BatchStats) -> CoreResult:
        hierarchy = self.hierarchy

        l1d = hierarchy.l1d
        mmu = hierarchy.mmu
        dtlb = mmu.dtlb
        store = l1d.store

        # Live scalar structures the fast path touches directly.
        dtlb_sets = dtlb._sets
        dtlb_frames = dtlb._frames
        dtlb_num_sets = dtlb.num_sets
        slot_of_get = store.slot_of.get
        l1d_mshr = l1d.mshr
        inflight_get = l1d_mshr._inflight.get
        reused_col = store.reused
        dirty_col = store.dirty
        policy = l1d.policy
        pstamp = policy._stamp
        dtlb_lat = dtlb.latency
        l1d_lat = l1d.latency
        hierarchy_load = hierarchy.load
        hierarchy_store = hierarchy.store
        stats = l1d.stats
        resp_counts = hierarchy.response_distribution.counts["non_replay"]

        total = len(trace) if limit is None else min(limit, len(trace))

        stalls = StallAccounting()
        record_load = stalls.record_load_stall
        rob_entries = self.rob_entries
        dispatch_width = self.dispatch_width
        retire_width = self.retire_width
        kind_load, kind_nonmem = KIND_LOAD, KIND_NONMEM

        chain_completion = 0
        dispatch_cycle = 0
        dispatch_slots = 0
        retire_cycle = 0
        retire_slots = 0
        retire_times: Deque[int] = deque()
        popleft = retire_times.popleft
        append = retire_times.append
        n_rt = 0
        roi_start_cycle = 0
        counting = False
        sampler = hierarchy.sampler

        lo = 0
        while lo < total:
            if not counting and lo == warmup:
                counting = True
                roi_start_cycle = retire_cycle
                if warmup:
                    hierarchy.reset_stats()
                    # reset_stats rebinds these objects; re-capture them.
                    stats = l1d.stats
                    resp_counts = hierarchy.response_distribution.counts[
                        "non_replay"]
                if sampler is not None:
                    sampler.begin(stalls, roi_start_cycle, lo)
            hi = lo + WINDOW
            if hi > total:
                hi = total
            if not counting and hi > warmup:
                hi = warmup  # windows never straddle the ROI boundary
            if counting and sampler is not None and hi > sampler.next_edge:
                hi = sampler.next_edge  # nor a sampler edge
            ips_l, kinds_l, addrs_l, deps_l = trace.window(lo, hi)

            # ATP/TEMPO-style fills would set these 0/1 columns; eligible
            # configs never do, but a live check keeps the path honest.
            fast_ok = (1 not in store.is_prefetch
                       and 1 not in store.dead_on_hit)

            # Per-window deferred counters (flushed after the loop).
            n_fast_mem = 0
            n_fast_loads = 0
            n_fast_merges = 0
            n_excur = 0
            clock_d = dtlb._clock
            clock_p = policy._clock

            # -- fused drain loop ---------------------------------------
            # Index iteration, subscripting lazily: the nonmem branch
            # touches one column, the fast path four -- a zip over all
            # seven columns measured slower on hit-heavy traces.
            for i in range(hi - lo):
                # dispatch (verbatim OOOCore recurrence)
                dc = dispatch_cycle
                if n_rt >= rob_entries:
                    free_at = popleft()
                    n_rt -= 1
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

                kind = kinds_l[i]
                is_load = kind == kind_load
                if kind == kind_nonmem:
                    # retire (shared epilogue below); completing at
                    # dc + 1, it never waits past ``earliest``
                    earliest = retire_cycle
                    if retire_slots >= retire_width:
                        earliest += 1
                    if earliest < dc + 1:
                        earliest = dc + 1
                    rt = earliest
                    if rt > retire_cycle:
                        retire_cycle = rt
                        retire_slots = 1
                    else:
                        retire_slots += 1
                    append(rt)
                    n_rt += 1
                    continue

                addr = addrs_l[i]
                vpn = addr >> PAGE_SHIFT
                si = vpn % dtlb_num_sets
                entries = dtlb_sets[si]
                # Probe the live DTLB set: the frame dict IS the scalar
                # TLB's pfn store, so the line is exact by construction.
                if fast_ok and vpn in entries:
                    line = (dtlb_frames[si][vpn] << _PFN_TO_LINE) \
                        | ((addr & _PAGE_OFF_MASK) >> LINE_SHIFT)
                    slot = slot_of_get(line)
                    if slot is not None:
                        # -- inlined DTLB-hit/L1D-hit path --------------
                        # including the exact _handle_hit merge probe: a
                        # hit on a line whose fill is still in flight
                        # completes when the data arrives.
                        pending = inflight_get(line)
                        if is_load:
                            dep = deps_l[i]
                            issue_at = dc
                            if dep and chain_completion > issue_at:
                                issue_at = chain_completion
                            translation_done = issue_at + dtlb_lat
                            completion = translation_done + l1d_lat
                            if pending is not None \
                                    and pending > translation_done:
                                n_fast_merges += 1
                                if pending > completion:
                                    completion = pending
                            if dep:
                                chain_completion = completion
                            n_fast_loads += 1
                        else:
                            if pending is not None \
                                    and pending > dc + dtlb_lat:
                                n_fast_merges += 1
                            completion = dc + 1
                        n_fast_mem += 1
                        clock_d += 1
                        entries[vpn] = clock_d
                        reused_col[slot] = 1
                        if not is_load:
                            dirty_col[slot] = 1
                        clock_p += 1
                        pstamp[slot] = clock_p

                        earliest = retire_cycle
                        if retire_slots >= retire_width:
                            earliest += 1
                        if earliest < dc + 1:
                            earliest = dc + 1
                        if completion > earliest:
                            # only a load: a store completes at dc + 1
                            if counting:
                                record_load(
                                    completion - earliest, False,
                                    translation_pending=translation_done
                                    - earliest)
                            rt = completion
                        else:
                            rt = earliest
                        if rt > retire_cycle:
                            retire_cycle = rt
                            retire_slots = 1
                        else:
                            retire_slots += 1
                        append(rt)
                        n_rt += 1
                        continue

                # -- full scalar excursion (walks, misses, conflicts,
                #    revalidation failures) ----------------------------
                n_excur += 1
                dtlb._clock = clock_d
                policy._clock = clock_p
                is_replay = False
                translation_done = dc
                if is_load:
                    dep = deps_l[i]
                    issue_at = dc
                    if dep and chain_completion > issue_at:
                        issue_at = chain_completion
                    res = hierarchy_load(addr, issue_at, ips_l[i])
                    completion = res.data_done
                    is_replay = res.is_replay
                    translation_done = res.translation_done
                    if dep:
                        chain_completion = completion
                else:
                    hierarchy_store(addr, dc, ips_l[i])
                    completion = dc + 1
                clock_d = dtlb._clock
                clock_p = policy._clock

                earliest = retire_cycle
                if retire_slots >= retire_width:
                    earliest += 1
                if earliest < dc + 1:
                    earliest = dc + 1
                if completion > earliest:
                    # only a load: a store completes at dc + 1
                    if counting:
                        record_load(
                            completion - earliest, is_replay,
                            translation_pending=translation_done
                            - earliest)
                    rt = completion
                else:
                    rt = earliest
                if rt > retire_cycle:
                    retire_cycle = rt
                    retire_slots = 1
                else:
                    retire_slots += 1
                append(rt)
                n_rt += 1

            # -- flush deferred fast-path state -------------------------
            dtlb._clock = clock_d
            policy._clock = clock_p
            if n_fast_mem:
                n_fast_stores = n_fast_mem - n_fast_loads
                hierarchy.loads += n_fast_loads
                hierarchy.stores += n_fast_stores
                if n_fast_loads:
                    # Only loads record a response-distribution sample
                    # (stores are buffered; see MemoryHierarchy.store).
                    resp_counts["L1D"] += n_fast_loads
                mmu.translations += n_fast_mem
                dtlb.accesses += n_fast_mem
                dtlb.hits += n_fast_mem
                stats.accesses["non_replay"] += n_fast_mem
                stats.hits["non_replay"] += n_fast_mem
            if n_fast_merges:
                l1d_mshr.merges += n_fast_merges
            bstats.record_window(hi - lo, n_fast_mem, n_fast_merges,
                                 n_excur)
            lo = hi
            if counting and sampler is not None \
                    and (lo == sampler.next_edge or lo == total):
                sampler.on_retire(retire_cycle, lo)

        instructions = total - warmup if warmup < total else 0
        cycles = max(1, retire_cycle - roi_start_cycle)
        return CoreResult(instructions=instructions, cycles=cycles,
                          stalls=stalls, hierarchy=hierarchy)
