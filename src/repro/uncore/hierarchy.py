"""The complete memory hierarchy of one core.

Builds (per Table I): DTLB/STLB + PSCs + PTW, L1D -> L2C -> LLC -> DRAM,
applies the configured replacement policies (swapping in T-DRRIP / T-SHiP /
T-Hawkeye when the paper's enhancements are enabled) and attaches the
configured prefetchers (IPCP at L1D; SPP/Bingo/ISB at L2C; ATP at L2C+LLC;
TEMPO at the DRAM controller).

``load``/``store`` perform the full two-phase access the paper studies:
address translation first, then the (replay or non-replay) data access.
A core with its fast path on does both phases itself, with the same
side effects (:meth:`repro.core.ooo_core.OOOCore.run_slice`), so
``load``/``store`` serve only the reference loop and refused runs.

For multi-core configurations the LLC and DRAM can be shared: pass them in
via ``shared_llc``/``shared_dram``, and the shared ``allocator`` that the
cores' page tables draw frames from.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.cache.cache import Cache
from repro.cache.replacement import make_policy
from repro.memsys.dram import DRAM
from repro.memsys import request as request_pool
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import LINE_SHIFT, PAGE_SHIFT, SimConfig
from repro.prefetch import make_l2c_prefetcher
from repro.stats.counters import LevelDistribution
from repro.vm.mmu import MMU
from repro.vm.page_table import FrameAllocator, PageTable

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_PREFETCH = AccessType.PREFETCH


@dataclass(slots=True)
class LoadResult:
    """Timing of one demand load through translation + data access."""

    vaddr: int
    paddr: int
    issue_cycle: int
    translation_done: int
    data_done: int
    is_replay: bool
    dtlb_hit: bool
    stlb_hit: bool
    data_served_by: str


class MemoryHierarchy:
    """Per-core memory system (optionally sharing LLC/DRAM with peers)."""

    def __init__(self, config: SimConfig,
                 allocator: Optional[FrameAllocator] = None,
                 shared_llc: Optional[Cache] = None,
                 shared_dram: Optional[DRAM] = None):
        self.config = config
        enh = config.enhancements
        ideal = config.ideal

        self.dram = shared_dram or DRAM(config.dram)

        if shared_llc is not None:
            self.llc = shared_llc
        else:
            llc_policy_name = config.llc.replacement
            if enh.t_ship:
                llc_policy_name = {"ship": "t_ship",
                                   "hawkeye": "t_hawkeye"}.get(
                    llc_policy_name, llc_policy_name)
            elif enh.newsign and llc_policy_name == "ship":
                llc_policy_name = "newsign_ship"
            llc_kwargs = {}
            if llc_policy_name in ("t_ship",) and enh.replay_rrpv0:
                llc_kwargs["replay_rrpv0"] = True
            llc_policy = make_policy(llc_policy_name, config.llc.num_sets,
                                     config.llc.ways, **llc_kwargs)
            self.llc = Cache(config.llc, self.dram, policy=llc_policy,
                             track_recall=config.track_recall,
                             ideal_translations=ideal.llc_translations,
                             ideal_replays=ideal.llc_replays)

        l2c_policy_name = config.l2c.replacement
        l2c_kwargs = {}
        if enh.t_drrip and l2c_policy_name == "drrip":
            l2c_policy_name = "t_drrip"
            if enh.replay_rrpv0:
                l2c_kwargs["replay_rrpv0"] = True
        l2c_policy = make_policy(l2c_policy_name, config.l2c.num_sets,
                                 config.l2c.ways, **l2c_kwargs)
        self.l2c = Cache(config.l2c, self.llc, policy=l2c_policy,
                         track_recall=config.track_recall,
                         ideal_translations=ideal.l2c_translations,
                         ideal_replays=ideal.l2c_replays)
        self.l1d = Cache(config.l1d, self.l2c)
        if config.llc_inclusion == "inclusive":
            # Weak: the levels' ``next_level`` chain already leads down
            # to the LLC, and a cycle would keep a finished run's caches
            # alive until a full collection.  The hierarchy owns them.
            self.llc.back_invalidate_targets.extend(
                [weakref.proxy(self.l2c), weakref.proxy(self.l1d)])
        elif config.llc_inclusion != "non_inclusive":
            raise ValueError(
                f"unknown inclusion policy {config.llc_inclusion!r}")

        predicate = None
        if config.huge_page_policy == "gather_region":
            from repro.workloads.synthetic import RANDOM_BASE
            predicate = lambda va: va >= RANDOM_BASE  # noqa: E731
        elif config.huge_page_policy != "none":
            raise ValueError(
                f"unknown huge-page policy {config.huge_page_policy!r}")
        self.page_table = PageTable(allocator, huge_page_predicate=predicate)
        self.mmu = MMU(config, self.page_table, self.l1d)

        # Section V-B prior-work comparison modes.
        self.dead_page_predictor = None
        self.dead_block_bypass = None
        if config.comparison == "cbpred":
            from repro.compare.dead_page import (DeadBlockBypass,
                                                 DeadPagePredictor)
            self.dead_page_predictor = DeadPagePredictor()
            self.mmu.stlb.observer = self.dead_page_predictor
            self.mmu.dead_page_predictor = self.dead_page_predictor
            if shared_llc is None:
                self.dead_block_bypass = DeadBlockBypass(
                    self.dead_page_predictor)
                self.llc.bypass_predicate = self.dead_block_bypass
        elif config.comparison == "csalt":
            if shared_llc is None:
                from repro.compare.csalt import CSALTPolicy
                self.llc.policy = CSALTPolicy(config.llc.num_sets,
                                              config.llc.ways)
        elif config.comparison != "none":
            raise ValueError(
                f"unknown comparison mode {config.comparison!r}")

        # Prefetchers.
        self.l2c.prefetcher = make_l2c_prefetcher(config.l2c_prefetcher)
        self.ipcp: Optional[IPCPPrefetcher] = None
        if config.l1d_prefetcher == "ipcp":
            from repro.prefetch.ipcp import IPCPPrefetcher
            self.ipcp = IPCPPrefetcher()
        elif config.l1d_prefetcher not in ("none", "", None):
            # Physical-address prefetchers can also sit at the L1D.
            self.l1d.prefetcher = make_l2c_prefetcher(config.l1d_prefetcher)

        self.atp: Optional[ATPPrefetcher] = None
        if enh.atp:
            from repro.prefetch.atp import ATPPrefetcher
            self.atp = ATPPrefetcher(self.l2c, self.llc)
            self.atp.attach()
        self.tempo: Optional[TEMPOPrefetcher] = None
        if enh.tempo:
            from repro.prefetch.tempo import TEMPOPrefetcher
            self.tempo = TEMPOPrefetcher(self.dram, self.llc)
            self.tempo.attach()

        self._replay_issue_latency = config.core.replay_issue_latency

        #: Fig 3: which level served leaf translations / replays.
        self.response_distribution = LevelDistribution()
        self.loads = 0
        self.stores = 0
        #: Summed data latency (data done minus translation done) of
        #: replay loads; ATP's head start is how far it lowers the mean.
        self.replay_latency_total = 0

        #: Runtime invariant checkers (None unless --check/REPRO_CHECK=1).
        from repro import validate
        self.checker = validate.maybe_attach(self)

        #: Interval metrics sampler (None unless the run is observed; the
        #: cores call it at slice edges).  Attached by
        #: :func:`repro.experiments.runner.run_benchmark`.
        self.sampler = None

        #: Request-level span tracer (None unless the run is traced --
        #: attached via :func:`repro.obs.trace.attach`, same cost model).
        self.tracer = None

    # ------------------------------------------------------------------
    def load(self, va: int, cycle: int, ip: int = 0) -> LoadResult:
        """A demand load: translate, then fetch the data line."""
        self.loads += 1
        tracer = self.tracer
        root = None
        if tracer is not None:
            root = tracer.begin_request("load", cycle, vaddr=va, ip=ip)
        tr = self.mmu.translate(va, cycle, ip)
        is_replay = tr.is_replay
        issue_at = tr.done_cycle
        if is_replay:
            # The load is replayed from the load queue after the walk
            # fills the TLBs (pipeline re-issue latency).
            issue_at += self._replay_issue_latency
            if tr.walk is not None and tr.walk.leaf_served_by:
                # the category literal is always present in the table
                self.response_distribution.counts["translation"][
                    tr.walk.leaf_served_by] += 1

        req = request_pool.acquire(tr.paddr, issue_at, ip, _LOAD, is_replay)
        category = "replay" if is_replay else "non_replay"
        dspan = None
        if tracer is not None:
            dspan = tracer.begin("data", issue_at, cat=category,
                                 line=req.line_addr)
        data_done = self.l1d.access(req)
        if is_replay:
            self.replay_latency_total += data_done - tr.done_cycle
        if tracer is not None:
            tracer.end(dspan, data_done, served_by=req.served_by)
        # a request no cache level served came from DRAM
        self.response_distribution.counts[category][
            req.served_by or "DRAM"] += 1
        if self.ipcp is not None:
            self._run_ipcp(ip, va, cycle)
        if tracer is not None:
            tracer.end_request(root, data_done, cat=category,
                               paddr=tr.paddr)
        result = LoadResult(va, tr.paddr, cycle, tr.done_cycle, data_done,
                            is_replay, tr.dtlb_hit, tr.stlb_hit,
                            req.served_by)
        request_pool.release(req)
        return result

    def store(self, va: int, cycle: int, ip: int = 0) -> LoadResult:
        """A demand store: translation matters, data is buffered."""
        self.stores += 1
        tracer = self.tracer
        root = None
        if tracer is not None:
            root = tracer.begin_request("store", cycle, vaddr=va, ip=ip)
        tr = self.mmu.translate(va, cycle, ip)
        req = request_pool.acquire(tr.paddr, tr.done_cycle, ip, _STORE,
                                   tr.is_replay)
        category = "replay" if tr.is_replay else "non_replay"
        dspan = None
        if tracer is not None:
            dspan = tracer.begin("data", tr.done_cycle, cat=category,
                                 line=req.line_addr)
        data_done = self.l1d.access(req)
        if tracer is not None:
            tracer.end(dspan, data_done, served_by=req.served_by)
            tracer.end_request(root, data_done, cat=category,
                               paddr=tr.paddr)
        result = LoadResult(va, tr.paddr, cycle, tr.done_cycle, data_done,
                            tr.is_replay, tr.dtlb_hit, tr.stlb_hit,
                            req.served_by)
        request_pool.release(req)
        return result

    # ------------------------------------------------------------------
    def _run_ipcp(self, ip: int, va: int, cycle: int) -> None:
        """Issue IPCP's virtual-address prefetches through the MMU.

        Same-page candidates reuse the demand's translation; cross-page
        candidates must translate first and, on an STLB miss, wait for the
        full page-table walk -- the late-prefetch effect of Section III.
        """
        vline = va >> LINE_SHIFT
        for cand_vline in self.ipcp.operate_virtual(ip, vline, hit=True):
            cand_va = cand_vline << LINE_SHIFT
            if self.page_table.lookup(cand_va) is None:
                continue  # unmapped page: a real prefetch would fault
            # Same-page candidates hit the just-filled DTLB (1 cycle);
            # cross-page STLB misses pay a full walk -> late prefetch.
            tr = self.mmu.translate(cand_va, cycle, ip, count_stats=False)
            pline = tr.paddr >> LINE_SHIFT
            if self.l1d.contains(pline):
                continue
            pref = request_pool.acquire(tr.paddr, tr.done_cycle, ip,
                                        _PREFETCH)
            self.l1d.access(pref)
            request_pool.release(pref)

    def reset_stats(self) -> None:
        """Zero every statistics counter (warmup boundary).  Cache, TLB and
        predictor *contents* are preserved -- only the counting restarts."""
        self.l1d.reset_stats()
        self.l2c.reset_stats()
        self.llc.reset_stats()
        self.mmu.dtlb.reset_stats()
        self.mmu.stlb.reset_stats()
        self.mmu.psc.reset_stats()
        self.mmu.translations = 0
        self.mmu.walk_cycles_total = 0
        self.mmu.walker.walks = 0
        self.mmu.walker.pte_reads = 0
        self.dram.accesses = 0
        self.dram.row_hits = 0
        self.dram.row_misses = 0
        self.response_distribution = LevelDistribution()
        self.loads = 0
        self.stores = 0
        self.replay_latency_total = 0
        if self.atp is not None:
            self.atp.triggered_l2c = 0
            self.atp.triggered_llc = 0
        if self.tempo is not None:
            self.tempo.triggered = 0
        if self.ipcp is not None:
            self.ipcp.issued = 0
            self.ipcp.cross_page_issued = 0

    # ------------------------------------------------------------------
    def leaf_translation_hit_rate(self) -> float:
        """On-chip hit rate of leaf translations (paper: 99% with T-*)."""
        acc = (self.l1d.stats.leaf_accesses)
        if acc == 0:
            return 1.0
        dram = self.llc.stats.leaf_misses
        return 1.0 - dram / acc
