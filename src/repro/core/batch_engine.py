"""The numpy backend (``SimConfig.backend == "numpy"``).

:class:`BatchCore` is an :class:`repro.core.ooo_core.OOOCore` whose
:meth:`~BatchCore.run` turns on the core's inlined DTLB-hit/L1D-hit path
(:attr:`~repro.core.ooo_core.OOOCore.fast_path`) wherever that path is
bit-identical to the scalar one, records why it could not otherwise, and
keeps the run's :class:`repro.core.fallback.BatchStats`.

Bit-identity argument (pinned by ``tests/test_backend_parity.py``,
``tests/test_core_differential.py`` and the ``repro.validate`` fuzz
axis):

* The inlined hit path reproduces the scalar side effects exactly: the
  DTLB/LRU clocks advance by one per touch (kept in locals, synced
  around every scalar excursion), dict stamp assignment preserves
  insertion order, reused/dirty writes are idempotent, the MSHR merge
  probe replicates the one in ``Cache.access``'s hit path (including
  the merges counter and the fill-completion max), and the deferred
  counter adds are plain integer arithmetic whose total is
  order-independent; they are flushed at every slice end, before the
  warmup reset and each sampler edge.
* Configurations with per-hit side effects the fast path does not model
  (huge pages, L1D prefetchers, non-LRU L1D policy, comparison
  modes, attached checkers/tracers, instance-patched hot methods) run
  with the flag off: :func:`vector_ineligibility` and
  :meth:`BatchCore._runtime_reason` name a
  :class:`repro.core.fallback.FallbackReason`.
* Everything else -- dispatch, retire, stall attribution, walks and
  misses -- is the one loop of ``OOOCore.run_slice``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fallback import BatchStats, FallbackReason
from repro.core.ooo_core import CoreResult, OOOCore
from repro.params import SimConfig
from repro.uncore.hierarchy import MemoryHierarchy


def vector_ineligibility(config: SimConfig,
                         hierarchy: MemoryHierarchy
                         ) -> Optional[FallbackReason]:
    """Why this machine cannot take the fast path (or None).

    Every condition here names scalar state or a per-hit side effect the
    fast path does not model; ineligible runs take the scalar path for
    every access and remain bit-identical by construction.
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


class BatchCore(OOOCore):
    """The core with its fast path on where eligible."""

    backend = "numpy"

    def __init__(self, config: SimConfig, hierarchy: MemoryHierarchy,
                 cpu_id: int = 0):
        super().__init__(config, hierarchy, cpu_id)
        #: Why the last ``run`` kept the fast path off (or None).
        self.last_fallback_reason: Optional[FallbackReason] = None
        #: Engagement record of the last ``run`` (stable api surface).
        self.batch_stats = BatchStats()
        self._static_reason = vector_ineligibility(config, hierarchy)

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

    def run(self, trace, warmup: int = 0,
            limit: Optional[int] = None) -> CoreResult:
        """Execute ``trace``; same contract as :meth:`OOOCore.run`."""
        self.batch_stats = BatchStats()
        reason = self._static_reason or self._runtime_reason()
        self.last_fallback_reason = reason
        if reason is not None:
            self.batch_stats.record_fallback(reason)
        self.fast_path = reason is None
        return super().run(trace, warmup, limit)
