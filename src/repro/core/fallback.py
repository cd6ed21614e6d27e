"""Shared vocabulary of the batch backend's fallback seam.

:class:`FallbackReason` enumerates every way a run can be refused by the
batch fast path.  The *same* enum is the engine's
``last_fallback_reason`` type, the ``reason=`` label set of the
``repro_batch_fallback_total`` telemetry series, and the row key of the
fallback table in ``docs/performance.md`` -- one definition, three
surfaces (``tests/test_fallback_enum.py`` pins them against each other).

:class:`BatchStats` is the engine's per-run engagement record: how many
windows drained on the vector path, how much of each window took the
inlined fast path versus a scalar excursion, and -- when the whole run
was refused -- which :class:`FallbackReason` routed it to the scalar
core.  It is part of the public api surface (``repro.api.BatchStats``)
and rides run payloads (``RunSummary.batch``) into the sweep service's
telemetry registry.

This module is dependency-free on purpose: the api facade and the
service import it without pulling in numpy or the engine.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List


class FallbackReason(str, Enum):
    """Why a run executes on the scalar core instead of the batch path.

    Values are stable machine-readable slugs (telemetry label values and
    docs table keys); :data:`REASON_DETAIL` carries the human phrasing.
    """

    #: Static (config-time) refusals -- see ``vector_ineligibility``.
    HUGE_PAGES = "huge_pages"
    COMPARISON = "comparison"
    L1D_PREFETCHER = "l1d_prefetcher"
    L1D_POLICY = "l1d_policy"
    L1D_RECALL = "l1d_recall"
    DTLB_RECALL = "dtlb_recall"
    #: Runtime (attachment-time) refusals -- see ``_runtime_reason``.
    CHECKER = "checker"
    TRACER = "tracer"
    INSTANCE_PATCH = "instance_patch"

    def __str__(self) -> str:  # reads as the slug in messages/JSON
        return self.value


#: Human-readable detail per reason (docs table, error surfaces).  Every
#: member must have an entry -- the drift test enforces it.
REASON_DETAIL: Dict[FallbackReason, str] = {
    FallbackReason.HUGE_PAGES:
        "huge-page policy active (per-access key/sub split)",
    FallbackReason.COMPARISON:
        "comparison mode active (predictor side effects)",
    FallbackReason.L1D_PREFETCHER:
        "L1D prefetcher attached (per-hit training)",
    FallbackReason.L1D_POLICY:
        "non-LRU L1D policy (fast path models LRU stamps)",
    FallbackReason.L1D_RECALL:
        "L1D recall tracking attached",
    FallbackReason.DTLB_RECALL:
        "DTLB recall/observer attached",
    FallbackReason.CHECKER:
        "runtime checkers attached (per-event hooks)",
    FallbackReason.TRACER:
        "span tracer attached (per-request hooks)",
    FallbackReason.INSTANCE_PATCH:
        "instance-patched hot method (per-access shadowing)",
}


#: Miss-cohort-size histogram bounds (scalar excursions per window,
#: ``le`` semantics).  Shared verbatim with the service's
#: ``repro_batch_miss_cohort_size`` histogram so :meth:`BatchStats`
#: counts merge positionally.  The top bound is the engine's
#: 1024-instruction window, so the trailing implicit +Inf bucket stays
#: empty.
COHORT_BUCKETS = (0, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class BatchStats:
    """Engagement record of one :class:`BatchCore` run (stable surface).

    All counters cover the whole run (warmup included -- engagement is a
    property of execution, not of the ROI).  ``fallbacks`` is non-empty
    exactly when the run executed on the scalar core; then every other
    field stays zero.
    """

    #: Windows drained on the vector path.
    windows: int = 0
    #: Instructions covered by those windows.
    instructions: int = 0
    #: Memory accesses completed on the inlined DTLB-hit/L1D-hit path.
    fast_hits: int = 0
    #: Fast-path completions that merged with an in-flight MSHR fill.
    fast_merges: int = 0
    #: Memory accesses drained through the full scalar hierarchy.
    scalar_excursions: int = 0
    #: Full-run fallback counts keyed by :class:`FallbackReason` value.
    fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Miss-cohort-size histogram: one count per :data:`COHORT_BUCKETS`
    #: bound plus a trailing overflow slot (non-cumulative).
    cohort_sizes: List[int] = field(
        default_factory=lambda: [0] * (len(COHORT_BUCKETS) + 1))

    def record_fallback(self, reason: FallbackReason) -> None:
        key = str(reason)
        self.fallbacks[key] = self.fallbacks.get(key, 0) + 1

    def record_window(self, instructions: int, fast_hits: int,
                      fast_merges: int, scalar_excursions: int) -> None:
        self.windows += 1
        self.instructions += instructions
        self.fast_hits += fast_hits
        self.fast_merges += fast_merges
        self.scalar_excursions += scalar_excursions
        self.cohort_sizes[bisect_left(COHORT_BUCKETS,
                                      scalar_excursions)] += 1

    @property
    def fell_back(self) -> bool:
        """True when the run executed wholesale on the scalar core."""
        return bool(self.fallbacks)

    @property
    def excursion_fraction(self) -> float:
        """Fraction of drained memory accesses that left the fast path."""
        total = self.fast_hits + self.scalar_excursions
        return self.scalar_excursions / total if total else 0.0

    def to_dict(self) -> Dict:
        """Plain-JSON form (run payloads)."""
        return {"windows": self.windows,
                "instructions": self.instructions,
                "fast_hits": self.fast_hits,
                "fast_merges": self.fast_merges,
                "scalar_excursions": self.scalar_excursions,
                "fallbacks": dict(self.fallbacks),
                "cohort_buckets": list(COHORT_BUCKETS),
                "cohort_sizes": list(self.cohort_sizes)}
