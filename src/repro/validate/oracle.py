"""Differential oracle: a timing-free functional reference model run in
lockstep with the timed hierarchy.

The timed :class:`~repro.cache.cache.Cache` fills eagerly (a missing line
enters the tag array at miss time, with its fill cycle attached), so for a
*timing-independent* replacement policy -- true LRU with no prefetcher and
no fill bypassing -- the hit/miss outcome and final residency of every set
are fully determined by the access sequence alone.  The oracle replays
that sequence through an independent set-associative true-LRU model and
cross-checks, per access, hit vs miss, and at the end of the run, per-line
residency and total hit/miss counts.

Timing-dependent traffic disqualifies the comparison: the first PREFETCH
request (drop decisions depend on queue occupancy) or an installed bypass
predicate *taints* the oracle, which then stops comparing rather than
reporting false violations.  The exact-page-walker half of the oracle
(translations must equal a direct page-table lookup) lives in
:class:`repro.validate.invariants.MMUChecker` and is never tainted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.memsys.request import AccessType, MemoryRequest
from repro.validate.invariants import CheckContext

#: Categories whose hits/misses the shadow model mirrors.
_MODELLED = ("translation", "replay", "non_replay", "writeback")


class FunctionalCache:
    """Set-associative, true-LRU, no-timing reference cache.

    Mirrors the documented functional semantics of the timed cache:
    writeback hits set the dirty bit without promoting, demand and
    translation hits promote to MRU, every miss installs at MRU and
    evicts the LRU line of a full set.
    """

    def __init__(self, num_sets: int, num_ways: int):
        self.num_sets = num_sets
        self.num_ways = num_ways
        #: Per set: line_addr -> dirty, ordered LRU-first.
        self.sets: List[OrderedDict] = [OrderedDict()
                                        for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def access(self, req: MemoryRequest) -> bool:
        """Apply one request; returns True on a hit."""
        line = req.line_addr
        entries = self.sets[self.set_index(line)]
        if line in entries:
            self.hits += 1
            if req.access_type is AccessType.WRITEBACK:
                entries[line] = True  # dirty, no LRU promotion
            else:
                dirty = entries.pop(line)
                entries[line] = dirty or req.access_type is AccessType.STORE
            return True
        self.misses += 1
        if len(entries) >= self.num_ways:
            entries.popitem(last=False)  # true-LRU victim
        entries[line] = req.access_type in (AccessType.STORE,
                                            AccessType.WRITEBACK)
        return False

    def invalidate(self, line_addr: int) -> None:
        self.sets[self.set_index(line_addr)].pop(line_addr, None)

    def residency(self, set_idx: int) -> set:
        return set(self.sets[set_idx])


class CacheOracle:
    """Runs a :class:`FunctionalCache` in lockstep with one timed cache."""

    def __init__(self, cache, ctx: CheckContext):
        self.cache = cache
        self.ctx = ctx
        self.shadow = FunctionalCache(cache.num_sets, cache.num_ways)
        self.compared = 0
        self.taint_reason: Optional[str] = None

    # ------------------------------------------------------------------
    def attach(self) -> "CacheOracle":
        cache = self.cache
        orig_access = cache.access
        orig_invalidate = cache.invalidate
        orig_reset = cache.reset_stats

        def oracle_access(req: MemoryRequest) -> int:
            if self.taint_reason is None:
                self._check_disqualifiers(req)
            if self.taint_reason is not None:
                return orig_access(req)
            real_hit = req.line_addr in cache.store.slot_of
            done = orig_access(req)
            shadow_hit = self.shadow.access(req)
            self.compared += 1
            if shadow_hit != real_hit:
                self.ctx.fail(
                    f"{cache.name}/oracle",
                    f"line {req.line_addr:#x} ({req.category()}): timed "
                    f"cache {'hit' if real_hit else 'missed'}, reference "
                    f"model {'hit' if shadow_hit else 'missed'}")
            return done

        def oracle_invalidate(line_addr: int):
            self.shadow.invalidate(line_addr)
            return orig_invalidate(line_addr)

        def oracle_reset() -> None:
            orig_reset()
            self.shadow.hits = 0
            self.shadow.misses = 0

        cache.access = oracle_access
        cache.invalidate = oracle_invalidate
        cache.reset_stats = oracle_reset
        return self

    def _check_disqualifiers(self, req: MemoryRequest) -> None:
        if req.access_type is AccessType.PREFETCH:
            self.taint_reason = "prefetch traffic (timing-dependent drops)"
        elif self.cache.bypass_predicate is not None:
            self.taint_reason = "fill-bypass predicate installed"
        elif self.cache.policy.name != "lru":
            self.taint_reason = f"policy {self.cache.policy.name!r} swapped in"

    # ------------------------------------------------------------------
    def final_check(self) -> None:
        """Cross-check counts and per-line residency at end of run."""
        if self.taint_reason is not None:
            return
        cache = self.cache
        stats = cache.stats
        real_hits = sum(stats.hits[c] for c in _MODELLED)
        real_misses = sum(stats.misses[c] for c in _MODELLED)
        self.ctx.require(
            (self.shadow.hits, self.shadow.misses)
            == (real_hits, real_misses),
            f"{cache.name}/oracle",
            f"hit/miss totals diverge: timed ({real_hits}, {real_misses}) "
            f"vs reference ({self.shadow.hits}, {self.shadow.misses})")
        real_sets: List[set] = [set() for _ in range(cache.num_sets)]
        for line in cache.store.slot_of:
            real_sets[line % cache.num_sets].add(line)
        for set_idx in range(cache.num_sets):
            real = real_sets[set_idx]
            ref = self.shadow.residency(set_idx)
            self.ctx.require(
                real == ref, f"{cache.name}/oracle",
                f"set {set_idx} residency diverges: timed-only "
                f"{sorted(map(hex, real - ref))}, reference-only "
                f"{sorted(map(hex, ref - real))}")


# ----------------------------------------------------------------------
# Fast-path differential comparison
# ----------------------------------------------------------------------
def hierarchy_counters(hierarchy, core_result=None) -> Dict[str, int]:
    """Flatten every architectural counter into one ``{name: int}`` dict.

    This is the comparison surface of the fast-path oracle: a simulation
    of a trace with the core's fast path on and one on its reference
    loop must produce *identical* dicts -- the fast path's contract is
    bit-identity, not statistical closeness.  Used by
    ``tests/test_backend_parity.py`` and the fast-path axis of
    :mod:`repro.validate.fuzz`.

    ``core_result`` (a :class:`repro.core.ooo_core.CoreResult`) extends
    the dict with retired-instruction/cycle counts and per-category
    stall accounting.
    """
    out: Dict[str, int] = {
        "loads": hierarchy.loads,
        "stores": hierarchy.stores,
        "mmu.translations": hierarchy.mmu.translations,
        "mmu.walk_cycles_total": hierarchy.mmu.walk_cycles_total,
        "walker.walks": hierarchy.mmu.walker.walks,
        "walker.pte_reads": hierarchy.mmu.walker.pte_reads,
        "dram.accesses": hierarchy.dram.accesses,
        "dram.row_hits": hierarchy.dram.row_hits,
        "dram.row_misses": hierarchy.dram.row_misses,
    }
    for tlb_name in ("dtlb", "stlb"):
        tlb = getattr(hierarchy.mmu, tlb_name)
        for ctr in ("accesses", "hits", "misses", "evictions"):
            out[f"{tlb_name}.{ctr}"] = getattr(tlb, ctr)
    for level in ("l1d", "l2c", "llc"):
        cache = getattr(hierarchy, level)
        stats = cache.stats
        for table_name, table in (("accesses", stats.accesses),
                                  ("hits", stats.hits),
                                  ("misses", stats.misses)):
            for cat, value in sorted(table.items()):
                if value:
                    out[f"{level}.{table_name}.{cat}"] = value
        out[f"{level}.leaf_accesses"] = stats.leaf_accesses
        out[f"{level}.leaf_hits"] = stats.leaf_hits
        out[f"{level}.leaf_misses"] = stats.leaf_misses
        out[f"{level}.prefetch_useful"] = stats.prefetch_useful
        out[f"{level}.prefetch_fills"] = stats.prefetch_fills
        out[f"{level}.writebacks_issued"] = cache.writebacks_issued
        out[f"{level}.fills_bypassed"] = cache.fills_bypassed
        out[f"{level}.back_invalidations"] = cache.back_invalidations
        out[f"{level}.mshr.merges"] = cache.mshr.merges
        out[f"{level}.mshr.allocations"] = cache.mshr.allocations
        out[f"{level}.mshr.peak_occupancy"] = cache.mshr.peak_occupancy
    for cat, levels in hierarchy.response_distribution.counts.items():
        for lvl, value in sorted(levels.items()):
            if value:
                out[f"response.{cat}.{lvl}"] = value
    if core_result is not None:
        out["core.instructions"] = core_result.instructions
        out["core.cycles"] = core_result.cycles
        for cat, cstats in core_result.stalls.by_category.items():
            out[f"stall.{cat.value}.total"] = cstats.total_cycles
            out[f"stall.{cat.value}.events"] = cstats.events
            out[f"stall.{cat.value}.max"] = cstats.max_cycles
    return out


def diff_counters(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, tuple]:
    """Keys on which two counter dicts disagree: ``{key: (a, b)}``.

    Keys missing from one side compare against ``None``.  An empty dict
    means the two runs were bit-identical on the compared surface.
    """
    out = {}
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            out[key] = (va, vb)
    return out
