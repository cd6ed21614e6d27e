"""Replacement-policy interface over the column-oriented cache store.

A policy sees three events -- fill, hit, evict -- plus victim selection.
The cache handles invalid ways itself; ``victim`` is only consulted when the
set is full.  Policies receive the full :class:`MemoryRequest` so that
translation-conscious variants can classify the incoming block.

Policies are *bound* to a :class:`repro.cache.store.CacheStore` before use
(:meth:`ReplacementPolicy.bind`): per-line policy state (RRPV, signature,
reuse bit) lives in the store's flat columns, shared with the cache, and
hooks address lines by ``(set_idx, way)`` exactly as before -- the slot is
``set_idx * num_ways + way``.
"""

from __future__ import annotations

import abc

from repro.memsys.request import MemoryRequest


class ReplacementPolicy(abc.ABC):
    """Base class for all replacement policies."""

    #: Registry name, set by subclasses (for reporting).
    name = "base"

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        #: Bound backing store (set by the owning cache via :meth:`bind`).
        self.store = None

    def bind(self, store) -> None:
        """Attach the cache's column store this policy operates on."""
        if (store.num_sets, store.num_ways) != (self.num_sets,
                                                self.num_ways):
            raise ValueError(
                f"policy geometry {self.num_sets}x{self.num_ways} does not "
                f"match store {store.num_sets}x{store.num_ways}")
        self.store = store

    @abc.abstractmethod
    def victim(self, set_idx: int, req: MemoryRequest) -> int:
        """Choose a way to evict from a full set."""

    @abc.abstractmethod
    def on_fill(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        """A new block was installed at (set, way)."""

    @abc.abstractmethod
    def on_hit(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        """The block at (set, way) was re-referenced."""

    #: Optional hooks: a policy that trains on them defines them as
    #: methods, and the cache calls each only when it is not None.
    #: ``on_evict(set_idx, way)``: the block at (set, way) is about to
    #: be replaced.  ``record_miss(set_idx)``: a demand miss occurred in
    #: ``set_idx`` (set dueling).
    on_evict = None
    record_miss = None

    def demote(self, set_idx: int, way: int) -> None:
        """Force the block to highest eviction priority (ATP prefetch fills)."""


class RRIPBase(ReplacementPolicy):
    """Shared machinery for RRPV-based policies (SRRIP family, SHiP,
    Hawkeye).  RRPVs live in the bound store's ``rrpv`` column; eviction
    uses the standard aging scheme, applied as one delta instead of a
    rescan loop (the victim is the way whose RRPV saturates first, i.e.
    the first way holding the set's maximum RRPV)."""

    #: RRPV bit width (2 for SRRIP/SHiP, 3 for Hawkeye).
    rrpv_bits = 2

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self.max_rrpv = (1 << self.rrpv_bits) - 1

    def victim(self, set_idx: int, req: MemoryRequest) -> int:
        """Evict the first block at max RRPV, aging the set as needed."""
        base = set_idx * self.num_ways
        rrpv = self.store.rrpv
        seg = rrpv[base:base + self.num_ways]
        mx = max(seg)
        if mx < self.max_rrpv:
            delta = self.max_rrpv - mx
            for slot in range(base, base + self.num_ways):
                rrpv[slot] += delta
        return seg.index(mx)

    def insertion_rrpv(self, set_idx: int, req: MemoryRequest) -> int:
        """RRPV assigned to an incoming block (policy-specific)."""
        return self.max_rrpv - 1

    def on_fill(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        self.store.rrpv[set_idx * self.num_ways + way] = \
            self.insertion_rrpv(set_idx, req)

    def on_hit(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        self.store.rrpv[set_idx * self.num_ways + way] = 0

    def demote(self, set_idx: int, way: int) -> None:
        self.store.rrpv[set_idx * self.num_ways + way] = self.max_rrpv
