"""Flat column-oriented storage for a set-associative cache.

The cache's per-line metadata lives in preallocated parallel columns
indexed by ``slot = set_idx * num_ways + way`` instead of per-set lists of
block objects: boolean flags are ``bytearray`` columns (so the
first-free-way scan is a C-speed ``bytearray.find``), integer state
(line address, RRPV, signature) are plain lists, and residency is one
interned ``{line_addr: slot}`` dict for the whole cache instead of one
dict per set.  The owning cache writes every column of a slot when it
fills it, except ``signature`` and ``rrpv``: those are the bound
policy's.

Invariant: ``valid[slot] == 1`` exactly when ``line[slot]`` maps to
``slot`` in :attr:`slot_of` (the validate subsystem machine-checks this).
"""

from __future__ import annotations

from typing import Dict, List


class CacheStore:
    """Parallel-column backing store for one cache level."""

    __slots__ = ("num_sets", "num_ways", "size", "line", "valid", "dirty",
                 "reused", "is_translation", "is_leaf_translation",
                 "is_replay", "is_prefetch", "dead_on_hit", "signature",
                 "rrpv", "slot_of")

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        n = num_sets * num_ways
        self.size = n
        self.line: List[int] = [-1] * n
        self.valid = bytearray(n)
        self.dirty = bytearray(n)
        self.reused = bytearray(n)
        self.is_translation = bytearray(n)
        self.is_leaf_translation = bytearray(n)
        self.is_replay = bytearray(n)
        self.is_prefetch = bytearray(n)
        self.dead_on_hit = bytearray(n)
        self.signature: List[int] = [0] * n
        self.rrpv: List[int] = [0] * n
        #: Single residency map for the whole cache: line_addr -> slot.
        #: (A line can live in exactly one set, so one dict suffices.)
        self.slot_of: Dict[int, int] = {}
