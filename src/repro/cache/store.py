"""Flat column-oriented storage for a set-associative cache.

The cache's per-line metadata lives in preallocated parallel columns
indexed by ``slot = set_idx * num_ways + way`` instead of per-set lists of
block objects: boolean flags are ``bytearray`` columns (so the
first-free-way scan is a C-speed ``bytearray.find``), integer state
(line address, RRPV, signature, fill cycle) are plain lists, and residency
is one interned ``{line_addr: slot}`` dict for the whole cache instead of
one dict per set.

Invariant: ``valid[slot] == 1`` exactly when ``line[slot]`` maps to
``slot`` in :attr:`slot_of` (the validate subsystem machine-checks this).

:class:`BlockView` keeps the old block-object ergonomics for tests and
debugging: a thin live view over one slot's columns.  The hot path never
creates views -- it reads and writes the columns directly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cache.block import CacheBlock


class CacheStore:
    """Parallel-column backing store for one cache level."""

    __slots__ = ("num_sets", "num_ways", "size", "line", "valid", "dirty",
                 "reused", "is_translation", "is_leaf_translation",
                 "is_replay", "is_prefetch", "dead_on_hit", "signature",
                 "rrpv", "fill_cycle", "slot_of")

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
        self.fill_cycle: List[int] = [0] * n
        #: Single residency map for the whole cache: line_addr -> slot.
        #: (A line can live in exactly one set, so one dict suffices.)
        self.slot_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def first_free(self, set_idx: int) -> int:
        """Slot of the first invalid way in ``set_idx``, or -1 when full."""
        base = set_idx * self.num_ways
        return self.valid.find(0, base, base + self.num_ways)

    def reset_slot(self, slot: int, line_addr: int, fill_cycle: int) -> None:
        """Reinitialise ``slot`` for a fresh fill (the column analogue of
        ``CacheBlock.reset_for_fill``); the caller updates :attr:`slot_of`."""
        self.line[slot] = line_addr
        self.valid[slot] = 1
        self.dirty[slot] = 0
        self.reused[slot] = 0
        self.is_translation[slot] = 0
        self.is_leaf_translation[slot] = 0
        self.is_replay[slot] = 0
        self.is_prefetch[slot] = 0
        self.dead_on_hit[slot] = 0
        self.signature[slot] = 0
        self.fill_cycle[slot] = fill_cycle

    # ------------------------------------------------------------------
    def view(self, slot: int) -> "BlockView":
        """A live block-shaped view over ``slot``'s columns."""
        return BlockView(self, slot)

    def snapshot(self, slot: int) -> CacheBlock:
        """A detached :class:`CacheBlock` copy of ``slot``'s state (safe to
        hold across later fills of the same slot)."""
        block = CacheBlock()
        block.line_addr = self.line[slot]
        block.valid = bool(self.valid[slot])
        block.dirty = bool(self.dirty[slot])
        block.reused = bool(self.reused[slot])
        block.is_translation = bool(self.is_translation[slot])
        block.is_leaf_translation = bool(self.is_leaf_translation[slot])
        block.is_replay = bool(self.is_replay[slot])
        block.is_prefetch = bool(self.is_prefetch[slot])
        block.dead_on_hit = bool(self.dead_on_hit[slot])
        block.signature = self.signature[slot]
        block.rrpv = self.rrpv[slot]
        block.fill_cycle = self.fill_cycle[slot]
        return block

    def load_block(self, slot: int, block: CacheBlock) -> None:
        """Overwrite ``slot`` from a :class:`CacheBlock` (test fixtures and
        the round-trip property test); the caller updates :attr:`slot_of`."""
        self.line[slot] = block.line_addr
        self.valid[slot] = 1 if block.valid else 0
        self.dirty[slot] = 1 if block.dirty else 0
        self.reused[slot] = 1 if block.reused else 0
        self.is_translation[slot] = 1 if block.is_translation else 0
        self.is_leaf_translation[slot] = 1 if block.is_leaf_translation else 0
        self.is_replay[slot] = 1 if block.is_replay else 0
        self.is_prefetch[slot] = 1 if block.is_prefetch else 0
        self.dead_on_hit[slot] = 1 if block.dead_on_hit else 0
        self.signature[slot] = block.signature
        self.rrpv[slot] = block.rrpv
        self.fill_cycle[slot] = block.fill_cycle


class BlockView:
    """Live, block-shaped window onto one store slot.

    Reads and writes go straight through to the columns, so mutating a
    view (as white-box tests do) mutates the cache.  Compare with
    :meth:`CacheStore.snapshot`, which detaches."""

    __slots__ = ("_store", "slot")

    def __init__(self, store: CacheStore, slot: int):
        self._store = store
        self.slot = slot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "V" if self.valid else "-"
        return f"<BlockView {self.line_addr:#x} {state} rrpv={self.rrpv}>"


def _bool_column(name: str):
    def get(self: BlockView) -> bool:
        return bool(getattr(self._store, name)[self.slot])

    def set_(self: BlockView, value: bool) -> None:
        getattr(self._store, name)[self.slot] = 1 if value else 0

    return property(get, set_)


def _int_column(name: str):
    def get(self: BlockView) -> int:
        return getattr(self._store, name)[self.slot]

    def set_(self: BlockView, value: int) -> None:
        getattr(self._store, name)[self.slot] = value

    return property(get, set_)


for _name in ("valid", "dirty", "reused", "is_translation",
              "is_leaf_translation", "is_replay", "is_prefetch",
              "dead_on_hit"):
    setattr(BlockView, _name, _bool_column(_name))
BlockView.line_addr = _int_column("line")
BlockView.signature = _int_column("signature")
BlockView.rrpv = _int_column("rrpv")
BlockView.fill_cycle = _int_column("fill_cycle")
