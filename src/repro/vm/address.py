"""57-bit virtual-address decomposition for the 5-level radix page table.

The VA is split (high to low) into five 9-bit table indices and a 12-bit
page offset::

    VA[56:48] -> level-5 index     VA[20:12] -> level-1 (leaf) index
    VA[47:39] -> level-4 index     VA[11:0]  -> page offset
    ...
"""

from __future__ import annotations

from repro.params import (BITS_PER_LEVEL, PAGE_SHIFT, PT_LEVELS, VA_BITS)

_LEVEL_MASK = (1 << BITS_PER_LEVEL) - 1
VA_LIMIT = 1 << VA_BITS


def level_index(va: int, level: int) -> int:
    """9-bit index of ``va`` into the page table at ``level`` (5..1)."""
    if not 1 <= level <= PT_LEVELS:
        raise ValueError(f"page-table level must be 1..{PT_LEVELS}")
    shift = PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)
    return (va >> shift) & _LEVEL_MASK


def psc_tag(va: int, level: int) -> int:
    """Tag used by the level-``level`` paging-structure cache.

    PSCL*n* caches the outcome of the walk *through* level ``n``: its tag is
    every VA bit above level ``n``'s own index base, i.e. the path from the
    root down to (and including) level ``n``'s index.
    """
    shift = PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)
    return va >> shift


def make_va(indices, offset: int = 0) -> int:
    """Compose a VA from (level-5 .. level-1) indices and a page offset.

    Convenience for tests: ``make_va([a, b, c, d, e], off)`` builds the VA
    whose level-5 index is ``a`` and leaf index is ``e``.
    """
    if len(indices) != PT_LEVELS:
        raise ValueError(f"need {PT_LEVELS} indices")
    va = 0
    for idx in indices:
        if not 0 <= idx <= _LEVEL_MASK:
            raise ValueError("index out of 9-bit range")
        va = (va << BITS_PER_LEVEL) | idx
    return (va << PAGE_SHIFT) | offset
