"""Tests for repro.vm.address."""

import pytest
from hypothesis import given, strategies as st

from repro.params import PAGE_SHIFT, PT_LEVELS, VA_BITS
from repro.vm.address import level_index, make_va, psc_tag

PAGE_MASK = (1 << PAGE_SHIFT) - 1


def test_level_index_bounds():
    with pytest.raises(ValueError):
        level_index(0, 0)
    with pytest.raises(ValueError):
        level_index(0, PT_LEVELS + 1)


def test_make_va_places_indices():
    va = make_va([1, 2, 3, 4, 5], offset=0x123)
    assert level_index(va, 5) == 1
    assert level_index(va, 4) == 2
    assert level_index(va, 3) == 3
    assert level_index(va, 2) == 4
    assert level_index(va, 1) == 5
    assert va & PAGE_MASK == 0x123


def test_make_va_validates():
    with pytest.raises(ValueError):
        make_va([1, 2, 3])
    with pytest.raises(ValueError):
        make_va([1, 2, 3, 4, 512])


def test_psc_tag_includes_own_level_index():
    va1 = make_va([1, 2, 3, 4, 5])
    va2 = make_va([1, 2, 3, 9, 5])  # differs at level 2
    assert psc_tag(va1, 2) != psc_tag(va2, 2)
    assert psc_tag(va1, 3) == psc_tag(va2, 3)  # level-3 path identical


def test_psc_tag_nests():
    """Two VAs sharing a level-n tag share all shallower tags too."""
    va1 = make_va([7, 6, 5, 4, 3])
    va2 = make_va([7, 6, 5, 4, 200])
    assert psc_tag(va1, 2) == psc_tag(va2, 2)
    assert psc_tag(va1, 5) == psc_tag(va2, 5)


@given(st.integers(min_value=0, max_value=(1 << VA_BITS) - 1))
def test_va_decomposition_reconstructs(va):
    indices = [level_index(va, lvl) for lvl in range(PT_LEVELS, 0, -1)]
    assert make_va(indices, va & PAGE_MASK) == va


@given(st.integers(min_value=0, max_value=(1 << VA_BITS) - 1),
       st.integers(min_value=1, max_value=5))
def test_psc_tag_is_va_prefix(va, level):
    shift = PAGE_SHIFT + 9 * (level - 1)
    assert psc_tag(va, level) == va >> shift
