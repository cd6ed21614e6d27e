"""Tests for the paging-structure caches."""

import pytest

from repro.params import PSCConfig
from repro.vm.address import make_va
from repro.vm.psc import PagingStructureCaches


def make_psc():
    return PagingStructureCaches(PSCConfig())


def test_full_miss():
    psc = make_psc()
    level, frame = psc.lookup(make_va([1, 2, 3, 4, 5]))
    assert level is None and frame is None
    assert psc.misses == 1


def test_hit_after_fill():
    psc = make_psc()
    va = make_va([1, 2, 3, 4, 5])
    psc.fill(va, 3, next_table_frame=0x42)
    level, frame = psc.lookup(va)
    assert level == 3
    assert frame == 0x42


def test_deepest_level_wins():
    """PSCL2 hit beats PSCL4 hit: it leaves the shortest walk."""
    psc = make_psc()
    va = make_va([1, 2, 3, 4, 5])
    psc.fill(va, 4, 0x44)
    psc.fill(va, 2, 0x22)
    level, frame = psc.lookup(va)
    assert level == 2
    assert frame == 0x22


def test_tag_granularity_per_level():
    psc = make_psc()
    va1 = make_va([1, 2, 3, 4, 5])
    va2 = make_va([1, 2, 3, 4, 9])  # same level-2 path, different leaf
    psc.fill(va1, 2, 0x22)
    level, frame = psc.lookup(va2)
    assert level == 2  # leaf index is below the PSCL2 tag


def test_capacity_eviction_lru():
    cfg = PSCConfig(pscl5_entries=2)
    psc = PagingStructureCaches(cfg)
    vas = [make_va([i, 0, 0, 0, 0]) for i in range(3)]
    psc.fill(vas[0], 5, 0)
    psc.fill(vas[1], 5, 1)
    psc.lookup(vas[0])       # refresh
    psc.fill(vas[2], 5, 2)   # evicts vas[1]
    assert psc.lookup(vas[1]) == (None, None)
    assert psc.lookup(vas[0])[0] == 5


def test_leaf_level_never_cached():
    psc = make_psc()
    va = make_va([1, 2, 3, 4, 5])
    psc.fill(va, 1, 0x11)  # level 1 has no PSC
    assert psc.lookup(va) == (None, None)


def test_hit_statistics():
    psc = make_psc()
    va = make_va([1, 2, 3, 4, 5])
    psc.fill(va, 3, 1)
    psc.lookup(va)
    assert psc.hits_by_level[3] == 1
    assert psc.lookups == 1


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_warmup_reset_zeroes_psc_counters(backend):
    """Regression: the warmup stat reset skipped the PSC counters, so
    the ROI's PSC lookups included every warmup walk's probe."""
    from repro import api
    result = api.run("pr", enhancements="full", backend=backend,
                     instructions=8000, warmup=4000, seed=11)
    mmu = result.hierarchy.mmu
    psc = mmu.psc
    assert mmu.walker.walks > 0
    assert psc.lookups == mmu.walker.walks  # one probe per walk
    assert psc.misses + sum(psc.hits_by_level.values()) == psc.lookups
