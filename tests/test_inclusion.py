"""Tests for the inclusive-LLC mode."""

import pytest

from repro.cache.cache import Cache
from repro.memsys.request import MemoryRequest
from repro.params import CacheConfig, EnhancementConfig, default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va


class Null:
    def access(self, req):
        req.served_by = "DRAM"
        return req.cycle + 100


def test_invalidate_api():
    cache = Cache(CacheConfig("T", 2 * 64 * 2, 2, 10), Null())
    cache.access(MemoryRequest(address=0x1000, cycle=0))
    line = 0x1000 >> 6
    assert cache.contains(line)
    assert cache.invalidate(line) is False  # resident and clean
    assert not cache.contains(line)
    assert cache.invalidate(line) is None  # second time: not resident


def test_back_invalidation_on_eviction():
    lower = Cache(CacheConfig("LLC", 2 * 64 * 1, 1, 20), Null())
    upper = Cache(CacheConfig("L2C", 2 * 64 * 2, 2, 10), lower)
    lower.back_invalidate_targets.append(upper)
    stride = lower.num_sets * 64
    upper.access(MemoryRequest(address=0x0, cycle=0))       # fills both
    assert upper.contains(0) and lower.contains(0)
    # Force the LLC (1-way) to evict line 0 by filling its set.
    lower.access(MemoryRequest(address=stride, cycle=1000))
    assert not lower.contains(0)
    assert not upper.contains(0)  # back-invalidated
    assert lower.back_invalidations == 1


def test_hierarchy_inclusive_wiring():
    cfg = default_config().with_(llc_inclusion="inclusive")
    h = MemoryHierarchy(cfg)
    assert h.l2c in h.llc.back_invalidate_targets
    assert h.l1d in h.llc.back_invalidate_targets
    h.load(make_va([1, 2, 3, 4, 5]), cycle=0)  # runs end to end


def test_hierarchy_rejects_unknown_inclusion():
    cfg = default_config().with_(llc_inclusion="exclusive")
    with pytest.raises(ValueError):
        MemoryHierarchy(cfg)


def test_inclusive_llc_still_benefits_from_enhancements():
    """The T-policies must survive inclusion: pinning translations at the
    LLC also *protects* their L2C copies from back-invalidation."""
    from repro.experiments.runner import run_benchmark
    base_cfg = default_config().with_(llc_inclusion="inclusive")
    enh_cfg = base_cfg.with_(enhancements=EnhancementConfig.full())
    base = run_benchmark("canneal", config=base_cfg, instructions=12_000,
                         warmup=3_000)
    enh = run_benchmark("canneal", config=enh_cfg, instructions=12_000,
                        warmup=3_000)
    assert enh.speedup_over(base) > 0.99


def test_invalidate_returns_dropped_block_with_dirty_bit():
    from repro.memsys.request import AccessType
    cache = Cache(CacheConfig("T", 2 * 64 * 2, 2, 10), Null())
    cache.access(MemoryRequest(address=0x1000, cycle=0,
                               access_type=AccessType.STORE))
    assert cache.invalidate(0x1000 >> 6) is True
    assert cache.invalidate(0x1000 >> 6) is None


def test_back_invalidation_of_dirty_upper_copy_issues_writeback():
    """Regression: evicting a clean LLC line whose upper-level copy is
    dirty used to drop the only dirty copy silently; the eviction must
    upgrade to a writeback."""
    from repro.memsys.request import AccessType

    class CountingNull(Null):
        def __init__(self):
            self.writebacks = 0

        def access(self, req):
            if req.access_type is AccessType.WRITEBACK:
                self.writebacks += 1
            return super().access(req)

    mem = CountingNull()
    lower = Cache(CacheConfig("LLC", 2 * 64 * 1, 1, 20), mem)
    upper = Cache(CacheConfig("L2C", 2 * 64 * 2, 2, 10), lower)
    lower.back_invalidate_targets.append(upper)
    stride = lower.num_sets * 64
    # Load through both levels, then dirty only the upper copy (stores
    # are satisfied at the upper level; the LLC copy stays clean).
    upper.access(MemoryRequest(address=0x0, cycle=0))
    upper.access(MemoryRequest(address=0x0, cycle=100,
                               access_type=AccessType.STORE))
    assert upper.store.dirty[upper.store.slot_of[0]]
    assert not lower.store.dirty[lower.store.slot_of[0]]
    # Evict the (clean) LLC copy: the dirty upper copy must reach memory.
    lower.access(MemoryRequest(address=stride, cycle=1000))
    assert not upper.contains(0)
    assert mem.writebacks == 1


def test_dropped_prefetch_does_not_install_upstream():
    """Regression: when a lower level drops a prefetch (flooded queue),
    upper levels used to install the line anyway -- manufacturing data
    out of nothing and, under an inclusive LLC, violating inclusion."""
    from repro.memsys.request import AccessType

    lower = Cache(CacheConfig("LLC", 4 * 64 * 1, 1, 20, mshr_entries=1),
                  Null())
    upper = Cache(CacheConfig("L2C", 4 * 64 * 2, 2, 10, mshr_entries=8),
                  lower)
    # Saturate the LLC's MSHR + prefetch queue (1 + 1 with one entry).
    lower.access(MemoryRequest(address=0x40, cycle=0))
    lower.access(MemoryRequest(address=0x80, cycle=0,
                               access_type=AccessType.PREFETCH))
    assert lower.mshr.occupancy(0) == 2
    pref = MemoryRequest(address=0x1000, cycle=0,
                         access_type=AccessType.PREFETCH)
    upper.access(pref)
    assert pref.dropped
    assert lower.prefetches_dropped == 1
    assert not lower.contains(0x1000 >> 6)
    assert not upper.contains(0x1000 >> 6)  # nothing installed upstream
