"""Tests for ATP and TEMPO (the paper's prefetchers)."""

import pytest

from repro.cache.cache import Cache
from repro.memsys.dram import DRAM
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import CacheConfig, DRAMConfig
from repro.prefetch.atp import ATPPrefetcher
from repro.prefetch.tempo import TEMPOPrefetcher


def build_two_level():
    dram = DRAM(DRAMConfig())
    llc = Cache(CacheConfig("LLC", 64 * 64, 4, 20), dram)
    l2c = Cache(CacheConfig("L2C", 32 * 64, 4, 10), llc)
    return l2c, llc, dram


def leaf_read(addr, replay_line, cycle=0):
    return MemoryRequest(address=addr, cycle=cycle,
                         access_type=AccessType.TRANSLATION, pt_level=1,
                         replay_line_addr=replay_line)


def test_atp_prefetches_on_l2c_translation_hit():
    l2c, llc, dram = build_two_level()
    atp = ATPPrefetcher(l2c, llc)
    atp.attach()
    l2c.access(leaf_read(0x1000, replay_line=0x500, cycle=0))  # fill
    l2c.access(leaf_read(0x1000, replay_line=0x501, cycle=1000))  # hit
    assert atp.triggered_l2c == 1
    assert l2c.contains(0x501)


def test_atp_prefetches_on_llc_translation_hit():
    l2c, llc, dram = build_two_level()
    atp = ATPPrefetcher(l2c, llc)
    atp.attach()
    llc.access(leaf_read(0x1000, replay_line=0x500, cycle=0))
    llc.access(leaf_read(0x1000, replay_line=0x502, cycle=1000))
    assert atp.triggered_llc == 1
    assert llc.contains(0x502)
    assert not l2c.contains(0x502)  # LLC-hit prefetch fills the LLC only


def test_atp_replay_demand_merges_with_prefetch():
    """The replay demand arriving behind the prefetch must not refetch."""
    l2c, llc, dram = build_two_level()
    atp = ATPPrefetcher(l2c, llc)
    atp.attach()
    l2c.access(leaf_read(0x1000, replay_line=0x500, cycle=0))
    l2c.access(leaf_read(0x1000, replay_line=0x600, cycle=1000))  # triggers
    n_dram = dram.accesses
    done = l2c.access(MemoryRequest(address=0x600 << 6, cycle=1020,
                                    is_replay=True))
    assert dram.accesses == n_dram  # merged / hit, no second DRAM trip
    # The demand waits for the prefetch fill, not a full fresh access.
    fresh = 1020 + 10 + 20 + dram.config.row_miss_latency
    assert done < fresh


def test_atp_prefetch_fill_has_eviction_priority():
    l2c, llc, dram = build_two_level()
    atp = ATPPrefetcher(l2c, llc)
    atp.attach()
    l2c.access(leaf_read(0x1000, replay_line=0x500, cycle=0))
    l2c.access(leaf_read(0x1000, replay_line=0x600, cycle=1000))
    slot = l2c.store.slot_of.get(0x600)
    assert slot is not None
    assert l2c.store.dead_on_hit[slot]


def test_atp_skips_when_no_replay_line():
    l2c, llc, dram = build_two_level()
    atp = ATPPrefetcher(l2c, llc)
    atp.attach()
    req = MemoryRequest(address=0x1000, cycle=0,
                        access_type=AccessType.TRANSLATION, pt_level=1)
    l2c.access(req)
    l2c.access(MemoryRequest(address=0x1000, cycle=100,
                             access_type=AccessType.TRANSLATION, pt_level=1))
    assert atp.triggered == 0


def test_tempo_prefetches_on_dram_leaf_translation():
    l2c, llc, dram = build_two_level()
    tempo = TEMPOPrefetcher(dram, llc)
    tempo.attach()
    # A leaf translation that misses everywhere reaches DRAM.
    llc.access(leaf_read(0x2000, replay_line=0x700, cycle=0))
    assert tempo.triggered == 1
    assert llc.contains(0x700)


def test_tempo_ignores_data_and_upper_levels():
    l2c, llc, dram = build_two_level()
    tempo = TEMPOPrefetcher(dram, llc)
    tempo.attach()
    llc.access(MemoryRequest(address=0x3000, cycle=0))
    llc.access(MemoryRequest(address=0x4000, cycle=0,
                             access_type=AccessType.TRANSLATION, pt_level=4))
    assert tempo.triggered == 0


def test_atp_does_not_count_triggers_for_resident_lines():
    """Regression: triggered_* used to increment before the residency
    check in issue_prefetch, inflating trigger counts (and deflating the
    accuracy study's useful/triggered ratio) for already-resident lines."""
    l2c, llc, dram = build_two_level()
    atp = ATPPrefetcher(l2c, llc)
    atp.attach()
    l2c.access(leaf_read(0x1000, replay_line=0x500, cycle=0))      # fill
    l2c.access(MemoryRequest(address=0x500 << 6, cycle=500))       # resident
    l2c.access(leaf_read(0x1000, replay_line=0x500, cycle=1000))   # hit
    assert atp.triggered_l2c == 0
    llc.access(leaf_read(0x8000, replay_line=0x700, cycle=0))
    llc.access(MemoryRequest(address=0x700 << 6, cycle=500))
    llc.access(leaf_read(0x8000, replay_line=0x700, cycle=1000))
    assert atp.triggered_llc == 0


def test_llc_translation_miss_falls_through_to_tempo():
    """The paper's division of labour: ATP covers leaf translations that
    hit on-chip; a leaf PTE read missing the whole hierarchy reaches the
    memory controller, where TEMPO (and only TEMPO) issues the replay
    line."""
    l2c, llc, dram = build_two_level()
    atp = ATPPrefetcher(l2c, llc)
    atp.attach()
    tempo = TEMPOPrefetcher(dram, llc)
    tempo.attach()
    # Cold leaf translation: misses L2C and LLC, serviced by DRAM.
    l2c.access(leaf_read(0x9000, replay_line=0x800, cycle=0))
    assert atp.triggered == 0
    assert tempo.triggered == 1
    assert llc.contains(0x800)
    # Warm leaf translation to the same PTE line: ATP takes over and
    # TEMPO never sees it (it no longer reaches DRAM).
    n_dram = dram.accesses
    l2c.access(leaf_read(0x9000, replay_line=0x900, cycle=5000))
    assert atp.triggered == 1
    assert tempo.triggered == 1
    assert dram.accesses > n_dram  # only the new replay line's fetch


def test_tempo_skips_resident_replay_line():
    """Regression: TEMPO used to count a trigger (and issue a redundant
    LLC access) for replay lines already resident in the LLC; ATP has
    always suppressed these, and the accuracy study compares the two on
    the same useful/triggered footing."""
    l2c, llc, dram = build_two_level()
    tempo = TEMPOPrefetcher(dram, llc)
    tempo.attach()
    llc.access(MemoryRequest(address=0x700 << 6, cycle=0))  # make resident
    assert llc.contains(0x700)
    llc.access(leaf_read(0x2000, replay_line=0x700, cycle=1000))
    assert tempo.triggered == 0


def test_tempo_fallback_inside_full_hierarchy():
    """End to end: with both prefetchers enabled, a cold page walk's leaf
    PTE read misses the whole hierarchy and TEMPO triggers at DRAM."""
    from repro.params import EnhancementConfig, default_config
    from repro.uncore.hierarchy import MemoryHierarchy
    from repro.vm.address import make_va

    cfg = default_config(16).with_(
        enhancements=EnhancementConfig.full())
    h = MemoryHierarchy(cfg)
    h.load(make_va([1, 2, 3, 4, 5]), cycle=0)  # cold: leaf PTE from DRAM
    assert h.tempo is not None
    assert h.tempo.triggered >= 1
    before = h.tempo.triggered
    # Same page again: every PTE line is now cached on-chip, so the
    # fallback stays quiet.
    h.load(make_va([1, 2, 3, 4, 5], 64), cycle=10_000)
    assert h.tempo.triggered == before
