"""Cross-feature cache interaction tests: T-policies with writebacks,
ideal modes with ATP, multi-channel DRAM mapping, IPCP edge cases."""

import pytest

from repro.cache.cache import Cache
from repro.cache.replacement import make_policy
from repro.memsys.dram import DRAM
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import (CacheConfig, DRAMConfig, EnhancementConfig,
                          IdealConfig, default_config)
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va


class Null:
    def access(self, req):
        req.served_by = "DRAM"
        return req.cycle + 100


def test_tdrrip_translations_survive_replay_storm():
    """The point of Fig 9/10: a flood of replay fills must not evict the
    pinned leaf translations at the L2C."""
    cache = Cache(CacheConfig("L2C", 64 * 4 * 2, 4, 10), Null(),
                  policy=make_policy("t_drrip", 2, 4))
    pte_line = 0
    cache.access(MemoryRequest(address=pte_line, cycle=0,
                               access_type=AccessType.TRANSLATION,
                               pt_level=1))
    # 20 replay fills into the same set (line stride = num_sets).
    for i in range(1, 21):
        cache.access(MemoryRequest(address=(i * 2) << 6, cycle=i * 100,
                                   is_replay=True))
    assert cache.contains(pte_line)


def test_plain_drrip_translations_do_not_survive():
    cache = Cache(CacheConfig("L2C", 64 * 4 * 2, 4, 10), Null(),
                  policy=make_policy("drrip", 2, 4))
    pte_line = 0
    cache.access(MemoryRequest(address=pte_line, cycle=0,
                               access_type=AccessType.TRANSLATION,
                               pt_level=1))
    for i in range(1, 41):
        cache.access(MemoryRequest(address=(i * 2) << 6, cycle=i * 100,
                                   is_replay=True))
    assert not cache.contains(pte_line)


def test_dirty_translation_eviction_writes_back():
    """Translation lines can be dirty (accessed/dirty PTE bits); the
    machinery must handle a dirty PTE eviction like any other."""
    cache = Cache(CacheConfig("T", 64 * 2 * 1, 2, 10), Null())
    cache.access(MemoryRequest(address=0, cycle=0,
                               access_type=AccessType.TRANSLATION,
                               pt_level=1))
    cache.store.dirty[cache.store.slot_of[0]] = 1  # walker set the A bit
    stride = cache.num_sets * 64
    cache.access(MemoryRequest(address=stride, cycle=100))
    cache.access(MemoryRequest(address=2 * stride, cycle=200))
    assert cache.writebacks_issued >= 1


def test_ideal_mode_with_atp_does_not_double_serve():
    """Fig 2's ideal LLC plus ATP: both paths answer translations; the
    combination must still be self-consistent (no crash, sane timing)."""
    cfg = default_config().with_(
        ideal=IdealConfig(llc_translations=True),
        enhancements=EnhancementConfig(t_drrip=True, t_ship=True,
                                       newsign=True, atp=True))
    h = MemoryHierarchy(cfg)
    for i in range(50):
        res = h.load(make_va([1, 2, 3, 4, i % 32], 0x10), cycle=i * 500)
        assert res.data_done >= res.translation_done


def test_multichannel_dram_distributes_rows():
    dram = DRAM(DRAMConfig(channels=2, banks_per_channel=4))
    rows = 8
    lines_per_row = dram.config.row_buffer_bytes >> 6
    channels = {dram._map(r * lines_per_row)[0] for r in range(rows)}
    assert channels == {0, 1}


def test_ipcp_prefetch_to_unmapped_page_dropped():
    cfg = default_config().with_(l1d_prefetcher="ipcp")
    h = MemoryHierarchy(cfg)
    va = make_va([1, 2, 3, 4, 0])
    # Strided loads marching toward unmapped territory: cross-page
    # candidates to untouched pages must be silently dropped.
    for i in range(20):
        h.load(va + i * 2048, cycle=i * 300, ip=0x42)
    assert h.ipcp.issued >= 0  # and no exception was raised


def test_writeback_of_replay_block_classified():
    """Evicted dirty replay blocks write back as WRITEBACK, not replay."""
    cache = Cache(CacheConfig("T", 64 * 2 * 1, 2, 10), Null())
    cache.access(MemoryRequest(address=0, cycle=0,
                               access_type=AccessType.STORE,
                               is_replay=True))
    stride = cache.num_sets * 64
    cache.access(MemoryRequest(address=stride, cycle=100))
    mem_types = []
    original = cache.next_level.access

    class Recorder:
        def access(self, req):
            mem_types.append(req.access_type)
            req.served_by = "DRAM"
            return req.cycle + 100

    cache.next_level = Recorder()
    cache.access(MemoryRequest(address=2 * stride, cycle=200))
    assert AccessType.WRITEBACK in mem_types
