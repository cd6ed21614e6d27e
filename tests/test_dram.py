"""Tests for repro.memsys.dram."""

import pytest

from repro.memsys.dram import DRAM, _BankSchedule, _ChannelBandwidth
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import DRAMConfig


def make_dram(**kwargs):
    return DRAM(DRAMConfig(**kwargs))


def test_first_access_is_row_miss():
    dram = make_dram()
    req = MemoryRequest(address=0x10000, cycle=0)
    done = dram.access(req)
    assert done == dram.config.row_miss_latency
    assert dram.row_misses == 1
    assert req.served_by == "DRAM"


def test_second_access_same_row_is_row_hit():
    dram = make_dram()
    line = 0x10000
    dram.access(MemoryRequest(address=line, cycle=0))
    done = dram.access(MemoryRequest(address=line + 64, cycle=500))
    assert done == 500 + dram.config.row_hit_latency
    assert dram.row_hits == 1


def test_row_conflict_occupies_bank():
    cfg = DRAMConfig(channels=1, banks_per_channel=1)
    dram = DRAM(cfg)
    dram.access(MemoryRequest(address=0, cycle=0))
    # Different row in the same (only) bank, arriving mid-activation.
    other_row = cfg.row_buffer_bytes * 2
    done = dram.access(MemoryRequest(address=other_row, cycle=10))
    # Must wait for the first activation (tRC) to release the bank.
    assert done >= cfg.row_miss_latency + cfg.row_miss_latency


def test_out_of_order_arrival_schedules_in_the_past():
    """A request with an earlier timestamp must not queue behind a
    far-future request (the inversion artifact the interval scheduler
    fixes)."""
    cfg = DRAMConfig(channels=1, banks_per_channel=1)
    dram = DRAM(cfg)
    dram.access(MemoryRequest(address=0, cycle=10_000))
    # Arrives (in call order) later, but in time much earlier; different row.
    done = dram.access(MemoryRequest(
        address=cfg.row_buffer_bytes * 4, cycle=0))
    assert done == cfg.row_miss_latency  # scheduled in the past gap


def test_channel_bandwidth_is_capped():
    bw = _ChannelBandwidth(bus_transfer_cycles=4)
    starts = [bw.reserve(0) for _ in range(bw.cap * 2)]
    # First `cap` transfers fit in the first bucket; the rest spill over.
    assert starts[bw.cap] >= 32


def test_bank_schedule_first_fit_gap():
    bank = _BankSchedule()
    assert bank.reserve(0, 100) == 0
    assert bank.reserve(500, 100) == 500
    # A 100-cycle job fits in the [100, 500) gap.
    assert bank.reserve(50, 100) == 100


def test_bank_schedule_serializes_overlap():
    bank = _BankSchedule()
    assert bank.reserve(0, 100) == 0
    assert bank.reserve(0, 100) == 100
    assert bank.reserve(0, 100) == 200


def test_tempo_callback_fires_on_leaf_translation():
    dram = make_dram()
    seen = []
    dram.on_leaf_translation = lambda req, done: seen.append((req, done))
    req = MemoryRequest(address=0x40, cycle=0,
                        access_type=AccessType.TRANSLATION, pt_level=1,
                        replay_line_addr=0x99)
    done = dram.access(req)
    assert seen and seen[0][1] == done


def test_tempo_callback_skips_non_leaf():
    dram = make_dram()
    seen = []
    dram.on_leaf_translation = lambda req, done: seen.append(req)
    dram.access(MemoryRequest(address=0x40, cycle=0,
                              access_type=AccessType.TRANSLATION, pt_level=3))
    dram.access(MemoryRequest(address=0x80, cycle=0))
    assert not seen
