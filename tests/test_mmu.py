"""Tests for the MMU (DTLB -> STLB -> walk orchestration)."""

import pytest

from repro.params import SimConfig, default_config
from repro.vm.address import make_va
from repro.vm.mmu import MMU
from repro.vm.page_table import PageTable


class FlatMemory:
    def __init__(self, latency=10):
        self.latency = latency
        self.requests = []

    def access(self, req):
        self.requests.append(req)
        req.served_by = "L1D"
        return req.cycle + self.latency


def make_mmu():
    cfg = default_config()
    pt = PageTable()
    mem = FlatMemory()
    return MMU(cfg, pt, mem), cfg, mem


VA = make_va([1, 2, 3, 4, 5], 0x100)


def test_cold_translation_walks_and_is_replay():
    mmu, cfg, mem = make_mmu()
    tr = mmu.translate(VA, cycle=0)
    assert tr.is_replay
    assert not tr.dtlb_hit and not tr.stlb_hit
    assert tr.walk is not None
    assert tr.walk.levels_walked == 5
    # dtlb(1) + stlb(8) + psc(1) + 5 reads(50) + stlb fill(2)
    assert tr.done_cycle == 1 + 8 + 1 + 50 + cfg.stlb_fill_latency


def test_dtlb_hit_after_walk():
    mmu, cfg, mem = make_mmu()
    mmu.translate(VA, cycle=0)
    tr = mmu.translate(VA, cycle=100)
    assert tr.dtlb_hit
    assert not tr.is_replay
    assert tr.done_cycle == 100 + cfg.dtlb.latency


def test_stlb_hit_fills_dtlb():
    mmu, cfg, mem = make_mmu()
    mmu.translate(VA, cycle=0)
    # Thrash the DTLB only.
    mmu.dtlb.invalidate_all()
    tr = mmu.translate(VA, cycle=100)
    assert not tr.dtlb_hit and tr.stlb_hit
    assert not tr.is_replay
    assert tr.done_cycle == 100 + 1 + 8
    # DTLB refilled:
    assert mmu.translate(VA, cycle=200).dtlb_hit


def test_paddr_consistent_across_paths():
    mmu, _, _ = make_mmu()
    p1 = mmu.translate(VA, cycle=0).paddr
    p2 = mmu.translate(VA, cycle=10).paddr
    assert p1 == p2
    p3 = mmu.translate(VA + 8, cycle=20).paddr
    assert p3 == p1 + 8


def test_count_stats_false_suppresses_counters():
    mmu, _, _ = make_mmu()
    mmu.translate(VA, cycle=0, count_stats=False)
    assert mmu.translations == 0
    assert mmu.dtlb.accesses == 0
    assert mmu.stlb.accesses == 0


def test_stlb_mpki():
    mmu, _, _ = make_mmu()
    mmu.translate(VA, cycle=0)
    assert mmu.stlb.mpki(1000) == 1.0
