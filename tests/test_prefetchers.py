"""Tests for the prefetcher suite."""

import pytest

from repro.memsys.request import AccessType, MemoryRequest
from repro.prefetch import make_l2c_prefetcher
from repro.prefetch.base import LINES_PER_PAGE, clamp_to_page, same_page
from repro.prefetch.bingo import BingoPrefetcher
from repro.prefetch.ipcp import IPCPPrefetcher
from repro.prefetch.isb import ISBPrefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.prefetch.spp import SPPPrefetcher


def load(line, ip=0x400):
    return MemoryRequest(address=line << 6, cycle=0, ip=ip)


def test_same_page_helper():
    assert same_page(0, LINES_PER_PAGE - 1)
    assert not same_page(0, LINES_PER_PAGE)


def test_clamp_to_page_drops_crossers():
    base = 10
    out = clamp_to_page(base, [11, 12, LINES_PER_PAGE + 1, -1])
    assert out == [11, 12]


def test_next_line_prefetches_within_page():
    pf = NextLinePrefetcher(degree=2)
    assert pf.operate(load(10), hit=False) == [11, 12]
    # At the page edge: cross-page candidates are clamped.
    edge = LINES_PER_PAGE - 1
    assert pf.operate(load(edge), hit=False) == []


def test_spp_learns_intra_page_stride():
    pf = SPPPrefetcher()
    fired = False
    for i in range(12):
        out = pf.operate(load(100 * LINES_PER_PAGE + 2 * i), hit=False)
        if out:
            fired = True
            assert all(same_page(100 * LINES_PER_PAGE, c) for c in out)
    assert fired


def test_spp_never_crosses_page():
    pf = SPPPrefetcher()
    for page in range(3):
        base = page * LINES_PER_PAGE
        for i in range(LINES_PER_PAGE // 2):
            out = pf.operate(load(base + 2 * i), hit=False)
            for c in out:
                assert same_page(base, c)


def test_bingo_replays_recorded_footprint():
    pf = BingoPrefetcher()
    region_lines = 32
    base = 50 * region_lines
    footprint = [0, 3, 7, 12]
    # Visit the region, establishing a footprint, then retire it.
    for off in footprint:
        pf.operate(load(base + off, ip=0x42), hit=False)
    pf._retire_region(base // region_lines)
    # Re-trigger from the same PC+offset in a different region.
    other = 90 * region_lines
    out = pf.operate(load(other + 0, ip=0x42), hit=False)
    assert set(out) == {other + 3, other + 7, other + 12}


def test_isb_replays_temporal_stream():
    pf = ISBPrefetcher()
    stream = [500, 9123, 77, 4096, 222]
    # First pass trains the structural mapping (miss stream, one PC).
    for line in stream:
        pf.operate(load(line, ip=0x42), hit=False)
    # Second pass: the head of the stream should predict its successors.
    out = pf.operate(load(stream[0], ip=0x42), hit=False)
    assert out[:2] == stream[1:3]


def test_isb_streams_are_pc_local():
    pf = ISBPrefetcher()
    for line in [10, 20, 30]:
        pf.operate(load(line, ip=0xA), hit=False)
    for line in [100, 200]:
        pf.operate(load(line, ip=0xB), hit=False)
    out = pf.operate(load(10, ip=0xA), hit=False)
    assert 100 not in out and 200 not in out


def test_ipcp_constant_stride_crosses_pages():
    pf = IPCPPrefetcher()
    stride = LINES_PER_PAGE // 2  # crosses a page every other access
    out = []
    for i in range(8):
        out = pf.operate_virtual(0x42, 1000 + i * stride, hit=True)
    assert out  # stride detected
    assert pf.cross_page_issued > 0


def test_ipcp_global_stream_fallback():
    pf = IPCPPrefetcher()
    out = []
    # Different IP each access, but a steady global stride.
    for i in range(8):
        out = pf.operate_virtual(0x1000 + i, 500 + i * 2, hit=True)
    assert out == [500 + 7 * 2 + 2, 500 + 7 * 2 + 4]


def test_registry_lookup():
    assert make_l2c_prefetcher("none") is None
    assert isinstance(make_l2c_prefetcher("spp"), SPPPrefetcher)
    with pytest.raises(ValueError):
        make_l2c_prefetcher("stride9000")
