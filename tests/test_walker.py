"""Tests for the page-table walker."""

import random

import pytest

from repro.memsys.request import AccessType
from repro.params import LINE_SHIFT, PAGE_SHIFT, PSCConfig
from repro.vm.address import make_va
from repro.vm.page_table import PageTable
from repro.vm.psc import PagingStructureCaches
from repro.vm.walker import PageTableWalker


class _Snapshot:
    """Detached copy of a request's fields at access time.

    The walker issues pooled requests (reused between PTE reads), so a
    recording fake must copy what it needs instead of retaining the
    object -- the same contract real cache levels follow."""

    def __init__(self, req):
        self.pt_level = req.pt_level
        self.access_type = req.access_type
        self.replay_line_addr = req.replay_line_addr
        self.leaf_walk = req.leaf_walk
        self.address = req.address
        self.cycle = req.cycle


class FlatMemory:
    """Fixed-latency 'cache' that records every PTE read."""

    def __init__(self, latency=10):
        self.latency = latency
        self.requests = []

    def access(self, req):
        self.requests.append(_Snapshot(req))
        req.served_by = "L1D"
        return req.cycle + self.latency


def make_walker():
    pt = PageTable()
    psc = PagingStructureCaches(PSCConfig())
    mem = FlatMemory()
    return PageTableWalker(pt, psc, mem), pt, psc, mem


def test_cold_walk_reads_five_levels_serially():
    walker, pt, psc, mem = make_walker()
    result = walker.walk(make_va([1, 2, 3, 4, 5], 0x88), cycle=0)
    assert result.levels_walked == 5
    assert result.psc_hit_level == 0
    # PSC probe (1 cycle) + five dependent 10-cycle reads.
    assert result.done_cycle == 1 + 5 * 10
    assert [r.pt_level for r in mem.requests] == [5, 4, 3, 2, 1]
    assert all(r.access_type is AccessType.TRANSLATION
               for r in mem.requests)


def test_leaf_read_carries_replay_line():
    walker, pt, psc, mem = make_walker()
    va = make_va([1, 2, 3, 4, 5], 0x88)
    result = walker.walk(va, cycle=0)
    leaf = mem.requests[-1]
    expected = ((result.pfn << PAGE_SHIFT) | 0x88) >> LINE_SHIFT
    assert leaf.replay_line_addr == expected
    assert mem.requests[0].replay_line_addr is None


def test_second_walk_uses_psc():
    walker, pt, psc, mem = make_walker()
    va = make_va([1, 2, 3, 4, 5])
    walker.walk(va, cycle=0)
    mem.requests.clear()
    # Same page path: PSCL2 now holds the walk-through-level-2 outcome.
    result = walker.walk(make_va([1, 2, 3, 4, 6]), cycle=100)
    assert result.psc_hit_level == 2
    assert result.levels_walked == 1
    assert [r.pt_level for r in mem.requests] == [1]
    assert result.done_cycle == 100 + 1 + 10


def test_partial_psc_hit_resumes_mid_walk():
    walker, pt, psc, mem = make_walker()
    walker.walk(make_va([1, 2, 3, 4, 5]), cycle=0)
    # A VA sharing only the level-5..4 path: PSCL4 should hit.
    mem.requests.clear()
    result = walker.walk(make_va([1, 2, 9, 8, 7]), cycle=0)
    assert result.psc_hit_level == 4
    assert [r.pt_level for r in mem.requests] == [3, 2, 1]


def test_leaf_served_by_propagates():
    walker, _, _, mem = make_walker()
    result = walker.walk(make_va([1, 2, 3, 4, 5]), cycle=0)
    assert result.leaf_served_by == "L1D"


def test_walk_counts():
    walker, _, _, _ = make_walker()
    walker.walk(make_va([1, 2, 3, 4, 5]), cycle=0)
    walker.walk(make_va([1, 2, 3, 4, 6]), cycle=50)
    assert walker.walks == 2
    assert walker.pte_reads == 6  # 5 cold + 1 via PSCL2


@pytest.mark.parametrize("huge", [False, True], ids=["4k", "huge"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_descent_memo_matches_unmemoised_walks(seed, huge):
    """The per-VPN descent memo (``entries_cache``) changes nothing a
    walk produces or allocates, and memoises exactly the pages walked.

    Under a huge-page predicate a descent is no longer a pure function of
    the VPN, so the memo must stay out of the way entirely."""
    rng = random.Random(seed)
    pages = [make_va([rng.randrange(2), rng.randrange(4), rng.randrange(4),
                      rng.randrange(8), rng.randrange(512)])
             for _ in range(40)]
    vas = [rng.choice(pages) | (rng.randrange(512) * 8) for _ in range(400)]

    plain, plain_pt, _, plain_mem = make_walker()
    memo, memo_pt, _, memo_mem = make_walker()
    plain.entries_cache = None
    if huge:
        for pt in (plain_pt, memo_pt):
            pt.huge_page_predicate = lambda va: (va >> 30) & 1 == 1

    for i, va in enumerate(vas):
        assert memo.walk(va, cycle=i * 7) == plain.walk(va, cycle=i * 7)
    assert [vars(r) for r in memo_mem.requests] \
        == [vars(r) for r in plain_mem.requests]
    assert memo_pt.table_pages == plain_pt.table_pages
    assert memo_pt.data_pages == plain_pt.data_pages
    assert memo_pt.allocator._allocated == plain_pt.allocator._allocated
    assert (memo_pt.huge_pages > 0) == huge
    expected = set() if huge else {va >> PAGE_SHIFT for va in vas}
    assert set(memo.entries_cache) == expected


def test_scalar_core_descends_once_per_distinct_page(monkeypatch):
    """On the core's reference loop, too, a page's radix descent runs
    once: every later walk of the page reads the descent memo."""
    from repro import api
    from repro.core.ooo_core import OOOCore

    walked, descended = [], []
    walk, walk_entries = PageTableWalker.walk, PageTable.walk_entries

    def recording_walk(self, va, cycle, ip=0):
        walked.append(va >> PAGE_SHIFT)
        return walk(self, va, cycle, ip)

    def recording_walk_entries(self, va):
        descended.append(va >> PAGE_SHIFT)
        return walk_entries(self, va)

    monkeypatch.setattr(PageTableWalker, "walk", recording_walk)
    monkeypatch.setattr(PageTable, "walk_entries", recording_walk_entries)
    monkeypatch.setattr(OOOCore, "_reference", True)
    result = api.run("pr", enhancements="full", instructions=20_000,
                     warmup=4_000)
    assert result.batch.windows == 0
    assert len(walked) > len(set(walked))  # pages are walked again
    assert sorted(descended) == sorted(set(walked))
