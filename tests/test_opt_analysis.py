"""Tests for the offline Belady-OPT analysis."""

import pytest

from repro.cache.opt import AccessRecorder, OPTAnalysis


def test_opt_rejects_bad_geometry():
    with pytest.raises(ValueError):
        OPTAnalysis(0, 4)


def test_opt_all_unique_all_miss():
    opt = OPTAnalysis(1, 2)
    opt.run([(i, "non_replay") for i in range(10)])
    assert opt.misses["non_replay"] == 10
    assert opt.hits["non_replay"] == 0


def test_opt_repeated_line_hits():
    opt = OPTAnalysis(1, 2)
    opt.run([(1, "x"), (1, "x"), (1, "x")])
    assert opt.misses["x"] == 1
    assert opt.hits["x"] == 2


def test_opt_beats_lru_on_cyclic_pattern():
    """Cyclic access to ways+1 lines: LRU gets 0 hits, OPT keeps some."""
    lines = [0, 1, 2] * 10  # 3 lines, 2 ways
    opt = OPTAnalysis(1, 2)
    opt.run([(l, "x") for l in lines])
    assert opt.hits["x"] / len(lines) > 0.3


def test_opt_is_belady_on_textbook_example():
    # Classic: 2-way, stream a b c a b -> OPT keeps a (reused sooner).
    opt = OPTAnalysis(1, 2)
    opt.run([(0, "x"), (1, "x"), (2, "x"), (0, "x"), (1, "x")])
    # a,b miss; c misses and evicts whichever is used later (b);
    # a hits; b misses.  4 misses, 1 hit is optimal here? Check MIN:
    # evict the farthest next use: at c's fill, a used at idx 3,
    # b at idx 4 -> evict b.  Then a hits, b misses: 4 miss / 1 hit.
    assert opt.hits["x"] == 1
    assert opt.misses["x"] == 4


def test_opt_set_awareness():
    opt = OPTAnalysis(2, 1)
    # Lines 0 and 2 map to set 0, line 1 to set 1 (line % sets).
    opt.run([(0, "x"), (1, "x"), (0, "x"), (1, "x")])
    assert opt.hits["x"] == 2


def test_opt_per_category_accounting():
    opt = OPTAnalysis(1, 4)
    opt.run([(1, "translation"), (2, "replay"), (1, "translation")])
    assert opt.hits["translation"] == 1
    assert opt.misses["replay"] == 1


def test_recorder_captures_stream_and_analyzes():
    from repro.cache.cache import Cache
    from repro.memsys.request import MemoryRequest
    from repro.params import CacheConfig

    class Null:
        def access(self, req):
            req.served_by = "DRAM"
            return req.cycle + 100

    cache = Cache(CacheConfig("T", 2 * 64 * 2, 2, 10), Null())
    rec = AccessRecorder(cache).attach()
    for i in range(6):
        cache.access(MemoryRequest(address=(i % 3) << 6, cycle=i * 10))
    rec.detach()
    assert len(rec.stream) == 6
    opt = rec.analyze()
    assert opt.hits["non_replay"] + opt.misses["non_replay"] == 6
    # OPT is at least as good as what the real cache achieved.
    assert opt.misses["non_replay"] <= cache.stats.misses["non_replay"]


def test_opt_lower_bounds_real_policies():
    """On a real benchmark stream, OPT's translation misses lower-bound
    the simulated policy's."""
    from repro.cache.opt import AccessRecorder
    from repro.experiments.runner import run_benchmark
    from repro.params import default_config
    from repro.uncore.hierarchy import MemoryHierarchy
    from repro.core.ooo_core import OOOCore
    from repro.workloads.registry import make_trace

    cfg = default_config()
    hierarchy = MemoryHierarchy(cfg)
    recorder = AccessRecorder(hierarchy.llc).attach()
    trace = make_trace("pr", 8000, seed=1)
    OOOCore(cfg, hierarchy).run(trace)
    recorder.detach()
    opt = recorder.analyze()
    assert (opt.misses["translation"]
            <= hierarchy.llc.stats.misses["translation"])
