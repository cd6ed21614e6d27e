"""Integration tests: the paper's qualitative claims at reduced scale.

These are the load-bearing checks that the reproduced *mechanisms* behave
the way the paper says they do -- they use mid-size runs (a few seconds
total) and assert directions/shapes, not absolute numbers.
"""

import pytest

from repro.core.rob import StallCategory
from repro.experiments.runner import run_benchmark
from repro.params import EnhancementConfig, IdealConfig, default_config
from repro.stats.recall import RECALL_BUCKETS
from repro.workloads.registry import categorize

MID = dict(instructions=20_000, warmup=5_000)


@pytest.fixture(scope="module")
def baseline_pr():
    return run_benchmark("pr", **MID)


@pytest.fixture(scope="module")
def full_pr():
    cfg = default_config().with_(enhancements=EnhancementConfig.full())
    return run_benchmark("pr", config=cfg, **MID)


def test_stlb_mpki_category_bands():
    """Benchmarks land in their Table II Low/Medium/High bands."""
    for name in ("xalancbmk", "mcf", "pr"):
        r = run_benchmark(name, **MID)
        from repro.workloads.registry import BENCHMARKS
        assert categorize(r.stlb_mpki) == BENCHMARKS[name].category, name


def test_replay_mpki_tracks_stlb_mpki(baseline_pr):
    """Nearly every STLB miss produces an L2C/LLC-missing replay load
    (Table II: replay MPKI ~= STLB MPKI)."""
    r = baseline_pr
    assert r.cache_mpki("l2c", "replay") == pytest.approx(r.stlb_mpki,
                                                          rel=0.15)
    assert r.cache_mpki("llc", "replay") == pytest.approx(r.stlb_mpki,
                                                          rel=0.2)


def test_replay_blocks_are_dead(baseline_pr):
    """Fig 7: replay blocks see (almost) no reuse -> recall > 50."""
    tracker = baseline_pr.hierarchy.llc.recall_replay
    tracker.flush()
    if tracker.samples >= 20:
        assert tracker.cdf()[RECALL_BUCKETS.index(50)] < 0.5


def test_translation_recall_is_short(baseline_pr):
    """Fig 5: a sizeable fraction of evicted translations would have been
    recalled within ~50 unique set accesses."""
    tracker = baseline_pr.hierarchy.llc.recall_translation
    tracker.flush()
    if tracker.samples >= 20:
        assert tracker.cdf()[RECALL_BUCKETS.index(50)] > 0.1


def test_tship_reduces_translation_mpki(baseline_pr):
    """Fig 12: T-SHiP cuts the leaf-translation MPKI at the LLC."""
    cfg = default_config().with_(enhancements=EnhancementConfig(
        t_drrip=True, t_ship=True, newsign=True))
    enhanced = run_benchmark("pr", config=cfg, **MID)
    assert enhanced.leaf_mpki("llc") < baseline_pr.leaf_mpki("llc")


def test_full_stack_reduces_translation_stalls(baseline_pr, full_pr):
    """Fig 16: the enhancements cut STLB-miss-caused ROB stalls."""
    base = baseline_pr.stall_cycles(StallCategory.TRANSLATION)
    enh = full_pr.stall_cycles(StallCategory.TRANSLATION)
    assert enh < base


def test_enhancements_never_lose_badly():
    """Fig 14: the full stack helps memory-intensive benchmarks and never
    catastrophically hurts."""
    import math
    speedups = []
    for name in ("canneal", "mcf", "tc"):
        base = run_benchmark(name, **MID)
        cfg = default_config().with_(
            enhancements=EnhancementConfig.full())
        enh = run_benchmark(name, config=cfg, **MID)
        speedups.append(enh.speedup_over(base))
    gmean = math.prod(speedups) ** (1 / len(speedups))
    assert gmean > 1.0
    assert min(speedups) > 0.93


def test_ideal_caches_upper_bound(baseline_pr):
    """Fig 2: the ideal-TR machine beats the real one, and TR >= T."""
    cfg_t = default_config().with_(
        ideal=IdealConfig(llc_translations=True, l2c_translations=True))
    cfg_tr = default_config().with_(
        ideal=IdealConfig(llc_translations=True, llc_replays=True,
                          l2c_translations=True, l2c_replays=True))
    ideal_t = run_benchmark("pr", config=cfg_t, **MID)
    ideal_tr = run_benchmark("pr", config=cfg_tr, **MID)
    assert ideal_tr.speedup_over(baseline_pr) > 1.02
    assert ideal_tr.cycles <= ideal_t.cycles


def test_atp_converts_llc_replay_misses(full_pr, baseline_pr):
    """ATP turns replay LLC misses into hits/merges (Fig 13)."""
    assert (full_pr.cache_mpki("llc", "replay")
            < baseline_pr.cache_mpki("llc", "replay"))
    assert full_pr.hierarchy.atp.triggered > 0


def test_translation_hit_rate_near_one_with_enhancements(full_pr):
    """Section V: >98% of leaf translations hit on-chip with T-*."""
    assert full_pr.hierarchy.leaf_translation_hit_rate() > 0.95


def test_fig10_misconfiguration_is_worse_than_proposal():
    """Inserting replays at RRPV=0 must underperform the proper T-config
    (the point of Fig 10)."""
    proper_cfg = default_config().with_(enhancements=EnhancementConfig(
        t_drrip=True, t_ship=True, newsign=True))
    wrong_cfg = default_config().with_(enhancements=EnhancementConfig(
        t_drrip=True, t_ship=True, newsign=True, replay_rrpv0=True))
    proper = run_benchmark("pr", config=proper_cfg, **MID)
    wrong = run_benchmark("pr", config=wrong_cfg, **MID)
    assert wrong.cycles >= proper.cycles
