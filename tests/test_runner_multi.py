"""Tests for multi-seed aggregation and the control workload."""

import pytest

from repro.experiments.runner import run_benchmark, run_benchmark_multi
from repro.params import EnhancementConfig, default_config
from repro.workloads.registry import benchmark_names

TINY = dict(instructions=4000, warmup=1000)


def test_benchmark_names_excludes_controls_by_default():
    names = benchmark_names()
    assert "compute" not in names
    assert len(names) == 9
    assert "compute" in benchmark_names(include_controls=True)


def test_compute_control_has_negligible_stlb_misses():
    r = run_benchmark("compute", instructions=10_000, warmup=2_500)
    assert r.stlb_mpki < 1.0


def test_enhancements_do_not_hurt_low_mpki_workloads():
    """Paper: 'our enhancements do not affect the performance of
    applications that do not see significant STLB misses'."""
    base = run_benchmark("compute", instructions=10_000, warmup=2_500)
    cfg = default_config().with_(enhancements=EnhancementConfig.full())
    enh = run_benchmark("compute", config=cfg, instructions=10_000,
                        warmup=2_500)
    assert enh.speedup_over(base) == pytest.approx(1.0, abs=0.05)


def test_multi_seed_aggregates():
    res = run_benchmark_multi("tc", seeds=[1, 2, 3],
                              instructions=12_000, warmup=3_000)
    assert len(res.runs) == 3
    assert [r.seed for r in res.runs] == [1, 2, 3]
    cycles = [r.cycles for r in res.runs]
    # Post-warmup runs of this length are seed-stable within ~20%.
    assert (max(cycles) - min(cycles)) / (sum(cycles) / 3) < 0.2
    assert all(r.stlb_mpki > 0 for r in res.runs)


def test_multi_seed_requires_seeds():
    with pytest.raises(ValueError):
        run_benchmark_multi("tc", seeds=[], **TINY)


def test_multi_seed_speedup_is_stable():
    """The enhancement speedup holds across seeds (not trace luck)."""
    base = run_benchmark_multi("canneal", seeds=[1, 2, 3],
                               instructions=10_000, warmup=2_500)
    cfg = default_config().with_(enhancements=EnhancementConfig.full())
    enh = run_benchmark_multi("canneal", seeds=[1, 2, 3], config=cfg,
                              instructions=10_000, warmup=2_500)
    assert (sum(r.cycles for r in base.runs)
            / sum(r.cycles for r in enh.runs)) > 0.99
