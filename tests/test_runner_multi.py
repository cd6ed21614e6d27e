"""Tests for seed stability and the control workload."""

import pytest

from repro.experiments.runner import run_benchmark
from repro.params import EnhancementConfig, default_config
from repro.workloads.registry import benchmark_names


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
    runs = [run_benchmark("tc", instructions=12_000, warmup=3_000,
                          seed=seed) for seed in (1, 2, 3)]
    assert [r.seed for r in runs] == [1, 2, 3]
    cycles = [r.cycles for r in runs]
    # Post-warmup runs of this length are seed-stable within ~20%.
    assert (max(cycles) - min(cycles)) / (sum(cycles) / 3) < 0.2
    assert all(r.stlb_mpki > 0 for r in runs)


def test_multi_seed_speedup_is_stable():
    """The enhancement speedup holds across seeds (not trace luck)."""
    cfg = default_config().with_(enhancements=EnhancementConfig.full())
    base, enh = ([run_benchmark("canneal", config=config,
                                instructions=10_000, warmup=2_500,
                                seed=seed) for seed in (1, 2, 3)]
                 for config in (None, cfg))
    assert (sum(r.cycles for r in base)
            / sum(r.cycles for r in enh)) > 0.99
