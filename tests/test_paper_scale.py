"""Smoke test of the full-size (Table I) configuration.

Verifies the paper-scale machine simulates end to end and behaves
sanely: at full capacity the (scaled-footprint) workloads mostly fit,
so miss rates collapse relative to the reduced-scale runs.
"""

import pytest

from repro.experiments.runner import run_benchmark
from repro.params import paper_config


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("name", ["pr", "xalancbmk"])
def test_paper_config_runs(name, backend):
    cfg = paper_config().with_(backend=backend)
    r = run_benchmark(name, config=cfg, instructions=6000, warmup=1500,
                      scale=16)  # workload footprints stay reduced
    assert r.cycles > 0
    assert 0.0 < r.ipc < cfg.core.retire_width


def test_paper_config_backends_agree():
    """Full-size Table I machine: both backends report identical runs."""
    results = {
        backend: run_benchmark(
            "pr", config=paper_config().with_(backend=backend),
            instructions=6000, warmup=1500, scale=16)
        for backend in ("python", "numpy")}
    assert results["python"].summary() == results["numpy"].summary()


def test_full_size_caches_absorb_reduced_footprints():
    small = run_benchmark("pr", instructions=20_000, warmup=5_000)
    big = run_benchmark("pr", config=paper_config(), instructions=20_000,
                        warmup=5_000, scale=16)
    # The 16x STLB covers most of the reduced gather footprint, so walks
    # (and hence replay loads) largely disappear...
    assert big.stlb_mpki < 0.5 * small.stlb_mpki
    assert (big.cache_mpki("llc", "replay")
            < small.cache_mpki("llc", "replay"))
    # ... and the machine runs faster overall.
    assert big.ipc > small.ipc


def test_paper_scale_workload_generation():
    """scale=1 footprints generate (big address space) without issue."""
    from repro.workloads.analysis import working_set
    from repro.workloads.registry import make_trace
    trace = make_trace("pr", 3000, scale=1)
    assert working_set(trace)["pages"] > 100
