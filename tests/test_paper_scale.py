"""Smoke test of the full-size (Table I) configuration.

Verifies the paper-scale machine simulates end to end and behaves
sanely: at full capacity the (scaled-footprint) workloads mostly fit,
so miss rates collapse relative to the reduced-scale runs.
"""

import pytest

from repro.core.ooo_core import OOOCore
from repro.experiments.runner import run_benchmark
from repro.params import paper_config


# The ids name the backends that once selected the two loops.
@pytest.mark.parametrize("reference", [True, False],
                         ids=["python", "numpy"])
@pytest.mark.parametrize("name", ["pr", "xalancbmk"])
def test_paper_config_runs(name, reference, monkeypatch):
    monkeypatch.setattr(OOOCore, "_reference", reference)
    cfg = paper_config()
    r = run_benchmark(name, config=cfg, instructions=6000, warmup=1500,
                      scale=16)  # workload footprints stay reduced
    assert r.cycles > 0
    assert 0.0 < r.ipc < cfg.core.retire_width


def test_paper_config_backends_agree(monkeypatch):
    """Full-size Table I machine: the fast path and the reference loop
    report identical runs."""
    def run():
        return run_benchmark("pr", config=paper_config(),
                             instructions=6000, warmup=1500, scale=16)
    fast = run()
    monkeypatch.setattr(OOOCore, "_reference", True)
    assert fast.batch.fast_hits > 0
    assert run().summary() == fast.summary()


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
