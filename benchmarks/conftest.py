"""Shared configuration for the figure-regeneration benchmarks.

Every file in this directory regenerates one table or figure of the paper
through pytest-benchmark.  Runs use the reduced-scale configuration
(:func:`repro.params.default_config`) and moderate trace lengths so the
whole suite completes in minutes; pass ``--benchmark-only -s`` to see the
regenerated tables.

Every figure's points run as jobs of one inline sweep service on a
throwaway store, so a point that several figures share (a baseline run,
say) simulates once per session.
"""

import pytest

from repro.service import serving
from repro.service.store import temporary_store

#: Default ROI / warmup used by most figure benches.
INSTRUCTIONS = 30_000
WARMUP = 8_000

#: Subset used by the most expensive sweeps (representative of the three
#: STLB-MPKI categories).
SWEEP_BENCHMARKS = ["xalancbmk", "canneal", "mcf", "cc", "pr"]


@pytest.fixture(scope="session", autouse=True)
def shared_runs():
    with temporary_store(True) as store, serving(workers=0, store=store):
        yield


def regenerate(benchmark, fn, **kwargs):
    """Run a figure function exactly once under pytest-benchmark and print
    the regenerated table."""
    result = benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)
    print()
    print(result)
    return result
