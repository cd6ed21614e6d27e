"""A run's memory does not scale with its trace length.

The cores read the trace one window at a time (``Trace.window``) and the
recall trackers keep capped recency orders, so what ``core.run``
allocates beyond the trace and hierarchy it is handed is bounded by the
machine's own state.  Whole-column list copies of the trace cost ~74 B
per instruction, which is 4.2 MiB between 20K and 80K instructions.
"""

import tracemalloc

import pytest

from repro.api import build_config
from repro.core.ooo_core import OOOCore
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.registry import make_trace

#: Allowed growth of the ``core.run`` heap peak from 20K to 80K
#: ``compute`` instructions.
GROWTH_BOUND_MIB = 0.5


def run_peak_mib(reference: bool, instructions: int) -> float:
    """Traced heap peak of ``core.run`` alone, on the reference loop or
    with the fast path: the trace and hierarchy are built before
    tracing starts."""
    cfg = build_config()
    trace = make_trace("compute", instructions, seed=1)
    core = OOOCore(cfg, MemoryHierarchy(cfg))
    core._reference = reference
    tracemalloc.start()
    try:
        core.run(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


# The ids name the backends that once selected the two loops.
@pytest.mark.parametrize("reference", [True, False],
                         ids=["python", "numpy"])
def test_run_heap_does_not_grow_with_trace_length(reference):
    short = run_peak_mib(reference, 20_000)
    long = run_peak_mib(reference, 80_000)
    assert long - short < GROWTH_BOUND_MIB, (short, long)
