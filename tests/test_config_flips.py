"""Every ``SimConfig`` field changes a run.

A config's digest is the identity of its run (``RunKey``): the store,
dedupe and every figure point rest on it.  A field that no simulation
reads would only split that identity, so each leaf field of
``SimConfig`` has a row below: a flipped value and where that value
takes effect, and the run's ``RunSummary`` (``batch`` aside, which
records how the run executed, not what it simulated) must differ from
the unflipped run's.  A field added without a row fails
:func:`test_every_leaf_field_has_a_row`.

The ``name`` fields are exempt: a name labels a TLB or cache level in
reports and stats keys, and renaming it changes no simulated event.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.ooo_core import OOOCore
from repro.experiments.parallel import RunSummary
from repro.experiments.runner import RunResult, run_benchmark
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, Trace

#: Where a flip takes effect: an enhancement preset and a workload, a
#: ``(benchmark, instructions, warmup)`` triple or ``"psc_walks"``.
BASE = ("none", ("pr", 4000, 1000))
FULL = ("full", ("pr", 4000, 1000))
#: Long enough for the LLC to evict, which its policy needs.
LLC_EVICTS = ("none", ("pr", 30000, 6000))
#: No synthetic benchmark's walks leave what PSCL5-PSCL3 hold.
PSC_WALKS = ("none", "psc_walks")

FLIPS = {
    "core.rob_entries": (64, BASE),
    # Dispatch width is not this run's bottleneck, so only a smaller
    # value takes effect.
    "core.dispatch_width": (3, BASE),
    "core.retire_width": (2, BASE),
    "core.replay_issue_latency": (48, BASE),
    "dtlb.entries": (4, BASE),
    "dtlb.ways": (2, BASE),
    "dtlb.latency": (3, BASE),
    "stlb.entries": (64, BASE),
    "stlb.ways": (8, BASE),
    "stlb.latency": (16, BASE),
    "psc.pscl5_entries": (1, PSC_WALKS),
    "psc.pscl4_entries": (1, PSC_WALKS),
    "psc.pscl3_entries": (1, PSC_WALKS),
    "psc.pscl2_entries": (1, PSC_WALKS),
    "psc.latency": (4, BASE),
    "l1d.size_bytes": (6 * 1024, BASE),
    "l1d.ways": (6, BASE),
    "l1d.latency": (10, BASE),
    "l1d.mshr_entries": (4, BASE),
    "l1d.replacement": ("srrip", BASE),
    "l2c.size_bytes": (16 * 1024, BASE),
    "l2c.ways": (4, BASE),
    "l2c.latency": (20, BASE),
    # The L2C and LLC MSHRs fill up only with ATP/TEMPO's prefetches.
    "l2c.mshr_entries": (24, FULL),
    "l2c.replacement": ("lru", BASE),
    "llc.size_bytes": (64 * 1024, BASE),
    "llc.ways": (8, BASE),
    "llc.latency": (40, BASE),
    "llc.mshr_entries": (48, FULL),
    "llc.replacement": ("lru", LLC_EVICTS),
    "dram.channels": (2, BASE),
    "dram.banks_per_channel": (4, BASE),
    "dram.row_buffer_bytes": (1024, BASE),
    "dram.row_hit_latency": (100, BASE),
    "dram.row_miss_latency": (300, BASE),
    "dram.bus_transfer_cycles": (16, BASE),
    "enhancements.t_drrip": (True, BASE),
    "enhancements.t_ship": (True, LLC_EVICTS),
    "enhancements.newsign": (True, BASE),
    "enhancements.atp": (True, BASE),
    "enhancements.tempo": (True, BASE),
    "enhancements.replay_rrpv0": (True, FULL),
    "ideal.llc_translations": (True, BASE),
    "ideal.llc_replays": (True, BASE),
    "ideal.l2c_translations": (True, BASE),
    "ideal.l2c_replays": (True, BASE),
    "llc_inclusion": ("inclusive", BASE),
    "huge_page_policy": ("gather_region", BASE),
    "comparison": ("cbpred", BASE),
    "l1d_prefetcher": ("next_line", BASE),
    "l2c_prefetcher": ("next_line", BASE),
    "stlb_fill_latency": (10, BASE),
    "track_recall": (True, BASE),
}


def leaf_paths(config, prefix: str = ""):
    """Dotted paths of every non-dataclass field under ``config``."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def flipped(config, path: str, value):
    """``config`` with the field at ``path`` set to ``value``."""
    head, _, leaf = path.partition(".")
    if not leaf:
        return config.with_(**{head: value})
    return config.with_(**{head: dataclasses.replace(
        getattr(config, head), **{leaf: value})})


def psc_walks_trace(loads: int = 5000) -> Trace:
    """Loads spread over 3 x 3 x 3 x 3 level-5/4/3/2 regions, each to a
    random page of its region, so walks keep replacing the upper-level
    PSC entries."""
    rng = np.random.default_rng(5)
    upper = rng.integers(0, 3, size=(loads, 4))
    leaf = rng.integers(0, 512, size=loads)
    addrs = [make_va([*map(int, u), int(e)], 0x40)
             for u, e in zip(upper, leaf)]
    kinds = np.full(2 * loads, KIND_NONMEM, dtype=np.int8)
    kinds[::2] = KIND_LOAD
    full = np.zeros(2 * loads, dtype=np.int64)
    full[::2] = addrs
    return Trace(np.full(2 * loads, 0x400, dtype=np.int64), kinds, full,
                 name="psc_walks")


def summary(config, workload) -> dict:
    """The run's ``RunSummary`` as a dict, ``batch`` aside."""
    if workload == "psc_walks":
        warmup = 2000
        hierarchy = MemoryHierarchy(config)
        core = OOOCore(config, hierarchy).run(psc_walks_trace(),
                                              warmup=warmup)
        run = RunResult("psc_walks", config, core, warmup=warmup)
    else:
        benchmark, instructions, warmup = workload
        run = run_benchmark(benchmark, config, instructions=instructions,
                            warmup=warmup)
    doc = RunSummary.from_run(run).to_dict()
    del doc["batch"]
    return doc


@pytest.fixture(scope="module")
def unflipped():
    """Each setting's unflipped summary, run once."""
    cache = {}

    def get(setting):
        if setting not in cache:
            preset, workload = setting
            cache[setting] = summary(
                default_config().with_(enhancements=preset), workload)
        return cache[setting]
    return get


def test_every_leaf_field_has_a_row():
    paths = set(leaf_paths(default_config()))
    exempt = {p for p in paths if p.rpartition(".")[2] == "name"}
    assert exempt == {"dtlb.name", "stlb.name", "l1d.name", "l2c.name",
                      "llc.name"}
    assert paths - exempt == set(FLIPS)


@pytest.mark.parametrize("path", sorted(FLIPS))
def test_flipping_a_field_changes_the_run(path, unflipped):
    value, setting = FLIPS[path]
    preset, workload = setting
    config = default_config().with_(enhancements=preset)
    changed = flipped(config, path, value)
    assert changed != config, f"{path}={value!r} is its value already"
    assert summary(changed, workload) != unflipped(setting), \
        f"{path}={value!r} left the run unchanged"
