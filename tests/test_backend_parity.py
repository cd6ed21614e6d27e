"""Cross-backend differential harness: ``numpy`` must be bit-identical.

The numpy backend (:class:`repro.core.batch_engine.BatchCore`) runs the
core's one drain loop with its inlined DTLB-hit/L1D-hit path on; the
python backend runs it with that path off.  The promise is
*bit-identity* -- not statistical closeness.  This suite pins it three
ways:

* a 23-configuration oracle matrix (benchmark x enhancement stack x
  replacement x inclusion x huge pages x prefetchers x ideal/comparison
  modes x ROI geometry) compared on the full flattened counter surface
  of :func:`repro.validate.oracle.hierarchy_counters`;
* every checked-in ``SYN-*`` / ``RL-*`` scenario document, run under
  both backends through :func:`repro.scenarios.run_scenario`;
* an engagement check that the eligible matrix rows really took the
  fast path, and sent every other access through the hierarchy (a
  backend that silently never takes it would pass any parity test).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.engine import make_core
from repro.params import SimConfig, default_config
from repro.scenarios import list_scenarios, load_scenario, run_scenario
from repro.uncore.hierarchy import MemoryHierarchy
from repro.validate.oracle import diff_counters, hierarchy_counters
from repro.workloads.registry import make_trace
from repro.workloads.trace import KIND_NONMEM


def _ideal(**flags):
    from repro.params import IdealConfig
    return IdealConfig(**flags)


def _cfg(scale=64, **overrides) -> SimConfig:
    return default_config(scale).with_(**overrides)


#: The oracle matrix: (name, base config, benchmark, instructions,
#: warmup, seed).  ``vector`` marks rows the batch backend should run
#: without falling back to the scalar core (used by the engagement
#: check); fallback rows still assert parity -- trivially for the
#: counters, non-trivially for the routing logic.
MATRIX = [
    # -- baselines across benchmarks, varied ROI geometry --------------
    ("pr-base", _cfg(), "pr", 4000, 500, 1, True),
    ("radii-base", _cfg(), "radii", 4000, 500, 2, True),
    ("canneal-base", _cfg(), "canneal", 4000, 500, 3, True),
    ("xalancbmk-base", _cfg(), "xalancbmk", 4000, 500, 1, True),
    ("compute-base", _cfg(), "compute", 4000, 500, 1, True),
    ("mcf-base", _cfg(), "mcf", 4000, 500, 1, True),
    ("pr-nowarmup", _cfg(), "pr", 3000, 0, 1, True),
    ("pr-all-warmup", _cfg(), "pr", 2000, 2000, 1, True),
    # -- enhancement stacks (paper's cumulative order) ------------------
    ("pr-tdrrip", _cfg(enhancements="t_drrip"), "pr", 4000, 500, 1, True),
    ("pr-tship", _cfg(enhancements="t_ship"), "pr", 4000, 500, 1, True),
    ("canneal-atp", _cfg(enhancements="atp"), "canneal", 4000, 500, 1, True),
    ("pr-full", _cfg(enhancements="full"), "pr", 4000, 500, 1, True),
    ("radii-full", _cfg(enhancements="full"), "radii", 4000, 500, 2, True),
    # -- replacement / inclusion / ideal-mode variants ------------------
    ("canneal-llc-lru", _cfg(llc=default_config(64).llc.scaled(1)),
     "canneal", 4000, 500, 1, True),
    ("pr-inclusive", _cfg(llc_inclusion="inclusive"), "pr", 4000, 500, 1,
     True),
    ("xalancbmk-full-incl",
     _cfg(enhancements="full", llc_inclusion="inclusive"), "xalancbmk",
     4000, 500, 1, True),
    ("radii-ideal-llc", _cfg(ideal=_ideal(llc_translations=True)),
     "radii", 4000, 500, 1, True),
    ("mcf-ideal-l2c", _cfg(ideal=_ideal(l2c_replays=True)),
     "mcf", 4000, 500, 1, True),
    # -- scale variants -------------------------------------------------
    ("pr-scale16", _cfg(scale=16), "pr", 4000, 500, 1, True),
    # -- static-fallback configurations (scalar routing must be exact) --
    ("pr-hugepage", _cfg(huge_page_policy="gather_region"),
     "pr", 4000, 500, 1, False),
    ("canneal-cbpred", _cfg(comparison="cbpred"), "canneal", 4000, 500, 1,
     False),
    ("xalancbmk-l1d-pf", _cfg(l1d_prefetcher="next_line"),
     "xalancbmk", 4000, 500, 1, False),
    ("compute-l1d-srrip",
     _cfg(l1d=dataclasses.replace(default_config(64).l1d,
                                  replacement="srrip")),
     "compute", 4000, 500, 1, False),
]

assert len(MATRIX) == 23, "the oracle matrix is pinned at 23 configs"

#: Miss-dominated companion matrix: scale-16 geometry shrinks the DTLB
#: and L1D until most windows carry real misses, so these rows drive the
#: scalar excursions, page walks through the walker's descent memo and
#: the MSHR-merge fast path rather than the hit path the base matrix
#: mostly exercises.  Each row must stay vector-eligible AND actually
#: walk -- asserted below, not assumed.
MISS_MATRIX = [
    ("pr-s16-deep", _cfg(scale=16), "pr", 8000, 1000, 1),
    ("pr-s16-full", _cfg(scale=16, enhancements="full"), "pr",
     8000, 1000, 1),
    ("mcf-s16-atp-tempo", _cfg(scale=16, enhancements="full"), "mcf",
     8000, 1000, 2),
    ("canneal-s16-spp", _cfg(scale=16, l2c_prefetcher="spp"), "canneal",
     8000, 1000, 3),
    ("radii-s16-nextline", _cfg(scale=16, l2c_prefetcher="next_line"),
     "radii", 6000, 500, 1),
]


@pytest.mark.parametrize("name,cfg,bench,instructions,warmup,seed",
                         MISS_MATRIX, ids=[row[0] for row in MISS_MATRIX])
def test_miss_dominated_bit_identical(name, cfg, bench, instructions,
                                      warmup, seed):
    scalar, _ = _run(cfg.with_(backend="python"), bench,
                     instructions, warmup, seed)
    vector_counters, core = _run(cfg.with_(backend="numpy"), bench,
                                 instructions, warmup, seed)
    assert diff_counters(scalar, vector_counters) == {}
    _assert_engaged(core)
    # Miss-domination is the point of these rows: the drain must have
    # taken scalar excursions and walked, otherwise the excursion path
    # and the descent memo went untested.
    assert core.batch_stats.scalar_excursions > 0
    assert core.hierarchy.mmu.walker.walks > 0


def _assert_engaged(core) -> None:
    """The run took the fast path, and every load and store of the
    trace took either it or the hierarchy."""
    assert core.last_fallback_reason is None
    stats = core.batch_stats
    kinds = core.trace.kinds[:core.total]
    assert stats.fast_hits > 0
    assert stats.fast_hits + stats.scalar_excursions \
        == int((kinds != KIND_NONMEM).sum())


def _run(config: SimConfig, bench: str, instructions: int,
         warmup: int, seed: int):
    """One direct core run; returns (counter dict, core object)."""
    trace = make_trace(bench, instructions + warmup,
                       scale=config_scale(config), seed=seed)
    hierarchy = MemoryHierarchy(config)
    core = make_core(config, hierarchy)
    result = core.run(trace, warmup=warmup)
    return hierarchy_counters(hierarchy, result), core


def config_scale(config: SimConfig) -> int:
    """Recover the workload scale from the STLB's scaled geometry."""
    return 2048 * 16 // (config.stlb.num_sets * config.stlb.ways)


@pytest.mark.parametrize(
    "name,cfg,bench,instructions,warmup,seed,vector",
    MATRIX, ids=[row[0] for row in MATRIX])
def test_oracle_matrix_bit_identical(name, cfg, bench, instructions,
                                     warmup, seed, vector):
    scalar, _ = _run(cfg.with_(backend="python"), bench,
                     instructions, warmup, seed)
    vector_counters, core = _run(cfg.with_(backend="numpy"), bench,
                                 instructions, warmup, seed)
    assert diff_counters(scalar, vector_counters) == {}
    if vector:
        # The eligible rows must actually take the fast path --
        # otherwise this file would pass with a backend that never
        # does.
        _assert_engaged(core)
    else:
        assert core.last_fallback_reason is not None


@pytest.mark.parametrize("scenario", list_scenarios())
def test_scenario_library_backend_parity(scenario):
    doc = load_scenario(scenario)
    records = {}
    for backend in ("python", "numpy"):
        cfg = default_config(doc.scale).with_(backend=backend)
        result = run_scenario(doc, instructions=3000, warmup=500,
                              config=cfg)
        record = result.jsonl_record(timestamp=False)
        # The run key hashes the config, so it differs by backend --
        # everything the simulation *measured* must not.
        for volatile in ("run_key", "config_hash"):
            record.pop(volatile)
        records[backend] = record
    assert records["python"] == records["numpy"]


def test_scenario_library_is_complete():
    names = list_scenarios()
    assert set(names) >= {"SYN-01-STLB-THRASH", "SYN-02-PTE-REUSE-CLIFF",
                          "SYN-03-REPLAY-DEAD-STREAMS", "RL-01-GRAPH-SOUP",
                          "RL-02-PHASED-PIPELINE"}


def test_high_address_trace_backend_parity():
    """Addresses above 2**53 survive both backends bit-identically.

    Float64 holds 53 mantissa bits; an accidental float round-trip
    anywhere in either core would silently corrupt these addresses and
    the counter comparison would diverge."""
    import numpy as np

    from repro.vm.address import make_va
    from repro.workloads.trace import KIND_LOAD, KIND_STORE, Trace

    rng = __import__("random").Random(9)
    n = 3000
    ips = np.full(n, 0x400000, dtype=np.int64)
    kinds = np.zeros(n, dtype=np.int8)
    addrs = np.zeros(n, dtype=np.int64)
    deps = np.zeros(n, dtype=np.int8)
    for i in range(n):
        kinds[i] = KIND_LOAD if rng.random() < 0.7 else KIND_STORE
        # Top-level index 511 puts the VA near 2**57, far above 2**53.
        addrs[i] = make_va([511, 0, 0, rng.randrange(4), rng.randrange(64)],
                           offset=rng.randrange(512) * 8)
    trace = Trace(ips, kinds, addrs, name="high-va", deps=deps)
    assert int(addrs.min()) > 2 ** 53

    counters = {}
    for backend in ("python", "numpy"):
        cfg = default_config(64).with_(backend=backend)
        hierarchy = MemoryHierarchy(cfg)
        core = make_core(cfg, hierarchy)
        result = core.run(trace, warmup=500)
        counters[backend] = hierarchy_counters(hierarchy, result)
        if backend == "numpy":
            assert core.last_fallback_reason is None
    assert diff_counters(counters["python"], counters["numpy"]) == {}


def test_sampled_numpy_run_keeps_the_fast_path():
    """An interval sampler runs at window edges: a sampled numpy run
    stays on the batch path, and its summary and intervals equal the
    scalar core's."""
    from repro.experiments.runner import run_benchmark

    cfg = default_config(64).with_(backend="numpy")
    observed = run_benchmark("pr", config=cfg, instructions=2000,
                             warmup=200, scale=64, seed=1,
                             sample_interval=500)
    plain = run_benchmark("pr", config=default_config(64),
                          instructions=2000, warmup=200, scale=64, seed=1,
                          sample_interval=500)
    assert observed.batch.fallbacks == {}
    assert observed.batch.windows > 0
    assert observed.summary() == plain.summary()
    assert observed.intervals == plain.intervals
    assert [iv["instructions"] for iv in observed.intervals] == [500] * 4


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_progress_forwarding_keeps_the_run_path(backend):
    """A run with a ``ProgressForwarder`` attached has the summary of
    the same run without one, on either backend, and a numpy run with
    one reports no fallback."""
    from repro.experiments.parallel import RunSummary
    from repro.experiments.runner import run_benchmark
    from repro.obs.forward import ProgressForwarder

    cfg = default_config(64).with_(backend=backend)
    rows = []
    forwarder = ProgressForwarder(rows.append, total_instructions=3000,
                                  interval=1000)
    kw = dict(config=cfg, instructions=3000, warmup=500, scale=64, seed=2)
    forwarded = run_benchmark("xalancbmk", progress=forwarder, **kw)
    plain = run_benchmark("xalancbmk", **kw)
    summaries = [RunSummary.from_run(run).to_dict()
                 for run in (forwarded, plain)]
    batches = [summary.pop("batch") for summary in summaries]
    assert summaries[0] == summaries[1]
    assert [row["instructions"] for row in rows] == [1000, 2000, 3000]
    if backend == "numpy":
        assert batches[0]["fallbacks"] == {}
        assert batches[0]["windows"] >= batches[1]["windows"] > 0
