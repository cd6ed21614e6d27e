"""Fast-path differential harness: the fast path must be bit-identical.

``OOOCore.run`` runs the core's one drain loop with its inlined
DTLB-hit/L1D-hit path on wherever :func:`fast_path_refusal` allows;
the core's private ``_reference`` switch keeps the path off, which is
the reference loop.  The promise is *bit-identity* -- not statistical
closeness.  This suite pins it three ways:

* a 23-configuration oracle matrix (benchmark x enhancement stack x
  replacement x inclusion x huge pages x prefetchers x ideal/comparison
  modes x ROI geometry) compared on the full flattened counter surface
  of :func:`repro.validate.oracle.hierarchy_counters`;
* every checked-in ``SYN-*`` / ``RL-*`` scenario document, run both
  ways through :func:`repro.scenarios.run_scenario`;
* an engagement check that the eligible matrix rows really took the
  fast path, and sent every other access through the hierarchy (a
  fast path that silently never runs would pass any parity test).

It also pins what refuses the fast path, and that asking costs the
run nothing.  Tests parametrized over the two loops keep the ids of
the backends that once selected them: ``python`` is the reference
loop, ``numpy`` the default one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.ooo_core import OOOCore, fast_path_refusal
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
#: warmup, seed).  ``vector`` marks rows that should take the fast path
#: (used by the engagement check); refused rows still assert parity --
#: trivially for the counters, non-trivially for the routing logic.
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
    scalar, _ = _run(cfg, bench, instructions, warmup, seed,
                     reference=True)
    vector_counters, core = _run(cfg, bench, instructions, warmup, seed)
    assert diff_counters(scalar, vector_counters) == {}
    _assert_engaged(core)
    # Miss-domination is the point of these rows: the drain must have
    # taken scalar excursions and walked, otherwise the excursion path
    # and the descent memo went untested.
    assert core.batch.scalar_excursions > 0
    assert core.hierarchy.mmu.walker.walks > 0


def _assert_engaged(core) -> None:
    """The run took the fast path, and every load and store of the
    trace took either it or the hierarchy."""
    stats = core.batch
    assert stats.fallbacks == {}
    kinds = core.trace.kinds[:core.total]
    assert stats.fast_hits > 0
    assert stats.fast_hits + stats.scalar_excursions \
        == int((kinds != KIND_NONMEM).sum())


def test_only_dtlb_misses_go_through_the_hierarchy(monkeypatch):
    """On ``pr``/full every access whose DTLB probe hits stays off
    ``MemoryHierarchy.load``/``store``: an L1D hit retires inline and an
    L1D miss goes straight to the L1D.  Class-level counters, which keep
    the fast path on, see exactly the DTLB misses."""
    calls = []
    for name in ("load", "store"):
        def counted(self, *args, _fn=getattr(MemoryHierarchy, name)):
            calls.append(args)
            return _fn(self, *args)
        monkeypatch.setattr(MemoryHierarchy, name, counted)
    _, core = _run(_cfg(scale=16, enhancements="full"), "pr", 5000, 0, 1)
    _assert_engaged(core)
    # No warmup reset, so the DTLB counted every miss of the run.
    assert len(calls) == core.hierarchy.mmu.dtlb.misses
    assert core.batch.scalar_excursions > len(calls)


def _run(config: SimConfig, bench: str, instructions: int,
         warmup: int, seed: int, reference: bool = False):
    """One direct core run, on the reference loop or the default one;
    returns (counter dict, core object)."""
    trace = make_trace(bench, instructions + warmup,
                       scale=config_scale(config), seed=seed)
    hierarchy = MemoryHierarchy(config)
    core = OOOCore(config, hierarchy)
    core._reference = reference
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
    scalar, _ = _run(cfg, bench, instructions, warmup, seed,
                     reference=True)
    vector_counters, core = _run(cfg, bench, instructions, warmup, seed)
    assert diff_counters(scalar, vector_counters) == {}
    if vector:
        # The eligible rows must actually take the fast path --
        # otherwise this file would pass with a fast path that never
        # runs.
        _assert_engaged(core)
    else:
        assert core.batch.fallbacks != {}
        assert core.batch.windows == 0


@pytest.mark.parametrize("scenario", list_scenarios())
def test_scenario_library_backend_parity(scenario, monkeypatch):
    doc = load_scenario(scenario)
    records = []
    for reference in (True, False):
        monkeypatch.setattr(OOOCore, "_reference", reference)
        result = run_scenario(doc, instructions=3000, warmup=500)
        records.append(result.jsonl_record(timestamp=False))
    assert records[0] == records[1]


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

    counters = []
    cfg = default_config(64)
    for reference in (True, False):
        hierarchy = MemoryHierarchy(cfg)
        core = OOOCore(cfg, hierarchy)
        core._reference = reference
        result = core.run(trace, warmup=500)
        counters.append(hierarchy_counters(hierarchy, result))
    assert core.batch.fallbacks == {}
    assert diff_counters(*counters) == {}


def test_high_address_trace_takes_the_fast_path():
    """Addresses above 2**53 through the inlined hit path itself.

    The trace reuses 8 pages and 4 lines of each, so DTLB and L1D hits
    are common and the fast path's own page and line arithmetic runs on
    these addresses; the counters must still equal the reference
    loop's."""
    import numpy as np

    from repro.vm.address import make_va
    from repro.workloads.trace import KIND_LOAD, KIND_STORE, Trace

    rng = __import__("random").Random(9)
    n = 3000
    pages = [rng.randrange(512) for _ in range(8)]
    ips = np.full(n, 0x400000, dtype=np.int64)
    kinds = np.zeros(n, dtype=np.int8)
    addrs = np.zeros(n, dtype=np.int64)
    deps = np.zeros(n, dtype=np.int8)
    for i in range(n):
        kinds[i] = KIND_LOAD if rng.random() < 0.7 else KIND_STORE
        addrs[i] = make_va([511, 0, 0, 0, rng.choice(pages)],
                           offset=rng.randrange(4) * 64
                           + rng.randrange(8) * 8)
    trace = Trace(ips, kinds, addrs, name="high-va-reuse", deps=deps)
    assert int(addrs.min()) > 2 ** 53

    counters = []
    cfg = default_config(64)
    for reference in (True, False):
        hierarchy = MemoryHierarchy(cfg)
        core = OOOCore(cfg, hierarchy)
        core._reference = reference
        result = core.run(trace, warmup=500)
        counters.append(hierarchy_counters(hierarchy, result))
    assert core.batch.fallbacks == {}
    assert core.batch.fast_hits > 0
    assert diff_counters(*counters) == {}


def test_sampled_numpy_run_keeps_the_fast_path(monkeypatch):
    """An interval sampler runs at window edges: a sampled run stays on
    the fast path, and its summary and intervals equal the reference
    loop's."""
    from repro.experiments.runner import run_benchmark

    kw = dict(config=default_config(64), instructions=2000, warmup=200,
              scale=64, seed=1, sample_interval=500)
    observed = run_benchmark("pr", **kw)
    monkeypatch.setattr(OOOCore, "_reference", True)
    plain = run_benchmark("pr", **kw)
    assert observed.batch.fallbacks == {}
    assert observed.batch.windows > 0
    assert observed.summary() == plain.summary()
    assert observed.intervals == plain.intervals
    assert [iv["instructions"] for iv in observed.intervals] == [500] * 4


@pytest.mark.parametrize("reference", [True, False],
                         ids=["python", "numpy"])
def test_progress_forwarding_keeps_the_run_path(reference, monkeypatch):
    """A run with a ``ProgressForwarder`` attached has the summary of
    the same run without one, on either loop, batch record included;
    on the default loop it takes the fast path."""
    from repro.experiments.parallel import RunSummary
    from repro.experiments.runner import run_benchmark
    from repro.obs.forward import ProgressForwarder

    monkeypatch.setattr(OOOCore, "_reference", reference)
    cfg = default_config(64)
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
    # Even how the run took the fast path: sampler edges end slices,
    # not windows.
    assert batches[0] == batches[1]
    assert batches[0]["fallbacks"] == {}
    assert (batches[0]["windows"] > 0) is not reference


def _srrip_l1d():
    return _cfg(l1d=dataclasses.replace(default_config(64).l1d,
                                        replacement="srrip"))


@pytest.mark.parametrize("slug,cfg", [
    (None, _cfg()),
    ("huge_pages", _cfg(huge_page_policy="gather_region")),
    ("comparison", _cfg(comparison="cbpred")),
    ("l1d_prefetcher", _cfg(l1d_prefetcher="next_line")),
    ("l1d_policy", _srrip_l1d()),
], ids=["eligible", "huge_pages", "comparison", "l1d_prefetcher",
        "l1d_policy"])
def test_static_refusals_name_their_slugs(slug, cfg):
    """A machine with a per-hit side effect the fast path does not
    model is refused under a stable slug, which the run records."""
    hierarchy = MemoryHierarchy(cfg)
    assert fast_path_refusal(cfg, hierarchy) == slug
    core = OOOCore(cfg, hierarchy)
    batch = core.run(make_trace("tc", 600, scale=64)).batch
    assert batch.fallbacks == ({slug: 1} if slug else {})
    assert (batch.windows > 0) is (slug is None)


def _attach_l1d_recall(hierarchy):
    from repro.stats.recall import RecallPair
    l1d = hierarchy.l1d
    l1d.recall_pair = RecallPair("L1D/translation", "L1D/replay")
    l1d.recall_translation = l1d.recall_pair.translation
    l1d.recall_replay = l1d.recall_pair.replay


def _attach_dtlb_recall(hierarchy):
    from repro.stats.recall import RecallTracker
    hierarchy.mmu.dtlb.recall = RecallTracker("DTLB/translation")


def _attach_dtlb_observer(hierarchy):
    class Observer:
        def on_stlb_fill(self, vpn, ip):
            pass

        def on_stlb_reuse(self, vpn):
            pass

        def on_stlb_evict(self, vpn):
            pass
    hierarchy.mmu.dtlb.observer = Observer()


@pytest.mark.parametrize("slug,attach", [
    ("l1d_recall", _attach_l1d_recall),
    ("dtlb_recall", _attach_dtlb_recall),
    ("dtlb_recall", _attach_dtlb_observer),
], ids=["l1d_recall", "dtlb_recall", "dtlb_observer"])
def test_recall_attachments_refuse_the_fast_path(slug, attach):
    """A recall tracker on the L1D, or a recall tracker or observer on
    the DTLB, sees every hit, which the fast path does not report: the
    run is refused under its slug and reads no trace window with the
    path on."""
    cfg = _cfg()
    hierarchy = MemoryHierarchy(cfg)
    attach(hierarchy)
    assert fast_path_refusal(cfg, hierarchy) == slug
    batch = OOOCore(cfg, hierarchy).run(make_trace("tc", 600,
                                                   scale=64)).batch
    assert batch.fallbacks == {slug: 1}
    assert batch.windows == 0


def test_checkers_and_tracers_refuse_the_fast_path(monkeypatch):
    from repro.obs.trace import SpanTracer, attach

    cfg = _cfg()
    traced = MemoryHierarchy(cfg)
    attach(traced, SpanTracer(sample_every=1, enabled=False))
    assert fast_path_refusal(cfg, traced) == "tracer"
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert fast_path_refusal(cfg, MemoryHierarchy(cfg)) == "checker"


HOT_METHODS = [("hierarchy", "load"), ("hierarchy", "store"),
               ("l1d", "access"), ("mmu", "translate"),
               ("dtlb", "lookup")]


def _hot_object(hierarchy, owner: str):
    return {"hierarchy": hierarchy, "l1d": hierarchy.l1d,
            "mmu": hierarchy.mmu, "dtlb": hierarchy.mmu.dtlb}[owner]


@pytest.mark.parametrize("owner,name", HOT_METHODS,
                         ids=[f"{o}.{n}" for o, n in HOT_METHODS])
def test_an_instance_patched_hot_method_is_refused(owner, name):
    """A wrapper on one instance's hot method refuses the fast path, as
    the oracle's and the checkers' do.  The same method bound back onto
    the instance is no patch."""
    cfg = _cfg()
    hierarchy = MemoryHierarchy(cfg)
    obj = _hot_object(hierarchy, owner)
    method = getattr(obj, name)
    setattr(obj, name, method)
    assert fast_path_refusal(cfg, hierarchy) is None

    def wrapper(*args, **kwargs):
        return method(*args, **kwargs)
    setattr(obj, name, wrapper)
    assert fast_path_refusal(cfg, hierarchy) == "instance_patch"


def test_a_class_level_wrapper_keeps_the_fast_path(monkeypatch):
    """perfbench wraps the hot methods on their classes; the fast path
    stays on under those wrappers."""
    from repro.cache.cache import Cache
    from repro.vm.mmu import MMU
    from repro.vm.tlb import TLB

    for cls, name in ((MemoryHierarchy, "load"), (MemoryHierarchy, "store"),
                      (Cache, "access"), (MMU, "translate"),
                      (TLB, "lookup")):
        original = getattr(cls, name)
        monkeypatch.setattr(
            cls, name,
            lambda self, *args, _fn=original, **kw: _fn(self, *args, **kw))
    cfg = _cfg()
    hierarchy = MemoryHierarchy(cfg)
    assert fast_path_refusal(cfg, hierarchy) is None
    result = OOOCore(cfg, hierarchy).run(make_trace("tc", 2000, scale=64))
    assert result.batch.fast_hits > 0


def test_the_refusal_probe_reads_no_instance_dict():
    """Deciding on the fast path, and which policy hooks to skip, reads
    no hot object's ``__dict__``: on CPython 3.11 that read builds the
    dict, and the object's attribute reads stay slower for the rest of
    the run."""
    cfg = _cfg()
    hierarchy = MemoryHierarchy(cfg)
    # The policies too: each level's run-start hook probe reads them.
    for obj in [_hot_object(hierarchy, owner)
                for owner in ("hierarchy", "l1d", "mmu", "dtlb")] + [
                    level.policy for level in (hierarchy.l1d, hierarchy.l2c,
                                               hierarchy.llc)]:
        cls = type(obj)

        def __getattribute__(self, name, _cls=cls):
            if name == "__dict__":
                raise RuntimeError(f"{_cls.__name__}.__dict__ was read")
            return object.__getattribute__(self, name)
        obj.__class__ = type(cls.__name__, (cls,),
                             {"__getattribute__": __getattribute__})
    result = OOOCore(cfg, hierarchy).run(make_trace("pr", 3000, scale=64),
                                         warmup=500)
    assert result.batch.fallbacks == {}
    assert result.batch.fast_hits > 0
