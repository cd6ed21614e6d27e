"""Tests for the request span tracer (`repro.obs.trace`).

Covers the tentpole guarantees: zero overhead when off (no wrapper
objects, bit-identical timing), correct lifecycle nesting for a cold
walk, request-granular sampling and ring bounding, stall attribution,
and same-seed determinism.
"""

import pytest

from repro.experiments.runner import run_benchmark
from repro.obs.trace import (DEFAULT_RING_CAPACITY, SpanTracer, attach,
                             detach)
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va

RUN_KW = dict(instructions=12_000, warmup=2_000, seed=7)


# ----------------------------------------------------------------------
# Zero overhead when off
# ----------------------------------------------------------------------
def test_tracing_off_by_default():
    hierarchy = MemoryHierarchy(default_config())
    assert hierarchy.tracer is None
    assert hierarchy.mmu.tracer is None
    assert hierarchy.mmu.walker.tracer is None
    assert hierarchy.dram.tracer is None
    for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
        assert cache.mshr.tracer is None
        # No per-access wrapper objects: `access` is the plain class
        # method, not an instance attribute closure.
        assert "access" not in cache.__dict__

    result = run_benchmark("pr", **RUN_KW)
    assert result.tracer is None
    for cache in (result.hierarchy.l1d, result.hierarchy.l2c,
                  result.hierarchy.llc):
        assert "access" not in cache.__dict__


def test_traced_run_timing_is_bit_identical():
    base = run_benchmark("pr", **RUN_KW)
    traced = run_benchmark("pr", trace_sample=1, **RUN_KW)
    assert traced.cycles == base.cycles
    assert traced.summary() == base.summary()


# ----------------------------------------------------------------------
# Attach / detach
# ----------------------------------------------------------------------
def test_attach_detach_restores_everything():
    hierarchy = MemoryHierarchy(default_config())
    tracer = SpanTracer()
    attach(hierarchy, tracer)
    assert hierarchy.tracer is tracer
    assert hierarchy.mmu.tracer is tracer
    assert "access" in hierarchy.l1d.__dict__  # wrapped while attached
    with pytest.raises(RuntimeError, match="already attached"):
        attach(hierarchy, SpanTracer())
    detach(hierarchy)
    assert hierarchy.tracer is None
    assert hierarchy.mmu.tracer is None
    assert hierarchy.mmu.walker.tracer is None
    assert hierarchy.dram.tracer is None
    for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
        assert "access" not in cache.__dict__
        assert cache.mshr.tracer is None


# ----------------------------------------------------------------------
# Lifecycle nesting
# ----------------------------------------------------------------------
def test_cold_load_nests_full_walk():
    hierarchy = MemoryHierarchy(default_config())
    tracer = SpanTracer()
    attach(hierarchy, tracer)
    res = hierarchy.load(make_va([1, 2, 3, 4, 5]), cycle=0)

    (group,) = list(tracer.requests)
    by_name = {}
    for span in group:
        by_name.setdefault(span.name, []).append(span)

    root = group[-1]
    assert root.name == "load" and root.parent is None
    assert root.cat == "replay" and res.is_replay
    assert root.args["seq"] == 0

    # translate -> walk -> pte_L5..pte_L1, each nested in the previous.
    (translate,) = by_name["translate"]
    assert translate.parent == root.id
    (walk,) = by_name["walk"]
    assert walk.parent == translate.id
    ptes = sorted((s for name, spans in by_name.items()
                   if name.startswith("pte_L") for s in spans),
                  key=lambda s: s.start)
    assert [s.name for s in ptes] == [f"pte_L{l}" for l in (5, 4, 3, 2, 1)]
    assert all(s.parent == walk.id for s in ptes)
    # The leaf level is tagged, with the level that served it recorded.
    assert ptes[-1].args["leaf"] is True
    assert all(s.args["leaf"] is False for s in ptes[:-1])
    assert walk.args["leaf_served_by"] == ptes[-1].args["served_by"]
    assert walk.args["levels_walked"] == 5

    # Each PTE read probes the hierarchy: L1D spans nest under pte_L*.
    pte_ids = {s.id for s in ptes}
    l1d_under_walk = [s for s in by_name["L1D"] if s.parent in pte_ids]
    assert len(l1d_under_walk) == 5

    # The data phase: data -> L1D -> ... -> DRAM (cold miss).
    (data,) = by_name["data"]
    assert data.parent == root.id
    assert data.args["served_by"] == "DRAM" == res.data_served_by
    dram = by_name["DRAM"]
    assert any(s.cat == "replay" for s in dram)
    detach(hierarchy)


def test_warm_load_has_no_walk():
    hierarchy = MemoryHierarchy(default_config())
    tracer = SpanTracer()
    attach(hierarchy, tracer)
    va = make_va([1, 2, 3, 4, 5])
    hierarchy.load(va, cycle=0)
    hierarchy.load(va + 8, cycle=10_000)
    warm = list(tracer.requests)[1]
    names = {s.name for s in warm}
    assert "walk" not in names
    root = warm[-1]
    assert root.cat == "non_replay"
    detach(hierarchy)


# ----------------------------------------------------------------------
# Sampling and the ring
# ----------------------------------------------------------------------
def test_sampling_is_request_granular():
    hierarchy = MemoryHierarchy(default_config())
    tracer = SpanTracer(sample_every=3)
    attach(hierarchy, tracer)
    for i in range(7):
        hierarchy.load(make_va([1, 2, 3, 4, i]), cycle=i * 10_000)
    assert tracer.seq == 7
    assert tracer.sampled_requests == 3
    seqs = [group[-1].args["seq"] for group in tracer.requests]
    assert seqs == [0, 3, 6]
    # Sampled groups stay whole: every parent id resolves in-group.
    for group in tracer.requests:
        ids = {s.id for s in group}
        assert all(s.parent in ids for s in group if s.parent is not None)
    detach(hierarchy)


def test_ring_bounds_memory_and_counts_drops():
    hierarchy = MemoryHierarchy(default_config())
    tracer = SpanTracer(max_requests=4)
    attach(hierarchy, tracer)
    for i in range(10):
        hierarchy.load(make_va([1, 2, 3, 4, i % 3]), cycle=i * 1_000)
    assert len(tracer.requests) == 4
    assert tracer.dropped_requests == 6
    assert tracer.sampled_requests == 10
    # The ring keeps the newest groups.
    seqs = [group[-1].args["seq"] for group in tracer.requests]
    assert seqs == [6, 7, 8, 9]
    detach(hierarchy)


def test_tracer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SpanTracer(sample_every=0)
    with pytest.raises(ValueError):
        SpanTracer(max_requests=0)
    assert DEFAULT_RING_CAPACITY >= 10_000


# ----------------------------------------------------------------------
# Core integration: ROI gating and stall spans
# ----------------------------------------------------------------------
def test_traced_run_covers_roi_only():
    result = run_benchmark("pr", trace_sample=1, **RUN_KW)
    tracer = result.tracer
    # Only ROI memory accesses are numbered: warmup requests are neither
    # counted nor recorded (the core enables the tracer at the boundary).
    h = result.hierarchy
    assert tracer.seq == h.loads + h.stores
    assert tracer.sampled_requests == tracer.seq


def test_stall_spans_match_stall_accounting():
    from repro.core.rob import StallCategory
    result = run_benchmark("pr", trace_sample=1, **RUN_KW)
    totals = {"translation": 0, "replay": 0, "non_replay": 0}
    for group in result.tracer.requests:
        (root_id,) = [s.id for s in group if s.parent is None]
        for span in group:
            if span.name == "stall":
                assert span.parent == root_id
                totals[span.cat] += span.end - span.start
    # Load-side stall cycles agree exactly with StallAccounting; the
    # remainder (other-instruction stalls) has no request to attach to.
    stalls = result.core.stalls
    assert totals["translation"] == stalls.total(StallCategory.TRANSLATION)
    assert totals["replay"] == stalls.total(StallCategory.REPLAY)
    assert totals["non_replay"] <= stalls.total(StallCategory.NON_REPLAY)
    assert totals["replay"] > 0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_seed_traces_identically():
    a = run_benchmark("pr", trace_sample=2, **RUN_KW)
    b = run_benchmark("pr", trace_sample=2, **RUN_KW)
    spans_a = [s.to_dict() for s in a.tracer.iter_spans()]
    spans_b = [s.to_dict() for s in b.tracer.iter_spans()]
    assert spans_a == spans_b


def test_dram_spans_report_their_own_row_hits():
    """A DRAM span's ``row_hit`` is its own access's.  On ``pr``/full
    TEMPO prefetches from inside a leaf translation's DRAM access, and
    that prefetch may hit a row itself; still the spans that say
    ``row_hit`` number exactly ``dram.row_hits``."""
    from repro import api

    result = api.run("pr", enhancements="full", seed=1,
                     instructions=20_000, warmup=0, trace_sample=1)
    spans = [s for s in result.tracer.iter_spans() if s.name == "DRAM"]
    dram = result.hierarchy.dram
    assert len(spans) == dram.accesses
    assert result.hierarchy.tempo.triggered > 0
    assert sum(1 for s in spans if s.args["row_hit"]) == dram.row_hits
