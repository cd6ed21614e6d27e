"""Tests for trace-v1 export, validation and the Perfetto conversion."""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import run_benchmark
from repro.obs.export import ExportSchemaError
from repro.obs.trace import (TRACE_SCHEMA, SpanTracer, attach, detach,
                             export_perfetto, export_trace, load_trace, perfetto_document, trace_document,
                             validate_trace, validate_trace_strict)
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va

GOLDEN = Path(__file__).parent / "data" / "trace_v1_golden.json"
RUN_KW = dict(instructions=12_000, warmup=2_000, seed=7)


def _golden_scenario_document():
    """The fixed two-load scenario the golden file was generated from."""
    hierarchy = MemoryHierarchy(default_config())
    tracer = SpanTracer()
    attach(hierarchy, tracer)
    va = make_va([1, 2, 3, 4, 5])
    hierarchy.load(va, cycle=0, ip=0x400000)
    hierarchy.load(va + 64, cycle=10_000, ip=0x400004)
    detach(hierarchy)
    return trace_document({"benchmark": "golden", "seed": 0}, tracer)


# ----------------------------------------------------------------------
# Golden file: the export layout is pinned byte-for-byte
# ----------------------------------------------------------------------
def test_golden_trace_layout_is_stable():
    doc = _golden_scenario_document()
    golden = json.loads(GOLDEN.read_text())
    assert doc == golden


def test_golden_trace_validates():
    assert validate_trace(json.loads(GOLDEN.read_text())) == []


# ----------------------------------------------------------------------
# Round-trip and schema identity
# ----------------------------------------------------------------------
def test_export_round_trip(tmp_path):
    doc = _golden_scenario_document()
    path = tmp_path / "t.json"
    export_trace(path, doc)
    assert load_trace(path) == doc


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "repro.obs/v1", "kind": "run"}))
    with pytest.raises(ExportSchemaError, match="not a repro.obs/trace-v1"):
        load_trace(path)


# ----------------------------------------------------------------------
# Validator error cases
# ----------------------------------------------------------------------
def _minimal_doc(**over):
    doc = {"schema": TRACE_SCHEMA, "kind": "trace", "manifest": {},
           "sample_every": 1, "requests_seen": 1, "requests_sampled": 1,
           "requests_dropped": 0,
           "spans": [{"id": 1, "parent": None, "name": "load", "cat": "",
                      "start": 0, "end": 5, "args": {}}]}
    doc.update(over)
    return doc


def test_validator_accepts_minimal_document():
    assert validate_trace(_minimal_doc()) == []
    assert validate_trace_strict(_minimal_doc()) is not None


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("spans"), "missing key 'spans'"),
    (lambda d: d.update(kind="run"), "kind is 'run'"),
    (lambda d: d.update(sample_every=0), "sample_every"),
    (lambda d: d["spans"][0].pop("parent"), "missing key 'parent'"),
    (lambda d: d["spans"][0].update(parent="root"), "'parent' has type"),
    (lambda d: d["spans"][0].update(end=-1), "before start"),
    (lambda d: d["spans"].append(dict(d["spans"][0])), "duplicate id"),
    (lambda d: d["spans"].append(
        {"id": 2, "parent": 99, "name": "x", "cat": "", "start": 0,
         "end": 0, "args": {}}), "parent 99 not in document"),
    (lambda d: d["spans"].append(
        {"id": 2, "parent": 1, "name": "x", "cat": "", "start": -5,
         "end": 0, "args": {}}), "before its parent"),
])
def test_validator_rejects(mutate, message):
    doc = _minimal_doc()
    mutate(doc)
    errors = validate_trace(doc)
    assert any(message in e for e in errors), errors
    with pytest.raises(ExportSchemaError):
        validate_trace_strict(doc)


# ----------------------------------------------------------------------
# Traced run exports
# ----------------------------------------------------------------------
def test_traced_run_export_validates(tmp_path):
    result = run_benchmark("pr", trace_sample=1, **RUN_KW)
    doc = result.export_trace(tmp_path / "run.json")
    assert validate_trace(doc) == []
    assert doc["requests_seen"] == result.tracer.seq
    assert doc["manifest"]["simulated"]["cycles"] == result.cycles
    assert len(doc["spans"]) == result.tracer.span_count


def test_sampled_export_keeps_groups_whole():
    result = run_benchmark("pr", trace_sample=5, **RUN_KW)
    doc = result.trace_document()
    # The structural validator enforces referential integrity, so a
    # sampled trace passing means no parent was sampled away.
    assert validate_trace(doc) == []
    assert doc["sample_every"] == 5
    assert doc["requests_sampled"] < doc["requests_seen"]
    roots = [s for s in doc["spans"] if s["parent"] is None]
    assert all(s["args"]["seq"] % 5 == 0 for s in roots)


# ----------------------------------------------------------------------
# Chrome Trace Event Format / Perfetto
# ----------------------------------------------------------------------
def test_perfetto_document_is_valid_chrome_trace_format():
    doc = _golden_scenario_document()
    perfetto = perfetto_document(doc)
    events = perfetto["traceEvents"]
    assert events, "no events emitted"
    for event in events:
        assert event["ph"] in ("X", "M", "i")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert event["dur"] > 0 and isinstance(event["ts"], int)
        elif event["ph"] == "i":
            assert event["s"] == "t"
        else:
            assert event["name"] == "thread_name"
    # Every span made it across, under its original id.
    span_ids = {e["args"]["span_id"] for e in events if e["ph"] != "M"}
    assert span_ids == {s["id"] for s in doc["spans"]}


def test_perfetto_lane_assignment():
    doc = _golden_scenario_document()
    events = perfetto_document(doc)["traceEvents"]
    # Request lanes start at 1 (lane 0 is reserved for stalls), and the
    # two non-overlapping requests share one lane.
    lanes = {e["tid"] for e in events if e["ph"] != "M"}
    assert lanes == {1}
    named = {e["tid"] for e in events if e["ph"] == "M"}
    assert 0 in named  # the stall lane is always declared


def test_perfetto_concurrent_requests_get_distinct_lanes():
    result = run_benchmark("pr", trace_sample=1, **RUN_KW)
    doc = result.trace_document()
    events = perfetto_document(doc)["traceEvents"]
    lanes = {e["tid"] for e in events if e["ph"] != "M"}
    assert len(lanes) > 2  # overlapping lifecycles forced extra lanes
    stall_lanes = {e["tid"] for e in events
                   if e["ph"] != "M" and e["name"] == "stall"}
    assert stall_lanes == {0}


def test_export_perfetto_round_trip(tmp_path):
    doc = _golden_scenario_document()
    path = tmp_path / "p.json"
    export_perfetto(path, doc)
    loaded = json.loads(path.read_text())
    assert loaded == perfetto_document(doc)
    assert loaded["otherData"]["schema"] == TRACE_SCHEMA
