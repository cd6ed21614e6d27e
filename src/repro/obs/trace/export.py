"""``repro.obs/trace-v1`` documents: build, validate, load, convert.

A trace document is a flat span list plus the run manifest::

    {"schema": "repro.obs/trace-v1", "kind": "trace",
     "manifest": {...},                 # same manifest as repro.obs/v2
     "sample_every": N,                 # 1-in-N request sampling
     "requests_seen": .., "requests_sampled": .., "requests_dropped": ..,
     "spans": [{"id", "parent", "name", "cat", "start", "end", "args"}]}

Spans appear in completion order (children before their parent within a
request group); consumers reconstruct the tree from ``parent`` links.
:func:`validate_trace` is the dependency-free structural validator
(the container has no ``jsonschema``); :func:`perfetto_document`
converts a trace into Chrome Trace Event Format JSON that loads
directly in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.export import ExportSchemaError, export_json
from repro.obs.trace.spans import SpanTracer

#: Trace export identifier; bump on breaking layout changes.
TRACE_SCHEMA = "repro.obs/trace-v1"

#: Perfetto lane reserved for head-of-ROB stall spans.
_STALL_LANE = 0


def trace_document(manifest: Dict, tracer: SpanTracer) -> Dict:
    """Assemble the ``trace-v1`` document for one traced run."""
    return {
        "schema": TRACE_SCHEMA,
        "kind": "trace",
        "manifest": manifest,
        "sample_every": tracer.sample_every,
        "requests_seen": tracer.seq,
        "requests_sampled": tracer.sampled_requests,
        "requests_dropped": tracer.dropped_requests,
        "spans": [span.to_dict() for span in tracer.iter_spans()],
    }


def export_trace(path, doc: Dict) -> Dict:
    """Validate ``doc`` and write it as JSON; returns the document."""
    validate_trace_strict(doc)
    export_json(path, doc)
    return doc


def load_trace(path) -> Dict:
    """Read a trace export and check its schema identity."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
        got = doc.get("schema") if isinstance(doc, dict) else None
        raise ExportSchemaError(
            f"{path}: not a {TRACE_SCHEMA} export (schema={got!r})")
    return doc


# ----------------------------------------------------------------------
# Structural validation
# ----------------------------------------------------------------------
_DOC_KEYS = {
    "manifest": dict, "sample_every": int, "requests_seen": int,
    "requests_sampled": int, "requests_dropped": int, "spans": list,
}
_SPAN_KEYS = {
    "id": int, "name": str, "cat": str, "start": int, "end": int,
    "args": dict,
}


def validate_trace(doc: Dict) -> List[str]:
    """Structurally validate a trace export; returns a problem list."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != TRACE_SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, "
                      f"expected {TRACE_SCHEMA!r}")
    if doc.get("kind") != "trace":
        errors.append(f"kind is {doc.get('kind')!r}, expected 'trace'")
    for key, types in _DOC_KEYS.items():
        if key not in doc:
            errors.append(f"missing key {key!r}")
        elif not isinstance(doc[key], types):
            errors.append(f"{key!r} has type {type(doc[key]).__name__}")
    if isinstance(doc.get("sample_every"), int) and doc["sample_every"] < 1:
        errors.append("sample_every must be >= 1")
    spans = doc.get("spans")
    if not isinstance(spans, list):
        return errors
    ids: Dict[int, Dict] = {}
    for i, span in enumerate(spans):
        where = f"spans[{i}]"
        if not isinstance(span, dict):
            errors.append(f"{where}: not an object")
            continue
        for key, types in _SPAN_KEYS.items():
            if key not in span:
                errors.append(f"{where}: missing key {key!r}")
            elif not isinstance(span[key], types):
                errors.append(f"{where}: {key!r} has type "
                              f"{type(span[key]).__name__}")
        parent = span.get("parent", "absent")
        if parent == "absent":
            errors.append(f"{where}: missing key 'parent'")
        elif parent is not None and not isinstance(parent, int):
            errors.append(f"{where}: 'parent' has type "
                          f"{type(parent).__name__}")
        sid = span.get("id")
        if isinstance(sid, int):
            if sid in ids:
                errors.append(f"{where}: duplicate id {sid}")
            else:
                ids[sid] = span
        if isinstance(span.get("start"), int) \
                and isinstance(span.get("end"), int) \
                and span["end"] < span["start"]:
            errors.append(f"{where}: end {span['end']} before start "
                          f"{span['start']}")
    # Referential pass: every parent must exist (sampling keeps request
    # groups whole) and a child cannot begin before its parent did.
    for i, span in enumerate(spans):
        if not isinstance(span, dict):
            continue
        parent = span.get("parent")
        if parent is None or not isinstance(parent, int):
            continue
        ps = ids.get(parent)
        if ps is None:
            errors.append(f"spans[{i}]: parent {parent} not in document")
        elif isinstance(span.get("start"), int) \
                and isinstance(ps.get("start"), int) \
                and span["start"] < ps["start"]:
            errors.append(f"spans[{i}]: starts at {span['start']}, before "
                          f"its parent ({ps['start']})")
    return errors


def validate_trace_strict(doc: Dict) -> Dict:
    """Raise :class:`ExportSchemaError` on the first problem."""
    errors = validate_trace(doc)
    if errors:
        raise ExportSchemaError("; ".join(errors[:5]))
    return doc


# ----------------------------------------------------------------------
# Chrome Trace Event Format / Perfetto
# ----------------------------------------------------------------------
def _roots_of(spans: List[Dict]) -> Dict[int, Dict]:
    """Map every span id to its request's root span."""
    by_id = {s["id"]: s for s in spans}
    roots: Dict[int, Dict] = {}

    def resolve(span: Dict) -> Dict:
        chain = []
        while span["parent"] is not None and span["id"] not in roots:
            chain.append(span)
            span = by_id[span["parent"]]
        root = roots.get(span["id"], span)
        for s in chain:
            roots[s["id"]] = root
        roots[root["id"]] = root
        return root

    for span in spans:
        resolve(span)
    return roots


def perfetto_document(doc: Dict) -> Dict:
    """Convert a trace-v1 document into Chrome Trace Event Format.

    Each request group gets a timeline lane (``tid``); concurrent
    requests land on different lanes (greedy interval colouring) so
    overlapping lifecycles render side by side.  Head-of-ROB stall
    spans share one dedicated lane.  One simulated cycle maps to one
    microsecond of trace time (``ts``/``dur`` are in us in the format).
    """
    spans = doc["spans"]
    roots = _roots_of(spans)
    # Assign lanes to roots in start order; a lane is reusable once its
    # previous occupant's subtree has fully completed.
    subtree_end: Dict[int, int] = {}
    for span in spans:
        rid = roots[span["id"]]["id"]
        subtree_end[rid] = max(subtree_end.get(rid, 0), span["end"])
    lane_of: Dict[int, int] = {}
    lane_free: List[int] = []  # lane index -> free-at cycle
    ordered = sorted({r["id"]: r for r in roots.values()}.values(),
                     key=lambda r: (r["start"], r["id"]))
    for root in ordered:
        for lane, free_at in enumerate(lane_free):
            if free_at <= root["start"]:
                lane_free[lane] = subtree_end[root["id"]]
                lane_of[root["id"]] = lane + 1  # lane 0 is the stall lane
                break
        else:
            lane_free.append(subtree_end[root["id"]])
            lane_of[root["id"]] = len(lane_free)

    events: List[Dict] = [
        {"ph": "M", "pid": 0, "tid": _STALL_LANE, "name": "thread_name",
         "args": {"name": "head-of-ROB stalls"}},
    ]
    for lane in range(1, len(lane_free) + 1):
        events.append({"ph": "M", "pid": 0, "tid": lane,
                       "name": "thread_name",
                       "args": {"name": f"requests (lane {lane})"}})
    for span in spans:
        is_stall = span["name"] == "stall"
        tid = _STALL_LANE if is_stall \
            else lane_of[roots[span["id"]]["id"]]
        args = dict(span["args"], span_id=span["id"])
        if span["parent"] is not None:
            args["parent"] = span["parent"]
        if span["end"] > span["start"]:
            events.append({"name": span["name"], "cat": span["cat"] or "sim",
                           "ph": "X", "ts": span["start"],
                           "dur": span["end"] - span["start"],
                           "pid": 0, "tid": tid, "args": args})
        else:
            events.append({"name": span["name"], "cat": span["cat"] or "sim",
                           "ph": "i", "s": "t", "ts": span["start"],
                           "pid": 0, "tid": tid, "args": args})
    events.sort(key=lambda e: (e.get("ts", -1), e["tid"]))
    manifest = doc.get("manifest", {})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "benchmark": manifest.get("benchmark"),
            "config_hash": manifest.get("config_hash"),
            "sample_every": doc.get("sample_every"),
        },
    }


def export_perfetto(path, doc: Dict) -> None:
    """Write the Perfetto/Chrome JSON conversion of a trace document."""
    with open(path, "w") as f:
        json.dump(perfetto_document(doc), f, indent=None,
                  separators=(",", ":"), sort_keys=True)
        f.write("\n")
