"""Machine-readable exporters for observed runs and figure batches.

Two document kinds share the ``repro.obs/v2`` schema:

* ``run``   -- manifest + interval time-series + end-of-run summary
  (produced by ``python -m repro run ... --metrics out.json``);
* ``batch`` -- batch manifest + the point events of a figure batch's
  jobs (produced by ``python -m repro figure ... --metrics out.json``).

:func:`validate` is a dependency-free structural validator (the container
has no ``jsonschema``); it returns a list of human-readable problems, empty
when the document conforms.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List, Optional

from repro.obs.manifest import SCHEMA


class ExportSchemaError(ValueError):
    """An export document does not conform to the repro.obs schema."""


def run_document(manifest: Dict, intervals: List[Dict],
                 summary: Optional[Dict] = None) -> Dict:
    return {"schema": SCHEMA, "kind": "run", "manifest": manifest,
            "intervals": intervals, "summary": summary or {}}


def batch_document(manifest: Dict, events: List[Dict]) -> Dict:
    return {"schema": SCHEMA, "kind": "batch", "manifest": manifest,
            "events": events}


def export_json(path, doc: Dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load(path) -> Dict:
    """Read an export and check its schema identity."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ExportSchemaError(
            f"{path}: not a {SCHEMA} export "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})")
    return doc


# ----------------------------------------------------------------------
# Structural validation
# ----------------------------------------------------------------------
_RUN_MANIFEST_KEYS = {
    "benchmark": str, "config_hash": str, "seed": int, "instructions": int,
    "warmup": int, "scale": int, "enhancements": dict, "geometry": dict,
    "version": str, "created_unix": (int, float),
}
_INTERVAL_KEYS = {
    "index": int, "instructions": int, "cycle_start": int, "cycle_end": int,
    "ipc": (int, float), "levels": dict, "rrpv": dict,
    "occupancy": dict, "tlb": dict, "psc": dict, "dram": dict,
    "walks": dict, "stalls": dict,
}
_EVENT_KEYS = {
    "done": int, "total": int, "benchmark": str, "source": str,
    "wall_time": (int, float),
}


def _check_keys(obj: Dict, spec: Dict, where: str, errors: List[str]) -> None:
    for key, types in spec.items():
        if key not in obj:
            errors.append(f"{where}: missing key {key!r}")
        elif not isinstance(obj[key], types):
            errors.append(f"{where}: {key!r} has type "
                          f"{type(obj[key]).__name__}")


def validate(doc: Dict) -> List[str]:
    """Structurally validate an export; returns a list of problems."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    kind = doc.get("kind")
    if kind == "run":
        _validate_run(doc, errors)
    elif kind == "batch":
        _validate_batch(doc, errors)
    else:
        errors.append(f"kind is {kind!r}, expected 'run' or 'batch'")
    return errors


def _validate_run(doc: Dict, errors: List[str]) -> None:
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        errors.append("manifest missing or not an object")
    else:
        _check_keys(manifest, _RUN_MANIFEST_KEYS, "manifest", errors)
    intervals = doc.get("intervals")
    if not isinstance(intervals, list):
        errors.append("intervals missing or not a list")
        return
    prev_end = None
    for i, interval in enumerate(intervals):
        where = f"intervals[{i}]"
        if not isinstance(interval, dict):
            errors.append(f"{where}: not an object")
            continue
        _check_keys(interval, _INTERVAL_KEYS, where, errors)
        if interval.get("index") != i:
            errors.append(f"{where}: index {interval.get('index')!r} != {i}")
        if isinstance(interval.get("instructions"), int) \
                and interval["instructions"] <= 0:
            errors.append(f"{where}: empty interval")
        end = interval.get("cycle_end")
        if prev_end is not None and isinstance(end, int) and end < prev_end:
            errors.append(f"{where}: cycle_end {end} goes backwards")
        if isinstance(end, int):
            prev_end = end
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("summary missing or not an object")


def _validate_batch(doc: Dict, errors: List[str]) -> None:
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        errors.append("manifest missing or not an object")
    elif "figures" not in manifest:
        errors.append("manifest: missing key 'figures'")
    events = doc.get("events")
    if not isinstance(events, list):
        errors.append("events missing or not a list")
        return
    for i, event in enumerate(events):
        where = f"events[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        _check_keys(event, _EVENT_KEYS, where, errors)


def validate_strict(doc: Dict) -> Dict:
    """Raise :class:`ExportSchemaError` on the first problem."""
    errors = validate(doc)
    if errors:
        raise ExportSchemaError("; ".join(errors[:5]))
    return doc


# ----------------------------------------------------------------------
# CSV (one row per interval, flattened headline columns)
# ----------------------------------------------------------------------
#: Flattened per-interval columns exported to CSV (a stable, headline
#: subset of the JSON record; the JSON remains the complete export).
CSV_COLUMNS = [
    "index", "instructions", "cycle_start", "cycle_end", "ipc",
    "l1d_hit_rate", "l2c_hit_rate", "llc_hit_rate",
    "l2c_leaf_misses", "llc_leaf_misses",
    "dtlb_hit_rate", "stlb_hit_rate", "psc_hit_rate",
    "walks", "walk_cycles", "dram_accesses",
    "stall_translation", "stall_replay", "stall_non_replay",
]


def _flatten(interval: Dict) -> Dict:
    row = {key: interval[key] for key in
           ("index", "instructions", "cycle_start", "cycle_end", "ipc")}
    for level in ("l1d", "l2c", "llc"):
        row[f"{level}_hit_rate"] = interval["levels"][level]["hit_rate"]
    for level in ("l2c", "llc"):
        row[f"{level}_leaf_misses"] = interval["levels"][level]["leaf_misses"]
    for tlb in ("dtlb", "stlb"):
        row[f"{tlb}_hit_rate"] = interval["tlb"][tlb]["hit_rate"]
    row["psc_hit_rate"] = interval["psc"]["hit_rate"]
    row["walks"] = interval["walks"]["walks"]
    row["walk_cycles"] = interval["walks"]["walk_cycles"]
    row["dram_accesses"] = interval["dram"]["accesses"]
    for cat in ("translation", "replay", "non_replay"):
        row[f"stall_{cat}"] = interval["stalls"][cat]
    return row


def export_csv(path, intervals: List[Dict]) -> None:
    """Write the flattened interval time-series as CSV."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for interval in intervals:
            writer.writerow(_flatten(interval))
