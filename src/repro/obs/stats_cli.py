"""`python -m repro stats` -- summarise, validate and diff exports.

One path renders it; two paths diff their end-of-run summaries (both must
be ``run`` exports).  ``--validate`` checks documents against the schema
and exits non-zero on problems; ``--csv`` additionally writes the interval
time-series of a run export as CSV.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from repro.obs import export
from repro.stats.report import format_table


def _fmt_rate(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def render_run(doc: Dict) -> str:
    m = doc["manifest"]
    out: List[str] = []
    enh = [k for k, v in m.get("enhancements", {}).items() if v]
    sim = m.get("simulated", {})
    wall = m.get("wall_time", {})
    out.append(f"benchmark      : {m['benchmark']} (seed {m['seed']}, "
               f"scale {m['scale']})")
    out.append(f"config         : {m['config_hash'][:12]}  "
               f"enhancements: {'+'.join(enh) or 'none'}")
    out.append(f"run            : {m['instructions']} instructions "
               f"(+{m['warmup']} warmup), sampled every "
               f"{m['sample_interval']}")
    if sim:
        out.append(f"simulated      : {sim['cycles']} cycles, "
                   f"IPC {sim['ipc']:.4f}, {sim.get('walks', 0)} walks")
    if wall:
        phases = ", ".join(f"{k} {v:.2f}s" for k, v in sorted(wall.items())
                           if k != "total")
        out.append(f"wall time      : {wall.get('total', 0.0):.2f}s "
                   f"({phases})")
    out.append("")

    headers = ["#", "instrs", "cycles", "IPC", "STLB hit", "PSC hit",
               "L2C hit", "LLC hit", "walks", "stall T", "stall R",
               "stall NR"]
    rows = []
    for iv in doc["intervals"]:
        rows.append([
            iv["index"], iv["instructions"],
            iv["cycle_end"] - iv["cycle_start"], f"{iv['ipc']:.3f}",
            _fmt_rate(iv["tlb"]["stlb"]["hit_rate"]),
            _fmt_rate(iv["psc"]["hit_rate"]),
            _fmt_rate(iv["levels"]["l2c"]["hit_rate"]),
            _fmt_rate(iv["levels"]["llc"]["hit_rate"]),
            iv["walks"]["walks"], iv["stalls"]["translation"],
            iv["stalls"]["replay"], iv["stalls"]["non_replay"]])
    out.append(format_table(
        f"[{m['benchmark']}] interval time-series "
        f"({len(doc['intervals'])} intervals)", headers, rows))

    summary = doc.get("summary") or {}
    if summary:
        out.append("")
        out.append(format_table(
            "end-of-run summary", ["metric", "value"],
            [[k, f"{v:.4f}" if isinstance(v, float) else v]
             for k, v in summary.items()]))
    return "\n".join(out)


def render_batch(doc: Dict) -> str:
    m = doc["manifest"]
    events = doc["events"]
    out = [f"figures        : {' '.join(m['figures'])}"]
    runner = m.get("runner", {})
    if runner:
        out.append(f"jobs           : {runner['executed']} executed, "
                   f"{runner['store_hits']} from store, "
                   f"{runner['dedup_hits']} deduped, "
                   f"{runner['requeues']} requeued, "
                   f"{runner['failures']} failed")
    out.append(f"simulated wall : "
               f"{sum(e['wall_time'] for e in events):.1f}s")
    rows = [[e["done"], e["benchmark"], e["config"], e["source"],
             f"{e['wall_time']:.2f}s"] for e in events]
    out.append("")
    out.append(format_table(
        f"points ({len(rows)} events)",
        ["#", "benchmark", "config", "source", "run"], rows))
    return "\n".join(out)


def render_diff(a: Dict, b: Dict) -> str:
    """Per-metric comparison of two run exports' summaries."""
    for doc in (a, b):
        if doc.get("kind") != "run":
            raise export.ExportSchemaError(
                "diff needs two 'run' exports")
    ma, mb = a["manifest"], b["manifest"]
    out = [f"A: {ma['benchmark']} cfg={ma['config_hash'][:12]} "
           f"seed={ma['seed']}",
           f"B: {mb['benchmark']} cfg={mb['config_hash'][:12]} "
           f"seed={mb['seed']}", ""]
    rows = []
    keys = sorted(set(a.get("summary", {})) | set(b.get("summary", {})))
    for key in keys:
        va = a["summary"].get(key)
        vb = b["summary"].get(key)
        if not isinstance(va, (int, float)) \
                or not isinstance(vb, (int, float)):
            continue
        delta = vb - va
        pct = f"{100.0 * delta / va:+.1f}%" if va else "n/a"
        rows.append([key, f"{va:.4f}", f"{vb:.4f}", f"{delta:+.4f}", pct])
    rows.append(["intervals", len(a["intervals"]), len(b["intervals"]),
                 len(b["intervals"]) - len(a["intervals"]), ""])
    out.append(format_table("summary diff (B vs A)",
                            ["metric", "A", "B", "delta", "%"], rows))
    return "\n".join(out)


def cmd_stats(args) -> int:
    """Entry point for the ``stats`` subcommand."""
    docs = []
    for path in args.paths:
        try:
            docs.append(export.load(path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.validate:
        failed = False
        for path, doc in zip(args.paths, docs):
            errors = export.validate(doc)
            if errors:
                failed = True
                print(f"{path}: INVALID", file=sys.stderr)
                for error in errors:
                    print(f"  - {error}", file=sys.stderr)
            else:
                print(f"{path}: OK ({doc['kind']} export, schema "
                      f"{doc['schema']})")
        if failed:
            return 1

    if args.csv:
        if docs[0].get("kind") != "run":
            print("error: --csv needs a 'run' export", file=sys.stderr)
            return 2
        export.export_csv(args.csv, docs[0]["intervals"])
        print(f"wrote {args.csv} ({len(docs[0]['intervals'])} intervals)")

    if args.validate:
        return 0
    if len(docs) == 1:
        doc = docs[0]
        print(render_run(doc) if doc["kind"] == "run"
              else render_batch(doc))
    else:
        try:
            print(render_diff(docs[0], docs[1]))
        except export.ExportSchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0
