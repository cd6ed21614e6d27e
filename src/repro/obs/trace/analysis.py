"""Latency-breakdown and critical-path analyses over trace documents.

Consumes ``repro.obs/trace-v1`` dicts (see
:mod:`repro.obs.trace.export`) and produces the per-request evidence the
aggregate counters cannot: where each category of span spends its
cycles, which PCs and pages dominate walk/replay traffic, how walk
depth correlates with the level that served the leaf PTE, and -- for a
single request -- the chain of spans that determined its completion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.params import PAGE_SHIFT
from repro.stats.report import format_table

#: Span names that represent component probes (vs. structural phases).
_COMPONENT_NAMES = ("L1D", "L2C", "LLC", "DRAM")


class TraceIndex:
    """Id/parent/root indexes over a trace document's span list."""

    def __init__(self, doc: Dict):
        self.doc = doc
        self.spans: List[Dict] = doc["spans"]
        self.by_id: Dict[int, Dict] = {s["id"]: s for s in self.spans}
        self.children: Dict[int, List[Dict]] = {}
        self.roots: List[Dict] = []
        for span in self.spans:
            parent = span["parent"]
            if parent is None:
                self.roots.append(span)
            else:
                self.children.setdefault(parent, []).append(span)
        self.roots.sort(key=lambda s: (s["start"], s["id"]))

    def children_of(self, span_id: int) -> List[Dict]:
        return sorted(self.children.get(span_id, []),
                      key=lambda s: (s["start"], s["id"]))

    def named_child(self, span_id: int, name: str) -> Optional[Dict]:
        for child in self.children.get(span_id, ()):
            if child["name"] == name:
                return child
        return None


def _stats(durations: List[int]) -> Dict[str, float]:
    if not durations:
        return {"count": 0, "total": 0, "mean": 0.0, "p50": 0, "p95": 0,
                "max": 0}
    ordered = sorted(durations)
    n = len(ordered)
    return {
        "count": n,
        "total": sum(ordered),
        "mean": sum(ordered) / n,
        "p50": ordered[n // 2],
        "p95": ordered[min(n - 1, (95 * n) // 100)],
        "max": ordered[-1],
    }


def latency_breakdown(doc: Dict) -> Dict[str, Dict[str, float]]:
    """Per-span-name duration statistics (count/total/mean/p50/p95/max)."""
    buckets: Dict[str, List[int]] = {}
    for span in doc["spans"]:
        buckets.setdefault(span["name"], []).append(
            span["end"] - span["start"])
    return {name: _stats(durs) for name, durs in sorted(buckets.items())}


def category_breakdown(doc: Dict) -> Dict[str, Dict[str, float]]:
    """Duration statistics of component probes, bucketed by category
    (``translation`` / ``replay`` / ``non_replay`` / ``prefetch`` / ...)."""
    buckets: Dict[str, List[int]] = {}
    for span in doc["spans"]:
        if span["name"] not in _COMPONENT_NAMES:
            continue
        cat = span["cat"] or "other"
        buckets.setdefault(cat, []).append(span["end"] - span["start"])
    return {cat: _stats(durs) for cat, durs in sorted(buckets.items())}


def hotspots(doc: Dict, top: int = 10) -> Dict[str, List[Dict]]:
    """Per-PC and per-page hotspot tables over request root spans.

    ``by_ip`` rows: requests, replays, walks, total/mean request cycles.
    ``by_page`` rows: the same, keyed on the virtual page number.
    """
    index = TraceIndex(doc)

    def accumulate(key_of) -> List[Dict]:
        acc: Dict[int, Dict] = {}
        for root in index.roots:
            key = key_of(root)
            if key is None:
                continue
            row = acc.setdefault(key, {
                "requests": 0, "replays": 0, "walks": 0, "cycles": 0})
            row["requests"] += 1
            row["cycles"] += root["end"] - root["start"]
            if root["cat"] == "replay":
                row["replays"] += 1
            translate = index.named_child(root["id"], "translate")
            if translate is not None \
                    and index.named_child(translate["id"], "walk") is not None:
                row["walks"] += 1
        rows = [dict(row, key=key,
                     mean_cycles=row["cycles"] / row["requests"])
                for key, row in acc.items()]
        rows.sort(key=lambda r: (-r["cycles"], r["key"]))
        return rows[:top]

    return {
        "by_ip": accumulate(lambda r: r["args"].get("ip")),
        "by_page": accumulate(
            lambda r: (r["args"]["vaddr"] >> PAGE_SHIFT)
            if "vaddr" in r["args"] else None),
    }


def walk_hit_matrix(doc: Dict) -> Dict[str, Dict[str, int]]:
    """Walk depth x leaf-hit-level counts.

    Rows are ``levels_walked`` (how many PTE reads the walk issued after
    PSC filtering); columns are the component that served the leaf PTE.
    The paper's T-* enhancements shift mass from the DRAM column into
    L2C/LLC -- this matrix is the per-walk version of Fig 3.
    """
    matrix: Dict[str, Dict[str, int]] = {}
    for span in doc["spans"]:
        if span["name"] != "walk":
            continue
        depth = str(span["args"].get("levels_walked", "?"))
        served = span["args"].get("leaf_served_by") or "DRAM"
        row = matrix.setdefault(depth, {})
        row[served] = row.get(served, 0) + 1
    return matrix


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_RENDER_ARGS = ("served_by", "level", "leaf", "psc_hit_level",
                "levels_walked", "leaf_served_by", "row_hit", "component")


def _span_line(span: Dict, depth: int) -> str:
    bits = [f"{'  ' * depth}{span['name']}",
            f"[{span['start']}..{span['end']}]"]
    if span["cat"]:
        bits.append(span["cat"])
    detail = [f"{k}={span['args'][k]}" for k in _RENDER_ARGS
              if k in span["args"]]
    if detail:
        bits.append(" ".join(detail))
    return " ".join(bits)


def render_trace(doc: Dict, limit: Optional[int] = None) -> str:
    """Human-readable span tree, one block per request, in issue order."""
    index = TraceIndex(doc)
    out: List[str] = []
    roots = index.roots[:limit] if limit else index.roots
    for root in roots:
        args = root["args"]
        header = (f"#{args.get('seq', '?')} {root['name']} "
                  f"[{root['start']}..{root['end']}] "
                  f"{root['cat'] or 'demand'}")
        if "vaddr" in args:
            header += f" va={args['vaddr']:#x}"
        if args.get("ip"):
            header += f" ip={args['ip']:#x}"
        out.append(header)

        def walk(span_id: int, depth: int) -> None:
            for child in index.children_of(span_id):
                out.append(_span_line(child, depth))
                walk(child["id"], depth + 1)

        walk(root["id"], 1)
    if limit and len(index.roots) > limit:
        out.append(f"... {len(index.roots) - limit} more requests")
    return "\n".join(out)


def _fmt(value) -> str:
    return f"{value:.1f}" if isinstance(value, float) else str(value)


def summarize(doc: Dict) -> str:
    """The ``repro trace summary`` report: breakdowns + hotspots +
    walk matrix, as aligned text tables."""
    m = doc.get("manifest", {})
    out = [f"benchmark      : {m.get('benchmark', '?')} "
           f"(seed {m.get('seed', '?')})",
           f"config         : {str(m.get('config_hash', ''))[:12]}",
           f"requests       : {doc['requests_sampled']} sampled of "
           f"{doc['requests_seen']} (1/{doc['sample_every']}), "
           f"{doc['requests_dropped']} dropped from the ring",
           f"spans          : {len(doc['spans'])}", ""]

    headers = ["span", "count", "total", "mean", "p50", "p95", "max"]
    rows = [[name, s["count"], s["total"], _fmt(s["mean"]), s["p50"],
             s["p95"], s["max"]]
            for name, s in latency_breakdown(doc).items()]
    out.append(format_table("latency by span name (cycles)", headers, rows))

    rows = [[cat, s["count"], s["total"], _fmt(s["mean"]), s["p50"],
             s["p95"], s["max"]]
            for cat, s in category_breakdown(doc).items()]
    out.append("")
    out.append(format_table("component probes by category (cycles)",
                            ["category"] + headers[1:], rows))

    hot = hotspots(doc)
    for key, title in (("by_ip", "hottest PCs"),
                       ("by_page", "hottest pages")):
        rows = [[f"{r['key']:#x}", r["requests"], r["replays"], r["walks"],
                 r["cycles"], _fmt(r["mean_cycles"])]
                for r in hot[key]]
        out.append("")
        out.append(format_table(
            title, [key[3:], "reqs", "replays", "walks", "cycles", "mean"],
            rows))

    matrix = walk_hit_matrix(doc)
    if matrix:
        levels = sorted({served for row in matrix.values()
                         for served in row})
        rows = [[depth] + [matrix[depth].get(level, 0) for level in levels]
                for depth in sorted(matrix)]
        out.append("")
        out.append(format_table("walk depth x leaf hit level",
                                ["levels walked"] + levels, rows))
    return "\n".join(out)
