"""How the sweep service turns a figure, trace or sweep spec into work.

These jobs store their payloads under a digest of the spec alone, not
of the resolved config as ``run`` and ``scenario`` jobs do, so the code
that maps such a spec onto a harness, a traced run or a list of runs
lives here, inside the store's code fingerprint: editing it
invalidates their payloads.  The service only dispatches.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List


def run_config(params: Dict, scale: int):
    """The full SimConfig a ``run``/``trace`` spec describes; a
    sub-config in ``config`` may be a dict of just its changed fields."""
    from repro.api import build_config
    cfg = build_config(scale, enhancements=params.get("enhancements"))
    overrides = {
        name: dataclasses.replace(getattr(cfg, name), **value)
        if isinstance(value, dict) else value
        for name, value in (params.get("config") or {}).items()}
    if overrides:
        cfg = cfg.with_(**overrides)
    if params.get("backend"):
        cfg = cfg.with_(backend=params["backend"])
    return cfg


def sweep_runs(params: Dict) -> List[Dict]:
    """The params of each child ``run`` of a ``sweep`` spec: the shared
    fields under each ``runs`` entry (a benchmark name or a dict)."""
    shared = {k: v for k, v in params.items() if k != "runs"}
    return [{**shared, **({"benchmark": entry}
                          if isinstance(entry, str) else entry)}
            for entry in params["runs"]]


def figure_payload(params: Dict) -> Generator:
    """A ``figure`` spec's harness: yields its grid of points once and
    returns the stored document (see :mod:`repro.experiments.registry`)."""
    from repro.experiments import registry
    kwargs = {k: params[k] for k in ("instructions", "warmup")
              if k in params}
    if params.get("benchmarks"):
        kwargs["benchmarks"] = list(params["benchmarks"])
    result = yield from registry.get(params["figure"]).harness(**kwargs)
    return {"kind": "figure", "figure": params["figure"],
            "result": result.to_dict()}


def trace_payload(params: Dict) -> Dict:
    """Trace a ``trace`` spec's run; returns the stored document."""
    from repro import api
    scale = int(params.get("scale", api.DEFAULT_SCALE))
    kwargs = {k: params[k] for k in ("instructions", "warmup", "seed")
              if k in params}
    doc = api.trace(params["benchmark"], sample=params.get("sample", 1),
                    config=run_config(params, scale), scale=scale,
                    **kwargs)
    return {"kind": "trace", "benchmark": params["benchmark"],
            "document": doc}
