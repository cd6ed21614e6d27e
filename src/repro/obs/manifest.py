"""Structured run manifests and lightweight profiling hooks.

A manifest answers "what exactly produced this export?": workload,
config identity (a stable hash of the full :class:`~repro.params.SimConfig`),
enhancement flags, the structures actually built (replacement policies,
prefetchers), run geometry, and where the wall-clock time went
(:class:`Profiler` phases) next to the simulated time the run produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Optional

from repro.params import SimConfig

#: Export format identifier; bump the version on breaking layout changes.
SCHEMA = "repro.obs/v2"


def config_digest(config: SimConfig) -> str:
    """Stable hash of a simulation configuration."""
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True,
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Profiler:
    """Wall-clock phase attribution with near-zero instrumentation cost.

    Usage::

        prof = Profiler()
        with prof.phase("trace"):
            trace = make_trace(...)

    ``phases`` maps phase name to accumulated seconds.  Nested phases are
    attributed to both scopes (the outer scope is not paused).
    """

    def __init__(self):
        self.phases: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def snapshot(self) -> Dict[str, float]:
        return dict(self.phases, total=self.total)


def build_manifest(benchmark: str, config: SimConfig, *,
                   instructions: int, warmup: int, scale: int, seed: int,
                   sample_interval: Optional[int] = None,
                   hierarchy=None, result=None,
                   profiler: Optional[Profiler] = None) -> Dict:
    """Assemble the manifest dict for one observed run.

    ``hierarchy`` (if given) contributes the *built* component names --
    the replacement policies and prefetchers actually instantiated, which
    the enhancement flags alone do not determine.  ``result`` (a
    :class:`~repro.core.ooo_core.CoreResult`) contributes simulated-time
    totals; ``profiler`` contributes wall-time per phase.
    """
    from repro import __version__

    manifest: Dict = {
        "benchmark": benchmark,
        "config_hash": config_digest(config),
        "seed": seed,
        "instructions": instructions,
        "warmup": warmup,
        "scale": scale,
        "sample_interval": sample_interval,
        "enhancements": dataclasses.asdict(config.enhancements),
        "geometry": {
            "l1d": {"sets": config.l1d.num_sets, "ways": config.l1d.ways},
            "l2c": {"sets": config.l2c.num_sets, "ways": config.l2c.ways},
            "llc": {"sets": config.llc.num_sets, "ways": config.llc.ways},
            "stlb": {"sets": config.stlb.num_sets, "ways": config.stlb.ways},
        },
        "llc_inclusion": config.llc_inclusion,
        "comparison": config.comparison,
        "version": __version__,
        "created_unix": time.time(),
    }
    if hierarchy is not None:
        manifest["components"] = {
            "l2c_policy": hierarchy.l2c.policy.name,
            "llc_policy": hierarchy.llc.policy.name,
            "l1d_prefetcher": config.l1d_prefetcher,
            "l2c_prefetcher": config.l2c_prefetcher,
            "atp": hierarchy.atp is not None,
            "tempo": hierarchy.tempo is not None,
            "checker": hierarchy.checker is not None,
        }
    if result is not None:
        manifest["simulated"] = {
            "instructions": result.instructions,
            "cycles": result.cycles,
            "ipc": result.ipc,
            "stall_cycles": result.stalls.total_stall_cycles(),
        }
        h = getattr(result, "hierarchy", None)
        if h is not None:
            manifest["simulated"]["walks"] = h.mmu.walker.walks
            manifest["simulated"]["walk_cycles"] = h.mmu.walk_cycles_total
    if profiler is not None:
        manifest["wall_time"] = profiler.snapshot()
    scenario = _describe_scenario(benchmark)
    if scenario is not None:
        manifest["scenario"] = scenario
    return manifest


def _describe_scenario(benchmark: str) -> Optional[Dict]:
    """Scenario provenance block when ``benchmark`` names a scenario.

    Imported lazily so plain-benchmark manifests never pull in the
    scenario engine; any lookup failure degrades to "not a scenario".
    """
    try:
        from repro.scenarios.engine import describe_scenario
        return describe_scenario(benchmark)
    except Exception:
        return None


def build_batch_manifest(figures, runner: Dict) -> Dict:
    """Manifest for a figure-batch export; ``runner`` is the batch's
    sweep-service counters (``service.metrics.to_dict()``)."""
    from repro import __version__

    return {"figures": list(figures), "runner": dict(runner),
            "version": __version__, "created_unix": time.time()}
