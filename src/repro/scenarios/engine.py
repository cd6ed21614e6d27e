"""Scenario execution: the bridge into the ``repro.api`` run path.

Running a scenario is running a benchmark whose trace happens to be a
compiled mix: :func:`run_scenario` builds the effective
:class:`~repro.params.SimConfig` (document overrides over the scale
default), forms a scenario-aware
:class:`~repro.experiments.parallel.RunKey` (the key carries the
document digest, so editing a scenario invalidates its stored results)
and runs it through :func:`~repro.experiments.parallel.run_many`:
serially in-process, or -- under ``repro scenario run`` -- as one
``scenario`` job of an inline sweep service, memoised in its store.

Results emit as ``repro.scenario-result/v1`` JSONL lines: schema-stable,
RunKey-keyed records suitable for time-series tracking and the CI
scenario matrix.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.experiments.parallel import RunKey, RunSummary, run_many
from repro.params import SimConfig, default_config
from repro.scenarios.compile import compile_scenario
from repro.scenarios.doc import ScenarioDoc, ScenarioError, parse_scenario
from repro.scenarios.library import library_paths, load_scenario
from repro.workloads.trace import Trace

#: Schema identifier written into every result line.
RESULT_SCHEMA = "repro.scenario-result/v1"

#: Process-local registry of ad-hoc (non-library) documents, so
#: ``make_trace`` can resolve them by name within this process.
_ADHOC: Dict[str, ScenarioDoc] = {}


def register_scenario(doc: ScenarioDoc) -> ScenarioDoc:
    """Make an ad-hoc document resolvable by name in this process."""
    _ADHOC[doc.name] = doc
    return doc


def resolve_scenario(name: str) -> Optional[ScenarioDoc]:
    """The document behind ``name``: ad-hoc registry first, then the
    checked-in library.  ``None`` when the name is not a scenario."""
    doc = _ADHOC.get(name)
    if doc is not None:
        return doc
    if name in library_paths():
        return load_scenario(name)
    return None


def resolve_trace(name: str, instructions: int, *, scale: int,
                  seed: int) -> Optional[Trace]:
    """Trace-factory hook for :func:`repro.workloads.registry.make_trace`."""
    doc = resolve_scenario(name)
    if doc is None:
        return None
    return compile_scenario(doc, instructions, scale=scale, seed=seed)


def describe_scenario(name: str) -> Optional[Dict]:
    """Manifest block for observed scenario runs (``None`` for plain
    benchmarks); see :func:`repro.obs.manifest.build_manifest`."""
    doc = resolve_scenario(name)
    if doc is None:
        return None
    return {"name": doc.name, "family": doc.family, "digest": doc.digest,
            "arrival": doc.arrival.kind, "phases": len(doc.phases),
            "mix": doc.mix_summary()}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """One executed scenario: the document, its run identity, and the
    picklable :class:`RunSummary` its run produced."""

    doc: ScenarioDoc
    key: RunKey
    summary: RunSummary

    @property
    def ipc(self) -> float:
        return self.summary.ipc

    @property
    def cycles(self) -> int:
        return self.summary.cycles

    def jsonl_record(self, *, timestamp: bool = True) -> Dict:
        """The ``repro.scenario-result/v1`` line for this run.

        Keys only grow, never change meaning, within the schema version;
        ``timestamp=False`` drops the one non-deterministic field (the
        golden-output tests use that).
        """
        record: Dict = {
            "schema": RESULT_SCHEMA,
            "scenario": self.doc.name,
            "family": self.doc.family,
            "scenario_digest": self.doc.digest,
            "run_key": self.key.digest,
            "config_hash": self.key.config_hash,
            "seed": self.key.seed,
            "instructions": self.key.instructions,
            "warmup": self.key.warmup,
            "scale": self.key.scale,
            "arrival": self.doc.arrival.kind,
            "phases": len(self.doc.phases),
            "mix": self.doc.mix_summary(),
            "cycles": self.summary.cycles,
            "ipc": round(self.summary.ipc, 6),
            "metrics": {k: (round(v, 6) if isinstance(v, float) else v)
                        for k, v in self.summary.summary().items()},
        }
        if timestamp:
            record["created_utc"] = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return record


def _coerce_doc(scenario: Union[str, Dict, ScenarioDoc]) -> ScenarioDoc:
    if isinstance(scenario, ScenarioDoc):
        return scenario
    if isinstance(scenario, dict):
        return parse_scenario(scenario)
    if isinstance(scenario, str):
        if scenario.endswith((".yaml", ".yml", ".json")) \
                or "/" in scenario:
            from repro.scenarios.doc import load_scenario_file
            return load_scenario_file(scenario)
        doc = resolve_scenario(scenario)
        if doc is None:
            raise ScenarioError(
                f"unknown scenario {scenario!r}; available: "
                f"{sorted(library_paths())}")
        return doc
    raise TypeError(f"scenario must be a name, path, dict or "
                    f"ScenarioDoc, not {type(scenario).__name__}")


def run_scenario(scenario: Union[str, Dict, ScenarioDoc], *,
                 instructions: Optional[int] = None,
                 warmup: Optional[int] = None,
                 scale: Optional[int] = None,
                 seed: Optional[int] = None,
                 config: Optional[SimConfig] = None) -> ScenarioResult:
    """Execute one scenario through :func:`run_many`.

    ``scenario`` is a library name, a document path, a decoded dict or a
    parsed :class:`ScenarioDoc`; the keyword overrides take precedence
    over the document's own geometry.  ``config`` (when given) is the
    base the document's ``config:`` overrides apply to, replacing the
    scale default.
    """
    doc = _coerce_doc(scenario)
    n = doc.instructions if instructions is None else int(instructions)
    w = doc.warmup if warmup is None else int(warmup)
    sc = doc.scale if scale is None else int(scale)
    sd = doc.seed if seed is None else int(seed)

    cfg = config if config is not None else default_config(sc)
    overrides = doc.config
    if overrides:
        try:
            cfg = cfg.with_(**overrides)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"{doc.name}: bad config override ({exc})") from None

    # Library documents resolve by name in any process; everything else
    # registers in *this* process, so it runs serially or on an inline
    # service (a pool worker could not rebuild the trace from the name).
    in_library = (doc.name in library_paths()
                  and _ADHOC.get(doc.name) is None
                  and load_scenario(doc.name).digest == doc.digest)
    if not in_library:
        register_scenario(doc)

    key = RunKey(benchmark=doc.name, config=cfg, seed=sd, instructions=n,
                 warmup=w, scale=sc, scenario=doc.digest)
    summary = run_many([key])[key]
    return ScenarioResult(doc=doc, key=key, summary=summary)


def write_results(results: Iterable[ScenarioResult], path, *,
                  timestamp: bool = True) -> List[Dict]:
    """Append one JSONL line per result to ``path``; returns the lines."""
    records = [r.jsonl_record(timestamp=timestamp) for r in results]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return records
