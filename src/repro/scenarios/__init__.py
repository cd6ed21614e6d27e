"""Scenario DSL + traffic-mix engine (``repro.scenario/v1``).

Small YAML/JSON documents describe reproducible multi-workload traffic
mixes -- seed, warmup, weighted workload mix, Poisson/uniform/bursty
arrival process, per-scenario config overrides, optional phase
schedule -- and compile into deterministic interleaved traces that run
through the ordinary ``repro.api`` / ``experiments.runner`` path.

* :func:`parse_scenario` / :func:`load_scenario_file` -- strict parsing
  into :class:`ScenarioDoc` (canonical re-emission via
  :func:`emit_scenario`, content identity via ``doc.digest``);
* :func:`compile_scenario` -- document -> deterministic ``Trace``;
* :func:`list_scenarios` / :func:`load_scenario` -- the checked-in
  ``SYN-*`` / ``RL-*`` library;
* :func:`run_scenario` / :func:`write_results` -- execution through
  ``run_many`` (a stored job under ``repro scenario run``) with
  ``repro.scenario-result/v1`` JSONL output;
* :func:`validate_scenario` -- parse + config + compile smoke check,
  what ``python -m repro scenario validate`` runs per document.

See ``docs/scenarios.md``.
"""

from __future__ import annotations

from repro.scenarios.compile import compile_scenario
from repro.scenarios.doc import (SCENARIO_SCHEMA, ArrivalSpec, PhaseSpec,
                                 ScenarioDoc, ScenarioError, emit_scenario,
                                 load_scenario_file, parse_scenario)
from repro.scenarios.engine import (RESULT_SCHEMA, ScenarioResult,
                                    describe_scenario, register_scenario,
                                    resolve_scenario, resolve_trace,
                                    run_scenario, write_results)
from repro.scenarios.library import (LIBRARY_DIR, library_paths,
                                     list_scenarios, load_scenario)

__all__ = [
    "SCENARIO_SCHEMA", "RESULT_SCHEMA", "LIBRARY_DIR",
    "ArrivalSpec", "PhaseSpec", "ScenarioDoc", "ScenarioError",
    "ScenarioResult",
    "parse_scenario", "load_scenario_file", "emit_scenario",
    "compile_scenario", "validate_scenario",
    "library_paths", "list_scenarios", "load_scenario",
    "register_scenario", "resolve_scenario", "resolve_trace",
    "describe_scenario", "run_scenario", "write_results",
]


def validate_scenario(doc: ScenarioDoc, *,
                      compile_instructions: int = 2_000) -> ScenarioDoc:
    """Deep-check one parsed document; raises :class:`ScenarioError`.

    Beyond what parsing already enforced, this applies the config
    overrides to a real :class:`~repro.params.SimConfig` and compiles a
    short trace, so every checked-in document is proven runnable.
    """
    from repro.params import default_config
    if doc.config:
        try:
            default_config(doc.scale).with_(**doc.config)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"{doc.name}: bad config override ({exc})") from None
    try:
        trace = compile_scenario(doc, compile_instructions)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(
            f"{doc.name}: does not compile ({exc})") from None
    if len(trace) != compile_instructions:
        raise ScenarioError(
            f"{doc.name}: compiled to {len(trace)} records, "
            f"expected {compile_instructions}")
    # Round-trip: the canonical re-emission must parse back to the same
    # identity.
    reparsed = parse_scenario(doc.canonical(), source=f"{doc.name}@canonical")
    if reparsed.digest != doc.digest:
        raise ScenarioError(
            f"{doc.name}: canonical form does not round-trip")
    return doc
