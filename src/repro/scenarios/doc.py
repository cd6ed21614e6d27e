"""The ``repro.scenario/v1`` document schema.

A scenario is a small YAML/JSON document describing one reproducible
traffic mix: a name, a seed, run geometry, a weighted workload mix, an
arrival process, optional per-scenario :class:`~repro.params.SimConfig`
overrides and an optional phase schedule.  Parsing is strict -- unknown
keys, bad weights and malformed specs raise :class:`ScenarioError` with
the offending location -- and canonicalising: :meth:`ScenarioDoc.canonical`
re-emits a normalised document whose SHA-256 is the scenario's
:attr:`~ScenarioDoc.digest` (what the scenario-aware
:class:`~repro.experiments.parallel.RunKey` carries).

Example::

    schema: repro.scenario/v1
    name: RL-01-GRAPH-SOUP
    description: graph-analytics blend under open-loop arrivals
    seed: 42
    instructions: 24000
    warmup: 4000
    arrival: {kind: poisson, quantum: 384}
    mix: {pr: 0.35, cc: 0.25, bf: 0.20, canneal: 0.20}

Mix entries map a label to a weight (the label doubles as a registry
benchmark name) or to ``{weight: W, pattern: {...}}`` with inline
:class:`~repro.workloads.synthetic.PatternMix` fields for synthetic
single-variable stress components.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import DEFAULT_SCALE
from repro.workloads.mix import (ARRIVAL_KINDS, DEFAULT_BURST_FACTOR,
                                 DEFAULT_QUANTUM, MixComponent)

#: Schema identifier every scenario document must declare.
SCENARIO_SCHEMA = "repro.scenario/v1"

#: Scenario families recognised by the library tooling.
FAMILIES = ("SYN", "RL")


class ScenarioError(ValueError):
    """A scenario document does not conform to ``repro.scenario/v1``."""


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival-process knobs (see :mod:`repro.workloads.mix`)."""

    kind: str = "uniform"
    quantum: int = DEFAULT_QUANTUM
    burst_factor: int = DEFAULT_BURST_FACTOR

    def canonical(self) -> Dict:
        return {"kind": self.kind, "quantum": self.quantum,
                "burst_factor": self.burst_factor}


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of the schedule: a weighted mix plus its arrival."""

    weight: float
    components: Tuple[MixComponent, ...]
    arrival: ArrivalSpec

    def mix_canonical(self) -> Dict:
        out: Dict = {}
        for comp in self.components:
            if comp.benchmark is not None:
                out[comp.label] = comp.weight
            else:
                out[comp.label] = {
                    "weight": comp.weight,
                    "pattern": {k: comp.pattern[k]
                                for k in sorted(comp.pattern)}}
        return out


@dataclass(frozen=True)
class ScenarioDoc:
    """A parsed, validated ``repro.scenario/v1`` document."""

    name: str
    description: str = ""
    seed: int = 1
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    scale: int = DEFAULT_SCALE
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: SimConfig.with_() overrides, as a sorted item tuple (hashable).
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    phases: Tuple[PhaseSpec, ...] = ()
    #: Whether the source document spelled an explicit ``phases:`` list
    #: (single-phase docs re-emit their mix at the top level).
    explicit_phases: bool = False

    @property
    def family(self) -> str:
        """``SYN`` / ``RL`` by name prefix, else ``custom``."""
        prefix = self.name.split("-", 1)[0]
        return prefix if prefix in FAMILIES else "custom"

    @property
    def config(self) -> Dict:
        return dict(self.config_overrides)

    def mix_summary(self) -> Dict[str, float]:
        """Normalised label -> weight across the whole schedule."""
        phase_total = sum(p.weight for p in self.phases)
        out: Dict[str, float] = {}
        for phase in self.phases:
            comp_total = sum(c.weight for c in phase.components)
            for comp in phase.components:
                share = (phase.weight / phase_total) \
                    * (comp.weight / comp_total)
                out[comp.label] = round(out.get(comp.label, 0.0) + share, 6)
        return dict(sorted(out.items()))

    # -- canonical form / identity -------------------------------------
    def canonical(self) -> Dict:
        """The normalised re-emission of this document.

        Parsing the canonical form yields an equal document (the
        round-trip property ``tests/test_scenarios.py`` pins); its JSON
        serialisation is the digest input.
        """
        doc: Dict = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "scale": self.scale,
            "arrival": self.arrival.canonical(),
            "config": {k: v for k, v in self.config_overrides},
        }
        if self.explicit_phases:
            doc["phases"] = [
                {"weight": phase.weight,
                 "mix": phase.mix_canonical(),
                 "arrival": phase.arrival.canonical()}
                for phase in self.phases]
        else:
            doc["mix"] = self.phases[0].mix_canonical()
        return doc

    @property
    def digest(self) -> str:
        """Content identity: SHA-256 of the canonical JSON form."""
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_TOP_KEYS = {"schema", "name", "description", "seed", "instructions",
             "warmup", "scale", "arrival", "mix", "config", "phases"}
_ARRIVAL_KEYS = {"kind", "quantum", "burst_factor"}
_PHASE_KEYS = {"weight", "mix", "arrival"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _int_field(data: Mapping, key: str, default: int, *, minimum: int,
               where: str) -> int:
    value = data.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= minimum,
             f"{where}: {key!r} must be an integer >= {minimum}, "
             f"got {value!r}")
    return value


def _parse_arrival(data, where: str,
                   default: Optional[ArrivalSpec] = None) -> ArrivalSpec:
    if data is None:
        return default or ArrivalSpec()
    _require(isinstance(data, Mapping), f"{where}: arrival must be a map")
    unknown = set(data) - _ARRIVAL_KEYS
    _require(not unknown, f"{where}: unknown arrival keys {sorted(unknown)}")
    base = default or ArrivalSpec()
    kind = data.get("kind", base.kind)
    _require(kind in ARRIVAL_KINDS,
             f"{where}: arrival kind {kind!r} not in {ARRIVAL_KINDS}")
    quantum = _int_field(data, "quantum", base.quantum, minimum=1,
                         where=where)
    burst = _int_field(data, "burst_factor", base.burst_factor, minimum=2,
                       where=where)
    return ArrivalSpec(kind=kind, quantum=quantum, burst_factor=burst)


def _parse_mix(data, where: str) -> Tuple[MixComponent, ...]:
    _require(isinstance(data, Mapping) and data,
             f"{where}: mix must be a non-empty map of label -> weight")
    components = []
    for label in sorted(data):
        spec = data[label]
        _require(isinstance(label, str) and label,
                 f"{where}: mix labels must be non-empty strings")
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            # Plain weight: the label is a registry benchmark name.
            from repro.workloads.registry import BENCHMARKS
            _require(label in BENCHMARKS,
                     f"{where}: mix component {label!r} is not a known "
                     f"benchmark (available: {sorted(BENCHMARKS)}) -- "
                     f"use {{weight, pattern}} for inline components")
            _require(spec > 0, f"{where}: mix weight for {label!r} must "
                               f"be positive, got {spec!r}")
            components.append(MixComponent(label=label, weight=float(spec),
                                           benchmark=label))
            continue
        _require(isinstance(spec, Mapping),
                 f"{where}: mix component {label!r} must be a weight or "
                 f"a {{weight, pattern}} map")
        unknown = set(spec) - {"weight", "pattern"}
        _require(not unknown, f"{where}: mix component {label!r} has "
                              f"unknown keys {sorted(unknown)}")
        weight = spec.get("weight")
        _require(isinstance(weight, (int, float))
                 and not isinstance(weight, bool) and weight > 0,
                 f"{where}: mix component {label!r}: weight must be a "
                 f"positive number, got {weight!r}")
        pattern = spec.get("pattern")
        _require(isinstance(pattern, Mapping) and pattern,
                 f"{where}: mix component {label!r}: pattern must be a "
                 f"non-empty map of PatternMix fields")
        try:
            component = MixComponent(label=label, weight=float(weight),
                                     pattern=dict(pattern))
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        # Fail at parse time, not first compile: construct the PatternMix.
        from repro.workloads.synthetic import PatternMix
        try:
            PatternMix(**dict(pattern))
        except TypeError as exc:
            raise ScenarioError(
                f"{where}: mix component {label!r}: {exc}") from None
        components.append(component)
    return tuple(components)


def parse_scenario(data: Mapping, *, source: str = "<dict>") -> ScenarioDoc:
    """Parse and validate one scenario document (a decoded mapping)."""
    _require(isinstance(data, Mapping), f"{source}: document must be a map")
    _require(data.get("schema") == SCENARIO_SCHEMA,
             f"{source}: schema is {data.get('schema')!r}, expected "
             f"{SCENARIO_SCHEMA!r}")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"{source}: unknown keys {sorted(unknown)}")
    name = data.get("name")
    _require(isinstance(name, str) and name,
             f"{source}: 'name' must be a non-empty string")
    from repro.workloads.registry import BENCHMARKS
    _require(name not in BENCHMARKS,
             f"{source}: scenario name {name!r} shadows a registry "
             f"benchmark")
    where = f"{source}:{name}"
    description = data.get("description", "")
    _require(isinstance(description, str),
             f"{where}: 'description' must be a string")
    seed = _int_field(data, "seed", 1, minimum=0, where=where)
    instructions = _int_field(data, "instructions", DEFAULT_INSTRUCTIONS,
                              minimum=1, where=where)
    warmup = _int_field(data, "warmup", DEFAULT_WARMUP, minimum=0,
                        where=where)
    scale = _int_field(data, "scale", DEFAULT_SCALE, minimum=1, where=where)
    arrival = _parse_arrival(data.get("arrival"), where)

    config = data.get("config", {})
    _require(isinstance(config, Mapping),
             f"{where}: 'config' must be a map of SimConfig overrides")
    _require(all(isinstance(k, str) for k in config),
             f"{where}: config override keys must be strings")
    overrides = tuple(sorted(config.items()))

    phases_data = data.get("phases")
    if phases_data is not None:
        _require(isinstance(phases_data, (list, tuple)) and phases_data,
                 f"{where}: 'phases' must be a non-empty list")
        _require("mix" not in data,
                 f"{where}: give either a top-level 'mix' or 'phases', "
                 f"not both")
        phases = []
        for i, phase in enumerate(phases_data):
            pwhere = f"{where}.phases[{i}]"
            _require(isinstance(phase, Mapping),
                     f"{pwhere}: each phase must be a map")
            unknown = set(phase) - _PHASE_KEYS
            _require(not unknown,
                     f"{pwhere}: unknown keys {sorted(unknown)}")
            weight = phase.get("weight", 1.0)
            _require(isinstance(weight, (int, float))
                     and not isinstance(weight, bool) and weight > 0,
                     f"{pwhere}: weight must be positive, got {weight!r}")
            components = _parse_mix(phase.get("mix"), pwhere)
            phase_arrival = _parse_arrival(phase.get("arrival"), pwhere,
                                           default=arrival)
            phases.append(PhaseSpec(weight=float(weight),
                                    components=components,
                                    arrival=phase_arrival))
        return ScenarioDoc(name=name, description=description, seed=seed,
                           instructions=instructions, warmup=warmup,
                           scale=scale, arrival=arrival,
                           config_overrides=overrides,
                           phases=tuple(phases), explicit_phases=True)

    components = _parse_mix(data.get("mix"), where)
    phase = PhaseSpec(weight=1.0, components=components, arrival=arrival)
    return ScenarioDoc(name=name, description=description, seed=seed,
                       instructions=instructions, warmup=warmup,
                       scale=scale, arrival=arrival,
                       config_overrides=overrides, phases=(phase,),
                       explicit_phases=False)


# ----------------------------------------------------------------------
# File loading / re-emission
# ----------------------------------------------------------------------
def _decode_text(text: str, source: str) -> Mapping:
    suffix = Path(source).suffix.lower()
    if suffix == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{source}: invalid JSON ({exc})") from None
    try:
        import yaml
    except ImportError:
        # YAML documents need pyyaml; JSON always works.
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise ScenarioError(
                f"{source}: pyyaml is not installed and the document is "
                f"not JSON; install pyyaml or convert to .json") from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{source}: invalid YAML ({exc})") from None


def load_scenario_file(path: "str | os.PathLike") -> ScenarioDoc:
    """Read and parse one ``.yaml`` / ``.yml`` / ``.json`` scenario."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"{p}: cannot read scenario ({exc})") from None
    return parse_scenario(_decode_text(text, str(p)), source=p.name)
