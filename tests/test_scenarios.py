"""Tests for the ``repro.scenario/v1`` DSL and traffic-mix engine.

Covers the checked-in library, strict parsing, the parse -> compile ->
re-emit round trip, the bit-identical single-workload contract, the
scenario-aware RunKey, and golden JSONL results for one ``SYN-*`` and
one ``RL-*`` document (regenerate with
``python tests/data/scenarios/regen.py`` after an intentional
behavioural change).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.experiments.parallel import RunKey
from repro.scenarios import (SCENARIO_SCHEMA, ScenarioError, compile_scenario,
                             library_paths, list_scenarios, load_scenario,
                             load_scenario_file, parse_scenario, run_scenario,
                             validate_scenario, write_results)
from repro.workloads.registry import make_trace

DATA_DIR = Path(__file__).resolve().parent / "data" / "scenarios"

#: Pinned geometry of the golden runs (mirrored in regen.py).
GOLDEN_INSTRUCTIONS = 4_000
GOLDEN_WARMUP = 500


def minimal(name="t-mix", **extra):
    doc = {"schema": SCENARIO_SCHEMA, "name": name,
           "mix": {"pr": 0.5, "cc": 0.5}}
    doc.update(extra)
    return doc


# ----------------------------------------------------------------------
# Library completeness
# ----------------------------------------------------------------------
def test_library_has_required_families():
    names = list_scenarios()
    syn = [n for n in names if n.startswith("SYN-")]
    rl = [n for n in names if n.startswith("RL-")]
    assert len(syn) >= 3, names
    assert len(rl) >= 2, names


def test_every_library_document_validates():
    for name in list_scenarios():
        doc = load_scenario(name)
        validate_scenario(doc)
        assert doc.family in ("SYN", "RL")


def test_library_names_match_filename_stems():
    for name, path in library_paths().items():
        assert load_scenario_file(path).name == name


def test_rl02_carries_config_override():
    doc = load_scenario("RL-02-PHASED-PIPELINE")
    assert doc.config == {"llc_inclusion": "inclusive"}
    assert len(doc.phases) == 3


# ----------------------------------------------------------------------
# Parsing: strictness
# ----------------------------------------------------------------------
def test_parse_minimal_document():
    doc = parse_scenario(minimal())
    assert doc.name == "t-mix" and doc.seed == 1
    assert len(doc.phases) == 1
    assert doc.mix_summary() == {"cc": 0.5, "pr": 0.5}


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.pop("schema"), "schema"),
    (lambda d: d.update(schema="repro.scenario/v2"), "schema"),
    (lambda d: d.pop("name"), "name"),
    (lambda d: d.update(name="pr"), "shadows"),
    (lambda d: d.update(bogus=1), "unknown keys"),
    (lambda d: d.update(seed=-1), "seed"),
    (lambda d: d.update(instructions=0), "instructions"),
    (lambda d: d.update(mix={}), "mix"),
    (lambda d: d.update(mix={"gcc": 1.0}), "not a known"),
    (lambda d: d.update(mix={"pr": 0.0}), "positive"),
    (lambda d: d.update(mix={"x": {"weight": 1.0}}), "pattern"),
    (lambda d: d.update(mix={"x": {"weight": 1.0,
                                   "pattern": {"bogus_knob": 3}}}),
     "bogus_knob"),
    (lambda d: d.update(arrival={"kind": "fractal"}), "fractal"),
    (lambda d: d.update(arrival={"kind": "uniform", "quantum": 0}),
     "quantum"),
    (lambda d: d.update(phases=[{"mix": {"pr": 1.0}}]), "not both"),
    (lambda d: d.update(config=[1, 2]), "config"),
])
def test_parse_rejects_malformed_documents(mutate, match):
    doc = minimal()
    mutate(doc)
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(doc)


def test_phases_and_mix_are_exclusive_but_phases_alone_work():
    doc = parse_scenario({
        "schema": SCENARIO_SCHEMA, "name": "t-phased",
        "phases": [{"weight": 1.0, "mix": {"pr": 1.0}},
                   {"weight": 2.0, "mix": {"cc": 1.0},
                    "arrival": {"kind": "bursty"}}]})
    assert len(doc.phases) == 2
    assert doc.phases[0].arrival.kind == "uniform"  # doc default
    assert doc.phases[1].arrival.kind == "bursty"   # per-phase override


# ----------------------------------------------------------------------
# Round trip and identity
# ----------------------------------------------------------------------
def test_canonical_round_trip_preserves_digest():
    for name in list_scenarios():
        doc = load_scenario(name)
        reparsed = parse_scenario(doc.canonical())
        assert reparsed.digest == doc.digest, name
        assert reparsed == doc, name


def test_digest_tracks_content():
    a = parse_scenario(minimal())
    b = parse_scenario(minimal(seed=2))
    c = parse_scenario(minimal(description="same mix, new words"))
    assert a.digest != b.digest
    assert a.digest != c.digest  # description is part of the document


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def test_compile_is_deterministic():
    doc = load_scenario("RL-01-GRAPH-SOUP")
    t1 = compile_scenario(doc, 5_000)
    t2 = compile_scenario(doc, 5_000)
    assert len(t1) == 5_000
    assert np.array_equal(t1.addrs, t2.addrs)
    assert np.array_equal(t1.ips, t2.ips)
    assert np.array_equal(t1.kinds, t2.kinds)


def test_compile_apportions_phases():
    doc = load_scenario("SYN-02-PTE-REUSE-CLIFF")
    trace = compile_scenario(doc, 6_000)
    assert len(trace) == 6_000


def test_single_workload_scenario_matches_direct_trace():
    doc = parse_scenario({
        "schema": SCENARIO_SCHEMA, "name": "t-pr-only", "seed": 5,
        "mix": {"pr": 1.0}})
    mixed = compile_scenario(doc, 7_000, seed=5)
    direct = make_trace("pr", 7_000, seed=5)
    assert np.array_equal(mixed.ips, direct.ips)
    assert np.array_equal(mixed.kinds, direct.kinds)
    assert np.array_equal(mixed.addrs, direct.addrs)
    assert np.array_equal(mixed.deps, direct.deps)


def test_single_workload_scenario_matches_direct_run():
    """The end-to-end contract: simulating a single-workload scenario is
    bit-identical to ``api.run`` on the benchmark itself."""
    doc = parse_scenario({
        "schema": SCENARIO_SCHEMA, "name": "t-pr-run", "seed": 5,
        "mix": {"pr": 1.0}})
    via_scenario = run_scenario(doc, instructions=4_000, warmup=500)
    direct = api.run("pr", instructions=4_000, warmup=500, seed=5)
    assert via_scenario.summary.cycles == direct.cycles
    assert via_scenario.summary.metrics == pytest.approx(direct.summary())


# ----------------------------------------------------------------------
# RunKey / execution
# ----------------------------------------------------------------------
def test_runkey_scenario_digest_invalidates_on_edit():
    cfg = api.build_config()
    plain = RunKey(benchmark="pr", config=cfg)
    assert plain.scenario is None
    a = RunKey(benchmark="x", config=cfg, scenario="d" * 64)
    b = RunKey(benchmark="x", config=cfg, scenario="e" * 64)
    assert a.digest != b.digest and a != b
    # Plain-benchmark digests are computed without the scenario field,
    # so existing cache entries stay valid.
    legacy_blob = {"benchmark": "pr", "config": plain.config_hash,
                   "seed": 1, "instructions": plain.instructions,
                   "warmup": plain.warmup, "scale": plain.scale}
    import hashlib
    expect = hashlib.sha256(
        json.dumps(legacy_blob, sort_keys=True).encode()).hexdigest()
    assert plain.digest == expect


def test_run_scenario_applies_config_overrides():
    result = run_scenario("RL-02-PHASED-PIPELINE", instructions=3_000,
                          warmup=500)
    assert result.key.config.llc_inclusion == "inclusive"
    assert result.key.scenario == result.doc.digest


def test_run_scenario_rejects_bad_override():
    doc = parse_scenario(minimal(name="t-bad-cfg",
                                 config={"no_such_field": 1}))
    with pytest.raises(ScenarioError, match="config override"):
        run_scenario(doc, instructions=2_000, warmup=200)


def test_run_scenario_unknown_name():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        run_scenario("NO-SUCH-SCENARIO")


def test_adhoc_scenario_resolves_via_make_trace():
    doc = parse_scenario(minimal(name="t-adhoc-resolve"))
    from repro.scenarios import register_scenario
    register_scenario(doc)
    trace = make_trace("t-adhoc-resolve", 2_000, scale=16, seed=1)
    assert len(trace) == 2_000


def test_make_trace_unknown_name_mentions_scenarios():
    with pytest.raises(ValueError, match="unknown benchmark or scenario"):
        make_trace("definitely-not-a-thing", 1_000)


def test_scenario_manifest_block():
    from repro.obs.manifest import build_manifest
    cfg = api.build_config()
    plain = build_manifest("pr", cfg, instructions=1_000, warmup=100,
                           scale=16, seed=1)
    assert "scenario" not in plain
    doc = load_scenario("SYN-01-STLB-THRASH")
    observed = build_manifest(doc.name, cfg, instructions=1_000,
                              warmup=100, scale=16, seed=1)
    assert observed["scenario"]["digest"] == doc.digest
    assert observed["scenario"]["family"] == "SYN"


# ----------------------------------------------------------------------
# Golden JSONL results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["SYN-01-STLB-THRASH", "RL-01-GRAPH-SOUP"])
def test_golden_scenario_results(name):
    golden_path = DATA_DIR / f"{name}.golden.json"
    assert golden_path.exists(), (
        f"missing golden fixture {golden_path}; run "
        f"python tests/data/scenarios/regen.py")
    golden = json.loads(golden_path.read_text())
    result = run_scenario(name, instructions=GOLDEN_INSTRUCTIONS,
                          warmup=GOLDEN_WARMUP)
    record = result.jsonl_record(timestamp=False)
    assert record == golden


def test_write_results_appends_jsonl(tmp_path):
    result = run_scenario("SYN-01-STLB-THRASH",
                          instructions=GOLDEN_INSTRUCTIONS,
                          warmup=GOLDEN_WARMUP)
    out = tmp_path / "r.jsonl"
    write_results([result], out)
    write_results([result], out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 2
    assert all(r["schema"] == "repro.scenario-result/v1" for r in lines)
    assert all("created_utc" in r for r in lines)
