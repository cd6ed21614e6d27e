"""Tests for the cycle-attribution trace diff (and its CLI)."""

import pytest

from repro import api
from repro.__main__ import main
from repro.obs.trace import (TraceAlignmentError,
                             render_trace, render_trace_diff, summarize,
                             trace_diff)

RUN_KW = dict(instructions=12_000, warmup=2_000, seed=7)


@pytest.fixture(scope="module")
def baseline_doc():
    return api.trace("pr", **RUN_KW)


@pytest.fixture(scope="module")
def enhanced_doc():
    return api.trace("pr", enhancements="full", **RUN_KW)


@pytest.fixture(scope="module")
def diff(baseline_doc, enhanced_doc):
    return trace_diff(baseline_doc, enhanced_doc)


def test_delta_matches_manifest_cycles(diff, baseline_doc, enhanced_doc):
    cycles_a = baseline_doc["manifest"]["simulated"]["cycles"]
    cycles_b = enhanced_doc["manifest"]["simulated"]["cycles"]
    assert diff["delta_cycles"] == cycles_a - cycles_b
    assert diff["delta_cycles"] > 0  # the full stack must help on pr


def test_attribution_covers_eighty_percent(diff):
    # The acceptance bar: >= 80% of the cycle delta lands in the three
    # named mechanism channels.
    assert set(diff["attribution"]) == {
        "walk_latency", "replay_release", "insertion_policy"}
    assert diff["attributed"] == sum(diff["attribution"].values())
    assert diff["coverage"] >= 0.8


def test_requests_align_one_to_one(diff):
    req = diff["requests"]
    # Same trace, same seed: every ROI request exists in both runs.
    assert req["aligned"] > 0
    assert req["only_a"] == 0 and req["only_b"] == 0
    for mover in req["top_movers"]:
        assert mover["delta"] == mover["latency_a"] - mover["latency_b"]


def test_walk_matrix_shows_both_runs(diff):
    assert set(diff["walk_matrix"]) == {"a", "b"}
    assert diff["walk_matrix"]["a"]  # the baseline run definitely walked


def test_render_trace_diff(diff):
    text = render_trace_diff(diff)
    assert "cycle-delta attribution" in text
    assert "walk_latency" in text
    assert "total attributed" in text
    assert "aligned requests" in text


def test_misaligned_benchmarks_rejected(baseline_doc):
    other = api.trace("tc", **RUN_KW)
    with pytest.raises(TraceAlignmentError, match="disagree on benchmark"):
        trace_diff(baseline_doc, other)


def test_misaligned_sampling_rejected(baseline_doc):
    sampled = api.trace("pr", sample=4, **RUN_KW)
    with pytest.raises(TraceAlignmentError, match="sample_every"):
        trace_diff(baseline_doc, sampled)


def test_missing_cycles_rejected(baseline_doc):
    stripped = dict(baseline_doc,
                    manifest={k: v for k, v in
                              baseline_doc["manifest"].items()
                              if k != "simulated"})
    with pytest.raises(TraceAlignmentError, match="cycle totals"):
        trace_diff(stripped, stripped)


# ----------------------------------------------------------------------
# Analysis consumers over real documents
# ----------------------------------------------------------------------
def test_summary_renders(baseline_doc):
    text = summarize(baseline_doc)
    assert "latency by span name" in text
    assert "hottest PCs" in text
    assert "walk depth x leaf hit level" in text


def test_render_trace_limits(baseline_doc):
    text = render_trace(baseline_doc, limit=3)
    assert "more requests" in text
    assert text.count("#") >= 3


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_trace_diff(tmp_path, capsys):
    base = tmp_path / "base.json"
    enh = tmp_path / "enh.json"
    api.trace("pr", path=base, **RUN_KW)
    api.trace("pr", path=enh, enhancements="full", **RUN_KW)
    assert main(["trace", "diff", str(base), str(enh)]) == 0
    out = capsys.readouterr().out
    assert "cycle-delta attribution" in out
    assert "replay_release" in out


def test_cli_trace_summary_and_render(tmp_path, capsys):
    path = tmp_path / "t.json"
    api.trace("pr", path=path, **RUN_KW)
    assert main(["trace", "summary", str(path)]) == 0
    assert "latency by span name" in capsys.readouterr().out
    perfetto = tmp_path / "p.json"
    assert main(["trace", "render", str(path), "--limit", "2",
                 "--perfetto", str(perfetto)]) == 0
    captured = capsys.readouterr()
    assert "#0" in captured.out
    assert perfetto.exists()


def test_cli_trace_rejects_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["trace", "summary", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_with_trace(tmp_path, capsys):
    path = tmp_path / "run_trace.json"
    assert main(["run", "pr", "--instructions", "12000", "--warmup",
                 "2000", "--seed", "7", "--trace", str(path),
                 "--trace-sample", "3"]) == 0
    out = capsys.readouterr().out
    assert "schema-validated" in out
    assert path.exists()
