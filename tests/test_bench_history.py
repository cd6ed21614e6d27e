"""The bench history: ``tools/bench_history.py`` over synthetic
``repro.perfbench-ab/v1`` records, and the records' home in
``tools/perfbench_ab.py``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def history(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location(
        "bench_history", ROOT / "tools" / "bench_history.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(created, base, head, dirty, kips, wins, verdict):
    metric = {"unit": "kinstr/s", "better": "higher", "bound": 0.25,
              "base": [], "change": [],
              "base_quartiles": [kips[0] - 1, kips[0], kips[0] + 1],
              "change_quartiles": [kips[1] - 1, kips[1], kips[1] + 1],
              "wins": wins, "pairs": 10, "verdict": verdict}
    return {"schema": "repro.perfbench-ab/v1", "created_utc": created,
            "base": {"given": "HEAD~1", "resolved": base},
            "change": {"head": head, "dirty": dirty},
            "workload": "walk_storm", "run_seconds": 30, "pairs": [],
            "metrics": {"sim_kips": metric}, "operations": {}, "ok": True}


def test_history_prints_each_metric_per_workload_in_time_order(
        history, tmp_path):
    newer = _record("20261019T120000Z", "c" * 40, "d" * 40, False,
                    (107.1, 115.3), 10, "gain")
    older = _record("20260801T090000Z", "a" * 40, "b" * 40, True,
                    (90.8, 106.8), 9, "no change")
    # File names sort the other way round: order comes from created_utc.
    (tmp_path / "BENCH_1_walk_storm.json").write_text(json.dumps(newer))
    (tmp_path / "BENCH_2_walk_storm.json").write_text(json.dumps(older))
    (tmp_path / "BENCH_3_other.json").write_text(
        json.dumps({"schema": "repro.bench/v1"}))

    lines = history.table(history.load(tmp_path))

    assert lines[:2] == ["walk_storm",
                         "  sim_kips (kinstr/s, higher is better)"]
    assert len(lines) == 4
    assert lines[2].split() == ["20260801T090000Z", "a" * 10, "->",
                                "b" * 10 + "+", "90.8", "->", "106.8",
                                "9/10", "no", "change"]
    assert lines[3].split() == ["20261019T120000Z", "c" * 10, "->",
                                "d" * 10, "107.1", "->", "115.3", "10/10",
                                "gain"]


def test_records_do_not_make_the_tree_dirty(history, tmp_path, monkeypatch):
    """perfbench_ab's ``dirty`` flag ignores bench-history/, so the
    second A/B of a change does not read the first one's record as a
    code change."""
    ab = importlib.import_module("perfbench_ab")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    git("add", "code.py")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "RECORDS", tmp_path / "bench-history")
    ab.RECORDS.mkdir()
    (ab.RECORDS / "BENCH_20261019T000000Z_walk_storm.json").write_text("{}")
    assert ab.revisions("HEAD")["change"]["dirty"] is False
    (tmp_path / "code.py").write_text("x = 2\n")
    assert ab.revisions("HEAD")["change"]["dirty"] is True
