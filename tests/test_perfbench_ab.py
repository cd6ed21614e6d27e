"""The verdict arithmetic and the record of ``tools/perfbench_ab.py`` on
synthetic samples, and its cleanup when it is stopped by SIGTERM."""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ab", ROOT / "tools" / "perfbench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_tool()

BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0,
        109.0]


def test_quartiles_interpolate():
    assert ab.quartiles(BASE) == (102.25, 104.5, 106.75)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_tenths_and_a_gap_beyond_the_base_iqr():
    change = [v + 20 for v in BASE]
    v = ab.verdict(BASE, change, "higher", 0.25)
    assert (v.wins, v.pairs, v.verdict) == (10, 10, "gain")
    # 9 of 10 pairs still carries the claim.
    nine = change[:9] + [BASE[9] - 1]
    assert ab.verdict(BASE, nine, "higher", 0.25).verdict == "gain"
    # 8 of 10 does not, however large the gap.
    eight = change[:8] + [BASE[8] - 1, BASE[9] - 1]
    v = ab.verdict(BASE, eight, "higher", 0.25)
    assert (v.wins, v.verdict) == (8, "no change")


def test_gain_needs_the_median_gap_to_beat_the_base_iqr():
    # Every pair won by 4, but the base's quartiles are 4.5 apart.
    v = ab.verdict(BASE, [b + 4 for b in BASE], "higher", 0.25)
    assert (v.wins, v.verdict) == (10, "no change")
    v = ab.verdict(BASE, [b + 5 for b in BASE], "higher", 0.25)
    assert v.verdict == "gain"


def test_lower_is_better_metrics_flip_the_sign():
    setup = [0.10 + 0.001 * i for i in range(10)]
    faster = [s - 0.02 for s in setup]
    assert ab.verdict(setup, faster, "lower", 0.25).verdict == "gain"
    slower = [s * 1.3 for s in setup]
    v = ab.verdict(setup, slower, "lower", 0.25)
    assert (v.wins, v.verdict) == (0, "worse")


def test_worse_is_judged_against_the_bound():
    assert ab.verdict(BASE, [b * 0.8 for b in BASE], "higher",
                      0.25).verdict == "no change"
    assert ab.verdict(BASE, [b * 0.7 for b in BASE], "higher",
                      0.25).verdict == "worse"


def test_ties_count_for_neither_side():
    v = ab.verdict(BASE, list(BASE), "higher", 0.25)
    assert (v.wins, v.verdict) == (0, "no change")


def test_spread_wider_than_the_bound_is_unresolved():
    wide = [10.0, 10.0, 10.0, 50.0, 50.0, 90.0, 90.0, 90.0, 90.0, 91.0]
    mixed = [b + (1 if i % 2 else -1) for i, b in enumerate(wide)]
    assert ab.verdict(wide, mixed, "higher", 0.25).verdict == "unresolved"
    # Unless every change run beats every base run.
    assert ab.verdict(wide, [92.0] * 10, "higher",
                      0.25).verdict == "no change"


def test_verdict_rejects_unpaired_samples():
    with pytest.raises(ValueError):
        ab.verdict(BASE, BASE[:-1], "higher", 0.25)
    with pytest.raises(ValueError):
        ab.verdict([], [], "higher", 0.25)
    with pytest.raises(ValueError):
        ab.verdict(BASE, BASE, "faster", 0.25)


def _line(kips: float, failed: int = 0) -> dict:
    return {"attempted": 10, "failed": failed,
            "metrics": {"sim_kips": {"value": kips, "unit": "kinstr/s"}}}


def test_report_fails_on_a_worse_metric_or_more_failures(capsys):
    end_to_end = [spec for spec in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        if spec["name"] == "sim_kips"]
    base = [_line(b) for b in BASE]
    assert ab.report(ab.judge({"base": base,
                               "change": [_line(b + 20) for b in BASE]},
                              end_to_end))
    assert "gain" in capsys.readouterr().out
    assert not ab.report(ab.judge({"base": base,
                                   "change": [_line(b / 2) for b in BASE]},
                                  end_to_end))
    failing = [_line(b + 20, failed=1) for b in BASE]
    assert not ab.report(ab.judge({"base": base, "change": failing},
                                  end_to_end))


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Three pairs a side, seeds 1000-1002: each run's sim_kips, setup_s and
#: peak_rss_mb.
RUNS = {"base": [(100.0, 0.20, 52.0), (104.0, 0.22, 52.5),
                 (98.0, 0.21, 51.5)],
        "change": [(101.0, 0.19, 52.2), (97.0, 0.23, 52.1),
                   (103.0, 0.20, 51.9)]}

REVISIONS = {"base": {"given": "HEAD~1", "resolved": "a" * 40},
             "change": {"head": "b" * 40, "dirty": True}}


def _results(change_failed: int = 0) -> dict:
    results = {}
    for side, runs in RUNS.items():
        failed = change_failed if side == "change" else 0
        results[side] = [
            {"correct": failed == 0, "attempted": 10, "failed": failed,
             "metrics": {name: {"value": value, "unit": unit}
                         for (name, unit), value in zip(
                             (("sim_kips", "kinstr/s"), ("setup_s", "s"),
                              ("peak_rss_mb", "MiB")), run)},
             "stamp": {"workload": "walk_storm", "seed": 1000 + i,
                       "side": side}}
            for i, run in enumerate(runs)]
    return results


def test_record_holds_every_documented_field():
    rec = ab.record(SPEC, "walk_storm", 1000, REVISIONS, _results())
    assert set(rec) == {"schema", "created_utc", "base", "change",
                        "workload", "run_seconds", "pairs", "metrics",
                        "operations", "ok"}
    assert rec["schema"] == "repro.perfbench-ab/v1"
    assert re.fullmatch(r"\d{8}T\d{6}Z", rec["created_utc"])
    assert rec["base"] == {"given": "HEAD~1", "resolved": "a" * 40}
    assert rec["change"] == {"head": "b" * 40, "dirty": True}
    assert (rec["workload"], rec["run_seconds"]) == ("walk_storm",
                                                     SPEC["run_seconds"])
    assert [set(pair) for pair in rec["pairs"]] == [
        {"seed", "first", "stamps"}] * 3
    assert list(rec["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in rec["metrics"].values():
        assert set(metric) == {"unit", "better", "bound", "base", "change",
                               "base_quartiles", "change_quartiles",
                               "wins", "pairs", "verdict"}
    assert rec["operations"] == {"base": {"failed": 0, "attempted": 30},
                                 "change": {"failed": 0, "attempted": 30}}
    json.dumps(rec)  # plain JSON throughout


def test_record_verdicts_equal_verdict():
    rec = ab.record(SPEC, "walk_storm", 1000, REVISIONS, _results())
    for spec in SPEC["end_to_end"]:
        metric = rec["metrics"][spec["name"]]
        v = ab.verdict(metric["base"], metric["change"], spec["better"],
                       spec["bound"])
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            spec["unit"], spec["better"], spec["bound"])
        assert metric["base_quartiles"] == list(v.base_quartiles)
        assert metric["change_quartiles"] == list(v.change_quartiles)
        assert (metric["wins"], metric["pairs"], metric["verdict"]) == (
            v.wins, v.pairs, v.verdict)
    assert rec["ok"]


def test_record_keeps_pair_order():
    results = _results()
    rec = ab.record(SPEC, "walk_storm", 1000, REVISIONS, results)
    for column, spec in enumerate(SPEC["end_to_end"]):
        metric = rec["metrics"][spec["name"]]
        for side in ("base", "change"):
            assert metric[side] == [run[column] for run in RUNS[side]]
    assert [(p["seed"], p["first"]) for p in rec["pairs"]] == [
        (1000, "base"), (1001, "change"), (1002, "base")]
    for i, pair in enumerate(rec["pairs"]):
        assert pair["stamps"] == {side: results[side][i]["stamp"]
                                  for side in ("base", "change")}


def test_record_lands_under_the_documented_name(tmp_path, monkeypatch):
    monkeypatch.setattr(ab, "RECORDS", tmp_path / ".perfbench")
    rec = ab.record(SPEC, "hit_stream", 1000, REVISIONS, _results())
    path = ab.write_record(rec)
    assert path.parent == tmp_path / ".perfbench"
    assert path.name == f"BENCH_{rec['created_utc']}_hit_stream.json"
    assert json.loads(path.read_text()) == rec


def _main(monkeypatch, tmp_path, results) -> int:
    """``main`` on canned pairs: no git, no base checkout, no perfbench."""
    monkeypatch.setattr(ab, "RECORDS", tmp_path)
    monkeypatch.setattr(ab, "revisions", lambda base: REVISIONS)
    monkeypatch.setattr(ab, "base_checkout",
                        lambda commit: contextlib.nullcontext(tmp_path))
    monkeypatch.setattr(ab, "run_pairs", lambda *args: results)
    return ab.main(["--base", "HEAD~1", "--workload", "walk_storm",
                    "--pairs", "3"])


def test_main_fails_on_a_larger_failed_share(tmp_path, monkeypatch,
                                             capsys):
    assert _main(monkeypatch, tmp_path, _results()) == 0
    assert _main(monkeypatch, tmp_path, _results(change_failed=1)) == 1
    out = capsys.readouterr().out
    assert "change: 3 of 30 operations failed" in out
    records = sorted(tmp_path.glob("BENCH_*_walk_storm.json"))
    assert records and f"record: {records[-1]}" in out
    assert json.loads(records[-1].read_text())["ok"] is False


#: The child of the SIGTERM test: ``main`` on a throwaway repository
#: whose one pair is a sleeping process standing in for perfbench.
_SIGTERM_CHILD = """
import importlib.util, pathlib, subprocess, sys
spec = importlib.util.spec_from_file_location("perfbench_ab", sys.argv[1])
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
ab.ROOT = pathlib.Path(sys.argv[2])
pid_file = sys.argv[3]

def run_pairs(base_root, *args):
    subprocess.run([sys.executable, "-c",
                    "import os, sys, time; "
                    "open(sys.argv[1], 'w').write(str(os.getpid())); "
                    "print('ready', flush=True); time.sleep(120)",
                    pid_file])

ab.run_pairs = run_pairs
sys.exit(ab.main(["--base", "HEAD", "--pairs", "1"]))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_kills_perfbench_and_removes_the_base_checkout(tmp_path):
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    repo.mkdir()
    tmp.mkdir()
    (repo / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "BENCHMARK.json"],
                 ["commit", "-qm", "init"]):
        subprocess.run(git + args, cwd=repo, check=True)
    pid_file = tmp_path / "perfbench.pid"
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGTERM_CHILD,
         str(ROOT / "tools" / "perfbench_ab.py"), str(repo), str(pid_file)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "TMPDIR": str(tmp)})
    pid = None
    try:
        for line in proc.stdout:
            if line.startswith("ready"):
                break
        pid = int(pid_file.read_text())
        assert list(tmp.glob("perfbench-ab-*"))  # the base checkout's holder
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        worktrees = subprocess.run(["git", "worktree", "list"], cwd=repo,
                                   check=True, capture_output=True,
                                   text=True).stdout
        assert "perfbench-ab-" not in worktrees
        assert not list(tmp.glob("perfbench-ab-*"))
        assert not _alive(pid)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)
