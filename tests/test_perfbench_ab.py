"""The verdict arithmetic of ``tools/perfbench_ab.py`` on synthetic samples."""

from __future__ import annotations

import importlib.util
import json
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
    assert ab.report({"base": base,
                      "change": [_line(b + 20) for b in BASE]}, end_to_end)
    assert "gain" in capsys.readouterr().out
    assert not ab.report({"base": base,
                          "change": [_line(b / 2) for b in BASE]},
                         end_to_end)
    failing = [_line(b + 20, failed=1) for b in BASE]
    assert not ab.report({"base": base, "change": failing}, end_to_end)
