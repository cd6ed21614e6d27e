"""Tests for the ablation, extension and comparison experiment modules,
plus FigureResult utilities."""

import pytest

from repro.experiments.ablations import (ABLATION_VARIANTS,
                                         atp_trigger_placement,
                                         single_mechanism_ablation)
from repro.experiments.comparison import prior_work_comparison
from repro.experiments.extensions import huge_page_study
from repro.experiments.figures import FigureResult, fig14_performance

TINY = dict(instructions=3000, warmup=800, benchmarks=["pr"])


def test_single_mechanism_ablation_shape():
    res = single_mechanism_ablation(**TINY)
    assert set(res.data["pr"]) == set(ABLATION_VARIANTS)
    assert "gmean" in res.data


def test_atp_trigger_placement_counts():
    res = atp_trigger_placement(**TINY)
    d = res.data["pr"]
    assert set(d) == {"l2c", "llc", "tempo"}
    assert all(v >= 0 for v in d.values())


def test_prior_work_comparison_shape():
    res = prior_work_comparison(**TINY)
    assert set(res.data["pr"]) == {"cbpred", "csalt", "proposed"}
    assert all(0.3 < v < 2.0 for v in res.data["pr"].values())


def test_huge_page_study_shape():
    res = huge_page_study(**TINY)
    d = res.data["pr"]
    assert d["stlb_2m"] < d["stlb_4k"]
    assert set(d) >= {"4K+enh", "2M", "2M+enh"}


def test_prefetch_accuracy_shape():
    from repro.experiments.accuracy import prefetch_accuracy
    res = prefetch_accuracy(benchmarks=["pr"], instructions=3000,
                            warmup=800)
    d = res.data["pr"]
    assert set(d) == {"ipcp", "spp", "bingo", "isb", "atp"}
    for label, entry in d.items():
        assert 0.0 <= entry["accuracy"] <= 1.0, label
    assert "overall" in res.data


def test_atp_accuracy_high_even_on_tiny_runs():
    from repro.experiments.accuracy import prefetch_accuracy
    res = prefetch_accuracy(benchmarks=["canneal"], instructions=6000,
                            warmup=1500)
    assert res.data["canneal"]["atp"]["accuracy"] > 0.9


def test_atp_scope_probe_restores_load():
    from repro.experiments.atp_scope import _ReplayLatencyProbe
    from repro.params import default_config
    from repro.uncore.hierarchy import MemoryHierarchy
    h = MemoryHierarchy(default_config())
    original = h.load
    with _ReplayLatencyProbe(h) as probe:
        from repro.vm.address import make_va
        h.load(make_va([1, 2, 3, 4, 5]), cycle=0)
        assert probe.count == 1
    assert h.load == original


def test_atp_scope_reports_positive_head_start():
    from repro.experiments.atp_scope import atp_scope
    res = atp_scope(benchmarks=["canneal"], instructions=10_000,
                    warmup=2_500)
    d = res.data["canneal"]
    assert d["triggers"] > 0
    assert d["head_start"] > 0
    assert 0.0 <= d["coverage"] <= 1.0


def test_figure_result_json_roundtrip():
    import json
    res = FigureResult("Fig X", "demo", ["name", "value"],
                       rows=[["a", 1.5]], data={"a": 1.5})
    loaded = json.loads(json.dumps(res.to_dict()))
    assert loaded["figure"] == "Fig X"
    assert loaded["rows"] == [["a", 1.5]]
    assert loaded["data"]["a"] == 1.5
