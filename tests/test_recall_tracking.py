"""Recall tracking is opt-in and only observes.

``SimConfig.track_recall`` attaches the STLB, L2C and LLC recall
trackers.  Only Figs 5, 7 and 18 read them, so only their points set
it: every other run leaves the trackers off and its ``RunSummary``
carries no recall histograms.
"""

import pytest

from repro import api
from repro.experiments import registry
from repro.experiments.parallel import RunSummary
from repro.experiments.runner import run_benchmark, run_mix
from repro.params import default_config
from repro.validate.oracle import hierarchy_counters

SCALE = 64
GEOMETRY = dict(instructions=4000, warmup=500, scale=SCALE)

#: label -> (run function, its keyword arguments, config overrides).
RUNS = {
    "pr_full": (run_benchmark, {"name": "pr"}, {"enhancements": "full"}),
    "pr_inclusive": (run_benchmark, {"name": "pr"},
                     {"llc_inclusion": "inclusive"}),
    "canneal_cbpred": (run_benchmark, {"name": "canneal"},
                       {"comparison": "cbpred"}),
    "smt_pr_canneal": (run_mix, {"threads": ("pr", "canneal")}, {}),
    "cores_mcf_tc": (run_mix, {"cores": ("mcf", "tc")}, {}),
}

RECALL_FIGURES = ("fig5", "fig7", "fig18")


def _observe(label, track_recall):
    run_fn, kwargs, overrides = RUNS[label]
    config = default_config(SCALE).with_(track_recall=track_recall,
                                         **overrides)
    run = run_fn(config=config, **kwargs, **GEOMETRY)
    counters = [hierarchy_counters(core.hierarchy, core)
                for core in run.streams or [run.core]]
    return RunSummary.from_run(run).to_dict(), counters


@pytest.mark.parametrize("label", list(RUNS))
def test_tracking_recall_never_changes_the_run(label):
    tracked, tracked_counters = _observe(label, True)
    plain, plain_counters = _observe(label, False)
    recall = tracked.pop("recall")
    assert set(recall) == {"stlb", "l2c", "llc"}
    assert recall["stlb"]["translation"]["samples"] > 0
    assert plain.pop("recall") == {}
    assert tracked == plain
    assert tracked_counters == plain_counters


def test_default_run_carries_no_recall():
    run = api.run("pr", instructions=2000, warmup=500, scale=SCALE)
    assert run.hierarchy.mmu.stlb.recall is None
    assert run.hierarchy.llc.recall_pair is None
    summary = RunSummary.from_run(run)
    assert summary.recall == {}
    with pytest.raises(ValueError, match="track_recall"):
        summary.recall_data("llc")


def test_only_the_recall_figures_ask_for_recall():
    """Every registered harness's grid at 4000 + 1000, driven without
    simulating: Figs 5, 7 and 18 share one set of 9 tracked baseline
    points, and no other point tracks recall."""
    grids = {spec.name: set(next(spec.harness(instructions=4000,
                                              warmup=1000)).values())
             for spec in registry.specs()}
    tracked = {name: {key for key in keys if key.config.track_recall}
               for name, keys in grids.items()}
    recall_keys = grids["fig5"]
    assert len(recall_keys) == 9
    for name in RECALL_FIGURES:
        assert tracked[name] == grids[name] == recall_keys
    assert all(not keys for name, keys in tracked.items()
               if name not in RECALL_FIGURES)
    assert all(key.config == default_config(key.scale).with_(
        track_recall=True) for key in recall_keys)
