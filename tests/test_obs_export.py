"""Tests for the observability subsystem (``repro.obs``).

Covers the interval sampler (attachment, record shape, determinism,
non-perturbation), the ``repro.obs/v2`` export schema (golden round-trip,
validator, CSV), and the manifest/profiler/heartbeat helpers.
"""

import copy
import json

import pytest

from repro import api
from repro.obs.export import (CSV_COLUMNS, ExportSchemaError, export_csv,
                              load, validate, validate_strict)
from repro.obs.manifest import SCHEMA, Profiler, config_digest
from repro.obs.progress import Heartbeat

RUN_KW = dict(instructions=12_000, warmup=2_000, seed=7)
INTERVAL = 1_000


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """One observed run plus its on-disk export."""
    path = tmp_path_factory.mktemp("obs") / "pr.json"
    result = api.run("pr", metrics=str(path), sample_interval=INTERVAL,
                     **RUN_KW)
    return result, path


@pytest.fixture(scope="module")
def unobserved():
    return api.run("pr", **RUN_KW)


# ---------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------

def test_sampler_off_by_default(unobserved):
    assert unobserved.sampler is None
    assert unobserved.intervals == []
    assert unobserved.hierarchy.sampler is None


def test_sampler_emits_expected_interval_count(observed):
    result, _ = observed
    # 12k ROI instructions at a 1k interval: one record per boundary.
    assert len(result.intervals) >= 10


def test_sampling_does_not_perturb_simulation(observed, unobserved):
    result, _ = observed
    assert result.cycles == unobserved.cycles
    assert result.ipc == unobserved.ipc
    assert result.stlb_mpki == unobserved.stlb_mpki


def test_interval_record_shape(observed):
    result, _ = observed
    iv = result.intervals[0]
    for key in ("index", "instructions", "cycle_start", "cycle_end", "ipc",
                "levels", "rrpv", "occupancy", "tlb", "psc", "dram",
                "walks", "stalls"):
        assert key in iv, key
    assert iv["index"] == 0
    assert iv["instructions"] == INTERVAL
    assert iv["cycle_end"] > iv["cycle_start"]
    for level in ("l1d", "l2c", "llc"):
        assert 0.0 <= iv["levels"][level]["hit_rate"] <= 1.0
    assert set(iv["stalls"]) == {"translation", "replay", "non_replay"}
    for cat in ("translation", "replay", "non_replay"):
        assert iv["stalls"][cat] >= 0
    assert 0.0 <= iv["tlb"]["stlb"]["hit_rate"] <= 1.0


# The ids name the backends that once selected the two loops.
@pytest.mark.parametrize("reference", [True, False],
                         ids=["python", "numpy"])
def test_sampler_runs_at_slice_edges(reference):
    """The core calls the sampler once per edge, not per instruction,
    on its reference loop and with the fast path; the call at the trace
    end records the partial interval."""
    from repro.core.ooo_core import OOOCore
    from repro.obs.sampler import IntervalSampler
    from repro.params import default_config
    from repro.uncore.hierarchy import MemoryHierarchy
    from repro.workloads.registry import make_trace

    class CountingSampler(IntervalSampler):
        calls = 0

        def on_retire(self, cycle, index):
            self.calls += 1
            super().on_retire(cycle, index)

    cfg = default_config(64)
    hierarchy = MemoryHierarchy(cfg)
    core = OOOCore(cfg, hierarchy)
    core._reference = reference
    sampler = hierarchy.sampler = CountingSampler(hierarchy, 1_000)
    result = core.run(make_trace("pr", 3_000, scale=64), warmup=500)
    assert sampler.calls == 3
    assert [iv["instructions"] for iv in sampler.intervals] \
        == [1_000, 1_000, 500]
    assert sampler.intervals[-1]["cycle_end"] \
        == sampler.intervals[0]["cycle_start"] + result.cycles


def test_intervals_are_contiguous(observed):
    result, _ = observed
    ivs = result.intervals
    assert [iv["index"] for iv in ivs] == list(range(len(ivs)))
    for prev, cur in zip(ivs, ivs[1:]):
        assert cur["cycle_start"] == prev["cycle_end"]


# ---------------------------------------------------------------------
# Export / schema
# ---------------------------------------------------------------------

def test_export_is_schema_valid_json(observed):
    _, path = observed
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema"] == SCHEMA
    assert doc["kind"] == "run"
    assert validate(doc) == []


def test_export_roundtrip_through_load(observed):
    result, path = observed
    doc = load(path)
    assert doc["manifest"]["benchmark"] == "pr"
    assert doc["manifest"]["seed"] == 7
    assert doc["manifest"]["sample_interval"] == INTERVAL
    assert len(doc["intervals"]) == len(result.intervals)
    assert doc["summary"]["cycles"] == result.cycles


def test_manifest_records_components_and_profile(observed):
    _, path = observed
    m = load(path)["manifest"]
    assert m["components"]["llc_policy"]
    assert m["simulated"]["cycles"] > 0
    assert m["wall_time"]["total"] > 0.0
    assert set(m["enhancements"]) >= {"t_drrip", "t_ship", "newsign",
                                      "atp", "tempo"}


def test_export_deterministic_across_same_seed_runs(observed):
    result, _ = observed
    again = api.run("pr", sample_interval=INTERVAL, **RUN_KW)
    doc_a = result.metrics_document()
    doc_b = again.metrics_document()
    for doc in (doc_a, doc_b):
        for volatile in ("created_unix", "wall_time"):
            doc["manifest"].pop(volatile, None)
    assert doc_a == doc_b


def test_validator_flags_corruption(observed):
    result, _ = observed
    good = result.metrics_document()

    bad = copy.deepcopy(good)
    bad["schema"] = "repro.obs/v999"
    assert validate(bad)

    bad = copy.deepcopy(good)
    del bad["manifest"]["benchmark"]
    assert any("benchmark" in e for e in validate(bad))

    bad = copy.deepcopy(good)
    del bad["intervals"][0]["ipc"]
    assert validate(bad)

    with pytest.raises(ExportSchemaError):
        validate_strict({"schema": SCHEMA, "kind": "run"})


def test_csv_export(observed, tmp_path):
    result, _ = observed
    out = tmp_path / "intervals.csv"
    export_csv(out, result.intervals)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == list(CSV_COLUMNS)
    assert len(lines) == 1 + len(result.intervals)


# ---------------------------------------------------------------------
# Manifest helpers
# ---------------------------------------------------------------------

def test_config_digest_stable_and_sensitive():
    a = api.build_config()
    b = api.build_config()
    c = api.build_config(enhancements="full")
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)


def test_profiler_accumulates_phases():
    prof = Profiler()
    with prof.phase("build"):
        pass
    with prof.phase("build"):
        pass
    with prof.phase("simulate"):
        pass
    snap = prof.snapshot()
    assert set(snap) == {"build", "simulate", "total"}
    assert snap["total"] == pytest.approx(snap["build"] + snap["simulate"])


def test_heartbeat_collects_and_streams(tmp_path):
    class Key:
        benchmark, config_hash, seed = "pr", "a" * 64, 1

    path = tmp_path / "beat.ndjson"
    hb = Heartbeat(path=str(path))
    for i in range(3):
        hb.emit(done=i + 1, total=3, key=Key(), source="run",
                wall_time=0.5)
    hb.close()
    assert len(hb.events) == 3
    streamed = [json.loads(line)
                for line in path.read_text().strip().splitlines()]
    assert [e["done"] for e in streamed] == [1, 2, 3, 3]  # + final line
    assert streamed[0]["benchmark"] == "pr"
    assert streamed[-1]["final"] is True
