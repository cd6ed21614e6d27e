"""Tests for run identity, run snapshots, the result store and
``run_many`` (:mod:`repro.experiments.parallel`), serial and bound to
the sweep service."""

import asyncio

import pytest

from repro.experiments import parallel
from repro.experiments.figures import (fig1_rob_stalls, fig4_translation_mpki,
                                       fig14_performance)
from repro.experiments.parallel import (ResultCache, RunKey, RunSummary,
                                        config_digest, run_many)
from repro.experiments.runner import run_benchmark
from repro.params import EnhancementConfig, default_config
from repro.service import SweepService, serving

TINY_N, TINY_W = 2500, 600


def keys_for(benchmarks, config=None, seed=1):
    return [RunKey.make(b, config, TINY_N, TINY_W, seed=seed)
            for b in benchmarks]


# ----------------------------------------------------------------------
# RunKey identity
# ----------------------------------------------------------------------
def test_runkey_equality_and_digest_follow_config():
    a = RunKey.make("pr", None, TINY_N, TINY_W)
    b = RunKey.make("pr", default_config(), TINY_N, TINY_W)
    assert a == b and hash(a) == hash(b) and a.digest == b.digest

    full = default_config().with_(enhancements=EnhancementConfig.full())
    c = RunKey.make("pr", full, TINY_N, TINY_W)
    assert c != a and c.digest != a.digest
    assert config_digest(full) != config_digest(default_config())

    d = RunKey.make("pr", None, TINY_N, TINY_W, seed=2)
    assert d != a and d.digest != a.digest


# ----------------------------------------------------------------------
# RunSummary fidelity
# ----------------------------------------------------------------------
def test_summary_mirrors_run_result():
    run = run_benchmark("pr", instructions=TINY_N, warmup=TINY_W)
    cycles, metrics = run.cycles, run.summary()
    fractions = run.hierarchy.response_distribution.fractions("replay")
    s = RunSummary.from_run(run)
    assert s.cycles == cycles
    assert s.ipc == pytest.approx(run.ipc)
    assert s.summary() == metrics
    assert s.stlb_mpki == metrics["stlb_mpki"]
    assert s.cache_mpki("llc", "replay") == metrics["llc_replay_mpki"]
    assert s.leaf_mpki("l2c") == metrics["l2c_ptl1_mpki"]
    assert s.response_fractions("replay") == fractions
    assert sum(s.response_fractions("translation").values()) == \
        pytest.approx(1.0)


def test_summary_round_trips_through_json_dict():
    import json
    run = run_benchmark("tc", instructions=TINY_N, warmup=TINY_W)
    s = RunSummary.from_run(run)
    restored = RunSummary.from_dict(json.loads(json.dumps(s.to_dict())))
    assert restored.to_dict() == s.to_dict()


# ----------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit (satellite requirement)
# ----------------------------------------------------------------------
def test_parallel_matches_serial_bit_identical(tmp_path):
    """A 2-worker service pool over 3 benchmarks x 2 configs must
    produce bit-identical RunSummary dicts to serial run_many, and a
    second pass must be served entirely from the store."""
    benchmarks = ("pr", "tc", "mcf")
    configs = (None,
               default_config().with_(
                   enhancements=EnhancementConfig.full()))
    keys = [k for cfg in configs for k in keys_for(benchmarks, cfg)]

    serial_out = run_many(keys)
    assert len(serial_out) == 6

    with serving(workers=2, store=ResultCache(root=tmp_path)) as service:
        par_out = run_many(keys)
        assert service.metrics.executed == 6
        assert service.metrics.store_hits == 0
        for key in keys:
            assert par_out[key].to_dict() == serial_out[key].to_dict(), key

        again = run_many(keys)
        assert service.metrics.executed == 6     # nothing re-simulated
        assert service.metrics.store_hits == 6   # all six memoised
    for key in keys:
        assert again[key].to_dict() == serial_out[key].to_dict(), key


def test_duplicate_keys_collapse_to_one_simulation(tmp_path):
    key = RunKey.make("pr", None, TINY_N, TINY_W)
    with serving(store=ResultCache(root=tmp_path)) as service:
        out = run_many([key, RunKey.make("pr", None, TINY_N, TINY_W)])
        assert service.metrics.executed == 1
    assert len(out) == 1


# ----------------------------------------------------------------------
# ResultCache behaviour
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_versioning(tmp_path):
    key = RunKey.make("pr", None, TINY_N, TINY_W)
    summary = RunSummary.from_run(
        run_benchmark("pr", instructions=TINY_N, warmup=TINY_W))
    cache = ResultCache(root=tmp_path, fingerprint="aaaa")
    assert cache.get_raw(key) is None
    assert cache.put_raw(key, summary.to_dict())
    assert cache.get_raw(key) == summary.to_dict()
    # A different code fingerprint must not see the old results.
    assert ResultCache(root=tmp_path, fingerprint="bbbb").get_raw(key) \
        is None


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="aaaa")
    key = RunKey.make("pr", None, TINY_N, TINY_W)
    cache.path_for(key).parent.mkdir(parents=True)
    cache.path_for(key).write_text("{not json")
    assert cache.get_raw(key) is None


# ----------------------------------------------------------------------
# Failure handling and progress reporting
# ----------------------------------------------------------------------
def test_failed_point_raises_and_names_it(tmp_path):
    with serving(store=ResultCache(root=tmp_path)) as service:
        with pytest.raises(RuntimeError,
                           match=r"point RunKey\('no-such-benchmark'"):
            run_many(keys_for(["no-such-benchmark"]))
        assert service.metrics.failures == 1


def test_progress_callback_sees_cache_and_run_events(tmp_path):
    """fig1 and fig3 share one baseline grid: the first figure job runs
    its points, the second finds them in the store, and each finished
    point is one point event on the figure's stream."""
    service = SweepService(store=ResultCache(root=tmp_path))

    async def body():
        jobs = []
        for name in ("fig1", "fig3"):
            jobs.append(await service.submit(
                "figure", figure=name, benchmarks=["pr", "tc"],
                instructions=TINY_N, warmup=TINY_W))
            await service.wait(jobs[-1])
        await service.close()
        return jobs

    events = [e for job in asyncio.run(body())
              for e in job.events.snapshot()
              if e["kind"] in ("figure-progress", "figure-skip")]
    sources = [e["source"] for e in events]
    assert sources == ["run", "run", "store", "store"]
    assert [e["kind"] for e in events] == ["figure-progress"] * 2 \
        + ["figure-skip"] * 2
    assert [e["done"] for e in events] == [1, 2, 1, 2]
    assert all(e["total"] == 2 and e["failed"] == 0 for e in events)
    keys = keys_for(["pr", "tc"]) * 2
    assert [(e["benchmark"], e["config"], e["seed"], e["digest"])
            for e in events] == [(k.benchmark, k.config_hash[:12], k.seed,
                                  k.digest) for k in keys]
    assert all(e["wall_time"] > 0 for e in events if e["source"] == "run")


# ----------------------------------------------------------------------
# Figure harness integration (acceptance criterion): regenerating
# several figures back to back performs each unique simulation once.
# ----------------------------------------------------------------------
def test_figures_back_to_back_simulate_each_unique_run_once(tmp_path):
    two = ["pr", "xalancbmk"]
    with serving(workers=2, store=ResultCache(root=tmp_path)) as service:
        m = service.metrics
        fig1_rob_stalls(benchmarks=two, instructions=TINY_N, warmup=TINY_W)
        fig4_translation_mpki(benchmarks=two, policies=["lru", "ship"],
                              instructions=TINY_N, warmup=TINY_W)
        fig14_performance(benchmarks=two, instructions=TINY_N,
                          warmup=TINY_W)
        # 16 (benchmark, config) pairs are requested across the three
        # figures but only 12 are unique: fig4's "ship" column IS the
        # default baseline (a store hit on fig1's points), and fig14's
        # "base" column recurs again.  Each unique point runs once.
        assert m.executed + m.store_hits + m.dedup_hits == 16
        assert m.executed == 12
        assert m.store_hits == 4
        # Regenerating a figure again simulates nothing new.
        fig14_performance(benchmarks=two, instructions=TINY_N,
                          warmup=TINY_W)
        assert m.executed == 12
        assert m.store_hits == 14


def test_unbound_run_many_is_serial_and_unstored(tmp_path, monkeypatch):
    """With no executor bound, run_many simulates in-process through
    execute_key -- the same function the service's workers call."""
    calls = []
    real = parallel.execute_key
    monkeypatch.setattr(parallel, "execute_key",
                        lambda key: calls.append(key) or real(key))
    key = keys_for(["pr"])[0]
    first = run_many([key, key])
    second = run_many([key])
    assert calls == [key, key]  # deduped per batch, memoised nowhere
    assert first[key].to_dict() == second[key].to_dict()
    for name in ("ParallelRunner", "RunnerMetrics", "ProgressEvent",
                 "get_runner", "set_runner", "configure", "run_one"):
        assert not hasattr(parallel, name), name
