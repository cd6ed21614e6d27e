"""Tests of the benchmark's own arithmetic and layer table.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import sims  # noqa: E402
from spans import (SpanRecorder, Tally, delta, median_count, tail,  # noqa: E402
                   traced)


def ticking_recorder() -> SpanRecorder:
    """A recorder whose clock advances by one per reading."""
    tick = itertools.count()
    return SpanRecorder(clock=lambda: next(tick))


class Level:
    """A cache level that forwards every access to the level below."""

    def __init__(self, name, below=None):
        self.name = name
        self.below = below

    def access(self, depth):
        return self.below.access(depth + 1) if self.below else depth


# -- self time -------------------------------------------------------
def test_self_time_splits_nested_spans():
    # L1D -> L2C -> LLC -> DRAM entered at 0, 1, 2, 3; left at 7, 8, 10, 11.
    times = iter([0, 1, 2, 3, 7, 8, 10, 11])
    rec = SpanRecorder(clock=lambda: next(times))
    for name in ("cache.l1d", "cache.l2c", "cache.llc", "memsys.dram"):
        rec.begin(name)
    for _ in range(4):
        rec.end()
    assert rec.self_s == {"memsys.dram": 4, "cache.llc": 2,
                          "cache.l2c": 3, "cache.l1d": 2}
    assert sum(rec.self_s.values()) == 11  # the root's duration
    assert rec.stack == []
    parents = {s["name"]: s["parent"] for s in rec.sample()}
    ids = {s["name"]: s["id"] for s in rec.sample()}
    assert parents["memsys.dram"] == ids["cache.llc"]
    assert parents["cache.l1d"] == 0


def test_recursive_method_gets_one_span_name_per_instance():
    rec = ticking_recorder()

    class Cache(Level):
        access = traced(Level.access, rec, layers.cache_level,
                        collapse=False)

    l1d = Cache("L1D", Cache("L2C", Cache("LLC")))
    assert l1d.access(0) == 2
    assert rec.calls == {"cache.l1d": 1, "cache.l2c": 1, "cache.llc": 1}
    # Clock: L1D 0..5, L2C 1..4, LLC 2..3.
    assert rec.self_s == {"cache.llc": 1, "cache.l2c": 2, "cache.l1d": 2}


def test_collapse_counts_entries_not_super_chains():
    rec = ticking_recorder()

    class Policy:
        def on_fill(self):
            return 1

    class Derived(Policy):
        def on_fill(self):
            return super().on_fill() + 1

    for cls in (Policy, Derived):
        cls.on_fill = traced(vars(cls)["on_fill"], rec, "cache.policy")
    assert Derived().on_fill() == 2
    assert rec.calls == {"cache.policy": 1}


def test_span_closes_when_the_call_raises():
    rec = ticking_recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        traced(boom, rec, "vm.walk")()
    assert rec.stack == [] and rec.calls == {"vm.walk": 1}


def test_coroutine_span_covers_the_awaited_body():
    rec = ticking_recorder()

    async def submit(x):
        return x * 2

    assert asyncio.run(traced(submit, rec, "service.submit")(3)) == 6
    assert rec.calls == {"service.submit": 1} and rec.stack == []


def test_raw_spans_are_bounded_per_simulation():
    rec = SpanRecorder(clock=lambda: 0.0, keep=2)
    for sim in (0, 1):
        rec.start_sim(sim)
        for _ in range(5):
            rec.begin("vm.tlb")
            rec.end()
    assert [s["sim"] for s in rec.sample()] == [0, 0, 1, 1]
    assert rec.calls == {"vm.tlb": 10}


def test_delta_between_totals():
    before = ({"a": 1}, {"a": 0.5})
    after = ({"a": 3, "b": 1}, {"a": 2.0, "b": 0.25})
    assert delta(after, before) == ({"a": 2, "b": 1}, {"a": 1.5, "b": 0.25})


def test_span_metrics_are_per_unit_and_sum_their_spans():
    calls = {"uncore.load": 6, "uncore.store": 2}
    self_s = {"uncore.load": 3.0, "uncore.store": 1.0}
    values = layers.span_metrics(calls, self_s, units=2)
    assert values["uncore.load.calls"] == 3
    assert values["uncore.store.calls"] == 1
    assert values["uncore.access.self_s"] == 2.0
    assert values["vm.walk.calls"] == 0


# -- medians and tails -----------------------------------------------
def test_median_comes_with_its_sample_count():
    assert median_count([3, 1, 2]) == (2, 3)
    assert median_count([4, 1, 3, 2]) == (2.5, 4)
    with pytest.raises(ValueError):
        median_count([])


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(30))) is None
    assert tail(list(range(40)))[0] == 75
    assert tail(list(range(100)))[0] == 90
    assert tail(list(range(1000)))[0] == 99


# -- failed / attempted ----------------------------------------------
def test_failures_count_against_attempts():
    tally = Tally()
    assert tally.check(True, "fine")
    assert not tally.check(False, "stats differ")
    assert tally.call("sim", lambda: 1 / 0) is None
    assert tally.call("sim", lambda x: x + 1, 1) == 2
    tally.fail("job lost")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.failures[1].startswith("sim: ZeroDivisionError")


def test_setup_probes_spread_over_the_run_and_all_run(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(bench.time, "perf_counter", lambda: now[0])
    probes = bench.SetupProbes("walk_storm", 1, 4, ROOT, Tally())
    ran = []
    monkeypatch.setattr(probes, "_probe", lambda: ran.append(now[0]))
    probes.schedule(8.0)  # due at 1, 3, 5 and 7 seconds
    for t in (0.5, 4.0, 4.5, 5.5):  # a long sample delays two probes
        now[0] = t
        probes.poll()
    assert ran == [4.0, 4.0, 5.5]
    now[0] = 6.0  # the run ended before the last one was due
    probes.finish()
    assert ran == [4.0, 4.0, 5.5, 6.0] and probes.due_at == []


# -- host speed ------------------------------------------------------
def test_rate_scaling_cancels_a_slowdown_of_the_fitted_elasticity():
    nominal, e = hostspeed.NOMINAL_S, hostspeed.ELASTICITY
    assert hostspeed.scale_rate(80.0, nominal) == 80.0
    # Reference work 1.5x slower: the simulator ran 1.5 ** e slower.
    slow = nominal * 1.5
    assert hostspeed.scale_rate(80.0 / 1.5 ** e, slow) == pytest.approx(80)


def test_setup_reading_scales_by_the_mean_fresh_start():
    nominal = hostspeed.NOMINAL_START_S
    # Fresh starts 1.4x and 1.6x slower than nominal around a sample.
    reading = hostspeed.setup_reading(0.45, nominal * 1.4, nominal * 1.6)
    assert reading["start_s"] == pytest.approx(nominal * 1.5)
    assert reading["raw_s"] == 0.45
    assert reading["setup_s"] == pytest.approx(0.3)


def test_each_simulation_gets_the_host_readings_on_either_side(monkeypatch):
    readings = iter([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(readings))

    def simulate(api, wl, seed, options=None):
        return sims.Sim(seed=seed, wall=1.0, instructions=1000, counts={},
                        summary={}, digest="same")

    monkeypatch.setattr(sims, "simulate", simulate)
    run = sims.SimRun(sims.WALK_STORM, 1, Tally())
    # A setup probe runs ahead of the second simulation, so the reading
    # after the first one is stale by then.
    out = run.loop(None, 0.0, "timed", before=lambda i: i == 1, host=True)
    assert [s.host_s for s in out] == [2.0, 6.0, 8.0, 10.0]


SIM_KEYS = (
    "cycles", "instructions", "stall.translation", "stall.replay",
    "stall.non_replay", "dtlb.hits", "dtlb.accesses", "stlb.hits",
    "stlb.accesses", "psc.lookups", "psc.misses", "walk_cycles",
    "l2c.replay_mpki", "llc.replay_mpki", "llc.leaf_mpki", "dram.row_hits",
    "dram.accesses", "mshr.merges", "mshr.admission_stall_cycles",
    "prefetch.useful", "prefetch.fills", "l1d.hits", "l1d.accesses",
    "l2c.hits", "l2c.accesses", "llc.hits", "llc.accesses",
    "batch.fast_hits", "batch.excursions", "batch.fallbacks")


def test_sim_values_average_counts_and_pool_ratios():
    one = dict.fromkeys(SIM_KEYS, 0)
    two = dict.fromkeys(SIM_KEYS, 0)
    one.update({"cycles": 100, "instructions": 50, "dtlb.hits": 1,
                "dtlb.accesses": 1})
    two.update({"cycles": 300, "instructions": 150, "dtlb.hits": 0,
                "dtlb.accesses": 3})
    values = layers.sim_metrics([one, two])
    assert values["core.cycles"] == 200
    assert values["core.ipc"] == 0.5
    assert values["vm.dtlb.hit_ratio"] == 0.25  # pooled, not 0.5 averaged
    assert values["vm.stlb.hit_ratio"] == 0.0  # no accesses reads 0


# -- the layer table -------------------------------------------------
def test_every_layer_boundary_resolves():
    targets = layers.resolve(layers.SIM_BOUNDARIES + layers.SERVICE_BOUNDARIES,
                             policies=True)
    spans = {span for _, _, span, _ in targets if isinstance(span, str)}
    assert {"vm.walk", "cache.policy", "service.submit"} <= spans


def test_a_renamed_boundary_fails_loudly():
    with pytest.raises(layers.LayerPathError, match="MMU.translate_v2"):
        layers.resolve((("vm.translate", "repro.vm.mmu", "MMU.translate_v2",
                         True),), policies=False)


def test_tracing_restores_the_originals():
    from repro.vm.tlb import TLB
    original = vars(TLB)["lookup"]
    targets = layers.resolve((("vm.tlb", "repro.vm.tlb", "TLB.lookup",
                               True),), policies=False)
    with layers.Tracing(SpanRecorder(), targets):
        assert vars(TLB)["lookup"] is not original
    assert vars(TLB)["lookup"] is original


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(bench.E2E_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in layers.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
