"""Tests for the sliced core and the multi-stream scheduler.

A trace run in arbitrary slices must be the trace run whole, and
:func:`repro.core.engine.interleave` must pick every instruction in the
order an instruction-at-a-time scheduler picks it.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.api import build_config
from repro.core import multicore as multicore_module
from repro.core import smt as smt_module
from repro.core.engine import interleave
from repro.core.multicore import MultiCore
from repro.core.ooo_core import UNBOUNDED, OOOCore
from repro.core.smt import SMTCore
from repro.experiments.mixes import MULTICORE_MIXES, SMT_MIXES
from repro.uncore.hierarchy import MemoryHierarchy
from repro.validate.oracle import hierarchy_counters
from repro.workloads.registry import make_trace
from repro.workloads.trace import KIND_NONMEM, Trace


# ----------------------------------------------------------------------
# One stream stepped one instruction at a time on a narrow core
# ----------------------------------------------------------------------
def step_narrow_core(n, rob=8, dispatch=2, retire=2):
    """Step ``n`` non-memory instructions one slice of one instruction at
    a time (``stop = index + 1``) on a core of the given widths."""
    cfg = build_config()
    cfg = cfg.with_(core=dataclasses.replace(
        cfg.core, rob_entries=rob, dispatch_width=dispatch,
        retire_width=retire))
    core = OOOCore(cfg, MemoryHierarchy(cfg))
    core.start(Trace(np.full(n, 0x400, dtype=np.int64),
                     np.full(n, KIND_NONMEM, dtype=np.int8),
                     np.zeros(n, dtype=np.int64)))
    while core.index < core.total:
        core.run_slice(core.index + 1)
    return core


def test_thread_steps_to_completion():
    core = step_narrow_core(20)
    assert core.index == core.total == 20
    result = core.result()
    assert result.instructions == 20
    assert result.cycles >= 10  # 2-wide dispatch floor


def test_dispatch_width_bounds_throughput():
    core = step_narrow_core(100, rob=1000, dispatch=2, retire=2)
    result = core.result()
    assert result.instructions == 100
    # 2-wide: at least 50 cycles for 100 instructions.
    assert result.cycles >= 50


# ----------------------------------------------------------------------
# One stream, run in arbitrary slices, is the core
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,enhancements,instructions,warmup", [
    ("pr", "full", 20_000, 4_000),
    ("compute", None, 20_000, 4_000),
    ("mcf", "full", 20_000, 4_000),
    ("pr", "full", 20_000, 0),
])
def test_single_thread_stepping_matches_core(name, enhancements,
                                             instructions, warmup):
    """One stream stepped through ``start`` plus slices cut at random
    indices and dispatch clocks runs the recurrence ``OOOCore.run``
    runs: same ROI, stalls and counters."""
    cfg = build_config(enhancements=enhancements)
    trace = make_trace(name, instructions + warmup)

    whole_hierarchy = MemoryHierarchy(cfg)
    whole = OOOCore(cfg, whole_hierarchy).run(trace, warmup=warmup)

    hierarchy = MemoryHierarchy(cfg)
    core = OOOCore(cfg, hierarchy)
    core.start(trace, warmup)
    rng = random.Random(instructions + warmup)
    slices = 0
    while core.index < core.total:
        if not core.counting and core.index == warmup:
            # What run does at the warmup edge.
            hierarchy.reset_stats()
            core.begin_roi()
        edge = warmup if core.index < warmup else core.total
        stop = min(edge, core.index + rng.randint(1, 3000))
        bound = rng.choice((UNBOUNDED,
                            core.dispatch_cycle + rng.randint(1, 2000)))
        core.run_slice(stop, bound)
        slices += 1
    sliced = core.result()

    assert slices > 10
    assert sliced.cycles == whole.cycles
    assert sliced.instructions == whole.instructions == instructions
    assert sliced.stalls.snapshot() == whole.stalls.snapshot()
    assert hierarchy_counters(hierarchy) == hierarchy_counters(
        whole_hierarchy)


# ----------------------------------------------------------------------
# Interleaved slices are the instruction-at-a-time scheduler
# ----------------------------------------------------------------------
def step_interleaved(cores, traces, warmup=0):
    """Reference scheduler: the furthest-behind stream (first listed on a
    tie) executes one instruction per pick (``stop = index + 1``)."""
    for core, trace in zip(cores, traces):
        core.start(trace, warmup)
    reset_done = warmup == 0
    while True:
        runnable = [core for core in cores if core.index < core.total]
        if not runnable:
            break
        core = min(runnable, key=lambda c: c.dispatch_cycle)
        if not core.counting and core.index == warmup:
            core.begin_roi()
        core.run_slice(core.index + 1)
        if not reset_done and all(c.index > warmup or c.index >= c.total
                                  for c in cores):
            for hierarchy in dict.fromkeys(c.hierarchy for c in cores):
                hierarchy.reset_stats()
            reset_done = True
    return [core.result() for core in cores]


def outcome(results, hierarchies):
    return ([(r.instructions, r.cycles, r.stalls.snapshot())
             for r in results],
            [hierarchy_counters(h) for h in hierarchies])


def run_smt(monkeypatch, scheduler, cfg, traces, warmup):
    monkeypatch.setattr(smt_module, "interleave", scheduler)
    hierarchy = MemoryHierarchy(cfg)
    return outcome(SMTCore(cfg, hierarchy).run(traces, warmup=warmup),
                   [hierarchy])


def run_multicore(monkeypatch, scheduler, cfg, traces, warmup):
    monkeypatch.setattr(multicore_module, "interleave", scheduler)
    machine = MultiCore(cfg, len(traces))
    return outcome(machine.run(traces, warmup=warmup), machine.hierarchies)


@pytest.mark.parametrize("mix,enhancements,instructions,warmup", [
    (SMT_MIXES[0], None, 2000, 0),
    (SMT_MIXES[4], "full", 2000, 500),
    (SMT_MIXES[7], "full", 800, 2000),
])
def test_smt_slices_match_stepping(monkeypatch, mix, enhancements,
                                   instructions, warmup):
    cfg = build_config(enhancements=enhancements)
    traces = [make_trace(name, instructions + warmup, seed=7 + i)
              for i, name in enumerate(mix)]
    stepped = run_smt(monkeypatch, step_interleaved, cfg, traces, warmup)
    sliced = run_smt(monkeypatch, interleave, cfg, traces, warmup)
    assert sliced == stepped


def test_smt_reset_waits_for_the_stream_that_finishes_first(monkeypatch):
    """A stream shorter than the warmup finishes without opening its ROI;
    the reset follows the other stream's warmup edge."""
    cfg = build_config(enhancements="full")
    traces = [make_trace("pr", 600, seed=7), make_trace("mcf", 3000, seed=8)]
    stepped = run_smt(monkeypatch, step_interleaved, cfg, traces, 1000)
    sliced = run_smt(monkeypatch, interleave, cfg, traces, 1000)
    assert sliced == stepped
    assert [t[0] for t in sliced[0]] == [0, 2000]


@pytest.mark.parametrize("mix,enhancements,instructions,warmup", [
    (MULTICORE_MIXES[3], "full", 1500, 500),
    (MULTICORE_MIXES[0], None, 600, 0),
])
def test_multicore_slices_match_stepping(monkeypatch, mix, enhancements,
                                         instructions, warmup):
    cfg = build_config(enhancements=enhancements)
    traces = [make_trace(name, instructions + warmup, seed=11 + i)
              for i, name in enumerate(mix)]
    stepped = run_multicore(monkeypatch, step_interleaved, cfg, traces,
                            warmup)
    sliced = run_multicore(monkeypatch, interleave, cfg, traces, warmup)
    assert sliced == stepped
