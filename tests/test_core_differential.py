"""Differential test of the core's one drain loop.

``OOOCore.run_slice`` keeps its ROB as a ring of retire times, retires a
non-memory instruction through a three-way branch and, with
``fast_path`` set (every stream it is exact for), translates
every access itself (a DTLB miss probes the STLB and, on its miss,
walks), answers DTLB-hit/L1D-hit accesses inline and sends every other
access straight to the L1D.  None of this may change a simulated
statistic, so this module keeps the loop it replaced as a reference:
:class:`ReferenceCore` has the previous ``start`` and ``run_slice``
verbatim, with the ROB as a deque of retire times and no fast path.

Hypothesis draws traces (load/store/non-memory mixes over a pool of
pages, dependent load chains), the machine (scale, enhancements, a
small ROB), the warmup edge and an interval sampler's edges, so that
both fall inside a drain window.  Each trace runs on the reference, and
on the core with the fast path off and on; a two-stream ``interleave``
on one shared hierarchy runs the same way, its cores deciding the path
themselves.  Every retire cycle, the
``StallAccounting`` snapshot, every sampler interval, every
``hierarchy_counters`` entry and the L1D, DTLB and STLB state the fast
path writes must agree.  :class:`CountingHierarchy` shows that the
drawn traces, and the fixed runs, reach the branch that sends accesses
straight to the L1D, and that a fast-path run sends none through
``hierarchy.load``/``store``.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from typing import Deque, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import interleave
from repro.core.ooo_core import UNBOUNDED, WINDOW, OOOCore
from repro.core.rob import StallAccounting
from repro.obs.sampler import IntervalSampler
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.validate.oracle import diff_counters, hierarchy_counters
from repro.vm.address import make_va
from repro.workloads.registry import make_trace
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, KIND_STORE, Trace


# ----------------------------------------------------------------------
# Reference
# ----------------------------------------------------------------------
class ReferenceCore(OOOCore):
    """The previous ``start`` and ``run_slice``, verbatim: the ROB is a
    deque of retire times, and every access goes through the
    hierarchy."""

    def start(self, trace, warmup: int = 0,
              limit: Optional[int] = None) -> None:
        """Bind ``trace`` and reset the recurrence to its first instruction.

        With ``warmup == 0`` the region of interest opens here; otherwise
        the caller opens it (:meth:`begin_roi`) at index ``warmup``.
        """
        self.trace = trace
        self.warmup = warmup
        self.total = len(trace) if limit is None else min(limit, len(trace))
        self.index = 0
        # Completion of the most recent dependent-chain load: a load with
        # deps[i] set cannot issue before it (pointer chasing).
        self.chain_completion = 0
        self.dispatch_cycle = 0
        self.dispatch_slots = 0
        self.retire_cycle = 0
        self.retire_slots = 0
        self.retire_times: Deque[int] = deque()
        self.stalls = StallAccounting()
        self.roi_start_cycle = 0
        self.counting = False
        # The window read last: its first index and its four columns.
        self._window = (0, [], [], [], [])
        if warmup == 0:
            self.begin_roi()

    def run_slice(self, stop: int, bound: int = UNBOUNDED) -> None:
        """Execute instructions until the index reaches ``stop`` (at most
        the end of the trace) or the dispatch clock reaches ``bound``."""
        trace = self.trace
        total = self.total
        stop = min(stop, total)
        stalls = self.stalls
        counting = self.counting
        hierarchy = self.hierarchy
        checker = self.checker
        tracer = hierarchy.tracer
        rob_entries = self.rob_entries
        dispatch_width = self.dispatch_width
        retire_width = self.retire_width
        hierarchy_load = hierarchy.load
        hierarchy_store = hierarchy.store
        kind_load, kind_store = KIND_LOAD, KIND_STORE

        i = self.index
        chain_completion = self.chain_completion
        dispatch_cycle = self.dispatch_cycle
        dispatch_slots = self.dispatch_slots
        retire_cycle = self.retire_cycle
        retire_slots = self.retire_slots
        retire_times = self.retire_times
        lo, ips, kinds, addrs, deps = self._window
        hi = lo + len(kinds)

        while i < stop and dispatch_cycle < bound:
            if i == hi:
                lo = i
                hi = lo + WINDOW
                if hi > total:
                    hi = total
                ips, kinds, addrs, deps = trace.window(lo, hi)
            for j in range(i - lo, min(hi, stop) - lo):
                # -- dispatch ------------------------------------------------
                dc = dispatch_cycle
                if len(retire_times) >= rob_entries:
                    free_at = retire_times.popleft()
                    if free_at > dc:
                        dc = free_at
                        dispatch_slots = 0
                if dc > dispatch_cycle:
                    dispatch_cycle = dc
                    dispatch_slots = 0
                dispatch_slots += 1
                if dispatch_slots >= dispatch_width:
                    dispatch_cycle += 1
                    dispatch_slots = 0

                # -- execute --------------------------------------------------
                kind = kinds[j]
                is_replay = False
                translation_done = dc
                if kind == kind_load:
                    issue_at = dc
                    if deps[j] and chain_completion > issue_at:
                        issue_at = chain_completion
                    res = hierarchy_load(addrs[j], issue_at, ips[j])
                    completion = res.data_done
                    is_replay = res.is_replay
                    translation_done = res.translation_done
                    if deps[j]:
                        chain_completion = completion
                elif kind == kind_store:
                    hierarchy_store(addrs[j], dc, ips[j])
                    completion = dc + 1
                else:
                    completion = dc + 1

                # -- retire (in order, retire_width per cycle) ---------------
                earliest = retire_cycle
                if retire_slots >= retire_width:
                    earliest += 1
                if earliest < dc + 1:
                    earliest = dc + 1
                if completion > earliest:
                    # Only a load gets here: every other instruction
                    # completes at dc + 1, and ``earliest`` is never less.
                    stall = completion - earliest
                    if counting:
                        stalls.record_load_stall(
                            stall, is_replay, translation_pending=(
                                translation_done - earliest))
                        if tracer is not None:
                            tracer.attach_load_stall(
                                earliest, completion, is_replay,
                                translation_done, ip=ips[j])
                    rt = completion
                else:
                    rt = earliest
                if rt > retire_cycle:
                    retire_cycle = rt
                    retire_slots = 1
                else:
                    retire_slots += 1
                retire_times.append(rt)
                if checker is not None:
                    checker.on_retire(rt, len(retire_times))
                if dispatch_cycle >= bound:
                    break
            i = lo + j + 1

        self.index = i
        self.chain_completion = chain_completion
        self.dispatch_cycle = dispatch_cycle
        self.dispatch_slots = dispatch_slots
        self.retire_cycle = retire_cycle
        self.retire_slots = retire_slots
        self._window = (lo, ips, kinds, addrs, deps)


# ----------------------------------------------------------------------
# Recording every retire cycle
# ----------------------------------------------------------------------
class RetireLog(deque):
    """The reference's ROB deque, logging each retire time appended."""

    def __init__(self):
        super().__init__()
        self.log = []

    def append(self, retire_cycle):
        self.log.append(retire_cycle)
        super().append(retire_cycle)


class RingLog(list):
    """The core's ROB ring, logging each retire time written."""

    def __init__(self, slots):
        super().__init__(slots)
        self.log = []

    def __setitem__(self, pos, retire_cycle):
        self.log.append(retire_cycle)
        super().__setitem__(pos, retire_cycle)


class _Recording:
    """Swaps the ROB for a logging one when a trace starts."""

    def start(self, *args, **kwargs):
        super().start(*args, **kwargs)
        if isinstance(self, ReferenceCore):
            self.retire_times = RetireLog()
            self.retired = self.retire_times.log
        else:
            self.rob = RingLog(self.rob)
            self.retired = self.rob.log


class RecordedReference(_Recording, ReferenceCore):
    pass


class RecordedCore(_Recording, OOOCore):
    """The core on its reference loop: fast path off."""

    _reference = True


class RecordedFastCore(_Recording, OOOCore):
    pass


class CountingHierarchy(MemoryHierarchy):
    """Counts the accesses that go through ``load``/``store``.  The
    override is on a class, so the fast path stays on; the fast path's
    scalar excursions that are not among them went straight to the
    L1D (all of them, on these machines)."""

    through = 0

    def load(self, va, cycle, ip=0):
        self.through += 1
        return super().load(va, cycle, ip)

    def store(self, va, cycle, ip=0):
        self.through += 1
        return super().store(va, cycle, ip)


def _direct(core) -> int:
    """Accesses a fast-path run sent straight to the L1D."""
    return core.batch.scalar_excursions - core.hierarchy.through


# ----------------------------------------------------------------------
# Traces and machines
# ----------------------------------------------------------------------
def _machine(scale: int, enhancements: str, small_rob: bool):
    cfg = default_config(scale).with_(enhancements=enhancements)
    if small_rob:
        cfg = cfg.with_(core=dataclasses.replace(
            cfg.core, rob_entries=12, dispatch_width=3, retire_width=2))
    return cfg


#: (scale, enhancement preset, small ROB) -- every one fast-path
#: eligible, so the runs below really take the fast path.
MACHINES = [(16, "none", False), (16, "full", False), (64, "atp", False),
            (16, "none", True), (64, "full", True)]


@st.composite
def traces(draw, max_len: int = 2600):
    """A trace over a pool of pages: hypothesis draws its length, its
    load/store/non-memory mix, how often a load joins the dependent
    chain, how many pages it touches and how many lines of each; a seed
    draws the rest."""
    n = draw(st.integers(1, max_len))
    loads = draw(st.integers(0, 10))
    stores = draw(st.integers(0, 10 - loads))
    chained = draw(st.integers(0, 10))
    pages = draw(st.integers(1, 160))
    lines = draw(st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    pool = [make_va([rng.randrange(4), rng.randrange(4), rng.randrange(8),
                     rng.randrange(512), rng.randrange(512)])
            for _ in range(pages)]
    kinds = np.zeros(n, dtype=np.int8)
    addrs = np.zeros(n, dtype=np.int64)
    deps = np.zeros(n, dtype=np.int8)
    ips = np.zeros(n, dtype=np.int64)
    for i in range(n):
        roll = rng.randrange(10)
        if roll < loads:
            kinds[i] = KIND_LOAD
            deps[i] = rng.randrange(10) < chained
        elif roll < loads + stores:
            kinds[i] = KIND_STORE
        else:
            kinds[i] = KIND_NONMEM
            continue
        addrs[i] = rng.choice(pool) + 64 * rng.randrange(lines) \
            + rng.randrange(64)
        ips[i] = 0x400000 + 4 * rng.randrange(16)
    return Trace(ips, kinds, addrs, name="differential", deps=deps)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def _state(hierarchy):
    """What the fast path writes that ``hierarchy_counters`` does not
    show: the L1D's columns and LRU stamps, and each TLB's entries,
    stamps and frames."""
    l1d = hierarchy.l1d
    store = l1d.store
    state = {"l1d": (list(store.line), bytes(store.valid),
                     bytes(store.dirty), bytes(store.reused),
                     list(l1d.policy._stamp), l1d.policy._clock)}
    for name in ("dtlb", "stlb"):
        tlb = getattr(hierarchy.mmu, name)
        state[name] = ([list(entries.items()) for entries in tlb._sets],
                       [list(frames.items()) for frames in tlb._frames],
                       tlb._clock)
    return state


def _single(core_cls, cfg, trace, warmup, interval):
    hierarchy = CountingHierarchy(cfg)
    core = core_cls(cfg, hierarchy)
    sampler = None
    if interval is not None:
        sampler = hierarchy.sampler = IntervalSampler(hierarchy, interval)
    result = core.run(trace, warmup=warmup)
    return {"retired": core.retired,
            "instructions": result.instructions, "cycles": result.cycles,
            "stalls": result.stalls.snapshot(),
            "intervals": sampler.intervals if sampler else None,
            "state": _state(hierarchy),
            "counters": hierarchy_counters(hierarchy, result)}, core


def _assert_same(reference, other):
    assert diff_counters(reference.pop("counters"),
                         other.pop("counters")) == {}
    assert other == reference


def test_one_stream_matches_the_previous_loop():
    direct = []

    @settings(max_examples=40, deadline=None)
    @given(trace=traces(), machine=st.sampled_from(MACHINES),
           data=st.data())
    def check(trace, machine, data):
        n = len(trace)
        warmup = data.draw(st.integers(0, n), label="warmup")
        interval = data.draw(st.one_of(st.none(), st.integers(1, 1500)),
                             label="interval")
        cfg = _machine(*machine)
        reference, _ = _single(RecordedReference, cfg, trace, warmup,
                               interval)
        slow, _ = _single(RecordedCore, cfg, trace, warmup, interval)
        fast, core = _single(RecordedFastCore, cfg, trace, warmup, interval)
        stats = core.batch
        assert stats.fallbacks == {}
        memory = int(np.count_nonzero(trace.kinds != KIND_NONMEM))
        assert stats.fast_hits + stats.scalar_excursions == memory
        assert stats.instructions == n
        _assert_same(dict(reference), slow)
        _assert_same(reference, fast)
        direct.append(_direct(core))

    check()
    # The drawn traces reach the DTLB-hit/L1D-miss branch.
    assert sum(direct) > 0


def test_interleaved_streams_match_the_previous_loop():
    direct = []

    @settings(max_examples=25, deadline=None)
    @given(first=traces(max_len=1500), second=traces(max_len=1500),
           machine=st.sampled_from(MACHINES), data=st.data())
    def check(first, second, machine, data):
        warmup = data.draw(st.integers(0, max(len(first), len(second))),
                           label="warmup")
        cfg = _machine(*machine)
        runs = []
        for core_cls, fast in ((RecordedReference, False),
                               (RecordedCore, False),
                               (RecordedFastCore, True)):
            hierarchy = CountingHierarchy(cfg)
            cores = [core_cls(cfg, hierarchy) for _ in range(2)]
            results = interleave(cores, [first, second], warmup)
            runs.append({
                "retired": [core.retired for core in cores],
                "results": [(r.instructions, r.cycles, r.stalls.snapshot())
                            for r in results],
                "state": _state(hierarchy),
                "counters": hierarchy_counters(hierarchy, results[0])})
            if fast:
                memory = sum(int(np.count_nonzero(t.kinds != KIND_NONMEM))
                             for t in (first, second))
                assert sum(core.batch.fast_hits
                           + core.batch.scalar_excursions
                           for core in cores) == memory
                direct.append(sum(core.batch.scalar_excursions
                                  for core in cores) - hierarchy.through)
        reference, slow, fast = runs
        _assert_same(dict(reference), slow)
        _assert_same(reference, fast)

    check()
    # The drawn streams reach the DTLB-hit/L1D-miss branch.
    assert sum(direct) > 0


def test_merge_probe_edges_match_the_previous_loop():
    """``compute`` at seed 7 has fast-path hits on a line whose fill
    completes exactly at the probe's cycle (two loads and a store): the
    edge of the merge probe's strict comparisons, which drawn traces
    rarely reach."""
    cfg = default_config(16)
    trace = make_trace("compute", 14_000, scale=16, seed=7)
    reference, _ = _single(RecordedReference, cfg, trace, 2_000, None)
    fast, _ = _single(RecordedFastCore, cfg, trace, 2_000, None)
    _assert_same(reference, fast)


def test_dtlb_hit_l1d_misses_match_the_previous_loop():
    """``pr``/full (``walk_storm``'s machine) at scale 16: its
    DTLB-hit/L1D-miss accesses, loads and stores, go straight to the
    L1D, with ATP and TEMPO prefetching below it, and match the loop
    that sent them through the hierarchy."""
    cfg = default_config(16).with_(enhancements="full")
    trace = make_trace("pr", 7_000, scale=16, seed=3)
    reference, _ = _single(RecordedReference, cfg, trace, 1_000, None)
    fast, core = _single(RecordedFastCore, cfg, trace, 1_000, None)
    _assert_same(reference, fast)
    assert _direct(core) > 0


def _dtlb_miss_trace(n: int, seed: int) -> Trace:
    """Loads (a third of them chained), stores and non-memory
    instructions.  Seven in eight accesses touch one of 48 warm pages,
    more than a scale-16 DTLB's 16 entries and fewer than its STLB's
    128, so their DTLB misses mostly hit the STLB; the rest touch one of
    600 cold pages and walk."""
    rng = random.Random(seed)
    warm = [make_va([1, 0, rng.randrange(8), rng.randrange(512),
                     rng.randrange(512)]) for _ in range(48)]
    cold = [make_va([2, rng.randrange(4), rng.randrange(8),
                     rng.randrange(512), rng.randrange(512)])
            for _ in range(600)]
    kinds = np.full(n, KIND_NONMEM, dtype=np.int8)
    addrs = np.zeros(n, dtype=np.int64)
    deps = np.zeros(n, dtype=np.int8)
    ips = np.zeros(n, dtype=np.int64)
    for i in range(n):
        roll = rng.randrange(10)
        if roll < 5:
            kinds[i] = KIND_LOAD
            deps[i] = rng.randrange(3) == 0
        elif roll < 8:
            kinds[i] = KIND_STORE
        else:
            continue
        page = rng.choice(cold if rng.randrange(8) == 0 else warm)
        addrs[i] = page + 64 * rng.randrange(16) + 8 * rng.randrange(8)
        ips[i] = 0x400000 + 4 * rng.randrange(16)
    return Trace(ips, kinds, addrs, name="dtlb-misses", deps=deps)


def test_dtlb_misses_match_the_previous_loop():
    """DTLB misses translated in the core, on ``walk_storm``'s machine
    at scale 16: STLB hits, walks whose replay loads issue
    ``replay_issue_latency`` after the fill, walking stores and
    dependent load chains through them.  Every access goes straight to
    the L1D or retires inline, and the run matches the loop that sent
    the DTLB misses through the hierarchy."""
    cfg = default_config(16).with_(enhancements="full")
    trace = _dtlb_miss_trace(8_000, seed=11)
    reference, _ = _single(RecordedReference, cfg, trace, 1_000, None)
    fast, core = _single(RecordedFastCore, cfg, trace, 1_000, None)
    _assert_same(reference, fast)
    hierarchy = core.hierarchy
    assert hierarchy.through == 0
    assert _direct(core) == core.batch.scalar_excursions
    mmu = hierarchy.mmu
    assert mmu.stlb.hits > 0
    assert mmu.walker.walks > 0
    # A walking store is a replay-category L1D access that records no
    # replay response sample (stores are buffered).
    replay_loads = sum(hierarchy.response_distribution.counts["replay"]
                       .values())
    assert 0 < replay_loads < hierarchy.l1d.stats.accesses["replay"]
    assert trace.deps.sum() > 0
