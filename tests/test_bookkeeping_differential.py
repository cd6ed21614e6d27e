"""Differential tests for the bookkeeping on the STLB-miss path.

Three structures were rewritten for speed without changing a single
simulated statistic: the MSHR's sorted fill index, the DRAM bank
schedule's bisected first fit, and the recall trackers' plain-dict
recency orders.  Each is driven here by hypothesis streams against a
reference kept in this module:

* :class:`DictScanMSHR` -- the dict-scan MSHR, verbatim;
* :class:`LinearBankSchedule` -- the linear first-fit bank schedule,
  verbatim;
* :class:`BruteRecall` -- a brute-force recall model that keeps one set
  of distinct lines per pending window.

Every public counter and histogram is compared after every operation.
The streams cover non-monotonic cycles, overwrites of in-flight lines,
same-cycle fills, bank-interval pruning, window censoring, the recency
cap, re-evictions and ``flush``.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.dram import _HORIZON, _BankSchedule
from repro.memsys.mshr import MSHR
from repro.stats.recall import (RECALL_BUCKETS, RecallPair, RecallTracker,
                                _CAP, _MAX_PENDING)

#: Sentinel fill-time watermark for an empty table.
_NEVER = float("inf")


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
class DictScanMSHR:
    """The dict-scan MSHR the sorted fill index replaced, verbatim."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("MSHR needs at least one entry")
        self.entries = entries
        self._inflight: Dict[int, int] = {}
        #: Lower bound on the earliest in-flight fill time: lets _expire
        #: skip its scan when provably nothing has completed yet.  Stale
        #: (too low) after an overwrite removes the true minimum, which
        #: only costs a wasted scan, never a missed expiry.
        self._min_fill = _NEVER
        self.merges = 0
        self.allocations = 0
        #: Entries retired because their fill time passed (conservation:
        #: allocations - expirations == live entries).
        self.expirations = 0
        #: Peak simultaneous occupancy observed (bandwidth proxy).
        self.peak_occupancy = 0
        #: Total cycles of admission delay injected (congestion proxy).
        self.admission_stall_cycles = 0
        #: Request-level span tracer (None unless the run is traced);
        #: ``component`` labels which cache's MSHR this is in trace output.
        self.tracer = None
        self.component = ""

    def _expire(self, now: int) -> None:
        if self._min_fill > now:
            return
        inflight = self._inflight
        done = [line for line, t in inflight.items() if t <= now]
        for line in done:
            del inflight[line]
        self.expirations += len(done)
        self._min_fill = min(inflight.values(), default=_NEVER)

    def lookup(self, line_addr: int, now: int) -> Optional[int]:
        """Return the fill cycle if ``line_addr`` is still in flight."""
        fill = self._inflight.get(line_addr)
        if fill is not None and fill > now:
            self.merges += 1
            if self.tracer is not None:
                self.tracer.instant("mshr_merge", now, cat="mshr",
                                    component=self.component,
                                    line=line_addr, fill=fill)
            return fill
        return None

    def admission_delay(self, now: int) -> int:
        """Cycles until a demand miss may enter the MSHR at ``now``.

        When the table is full of pending fills, the miss waits for the
        earliest outstanding fill to complete.  The entry is *not* deleted:
        its fill may still be in flight, and later requests to that line
        must keep merging with it (it expires lazily once its fill time
        passes, as documented above).

        When prefetch entries have pushed the table past ``entries``,
        waiting for the single earliest fill is not enough: the wait must
        cover as many completions as it takes for a slot to be genuinely
        free.  None of those entries are deleted here -- their fills may
        still be in flight and must keep merging."""
        # NOTE: the _expire sweep must run even when the table has spare
        # raw capacity.  Requests arrive with non-monotonic cycles, so an
        # entry deleted here can no longer merge with a *later* request
        # probing an *earlier* cycle -- skipping the sweep when
        # len(_inflight) < entries measurably changes merge and occupancy
        # outcomes (it is not a pure optimisation).  The sweep is inlined
        # (== _expire) because this is the hottest MSHR entry point.
        inflight = self._inflight
        if self._min_fill <= now:
            done = [line for line, t in inflight.items() if t <= now]
            for line in done:
                del inflight[line]
            self.expirations += len(done)
            self._min_fill = min(inflight.values(), default=_NEVER)
        over = len(inflight) - self.entries
        if over < 0:
            return 0
        # The (over+1)-th earliest fill completing frees the first slot.
        fills = sorted(self._inflight.values())
        delay = max(0, fills[over] - now)
        self.admission_stall_cycles += delay
        if delay and self.tracer is not None:
            self.tracer.complete("mshr_wait", now, now + delay, cat="mshr",
                                 component=self.component)
        return delay

    def allocate(self, line_addr: int, fill_cycle: int, now: int) -> int:
        """Record an outstanding fill (admission already granted)."""
        self._record(line_addr, fill_cycle, now)
        return fill_cycle

    def allocate_prefetch(self, line_addr: int, fill_cycle: int,
                          now: int) -> int:
        """Track a prefetch fill without consuming demand capacity.

        Real designs hold prefetches in a separate prefetch queue; merging
        a later demand with an in-flight prefetch is exactly the mechanism
        ATP relies on, so the fill must be visible to :meth:`lookup`.
        """
        self._record(line_addr, fill_cycle, now)
        return fill_cycle

    def _record(self, line_addr: int, fill_cycle: int, now: int) -> None:
        """Insert one fill.  Entries are NOT eagerly expired here --
        requests may arrive with out-of-order cycles and must keep merging
        with fills that are live at *their* time -- so a stale entry being
        overwritten retires here, and the peak counts only fills actually
        in flight at ``now`` (stale leftovers are bookkeeping, not
        occupied slots)."""
        if line_addr in self._inflight:
            self.expirations += 1
        self._inflight[line_addr] = fill_cycle
        if fill_cycle < self._min_fill:
            self._min_fill = fill_cycle
        self.allocations += 1
        # Live occupancy never exceeds the raw table size, so the O(n)
        # live count only runs when the size beats the recorded peak.
        if len(self._inflight) > self.peak_occupancy:
            occ = self.occupancy(now)
            if fill_cycle <= now:  # degenerate same-cycle fill held a slot
                occ += 1
            if occ > self.peak_occupancy:
                self.peak_occupancy = occ

    def occupancy(self, now: int) -> int:
        return sum(1 for t in self._inflight.values() if t > now)


class LinearBankSchedule:
    """The linear first-fit bank schedule the bisected one replaced,
    verbatim."""

    __slots__ = ("busy",)

    def __init__(self):
        self.busy: List[List[int]] = []  # sorted [start, end) pairs

    def reserve(self, cycle: int, duration: int) -> int:
        """Place a ``duration``-cycle occupancy at the earliest gap at or
        after ``cycle``; returns the start cycle."""
        t = cycle
        for s, e in self.busy:
            if e <= t:
                continue
            if s - t >= duration:
                break
            t = e
        insort(self.busy, [t, t + duration])
        if len(self.busy) > 64:
            cutoff = self.busy[-1][1] - _HORIZON
            self.busy = [iv for iv in self.busy if iv[1] >= cutoff]
        return t


class BruteRecall:
    """Recall distance by brute force: every pending window keeps the set
    of distinct lines accessed in its cache set since the eviction (at
    most ``_CAP`` of them -- distances saturate there)."""

    def __init__(self):
        #: set -> {line: distinct lines seen since its eviction}, oldest
        #: eviction first.
        self.windows: Dict[int, Dict[int, set]] = {}
        self.histogram = [0] * (len(RECALL_BUCKETS) + 1)
        self.samples = 0
        #: Windows resolved by a recall / censored by overflow.
        self.recalled = 0
        self.censored = 0

    @property
    def pending(self) -> int:
        return sum(len(w) for w in self.windows.values())

    def _bucket(self, distance: int) -> None:
        self.samples += 1
        for i, bound in enumerate(RECALL_BUCKETS):
            if distance <= bound:
                self.histogram[i] += 1
                return
        self.histogram[-1] += 1

    def on_evict(self, set_idx: int, line: int) -> None:
        windows = self.windows.setdefault(set_idx, {})
        windows.pop(line, None)  # a re-eviction restarts the window
        windows[line] = set()
        if len(windows) > _MAX_PENDING:
            del windows[next(iter(windows))]
            self.censored += 1
            self.histogram[-1] += 1  # never recalled
            self.samples += 1

    def on_access(self, set_idx: int, line: int) -> None:
        windows = self.windows.get(set_idx, {})
        seen = windows.pop(line, None)
        if seen is not None:
            self.recalled += 1
            self._bucket(len(seen))
        for others in windows.values():
            if len(others) < _CAP:
                others.add(line)

    def flush(self) -> None:
        for windows in self.windows.values():
            for _ in windows:
                self.histogram[-1] += 1
                self.samples += 1
        self.windows.clear()


# ----------------------------------------------------------------------
# MSHR: sorted fill index vs dict scan
# ----------------------------------------------------------------------
def _mshr_state(mshr) -> tuple:
    return (mshr.merges, mshr.allocations, mshr.expirations,
            mshr.peak_occupancy, mshr.admission_stall_cycles,
            dict(mshr._inflight))


def _drive_mshr(entries: int, ops) -> None:
    new, ref = MSHR(entries), DictScanMSHR(entries)
    for op, line, now, ahead in ops:
        if op == "occupancy":
            assert new.occupancy(now) == ref.occupancy(now)
        elif op == "admission":
            assert new.admission_delay(now) == ref.admission_delay(now)
        elif op == "lookup":
            assert new.lookup(line, now) == ref.lookup(line, now)
        else:
            fill = now + ahead
            assert (getattr(new, op)(line, fill, now)
                    == getattr(ref, op)(line, fill, now))
        assert _mshr_state(new) == _mshr_state(ref)
        # The index holds exactly the live entries, in fill order.
        assert new._fills == sorted(new._inflight.values())
        assert [new._inflight[line] for line in new._lines] == new._fills


#: (operation, line, now, fill - now).  A dozen lines force overwrites of
#: in-flight entries; ``now`` is drawn per operation, so cycles run
#: backwards as often as forwards; ``fill - now <= 0`` is a same-cycle
#: (degenerate) fill.
_MSHR_OPS = st.lists(
    st.tuples(st.sampled_from(("allocate", "allocate_prefetch",
                               "admission", "occupancy", "lookup")),
              st.integers(0, 11), st.integers(0, 600),
              st.integers(-20, 300)),
    max_size=200)


@settings(max_examples=200, deadline=None)
@given(entries=st.integers(1, 6), ops=_MSHR_OPS)
def test_mshr_matches_dict_scan_reference(entries, ops):
    _drive_mshr(entries, ops)


def test_mshr_same_cycle_fills_and_full_table():
    """Ties in the index: equal fill times, an overwrite of one of them,
    and an admission wait that lands on the tie."""
    ops = [("allocate", line, 0, 100) for line in range(4)]
    ops += [("allocate_prefetch", 7, 0, 100), ("admission", 0, 10, 0),
            ("allocate", 2, 20, 80), ("allocate", 9, 100, 0),
            ("occupancy", 0, 99, 0), ("admission", 0, 99, 0),
            ("admission", 0, 100, 0), ("lookup", 2, 50, 0)]
    _drive_mshr(2, ops)


# ----------------------------------------------------------------------
# DRAM bank: bisected first fit vs linear first fit
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(spread=st.sampled_from((1, 8, 64)),
       reqs=st.lists(st.tuples(st.integers(0, 40000), st.integers(1, 400)),
                     min_size=1, max_size=300))
def test_bank_schedule_matches_linear_reference(spread, reqs):
    """``spread`` divides the arrival cycles: 1 scatters requests far
    beyond the prune horizon, 64 packs them into overlapping bursts."""
    new, ref = _BankSchedule(), LinearBankSchedule()
    for cycle, duration in reqs:
        cycle //= spread
        assert new.reserve(cycle, duration) == ref.reserve(cycle, duration)
        assert [list(iv) for iv in zip(new.starts, new.ends)] == ref.busy


def test_bank_schedule_prunes_past_the_horizon():
    rng = random.Random(5)
    new, ref = _BankSchedule(), LinearBankSchedule()
    pruned = 0
    for _ in range(400):
        cycle, duration = rng.randrange(60000), rng.randrange(1, 300)
        before = len(ref.busy)
        assert new.reserve(cycle, duration) == ref.reserve(cycle, duration)
        assert [list(iv) for iv in zip(new.starts, new.ends)] == ref.busy
        pruned += before >= 64 and len(ref.busy) <= before
    assert pruned > 0


# ----------------------------------------------------------------------
# Recall: plain-dict recency orders vs brute force
# ----------------------------------------------------------------------
def _recall_stream(seed: int, sets: int, hot: int, cold: int,
                   p_evict: float, p_cold: float, p_flush: float,
                   length: int, channels: int):
    """Evictions of ``hot`` lines (re-evicted while pending, recalled by
    hot accesses), accesses spread over ``cold`` lines that are never
    evicted (they grow the recency order), and rare flushes."""
    rng = random.Random(seed)
    for _ in range(length):
        r = rng.random()
        set_idx = rng.randrange(sets)
        if r < p_flush:
            yield ("flush",)
        elif r < p_flush + p_evict:
            yield ("evict", rng.randrange(channels), set_idx,
                   rng.randrange(hot))
        elif cold and rng.random() < p_cold:
            yield ("access", set_idx, hot + rng.randrange(cold))
        else:
            yield ("access", set_idx, rng.randrange(hot))


def _channel_state(tracker) -> tuple:
    return list(tracker.histogram), tracker.samples, tracker.pending


def _drive_recall(ops, pair: bool) -> List[BruteRecall]:
    """Feed ``ops`` to a RecallTracker (or a RecallPair) and to one
    brute-force model per channel; compare after every operation."""
    if pair:
        subject = RecallPair("t", "r")
        channels = [subject.translation, subject.replay]
    else:
        subject = RecallTracker("t")
        channels = [subject]
    refs = [BruteRecall() for _ in channels]
    for op in ops:
        if op[0] == "evict":
            _, ch, set_idx, line = op
            channels[ch].on_evict(set_idx, line)
            refs[ch].on_evict(set_idx, line)
        elif op[0] == "access":
            _, set_idx, line = op
            subject.on_access(set_idx, line)
            for ref in refs:
                ref.on_access(set_idx, line)
        else:
            for channel, ref in zip(channels, refs):
                channel.flush()
                ref.flush()
        for channel, ref in zip(channels, refs):
            assert _channel_state(channel) == _channel_state(ref)
    for channel, ref in zip(channels, refs):
        channel.flush()
        ref.flush()
        assert _channel_state(channel) == _channel_state(ref)
    return refs


_RECALL_SHAPES = dict(
    seed=st.integers(0, 2**32 - 1), sets=st.integers(1, 3),
    hot=st.integers(2, 400), cold=st.integers(0, 2500),
    p_evict=st.floats(0.05, 0.6), p_cold=st.floats(0.0, 0.95),
    p_flush=st.sampled_from((0.0, 0.001)),
    length=st.one_of(st.integers(1, 60), st.integers(1000, 3000)))


@settings(max_examples=100, deadline=None)
@given(**_RECALL_SHAPES)
def test_recall_tracker_matches_brute_force(seed, sets, hot, cold, p_evict,
                                            p_cold, p_flush, length):
    _drive_recall(_recall_stream(seed, sets, hot, cold, p_evict, p_cold,
                                 p_flush, length, channels=1), pair=False)


@settings(max_examples=100, deadline=None)
@given(**_RECALL_SHAPES)
def test_recall_pair_matches_brute_force(seed, sets, hot, cold, p_evict,
                                         p_cold, p_flush, length):
    _drive_recall(_recall_stream(seed, sets, hot, cold, p_evict, p_cold,
                                 p_flush, length, channels=2), pair=True)


def test_recall_streams_reach_censor_and_prune(monkeypatch):
    """Fixed streams that cross every threshold: more than
    ``_MAX_PENDING`` windows in a set (censoring), a recency order that
    fills to ``_CAP`` and stays there (each new line forgets the oldest),
    re-evictions and a mid-stream flush."""
    sizes = []

    def spy(cls):
        on_access = cls.on_access

        def recording(self, set_idx, line_addr):
            on_access(self, set_idx, line_addr)
            sizes.append(len(self._last_seen.get(set_idx, ())))
        monkeypatch.setattr(cls, "on_access", recording)

    spy(RecallTracker)
    spy(RecallPair)
    for pair in (False, True):
        sizes.clear()
        ops = list(_recall_stream(3, 1, 400, 3000, 0.5, 0.9, 0.0005, 12000,
                                  channels=2 if pair else 1))
        assert ("flush",) in ops
        evicted = [op[1:] for op in ops if op[0] == "evict"]
        assert len(evicted) > len(set(evicted))  # re-evictions
        refs = _drive_recall(ops, pair)
        assert sum(ref.censored for ref in refs) > 0
        assert sum(ref.recalled for ref in refs) > 0
        assert max(sizes) == _CAP
        assert sizes.count(_CAP) > len(sizes) // 2
