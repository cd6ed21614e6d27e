"""DRAM model: order-tolerant bank/channel scheduling with open rows.

The simulator processes requests in *program order*, but their timestamps
are not monotonic -- a serial page-table walk runs hundreds of cycles ahead
of the next instruction's load.  A naive "bank free at T" scalar lets those
future requests block earlier ones, manufacturing queueing delay out of
thin air.  Instead, each bank keeps a short list of busy *intervals* and a
new request first-fits into the earliest gap at or after its arrival, so
requests that arrive "in the past" schedule in the past.

Row behaviour: a row hit pipelines at the bus rate (one CAS per burst) and
does not reserve the bank; a row miss occupies the bank for the full
precharge+activate window (tRC).  Channel bandwidth is modelled with
bucketed transfer counting, also order-insensitive.

TEMPO is hooked here: when a *leaf-level* translation read is serviced
from DRAM, the controller can immediately fetch the replay data line (see
:mod:`repro.prefetch.tempo`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional

from repro.params import DRAMConfig, LINE_SHIFT
from repro.memsys.request import MemoryRequest

#: Busy intervals older than this (relative to the latest arrival) are
#: pruned; arrivals more than a horizon in the past are rare.
_HORIZON = 8192
#: Channel-bandwidth accounting bucket width in cycles.
_BUCKET = 32


class _BankSchedule:
    """First-fit interval scheduler for one DRAM bank.

    Busy intervals ``[starts[i], ends[i])`` are disjoint and kept sorted,
    so ``ends`` is sorted too: the first interval that can delay a
    request is found by bisecting ``ends``, and the horizon prune drops a
    bisected prefix."""

    __slots__ = ("starts", "ends")

    def __init__(self):
        self.starts: List[int] = []
        self.ends: List[int] = []

    def reserve(self, cycle: int, duration: int) -> int:
        """Place a ``duration``-cycle occupancy at the earliest gap at or
        after ``cycle``; returns the start cycle."""
        starts = self.starts
        ends = self.ends
        # Intervals ending at or before ``cycle`` cannot delay it.
        i = bisect_right(ends, cycle)
        n = len(starts)
        t = cycle
        while i < n and starts[i] - t < duration:
            t = ends[i]
            i += 1
        starts.insert(i, t)
        ends.insert(i, t + duration)
        if len(ends) > 64:
            stale = bisect_left(ends, ends[-1] - _HORIZON)
            del starts[:stale]
            del ends[:stale]
        return t


class _ChannelBandwidth:
    """Bucketed transfer counting: cap transfers per _BUCKET cycles."""

    __slots__ = ("used", "cap", "latest")

    def __init__(self, bus_transfer_cycles: int):
        self.used: Dict[int, int] = {}
        self.cap = max(1, _BUCKET // bus_transfer_cycles)
        self.latest = 0

    def reserve(self, cycle: int) -> int:
        bucket = cycle // _BUCKET
        while self.used.get(bucket, 0) >= self.cap:
            bucket += 1
        self.used[bucket] = self.used.get(bucket, 0) + 1
        if cycle > self.latest:
            self.latest = cycle
            if len(self.used) > 4096:
                cutoff = cycle // _BUCKET - _HORIZON // _BUCKET
                self.used = {b: n for b, n in self.used.items()
                             if b >= cutoff}
        return max(cycle, bucket * _BUCKET)


class DRAM:
    """Single- or multi-channel DRAM with open-row banks."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        n = config.channels * config.banks_per_channel
        self._open_row: List[Optional[int]] = [None] * n
        self._banks = [_BankSchedule() for _ in range(n)]
        self._channels = [_ChannelBandwidth(config.bus_transfer_cycles)
                          for _ in range(config.channels)]
        self.accesses = 0
        self.row_hits = 0
        self.row_misses = 0
        #: Optional callback fired after a leaf-translation read is serviced;
        #: used by the TEMPO prefetcher.  Signature: (request, done_cycle).
        self.on_leaf_translation: Optional[
            Callable[[MemoryRequest, int], None]] = None
        #: Request-level span tracer (None unless the run is traced).
        self.tracer = None

    def _map(self, line_addr: int) -> tuple:
        """Row-granular bank interleaving: consecutive lines stay in one
        row/bank (streams enjoy row hits); consecutive rows rotate across
        channels and banks (random traffic spreads out)."""
        cfg = self.config
        row = line_addr // (cfg.row_buffer_bytes >> LINE_SHIFT)
        channel = row % cfg.channels
        bank = (row // cfg.channels) % cfg.banks_per_channel
        return channel, bank, row

    def access(self, request: MemoryRequest) -> int:
        """Service ``request``; returns the cycle its data is available."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("DRAM", request.cycle,
                                cat=request.category(),
                                line=request.line_addr)
        cfg = self.config
        channel, bank, row = self._map(request.line_addr)
        bank_idx = channel * cfg.banks_per_channel + bank
        start = self._channels[channel].reserve(request.cycle)
        row_hit = self._open_row[bank_idx] == row
        if row_hit:
            # Row hit: pipelined at the bus rate; no bank reservation.
            self.row_hits += 1
            done = start + cfg.row_hit_latency
        else:
            # Row miss: precharge + activate occupy the bank (tRC-like).
            self.row_misses += 1
            self._open_row[bank_idx] = row
            done = self._banks[bank_idx].reserve(
                start, cfg.row_miss_latency) + cfg.row_miss_latency
        self.accesses += 1
        request.served_by = "DRAM"
        if request.is_leaf_translation and self.on_leaf_translation is not None:
            self.on_leaf_translation(request, done)
        if tracer is not None:
            # TEMPO's prefetch above may itself have hit a row.
            tracer.end(span, done, served_by="DRAM", row_hit=row_hit)
        return done
