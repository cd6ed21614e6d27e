"""Miss-status-holding registers.

Two jobs, both essential to the timing model:

* **Merging** -- requests to a line whose fill is already in flight get the
  outstanding fill's completion time instead of a duplicate downstream
  access.  This is also how a replay demand rides an in-flight ATP
  prefetch.
* **Admission throttling** -- a full MSHR delays the *start* of a new miss
  until a slot frees.  This caps memory-level parallelism exactly the way
  real L1D/L2C MSHRs do, so DRAM sees a throttled arrival stream rather
  than the whole ROB's misses at once.

Entries are retired lazily: an entry whose fill time is at or before the
probing request's cycle has completed and frees its slot.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional


class MSHR:
    """A bounded table of ``line_addr -> fill_completion_cycle``.

    Beside the ``_inflight`` map sits a sorted index of the same entries:
    ``_fills`` holds every fill time in ascending order and ``_lines`` the
    line of each, position for position.  Expiry, occupancy and the
    admission wait are then bisections and prefix deletes instead of
    scans of the whole table.  The two must only change together, so
    entries go in through :meth:`allocate` / :meth:`allocate_prefetch`.
    """

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("MSHR needs at least one entry")
        self.entries = entries
        self._inflight: Dict[int, int] = {}
        self._fills: List[int] = []
        self._lines: List[int] = []
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
        # NOTE: the expiry sweep must run even when the table has spare
        # raw capacity.  Requests arrive with non-monotonic cycles, so an
        # entry deleted here can no longer merge with a *later* request
        # probing an *earlier* cycle -- skipping the sweep when
        # len(_inflight) < entries measurably changes merge and occupancy
        # outcomes (it is not a pure optimisation).  The expired entries
        # are exactly the prefix of the sorted index at or before ``now``.
        fills = self._fills
        done = bisect_right(fills, now)
        if done:
            inflight = self._inflight
            lines = self._lines
            for line in lines[:done]:
                del inflight[line]
            del lines[:done]
            del fills[:done]
            self.expirations += done
        over = len(fills) - self.entries
        if over < 0:
            return 0
        # The (over+1)-th earliest fill completing frees the first slot;
        # every fill left after the sweep is later than ``now``.
        delay = fills[over] - now
        self.admission_stall_cycles += delay
        if self.tracer is not None:
            self.tracer.complete("mshr_wait", now, now + delay, cat="mshr",
                                 component=self.component)
        return delay

    def allocate(self, line_addr: int, fill_cycle: int, now: int) -> int:
        """Record an outstanding fill (admission already granted).

        Entries are NOT eagerly expired here -- requests may arrive with
        out-of-order cycles and must keep merging with fills that are
        live at *their* time -- so a stale entry being overwritten
        retires here, and the peak counts only fills actually in flight
        at ``now`` (stale leftovers are bookkeeping, not occupied
        slots)."""
        inflight = self._inflight
        fills = self._fills
        lines = self._lines
        old = inflight.get(line_addr)
        if old is not None:
            self.expirations += 1
            i = lines.index(line_addr, bisect_left(fills, old))
            del fills[i]
            del lines[i]
        inflight[line_addr] = fill_cycle
        i = bisect_right(fills, fill_cycle)
        fills.insert(i, fill_cycle)
        lines.insert(i, line_addr)
        self.allocations += 1
        # Live occupancy never exceeds the raw table size, so the live
        # count only runs when the size beats the recorded peak.
        n = len(fills)
        if n > self.peak_occupancy:
            occ = n - bisect_right(fills, now)
            if fill_cycle <= now:  # degenerate same-cycle fill held a slot
                occ += 1
            if occ > self.peak_occupancy:
                self.peak_occupancy = occ
        return fill_cycle

    def allocate_prefetch(self, line_addr: int, fill_cycle: int,
                          now: int) -> int:
        """Record an outstanding prefetch fill, exactly as :meth:`allocate`
        records a demand fill.

        The fill enters the same table, so it consumes demand capacity:
        :meth:`admission_delay` counts it, and a demand miss waits for it
        to complete (an ``MSHR(2)`` holding prefetch fills due at cycles
        500 and 600 delays a demand miss at cycle 10 by 490 cycles).
        Only the cache's drop gate sets prefetches apart: it lets them
        fill the table past ``entries``.  Merging a later demand with an
        in-flight prefetch is the mechanism ATP relies on, so the fill
        must be visible to the merge probes.
        """
        return self.allocate(line_addr, fill_cycle, now)

    def occupancy(self, now: int) -> int:
        return len(self._fills) - bisect_right(self._fills, now)
