"""Recall-distance tracking (Figs 5, 7 and 18).

The paper defines *recall distance* as the number of **unique** accesses that
arrive at the same cache set between a block's eviction and the next request
for that block.  We track it exactly up to a cap (the paper's figures bucket
everything above 50 together), bounding memory use.

Implementation: instead of one ``set`` of seen lines per pending eviction
(which costs O(pending windows) per access), each set keeps a logical access
clock and, per line, the clock of its most recent access in recency order.
A line is unique-since-eviction exactly when its last access is at or after
the eviction's clock value, so the unique count of a window starting at
``s`` is the number of trailing recency entries with time >= s -- computed
lazily, only when the block is actually recalled, by walking the recency
order backwards.  Distances saturate at the cap, so only the newest
``_CAP`` entries can ever be counted, and the recency order keeps just
those: an access that pushes it past the cap forgets its oldest entry.
An access costs one dict move; sets with no pending evictions (the
common case) pay a single dict probe.

Both orders are plain dicts, which keep insertion order: moving a key to
the newest end is a ``pop`` and a reinsert, and since each reinsert
carries the current clock, the values of a recency dict rise from its
oldest entry to its newest.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Histogram bucket upper bounds; the final bucket is "> 50".
RECALL_BUCKETS: Tuple[int, ...] = (10, 20, 30, 40, 50)

_CAP = 64           # distances are exact below this, saturating above
_MAX_PENDING = 256  # evicted blocks tracked per set


class RecallTracker:
    """Tracks recall distance of evicted blocks of one category at one cache."""

    def __init__(self, name: str):
        self.name = name
        # Per set: logical clock, line -> clock of its last access (the
        # newest ``_CAP`` lines in recency order, oldest first), and
        # pending windows line -> eviction clock, ordered by eviction
        # recency (oldest first, for censoring on overflow).
        self._time: Dict[int, int] = {}
        self._last_seen: Dict[int, Dict[int, int]] = {}
        self._windows: Dict[int, Dict[int, int]] = {}
        #: Total pending windows across sets.  Callers on the hot path may
        #: skip :meth:`on_access` entirely while this is zero (the method
        #: would early-return for every set anyway).
        self.pending = 0
        #: Final histogram: len(RECALL_BUCKETS)+1 bins, last is overflow.
        self.histogram: List[int] = [0] * (len(RECALL_BUCKETS) + 1)
        self.samples = 0

    def on_evict(self, set_idx: int, line_addr: int) -> None:
        """A tracked block was evicted from ``set_idx``."""
        windows = self._windows.get(set_idx)
        if windows is None:
            windows = self._windows[set_idx] = {}
            self._time.setdefault(set_idx, 0)
            self._last_seen.setdefault(set_idx, {})
        # A re-eviction restarts the window at the newest end.
        if windows.pop(line_addr, None) is None:
            self.pending += 1
        windows[line_addr] = self._time[set_idx]
        if len(windows) > _MAX_PENDING:
            # Censored: it outlived the tracking window without a recall.
            del windows[next(iter(windows))]
            self.pending -= 1
            self._record_censored()

    def on_access(self, set_idx: int, line_addr: int) -> None:
        """Any access arrived at ``set_idx``; resolves recalls and advances
        the recency order still-pending evictions are counted against."""
        windows = self._windows.get(set_idx)
        if not windows:
            # The clock only ticks while evictions are pending: a window
            # created later starts after every recorded access time, so
            # dormant periods cannot change any window's unique count.
            return
        last_seen = self._last_seen[set_idx]
        if line_addr in windows:
            self.pending -= 1
            self._record(_unique_since(last_seen, windows.pop(line_addr)))
            if not windows:
                # No outstanding windows: every remembered access time is
                # now irrelevant (any future window starts after them all).
                last_seen.clear()
                return
        now = self._time[set_idx]
        last_seen.pop(line_addr, None)
        last_seen[line_addr] = now
        self._time[set_idx] = now + 1
        if len(last_seen) > _CAP:
            del last_seen[next(iter(last_seen))]

    def _record(self, distance: int) -> None:
        self.samples += 1
        for i, bound in enumerate(RECALL_BUCKETS):
            if distance <= bound:
                self.histogram[i] += 1
                return
        self.histogram[-1] += 1

    def _record_censored(self) -> None:
        """A block was never recalled: it belongs with the "dead" (> 50)
        population the paper's Figs 5/7/18 bucket together."""
        self.samples += 1
        self.histogram[-1] += 1

    def cdf(self) -> List[float]:
        """Cumulative fraction per bucket (last entry is always 1.0)."""
        if self.samples == 0:
            return [0.0] * len(self.histogram)
        out, running = [], 0
        for count in self.histogram:
            running += count
            out.append(running / self.samples)
        return out

    def fraction_within(self, bound: int) -> float:
        """Fraction of recalls with distance <= ``bound`` (a bucket edge)."""
        if self.samples == 0:
            return 0.0
        total = 0
        for i, edge in enumerate(RECALL_BUCKETS):
            if edge <= bound:
                total += self.histogram[i]
        return total / self.samples

    def flush(self) -> None:
        """Resolve all still-pending evictions as never-recalled (censored
        into the > 50 bucket)."""
        for windows in self._windows.values():
            for _start in windows.values():
                self._record_censored()
        self._windows.clear()
        self._last_seen.clear()
        self._time.clear()
        self.pending = 0


def _unique_since(last_seen: Dict[int, int], start: int) -> int:
    """Unique accesses since a window opened at ``start``, saturating at
    ``_CAP``: the lines whose most recent access is at or after it, found
    by walking the (capped) recency order backwards until times drop
    below it.  The recalling access itself is counted afterwards, so it
    is excluded -- its recency entry still predates ``start``."""
    count = 0
    for t in reversed(last_seen.values()):
        if t < start:
            break
        count += 1
    return count


class RecallPair:
    """Two recall categories at one cache sharing one recency order.

    A cache tracks recall distance for two populations (translation and
    replay blocks) over the *same* access stream.  Two independent
    trackers would duplicate the per-set clock and recency table and pay
    the recency bookkeeping twice per access, so the pair shares them:
    each channel keeps only its own pending windows and histogram.
    Histograms are identical to two independent trackers fed the same
    stream -- a window's unique count only compares recorded access times
    against the window's start, and the shared clock preserves every
    ordering the private clocks established (times recorded before a
    window opens stay below its start; times after stay at or above it).

    The channels are plain :class:`RecallTracker` objects (``on_evict``,
    histograms, CDFs and ``flush`` all work unchanged); only ``on_access``
    must go through the pair so the shared order advances exactly once.
    The pair holds both channels' window maps itself (``flush`` clears
    them in place, so the aliases stay valid).
    """

    __slots__ = ("translation", "replay", "_time", "_last_seen",
                 "_wt", "_wr")

    def __init__(self, translation_name: str, replay_name: str):
        self.translation = RecallTracker(translation_name)
        self.replay = RecallTracker(replay_name)
        # Both channels observe every access: alias their recency state.
        self._time = self.translation._time
        self._last_seen = self.translation._last_seen
        self.replay._time = self._time
        self.replay._last_seen = self._last_seen
        self._wt = self.translation._windows
        self._wr = self.replay._windows

    def on_access(self, set_idx: int, line_addr: int) -> None:
        """One access: resolves recalls in both channels, then advances
        the shared recency order once."""
        wt = self._wt.get(set_idx)
        wr = self._wr.get(set_idx)
        if not wt and not wr:
            return
        last_seen = self._last_seen.get(set_idx)
        if last_seen is None:  # only possible mid-teardown, after a flush
            return
        recalled = False
        if wt and line_addr in wt:
            tr = self.translation
            tr.pending -= 1
            tr._record(_unique_since(last_seen, wt.pop(line_addr)))
            recalled = True
        if wr and line_addr in wr:
            rp = self.replay
            rp.pending -= 1
            rp._record(_unique_since(last_seen, wr.pop(line_addr)))
            recalled = True
        if recalled and not wt and not wr:
            # No outstanding windows in either channel: every remembered
            # access time for this set is now irrelevant.
            last_seen.clear()
            return
        now = self._time[set_idx]
        last_seen.pop(line_addr, None)
        last_seen[line_addr] = now
        self._time[set_idx] = now + 1
        if len(last_seen) > _CAP:
            del last_seen[next(iter(last_seen))]
