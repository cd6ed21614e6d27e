"""Host speed: fixed reference work, timed next to each sample.

The reference host is a 2-vCPU share of a busy machine, and it changes
speed in plateaus of seconds to minutes, so ten runs of the same code
can spread by half.  Two kinds of change show, and each timed sample is
paired with a reading of the one it is exposed to:

- CPU speed.  A pure-Python loop runs anywhere from 2.2M to 3.5M
  iterations a second, with no vCPU preemption to show for it.  The
  simulation rate follows :func:`work`, a fixed amount of work run in
  the benchmark process right before and after each simulation::

      scaled rate = rate * (host_s / NOMINAL_S) ** ELASTICITY

- Process start.  ``setup_s`` is measured in fresh processes, and the
  time a fresh interpreter takes to start and import numpy moves
  between about 0.10 s and 0.20 s, at times while :func:`work` in the
  benchmark process reads the same.  Set-up follows it (log-log slope
  1.0 over 40 interleaved pairs), so :func:`fresh_start` is timed right
  before and after each set-up sample::

      scaled setup = setup * NOMINAL_START_S / start_s

:func:`work` mixes the host work the simulator does: an
interpreter-bound loop over a small cache and TLB model, an
allocation-heavy chase through an object graph a few MiB large, and
numpy kernels over 1024-instruction-sized windows.  Neither reading
imports ``repro``, so no change to the simulator moves it, and
:func:`work` frees all it allocates before it returns, so it does not
raise the process's peak RSS above the simulator's.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: Seconds :func:`work` takes on the reference host when it is quiet
#: (about the lower quartile, 0.030-0.031, of 1,900 readings taken over
#: 90 minutes of runs).  Scaled rates read as if every sample had run at
#: that speed.
NOMINAL_S = 0.031

#: How far the simulator's speed follows the reference work's: a host
#: that runs the reference work ``f`` times slower runs the simulator
#: about ``f ** ELASTICITY`` times slower.
ELASTICITY = 0.8

#: Seconds :func:`fresh_start` takes on the reference host when it is
#: quiet (about the lower quartile, 0.107-0.115, of 400 readings over the
#: same 90 minutes).  Scaled set-up times read as if taken at that speed.
NOMINAL_START_S = 0.11


class _Cache:
    """A set-associative LRU tag store."""

    def __init__(self, sets: int, ways: int):
        self.sets: List[List[int]] = [[] for _ in range(sets)]
        self.mask = sets - 1
        self.ways = ways
        self.hits = 0

    def access(self, line: int) -> bool:
        tags = self.sets[line & self.mask]
        tag = line >> 6
        if tag in tags:
            tags.remove(tag)
            tags.append(tag)
            self.hits += 1
            return True
        if len(tags) >= self.ways:
            tags.pop(0)
        tags.append(tag)
        return False


def _cache_loop(n: int = 10_000) -> int:
    l1, l2 = _Cache(64, 8), _Cache(512, 8)
    tlb = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 3) & 0xFFFFF if i & 3 else i * 8
        page = addr >> 12
        frame = tlb.get(page)
        if frame is None:
            frame = tlb[page] = (page * 2654435761) & 0xFFFF
        line = ((frame << 12) | (addr & 0xFFF)) >> 6
        if not l1.access(line):
            l2.access(line)
    return l1.hits + l2.hits


class _Node:
    __slots__ = ("key", "val", "nxt")

    def __init__(self, key: int, val: int):
        self.key = key
        self.val = val
        self.nxt = None


def _graph_chase(nodes: int = 20_000, steps: int = 20_000) -> int:
    by_key = {}
    order = []
    x = 7
    for i in range(nodes):
        x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        node = _Node(x >> 20, i)
        by_key[node.key] = node
        order.append(node)
    for i, node in enumerate(order):
        node.nxt = order[(i * 7919) % nodes]
    node, acc = order[0], 0
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += by_key[order[x % nodes].key].val + node.val
        node = node.nxt
    for node in order:
        node.nxt = None  # no cycles left for the collector to find later
    return acc


def _numpy_windows(windows: int = 40, width: int = 1024) -> int:
    import numpy as np  # here, so that ``setup_s`` still times its import
    lanes = np.arange(width, dtype=np.int64)
    acc = 0
    for i in range(windows):
        addr = ((lanes + i * width) * 2654435761) & 0x3FFFFFFF
        pages = addr >> 12
        unique, first = np.unique(pages, return_index=True)
        slot = np.searchsorted(unique, pages)
        aligned = (addr & 63) == 0
        acc += int(np.cumsum(slot[aligned]).sum() & 0xFFFF)
        acc += int(first.sum() & 0xFF)
    return acc


def work() -> int:
    """The reference work; returns a checksum so none of it is skipped."""
    return _cache_loop() + _graph_chase() + _numpy_windows()


def measure() -> float:
    """Seconds :func:`work` takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class Bracket:
    """Readings on either side of each timed sample of a loop.  The
    reading after one sample is the reading before the next, unless
    :meth:`stale` says other work ran in between."""

    def __init__(self):
        self.last: Optional[float] = None

    def stale(self) -> None:
        self.last = None

    def before(self) -> None:
        """Call right before a sample."""
        if self.last is None:
            self.last = measure()

    def after(self) -> float:
        """Call right after the sample; returns its ``host_s``, the mean
        of the readings on either side of it."""
        after = measure()
        host_s = (self.last + after) / 2
        self.last = after
        return host_s


def scale_rate(rate: float, host_s: float) -> float:
    """``rate`` as it would read at the nominal host speed."""
    return rate * (host_s / NOMINAL_S) ** ELASTICITY


def fresh_start() -> float:
    """Seconds a fresh interpreter takes to start, import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def setup_reading(raw_s: float, *start_s: float) -> Dict[str, float]:
    """A ``setup_s`` sample of ``raw_s`` seconds, with the mean of the
    :func:`fresh_start` readings ``start_s`` taken next to it and the
    scaled value."""
    start = statistics.mean(start_s)
    return {"setup_s": raw_s * NOMINAL_START_S / start, "raw_s": raw_s,
            "start_s": start}
