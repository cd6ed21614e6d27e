"""The benchmark's own arithmetic: medians, the failure tally and span
self time.

Nothing here imports the simulator, so ``test_perfbench.py`` covers it
directly and ``run.py`` can load it before the timed ``import repro.api``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Percentiles tried, highest first, for the tail of a timing summary.
TAIL_PERCENTILES = (99, 95, 90, 75)


def median_count(values: Sequence[float]) -> Tuple[float, int]:
    """``(median, sample count)`` of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(p, value)`` for the highest percentile in
    :data:`TAIL_PERCENTILES` with at least ten samples beyond it, or None
    when there are too few samples for any of them."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, cuts[p - 1]
    return None


class Tally:
    """Operations attempted and failed; every failure keeps its reason.

    An operation is one simulation, one job submission or one
    correctness check, so ``failed <= attempted`` always holds.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, reason: str) -> bool:
        """One correctness check: attempted, and failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok

    def fail(self, reason: str) -> None:
        """One operation that failed."""
        self.check(False, reason)

    def call(self, what: str, fn: Callable, *args, **kwargs):
        """One operation; an exception is recorded as its failure and
        ``None`` returned, so the run goes on and reports it."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


class SpanRecorder:
    """A stack of open spans with per-name call counts and self time.

    A span's self time is its duration minus the time its direct
    children cover, so a recursive chain (L1D -> L2C -> LLC -> DRAM)
    splits into per-level self times that add up to the root's
    duration.  Aggregates stay in memory; raw spans are kept only for
    the first ``keep`` spans of each simulation, for :meth:`sample`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = 2000):
        self.clock = clock
        self.keep = keep
        #: Open frames: [name, start, child seconds, span id, parent id].
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.spans: List[Tuple] = []
        self.sim = 0
        self._kept = 0
        self._next_id = 0

    def start_sim(self, sim: int) -> None:
        """Tag the spans that follow with simulation id ``sim``."""
        self.sim = sim
        self._kept = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        parent = self.stack[-1][3] if self.stack else 0
        self.stack.append([name, self.clock(), 0.0, self._next_id, parent])

    def end(self) -> None:
        end = self.clock()
        name, start, child, span_id, parent = self.stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if self._kept < self.keep:
            self._kept += 1
            self.spans.append((span_id, name, start, end, parent, self.sim))

    def totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Copies of the per-name call counts and self seconds."""
        return dict(self.calls), dict(self.self_s)

    def sample(self) -> List[Dict]:
        """The kept raw spans as plain dicts."""
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "sim": sim} for i, n, s, e, p, sim in self.spans]


def delta(after: Tuple[Dict, Dict], before: Tuple[Dict, Dict]
          ) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Per-name calls and self seconds accrued between two
    :meth:`SpanRecorder.totals` snapshots."""
    return tuple({k: v - then.get(k, 0) for k, v in now.items()}
                 for now, then in zip(after, before))


SpanName = Union[str, Callable[[object], str]]


def traced(fn: Callable, recorder: SpanRecorder, name: SpanName,
           collapse: bool = True) -> Callable:
    """``fn`` wrapped in a span of ``recorder``.

    ``name`` is the span name, or a function of the first argument
    (the instance) for a span named per instance.  With ``collapse``, a
    call made while a span of the same name is already innermost -- a
    ``super()`` chain or a method calling a sibling of the same layer --
    runs inside that span instead of opening a second one, so ``calls``
    counts entries into the layer.  Coroutine functions get a coroutine
    wrapper whose span covers the awaited body; it must not suspend
    with the span open while another task opens one, which would break
    the stack discipline, so that is checked.
    """
    begin, end, stack = recorder.begin, recorder.end, recorder.stack
    name_of = name if callable(name) else None

    if inspect.iscoroutinefunction(fn):
        async def wrapper(*args, **kwargs):
            span = name_of(args[0]) if name_of else name
            if collapse and stack and stack[-1][0] == span:
                return await fn(*args, **kwargs)
            begin(span)
            frame = stack[-1]
            try:
                return await fn(*args, **kwargs)
            finally:
                if not stack or stack[-1] is not frame:
                    raise RuntimeError(
                        f"span {span!r} interleaved with another task")
                end()
    else:
        def wrapper(*args, **kwargs):
            span = name_of(args[0]) if name_of else name
            if collapse and stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            begin(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
    return functools.wraps(fn)(wrapper)
