"""The event stream of a sweep-service job.

An :class:`EventStream` is the subscribable sequence the sweep service
(:mod:`repro.service`) hangs off every job: an append-only, thread-safe
sequence of dict events that consumers can snapshot or block-follow
from any sequence number.  ``GET /jobs/<id>/events`` streams one, and
``repro figure`` follows its figure jobs' streams for ``--verbose``,
``--heartbeat`` and ``--metrics``.

The backlog is bounded (:data:`DEFAULT_BACKLOG` events): a stream that is
emitted into but never drained -- a forgotten subscriber, a job streaming
thousands of ``job-progress`` intervals -- discards its oldest events
rather than growing without bound.  Sequence numbers are global (they
keep counting across drops), :attr:`EventStream.dropped` counts the
discards, and an ``on_drop`` callback lets the service surface them in
telemetry (``repro_events_dropped_total``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional

#: Default per-stream backlog bound.  Large enough to replay the full
#: lifecycle plus hundreds of interval rows; small enough that a
#: never-drained stream stays a few hundred KB.
DEFAULT_BACKLOG = 4096


class EventStream:
    """Append-only, subscribable, bounded sequence of progress events.

    Producers call :meth:`emit` (from any thread, including the asyncio
    loop thread of the sweep service); consumers either :meth:`snapshot`
    the retained history or :meth:`follow` it -- a blocking iterator
    that yields every retained event exactly once, in order, until the
    stream is :meth:`close`'d.  Events are plain dicts stamped with a
    monotonically increasing ``seq``.

    ``seq`` numbers every event ever emitted; at most ``maxlen`` of the
    newest are retained.  A consumer that falls more than ``maxlen``
    events behind resumes at the oldest retained event (use the ``seq``
    gap to detect the loss); :attr:`dropped` counts discarded events and
    ``on_drop(n)`` fires for each batch of ``n`` discards.
    """

    def __init__(self, maxlen: int = DEFAULT_BACKLOG,
                 on_drop: Optional[Callable[[int], None]] = None):
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self.on_drop = on_drop
        self._events: deque = deque()
        self._base = 0       # seq of the oldest retained event
        self._next = 0       # seq the next emit will get
        self._dropped = 0
        self._cond = threading.Condition()
        self._closed = False

    def emit(self, **fields) -> Dict:
        """Append one event; returns the stamped record."""
        with self._cond:
            record = dict(fields)
            record["seq"] = self._next
            self._next += 1
            self._events.append(record)
            dropped = 0
            while len(self._events) > self.maxlen:
                self._events.popleft()
                self._base += 1
                self._dropped += 1
                dropped += 1
            self._cond.notify_all()
        if dropped and self.on_drop is not None:
            try:
                self.on_drop(dropped)
            except Exception:
                pass
        return record

    def close(self) -> None:
        """No further events; wakes every follower."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def dropped(self) -> int:
        """Events discarded from the backlog so far."""
        with self._cond:
            return self._dropped

    def __len__(self) -> int:
        """Total events ever emitted (including dropped ones)."""
        with self._cond:
            return self._next

    def snapshot(self, start: int = 0) -> List[Dict]:
        """Retained events with ``seq >= start``, as a copy."""
        with self._cond:
            offset = max(0, start - self._base)
            if offset >= len(self._events):
                return []
            return [self._events[i]
                    for i in range(offset, len(self._events))]

    def follow(self, start: int = 0,
               timeout: Optional[float] = None) -> Iterator[Dict]:
        """Yield events with ``seq >= start`` until the stream closes.

        Advances by each event's own ``seq``, so a backlog drop skips
        forward rather than re-yielding or stalling.  ``timeout`` bounds
        each individual wait (the iterator stops quietly when it
        expires -- callers polling a live service can loop around
        :meth:`snapshot` instead if they need to distinguish)."""
        index = start
        while True:
            for event in self.snapshot(index):
                index = event["seq"] + 1
                yield event
            with self._cond:
                if self._closed and self._next <= index:
                    return
                if not self._cond.wait_for(
                        lambda: self._next > index or self._closed,
                        timeout=timeout):
                    return
