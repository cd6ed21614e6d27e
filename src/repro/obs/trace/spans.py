"""Span-based request tracer: the event model behind ``repro.obs.trace``.

Every traced memory access becomes one *request group*: a root span
(``load``/``store``) plus nested child spans for each stage of its
lifecycle -- the TLB/walk phase (``translate`` -> ``walk`` ->
``pte_L5``..``pte_L1``), the data phase (``data`` -> ``L1D``/``L2C``/
``LLC``/``DRAM`` probes), MSHR waits and merges, prefetch triggers
(ATP/TEMPO) and the head-of-ROB stall the access eventually caused.
Categories follow the paper's request taxonomy (``translation`` /
``replay`` / ``non_replay`` / ``prefetch`` / ``mshr`` / stall buckets);
parent links encode causality (a walk's leaf hit *releases* the replay
prefetch issued underneath it).

Design constraints, in priority order:

* **Zero overhead when off** -- components guard every trace site with
  one ``tracer is None`` test (the validate/sampler pattern); no wrapper
  objects exist on an untraced hierarchy.
* **Read-only when on** -- spans record cycles the simulator computed
  anyway; attaching a tracer never perturbs simulated timing.
* **Deterministic** -- span ids are a simple creation-order counter, so
  the same seed and config produce byte-identical traces.
* **Bounded** -- completed request groups live in a ring buffer
  (:attr:`SpanTracer.max_requests`); long figure runs stay bounded in
  memory and the export records how many groups were dropped.

Sampling is per *request*: a 1-in-N tracer keeps every span of a sampled
request and no span of an unsampled one, so parent/child structure is
always complete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

#: Default ring-buffer capacity, in completed request groups.
DEFAULT_RING_CAPACITY = 50_000


@dataclass
class Span:
    """One stage of one request's lifecycle (half-open cycle interval)."""

    id: int
    parent: Optional[int]
    name: str
    cat: str
    start: int
    end: int
    args: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "cat": self.cat, "start": self.start, "end": self.end,
                "args": self.args}


class SpanTracer:
    """Records nested spans for sampled requests into a bounded ring.

    Components call :meth:`begin`/:meth:`end` (or :meth:`complete` /
    :meth:`instant`) while a request group opened by
    :meth:`begin_request` is active; calls outside a group -- tracer
    disabled (warmup), request sampled out, or instrumentation firing
    with no demand access in flight -- are cheap no-ops returning
    ``None``.  The call stack of the single-threaded simulator provides
    parent/child nesting for free.
    """

    def __init__(self, sample_every: int = 1,
                 max_requests: int = DEFAULT_RING_CAPACITY,
                 enabled: bool = True):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        self.sample_every = sample_every
        self.max_requests = max_requests
        #: False while the run is still in warmup; the core enables the
        #: tracer at the ROI boundary (mirroring the interval sampler).
        self.enabled = enabled
        #: Completed request groups, oldest first (bounded ring).
        self.requests: Deque[List[Span]] = deque()
        #: Groups evicted from the ring (the export records this).
        self.dropped_requests = 0
        #: Requests seen while enabled (sampled or not); doubles as the
        #: deterministic per-run request sequence number.
        self.seq = 0
        #: Requests actually recorded.
        self.sampled_requests = 0
        self._next_id = 1
        self._stack: List[Span] = []
        self._group: Optional[List[Span]] = None
        self._last_group: Optional[List[Span]] = None
        self._last_root: Optional[Span] = None

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Start recording (called by the core at the ROI boundary)."""
        self.enabled = True

    @property
    def span_count(self) -> int:
        return sum(len(group) for group in self.requests)

    # -- request groups ------------------------------------------------
    def begin_request(self, name: str, cycle: int, **args) -> Optional[Span]:
        """Open a root span; returns ``None`` when disabled/sampled out."""
        if not self.enabled:
            return None
        seq = self.seq
        self.seq = seq + 1
        self._last_group = None
        self._last_root = None
        if self.sample_every > 1 and seq % self.sample_every:
            return None
        args["seq"] = seq
        root = Span(self._next_id, None, name, "", cycle, cycle, args)
        self._next_id += 1
        self._group = []
        self._stack = [root]
        self.sampled_requests += 1
        return root

    def end_request(self, root: Optional[Span], cycle: int,
                    cat: str = "", **args) -> None:
        """Close the root span and commit its group to the ring."""
        if root is None:
            return
        root.end = cycle
        if cat:
            root.cat = cat
        if args:
            root.args.update(args)
        self._stack.clear()
        group = self._group
        group.append(root)
        self._group = None
        self.requests.append(group)
        if len(self.requests) > self.max_requests:
            self.requests.popleft()
            self.dropped_requests += 1
        self._last_group = group
        self._last_root = root

    # -- child spans ---------------------------------------------------
    def begin(self, name: str, cycle: int, cat: str = "",
              **args) -> Optional[Span]:
        """Open a child span nested under the current stack top."""
        if self._group is None:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, name, cat, cycle, cycle, args)
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span], cycle: int, **args) -> None:
        """Close ``span`` at ``cycle`` and record it."""
        if span is None:
            return
        span.end = cycle
        if args:
            span.args.update(args)
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # defensive: unwinding out of order must not corrupt state
            try:
                stack.remove(span)
            except ValueError:
                pass
        if self._group is not None:
            self._group.append(span)

    def complete(self, name: str, start: int, end: int, cat: str = "",
                 **args) -> Optional[Span]:
        """Record an already-finished span (no stack push)."""
        if self._group is None:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, name, cat, start, end, args)
        self._next_id += 1
        self._group.append(span)
        return span

    def instant(self, name: str, cycle: int, cat: str = "",
                **args) -> Optional[Span]:
        """Record a zero-duration marker (prefetch triggers, merges)."""
        return self.complete(name, cycle, cycle, cat, **args)

    # -- retire-side attribution ---------------------------------------
    def attach_load_stall(self, start: int, end: int, is_replay: bool,
                          translation_done: int, ip: int = 0) -> None:
        """Attach the head-of-ROB stall window of the request that just
        committed, split exactly like
        :meth:`repro.core.rob.StallAccounting.record_load_stall`:
        the portion while the walk was pending is a ``translation``
        stall, the remainder a ``replay`` stall; STLB hits charge
        ``non_replay``."""
        root = self._last_root
        if root is None or end <= start:
            return
        group = self._last_group
        if is_replay:
            t_end = min(max(translation_done, start), end)
            if t_end > start:
                group.append(Span(self._next_id, root.id, "stall",
                                  "translation", start, t_end, {"ip": ip}))
                self._next_id += 1
            if end > t_end:
                group.append(Span(self._next_id, root.id, "stall",
                                  "replay", t_end, end, {"ip": ip}))
                self._next_id += 1
        else:
            group.append(Span(self._next_id, root.id, "stall",
                              "non_replay", start, end, {"ip": ip}))
            self._next_id += 1
        self._last_root = None  # one stall window per request

    # -- access --------------------------------------------------------
    def iter_spans(self):
        """All recorded spans, group by group (creation order within)."""
        for group in self.requests:
            yield from group
