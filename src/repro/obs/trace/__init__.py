"""Request-level causal tracing (``repro.obs.trace``).

A span-based tracer that follows every sampled memory access through
its full lifecycle -- TLB/PSC lookup, each page-walk level, per-level
cache probes, MSHR wait/merge, DRAM service, ATP/TEMPO prefetch
triggers, and the head-of-ROB stall the access caused -- as nested
spans with deterministic ids and parent links encoding causality.

Three consumers ship on top of the raw spans:

* :mod:`~repro.obs.trace.export` -- the ``repro.obs/trace-v1`` schema
  (validator included) and a Chrome Trace Event Format / Perfetto
  converter;
* :mod:`~repro.obs.trace.analysis` -- latency breakdowns, per-PC and
  per-page hotspot tables, walk-depth x hit-level matrices, critical
  paths, ASCII rendering;
* :mod:`~repro.obs.trace.diff` -- ``repro trace diff A B``: aligns two
  runs of the same trace and attributes the cycle delta to walk
  shortening, replay prefetch release and insertion-policy effects.

Enable per run with ``--trace PATH [--trace-sample N]`` (CLI) or
``repro.api.run(..., trace=...)`` / ``repro.api.trace(...)``.  Off by
default; when off every instrumented component pays one ``is None``
test (the validate/sampler cost model) and no wrapper objects exist.
See ``docs/observability.md``.
"""

from repro.obs.trace.analysis import (TraceIndex, category_breakdown,
                                      hotspots, latency_breakdown,
                                      render_trace, summarize,
                                      walk_hit_matrix)
from repro.obs.trace.diff import (TraceAlignmentError, render_trace_diff,
                                  trace_diff)
from repro.obs.trace.export import (TRACE_SCHEMA, export_perfetto,
                                    export_trace, load_trace,
                                    perfetto_document,
                                    trace_document, validate_trace,
                                    validate_trace_strict)
from repro.obs.trace.instrument import attach, detach
from repro.obs.trace.spans import DEFAULT_RING_CAPACITY, Span, SpanTracer

__all__ = [
    "DEFAULT_RING_CAPACITY", "Span", "SpanTracer", "TRACE_SCHEMA",
    "TraceAlignmentError", "TraceIndex", "attach", "category_breakdown",
    "detach", "export_perfetto", "export_trace",
    "hotspots", "latency_breakdown", "load_trace",
    "perfetto_document", "render_trace", "render_trace_diff", "summarize",
    "trace_diff", "trace_document", "validate_trace",
    "validate_trace_strict", "walk_hit_matrix",
]
