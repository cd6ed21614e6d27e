"""Observability subsystem: interval metrics, run manifests, profiling.

Three pieces, wired through the runner/CLI and exported behind
``repro.api``:

* :class:`~repro.obs.sampler.IntervalSampler` -- snapshots per-level
  cache-stat deltas, MSHR occupancy, RRPV distributions, TLB/PSC hit
  rates and stall attribution every N retired instructions;
* :mod:`~repro.obs.manifest` -- structured run manifests (config hash,
  workload, enhancement flags, wall/simulated time via
  :class:`~repro.obs.manifest.Profiler` hooks);
* :mod:`~repro.obs.export` -- JSON/CSV exporters plus a dependency-free
  schema validator; a ``repro figure`` batch export holds the point
  events of its figure jobs, read off each job's
  :class:`~repro.obs.progress.EventStream`.

The cores call the sampler at slice edges only, so sampling costs
nothing per instruction, on or off.  Enable per run with
``--metrics PATH`` / ``--sample-interval N`` (CLI) or
``repro.api.run(..., metrics=...)``.  See ``docs/observability.md``.
"""
