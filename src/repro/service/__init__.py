"""Async sweep service over a content-addressed job store.

The one executor of simulations: runs, scenarios, sweeps, figures and
traces are submitted as jobs keyed by :class:`RunKey` digests, executed
across a multiprocess worker pool, deduplicated against a sharded
on-disk store, with priorities, bounded-queue back-pressure, resumable
partial sweeps and a per-job progress event stream.  A figure job's
points, and every ``repro figure`` / ``repro scenario run`` point
(:func:`serving`), are ordinary ``run`` jobs of a service.

Front doors:

* HTTP API -- :func:`serve` / ``python -m repro serve`` (``POST
  /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/events``, ``GET
  /store/<digest>``; see ``docs/service.md``);
* CLI -- ``python -m repro submit|status|result|cancel|top`` against a
  running server;
* in-process -- :func:`serving`, a service on a background loop for the
  duration of a ``with`` block (what ``repro figure`` and ``repro
  scenario run`` use).
"""

from __future__ import annotations

from typing import Optional

from repro.service.core import (DEFAULT_QUEUE_SIZE, ServiceMetrics,
                                ServiceSaturated, SweepService,
                                execute_spec, serving)
from repro.service.jobs import (DEFAULT_PRIORITY, JOB_KINDS, Job,
                                JobError, JobSpec, JobStatus)
from repro.service.store import MANIFEST_SCHEMA, JobStore

__all__ = [
    "DEFAULT_PRIORITY", "DEFAULT_QUEUE_SIZE", "JOB_KINDS",
    "Job", "JobError", "JobSpec", "JobStatus", "JobStore",
    "MANIFEST_SCHEMA", "ServiceMetrics", "ServiceSaturated",
    "SweepService", "execute_spec", "serve", "serving",
]


def serve(host: str = "127.0.0.1", port: int = 8765, *,
          store=None, workers: Optional[int] = None,
          queue_size: int = DEFAULT_QUEUE_SIZE,
          progress_interval="default", log_json: bool = False,
          ready=None) -> None:
    """Run the HTTP sweep service until interrupted (blocking).

    Deferred import keeps ``import repro.service`` cheap; see
    :mod:`repro.service.http` and ``docs/service.md``.
    """
    from repro.service.http import serve as _serve
    _serve(host=host, port=port, store=store, workers=workers,
           queue_size=queue_size, progress_interval=progress_interval,
           log_json=log_json, ready=ready)
