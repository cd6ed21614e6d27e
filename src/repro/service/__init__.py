"""Async sweep service over a content-addressed job store.

The one executor of simulations: runs, scenarios, sweeps, figures and
traces are submitted as jobs keyed by :class:`RunKey` digests, executed
across a multiprocess worker pool, deduplicated against a sharded
on-disk store, with priorities, bounded-queue back-pressure, resumable
partial sweeps and a per-job progress event stream.  A figure job's
points, and every ``repro figure`` / ``repro scenario run`` point
(:func:`serving`), are ordinary ``run`` jobs of a service.

Three front doors:

* in-process async client -- :func:`repro.api.submit` returning a
  :class:`JobHandle` (``status`` / ``result`` / ``cancel`` / ``wait``);
* HTTP API -- :func:`serve` / ``python -m repro serve`` (``POST
  /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/events``, ``GET
  /store/<digest>``; see ``docs/service.md``);
* CLI -- ``python -m repro submit|status|result|cancel`` against a
  running server.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.service.core import (DEFAULT_QUEUE_SIZE, JobHandle,
                                ServiceMetrics, ServiceSaturated,
                                SweepService, execute_spec, serving)
from repro.service.jobs import (DEFAULT_PRIORITY, JOB_KINDS, Job,
                                JobError, JobSpec, JobStatus)
from repro.service.store import MANIFEST_SCHEMA, JobStore

__all__ = [
    "DEFAULT_PRIORITY", "DEFAULT_QUEUE_SIZE", "JOB_KINDS",
    "Job", "JobError", "JobHandle", "JobSpec", "JobStatus", "JobStore",
    "MANIFEST_SCHEMA", "ServiceMetrics", "ServiceSaturated",
    "SweepService", "configure_service", "execute_spec", "get_service",
    "serve", "serving", "submit", "telemetry_snapshot",
]

# ----------------------------------------------------------------------
# Ambient in-process service (what repro.api.submit routes through)
# ----------------------------------------------------------------------
_ambient: Optional[SweepService] = None
_ambient_kwargs: dict = {}


def configure_service(**kwargs) -> None:
    """Set construction parameters (``store=``, ``workers=``,
    ``queue_size=``, ``max_attempts=``) for the ambient service; drops
    the current one so the next :func:`submit` rebuilds it."""
    global _ambient, _ambient_kwargs
    _ambient_kwargs = dict(kwargs)
    _ambient = None


async def get_service() -> SweepService:
    """The ambient service, bound to the *running* event loop.

    Each ``asyncio.run`` creates a fresh loop; a service whose loop is
    gone is replaced (its store carries over -- completed results
    survive as store hits)."""
    global _ambient
    loop = asyncio.get_running_loop()
    if _ambient is not None and _ambient.loop not in (None, loop):
        kwargs = dict(_ambient_kwargs)
        kwargs.setdefault("store", _ambient.store)
        _ambient = SweepService(**kwargs)
    if _ambient is None:
        _ambient = SweepService(**_ambient_kwargs)
    if not _ambient.started:
        await _ambient.start()
    return _ambient


async def submit(kind: str = "run", *, priority: int = DEFAULT_PRIORITY,
                 service: Optional[SweepService] = None,
                 **params) -> JobHandle:
    """Submit one job to the ambient (or given) in-process service.

    ::

        handle = await api.submit("run", benchmark="pr",
                                  enhancements="full")
        await handle.wait()
        summary = handle.summary()
    """
    svc = service if service is not None else await get_service()
    if not svc.started:
        await svc.start()
    job = await svc.submit(kind, priority=priority, **params)
    return JobHandle(svc, job)


def telemetry_snapshot() -> dict:
    """The ambient service's ``repro.obs/telemetry-v1`` document.

    An empty-but-valid document (schema tag, no series) when no ambient
    service has been built yet -- callers can validate unconditionally.
    """
    if _ambient is not None:
        return _ambient.telemetry.snapshot()
    from repro.obs.telemetry import TELEMETRY_SCHEMA
    return {"schema": TELEMETRY_SCHEMA, "series": []}


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
