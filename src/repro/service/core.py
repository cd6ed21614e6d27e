"""The asyncio sweep service: queue, dedupe, workers, sweeps.

One :class:`SweepService` owns a bounded priority queue of
:class:`~repro.service.jobs.Job` and a pool of worker processes.  The
interesting properties, all pinned by ``tests/test_service.py``:

* **Dedupe, three horizons.**  A submitted spec whose digest is already
  on disk completes instantly as a *store hit*; one that matches an
  in-flight job attaches to that job (*dedup* -- concurrent identical
  submissions execute the simulation exactly once and fan the result
  out); otherwise it queues and executes.
* **Back-pressure.**  The queue is bounded: ``submit(..., wait=True)``
  (the in-process client) suspends the submitter until a slot frees;
  ``wait=False`` (the HTTP server) raises :class:`ServiceSaturated`,
  which surfaces as ``503 Retry-After``.
* **Priorities.**  Lower numbers run first; ties resolve in submission
  order (a deterministic total order, relied on by tests).
* **Worker loss is not job loss.**  A job whose worker process dies
  (``BrokenExecutor``) is re-queued up to ``max_attempts``; the pool is
  rebuilt lazily.
* **Resumable sweeps.**  A ``sweep`` job expands into child run specs;
  children whose digests are already stored are skipped, so
  resubmitting a partially-completed sweep only executes the remainder.

Execution is ``execute_spec`` -- a module-level, picklable function --
either inline (``workers=0``: synchronous, deterministic, what the
tests drive) or via ``ProcessPoolExecutor``.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.experiments.parallel import ParallelRunner, RunSummary
from repro.obs.log import get_logger
from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL
from repro.obs.telemetry import TelemetryRegistry
from repro.service.jobs import (DEFAULT_PRIORITY, Job, JobError, JobSpec,
                                JobStatus)
from repro.service.store import JobStore

#: Default queue bound; small enough that a runaway sweep generator
#: feels back-pressure quickly, large enough to keep a pool busy.
DEFAULT_QUEUE_SIZE = 256

#: Terminal jobs kept in memory beyond this count are pruned (oldest
#: first).  Their payloads stay addressable via the on-disk store by
#: digest; only the in-memory Job (status doc + event history) goes.
DEFAULT_RETENTION = 1024

#: Job kinds whose workers forward live ``job-progress`` rows.  Only
#: ``run`` for now: scenarios/figures/benches drive their own batching
#: and would need per-component budgets to report a meaningful pct.
PROGRESS_KINDS = ("run",)


class ServiceSaturated(RuntimeError):
    """Bounded queue is full and the caller declined to wait."""


class _WorkerLost(RuntimeError):
    """Internal: the worker process executing a job died."""


# ----------------------------------------------------------------------
# Spec execution (module-level: must pickle into worker processes)
# ----------------------------------------------------------------------
def execute_spec(spec_dict: Dict, progress: Optional[Callable] = None,
                 progress_interval: Optional[int] = None) -> Dict:
    """Execute one job spec; returns its JSON payload.

    Run/scenario payloads are bare
    :class:`~repro.experiments.parallel.RunSummary` dicts -- the exact
    document :class:`~repro.experiments.parallel.ResultCache` memoises,
    so service store entries and runner cache entries are
    interchangeable.

    ``progress`` is an optional per-interval row sink (see
    :mod:`repro.obs.forward`); only ``run`` specs forward (the other
    kinds ignore it).  Forwarding is observational -- the payload is
    bit-identical with or without it.
    """
    from repro import api
    from repro.experiments.runner import run_benchmark
    from repro.service.jobs import run_config, scenario_base_config

    spec = JobSpec.from_dict(spec_dict)
    p = spec.to_dict()
    kind = spec.kind
    if kind == "run":
        key = spec.run_key()
        forwarder = None
        if progress is not None and progress_interval:
            from repro.obs.forward import ProgressForwarder
            forwarder = ProgressForwarder(
                progress, total_instructions=key.instructions,
                interval=progress_interval)
        run = run_benchmark(key.benchmark, config=key.config,
                            instructions=key.instructions,
                            warmup=key.warmup, scale=key.scale,
                            seed=key.seed, progress=forwarder)
        return RunSummary.from_run(run, seed=key.seed).to_dict()
    if kind == "scenario":
        from repro.scenarios import run_scenario
        scale = p.get("scale")
        base = None
        if p.get("backend"):
            from repro.scenarios import load_scenario
            doc = load_scenario(p["scenario"])
            base = scenario_base_config(
                p, int(scale if scale is not None else doc.scale))
        result = run_scenario(
            p["scenario"], instructions=p.get("instructions"),
            warmup=p.get("warmup"), scale=scale, seed=p.get("seed"),
            config=base, runner=ParallelRunner(jobs=1))
        return result.summary.to_dict()
    if kind == "figure":
        kwargs = {k: p[k] for k in ("instructions", "warmup")
                  if k in p}
        if p.get("benchmarks"):
            kwargs["benchmarks"] = list(p["benchmarks"])
        result = api.figure(p["figure"], **kwargs)
        return {"kind": "figure", "figure": p["figure"],
                "result": result.to_dict()}
    if kind == "bench":
        from repro.bench import BenchCase, WORKLOAD_MATRIX
        if p.get("benchmarks"):
            matrix = tuple(
                BenchCase(b, instructions=p.get("instructions", 20_000),
                          warmup=p.get("warmup", 4_000))
                for b in p["benchmarks"])
        else:
            matrix = WORKLOAD_MATRIX
        result = api.bench(matrix=matrix, repeats=p.get("repeats", 1),
                           backend=p.get("backend"))
        return {"kind": "bench", "document": result.document}
    if kind == "trace":
        scale = int(p.get("scale", api.DEFAULT_SCALE))
        kwargs = {k: p[k] for k in ("instructions", "warmup", "seed")
                  if k in p}
        doc = api.trace(p["benchmark"], sample=p.get("sample", 1),
                        config=run_config(p, scale), scale=scale,
                        **kwargs)
        return {"kind": "trace", "benchmark": p["benchmark"],
                "document": doc}
    raise JobError(f"unknown job kind {kind!r}")


#: The service checks this attribute before passing progress kwargs, so
#: injected test stubs keep their one-argument signature.
execute_spec.supports_progress = True


def _pool_execute(spec_dict: Dict, queue, job_id: str,
                  interval: int) -> Dict:
    """Worker-process entry point with progress forwarding.

    Module-level (must pickle); ``queue`` is a ``multiprocessing``
    manager-queue proxy carrying ``(job_id, row)`` tuples back to the
    service's drain thread.
    """
    def sink(row):
        queue.put((job_id, row))
    return execute_spec(spec_dict, progress=sink,
                        progress_interval=interval)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Legacy counter name -> telemetry series backing it.
LEGACY_COUNTERS = {
    "submitted": "repro_jobs_submitted_total",
    "executed": "repro_jobs_executed_total",
    "store_hits": "repro_store_hits_total",
    "dedup_hits": "repro_dedup_hits_total",
    "requeues": "repro_requeues_total",
    "failures": "repro_jobs_failed_total",
    "cancelled": "repro_jobs_cancelled_total",
    "rejected": "repro_jobs_rejected_total",
}


class ServiceMetrics:
    """Legacy read view over the telemetry registry's job counters.

    PR 8 shipped these as plain dataclass attribute bumps; the counters
    now live in :class:`~repro.obs.telemetry.TelemetryRegistry` (one
    source of truth for ``/metrics``, ``/health`` and ``status()``) and
    this view keeps the original surface -- ``service.metrics.executed``
    and ``metrics.to_dict()`` -- reading through to them.
    """

    def __init__(self, registry: TelemetryRegistry):
        self._registry = registry

    def __getattr__(self, name: str) -> int:
        try:
            series = LEGACY_COUNTERS[name]
        except KeyError:
            raise AttributeError(name) from None
        return int(self._registry.counter(series).value)

    def to_dict(self) -> Dict:
        return {name: getattr(self, name) for name in LEGACY_COUNTERS}


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class SweepService:
    """Asyncio job-queue service over a content-addressed store.

    ``workers=0`` executes inline on the event loop (deterministic --
    the test mode and the in-process default); ``workers=N`` fans out
    over a ``ProcessPoolExecutor`` that is rebuilt on worker loss.
    ``execute`` injects the spec executor (tests substitute stubs that
    fail deterministically).
    """

    def __init__(self, store: Optional[JobStore] = None,
                 workers: int = 0,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 max_attempts: int = 2,
                 retention: int = DEFAULT_RETENTION,
                 execute: Optional[Callable[[Dict], Dict]] = None,
                 progress_interval: Optional[int]
                 = DEFAULT_SAMPLE_INTERVAL):
        if queue_size <= 0:
            raise ValueError("queue_size must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if retention <= 0:
            raise ValueError("retention must be positive")
        if progress_interval is not None and progress_interval <= 0:
            raise ValueError("progress_interval must be positive or None")
        self.store = store if store is not None else JobStore()
        self.workers = max(0, int(workers))
        self.queue_size = queue_size
        self.max_attempts = max_attempts
        self.retention = retention
        self.progress_interval = progress_interval
        self._execute = execute or execute_spec
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._terminal: Deque[str] = deque()
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._seq = itertools.count()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._tasks: List[asyncio.Task] = []
        self._sweeps: List[asyncio.Task] = []
        self._done_events: Dict[str, asyncio.Event] = {}
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_mono = time.monotonic()
        self._log = get_logger("service")
        # Progress drain plumbing for pool mode (lazy: a Manager is a
        # whole extra process, only spawned once a worker forwards).
        self._progress_manager = None
        self._progress_queue = None
        self._progress_thread: Optional[threading.Thread] = None
        self._init_telemetry()
        self.metrics = ServiceMetrics(self.telemetry)

    def _init_telemetry(self) -> None:
        """Register every series this service exposes (``/metrics``)."""
        reg = self.telemetry = TelemetryRegistry()
        help_by_name = {
            "repro_jobs_submitted_total": "Job submissions accepted",
            "repro_jobs_executed_total": "Jobs executed to completion",
            "repro_store_hits_total":
                "Submissions satisfied by the content-addressed store",
            "repro_dedup_hits_total":
                "Submissions attached to an identical in-flight job",
            "repro_requeues_total": "Worker-loss requeues",
            "repro_jobs_failed_total": "Jobs that ended FAILED",
            "repro_jobs_cancelled_total": "Jobs cancelled",
            "repro_jobs_rejected_total":
                "Submissions rejected by back-pressure (503 path)",
        }
        for series, help in help_by_name.items():
            reg.counter(series, help=help)
        self._evictions = reg.counter(
            "repro_retention_evictions_total",
            help="Terminal jobs pruned past the retention bound")
        self._progress_events = reg.counter(
            "repro_progress_events_total",
            help="job-progress rows forwarded from workers")
        self._dropped_events = reg.counter(
            "repro_events_dropped_total",
            help="Events discarded from bounded per-job backlogs")
        reg.gauge("repro_queue_depth", help="Jobs waiting in the queue",
                  fn=lambda: self._queue.qsize() if self._queue else 0)
        reg.gauge("repro_inflight_jobs",
                  help="Non-terminal jobs (queued + running)",
                  fn=lambda: len(self._inflight))
        reg.gauge("repro_jobs_tracked",
                  help="Jobs held in memory (bounded by retention)",
                  fn=lambda: len(self._jobs))
        reg.gauge("repro_uptime_seconds",
                  help="Seconds since this service instance started",
                  fn=lambda: time.monotonic() - self._started_mono)
        for status in JobStatus:
            reg.gauge("repro_jobs_state", help="Jobs by current status",
                      labels={"state": status.value},
                      fn=functools.partial(self._count_state, status))
        self._wait_hist = reg.histogram(
            "repro_job_wait_seconds",
            help="Queue wait latency (submission to first RUNNING)")
        self._run_hist = reg.histogram(
            "repro_job_run_seconds",
            help="Execution latency (first RUNNING to terminal)")
        # Batch-backend engagement: fed from the BatchStats dict riding
        # run payloads (RunSummary.batch).  Every fallback reason is
        # pre-registered so /metrics exposes the full label set from the
        # first scrape, zeros included.
        from repro.core.fallback import COHORT_BUCKETS, FallbackReason
        self._batch_windows = reg.counter(
            "repro_batch_windows_total",
            help="Windows drained on the vectorized batch path")
        self._batch_fallbacks = {
            reason.value: reg.counter(
                "repro_batch_fallback_total",
                help="Runs refused by the batch path, by reason",
                labels={"reason": reason.value})
            for reason in FallbackReason}
        self._cohort_hist = reg.histogram(
            "repro_batch_miss_cohort_size",
            help="Scalar-excursion cohort size per drained window",
            buckets=[float(b) for b in COHORT_BUCKETS])

    def _count_state(self, status: JobStatus) -> int:
        return sum(1 for job in self._jobs.values()
                   if job.status is status)

    def _count(self, name: str, n: int = 1) -> None:
        """Bump one of the legacy-named job counters."""
        self.telemetry.counter(LEGACY_COUNTERS[name]).inc(n)

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "SweepService":
        """Bind to the running loop and spawn the drain tasks."""
        if self._queue is not None:
            return self
        self.loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue(maxsize=self.queue_size)
        for _ in range(max(1, self.workers)):
            self._tasks.append(asyncio.ensure_future(self._drain()))
        return self

    async def close(self) -> None:
        """Cancel drain tasks and shut the pool down."""
        for task in self._tasks + self._sweeps:
            task.cancel()
        for task in self._tasks + self._sweeps:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._sweeps.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._progress_queue is not None:
            try:
                self._progress_queue.put(None)  # stop the drain thread
            except (EOFError, OSError, BrokenPipeError):
                pass
            if self._progress_thread is not None:
                self._progress_thread.join(timeout=5)
            self._progress_manager.shutdown()
            self._progress_manager = None
            self._progress_queue = None
            self._progress_thread = None
        self._queue = None
        self.loop = None

    @property
    def started(self) -> bool:
        return self._queue is not None

    # -- submission ------------------------------------------------------
    async def submit(self, kind: str = "run", *,
                     priority: int = DEFAULT_PRIORITY,
                     wait: bool = True, **params) -> Job:
        """Admit one job; returns the (possibly pre-existing) job.

        Dedupe order: store hit > in-flight attach > queue.  With
        ``wait=False`` a full queue raises :class:`ServiceSaturated`
        instead of suspending.
        """
        spec = JobSpec.make(kind, **params)
        return await self.submit_spec(spec, priority=priority, wait=wait)

    async def submit_spec(self, spec: JobSpec, *,
                          priority: int = DEFAULT_PRIORITY,
                          wait: bool = True) -> Job:
        if isinstance(priority, bool) or not isinstance(priority, int):
            # Rejected before the job exists: a non-int would poison the
            # priority heap's tuple ordering for every later submission.
            raise JobError(
                f"priority must be an integer, got {priority!r}")
        if self._queue is None:
            await self.start()
        self._count("submitted")
        digest = spec.digest

        existing = self._inflight.get(digest)
        if existing is not None:
            existing.dedup_hits += 1
            self._count("dedup_hits")
            existing.events.emit(kind="dedup", job=existing.id)
            self._log.emit("job-dedup", job=existing.id, digest=digest,
                           kind=spec.kind)
            return existing

        stored = self.store.get_payload(digest)
        if stored is not None:
            job = Job(spec=spec, priority=priority, digest=digest)
            job.source = "store"
            job.payload = stored
            job.persisted = True
            self._register(job)
            self._count("store_hits")
            self._log.emit("job-store-hit", job=job.id, digest=digest,
                           kind=spec.kind)
            job.transition(JobStatus.DONE, source="store")
            self._finish(job)
            return job

        job = Job(spec=spec, priority=priority, digest=digest)
        self._register(job)
        self._inflight[digest] = job
        job.events.emit(kind="status", status="pending", job=job.id)
        self._log.emit("job-submitted", job=job.id, digest=digest,
                       kind=spec.kind, priority=priority)
        if spec.kind == "sweep":
            self._sweeps.append(
                asyncio.ensure_future(self._run_sweep(job)))
            return job
        await self._enqueue(job, wait=wait)
        return job

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._done_events[job.id] = asyncio.Event()
        # Backlog overflow on any job's stream rolls up into one
        # service-wide counter (satellite: bounded EventStream).
        job.events.on_drop = self._dropped_events.inc

    async def _enqueue(self, job: Job, *, wait: bool) -> None:
        item = (job.priority, next(self._seq), job)
        try:
            if wait:
                await self._queue.put(item)
            else:
                self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self._drop(job, JobStatus.CANCELLED,
                       error="queue full (back-pressure)",
                       metric="rejected")
            raise ServiceSaturated(
                f"queue full ({self.queue_size} jobs); retry later"
            ) from None
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Any other enqueue failure must not leave a pending zombie
            # registered in _inflight that dedupes future submissions.
            self._drop(job, JobStatus.FAILED,
                       error=f"enqueue failed: {exc}", metric="failures")
            raise

    # -- queries ---------------------------------------------------------
    def get_job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def describe(self) -> Dict:
        """Service status document (``GET /health``).

        Cumulative counters under ``metrics``; point-in-time load under
        ``gauges`` (queue depth, in-flight, per-state counts, uptime,
        evictions) so the document reflects *current* pressure, not just
        history.  The full telemetry snapshot rides along under
        ``telemetry`` (schema ``repro.obs/telemetry-v1``).
        """
        return {
            "workers": self.workers,
            "queue_size": self.queue_size,
            "queued": self._queue.qsize() if self._queue else 0,
            "jobs": len(self._jobs),
            "inflight": len(self._inflight),
            "retention": self.retention,
            "progress_interval": self.progress_interval,
            "metrics": self.metrics.to_dict(),
            "gauges": {
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "inflight": len(self._inflight),
                "uptime_seconds": round(
                    time.monotonic() - self._started_mono, 3),
                "retention_evictions": int(self._evictions.value),
                "events_dropped": int(self._dropped_events.value),
                "progress_events": int(self._progress_events.value),
                "states": {status.value: self._count_state(status)
                           for status in JobStatus},
            },
            "telemetry": self.telemetry.snapshot(),
            "store": {"dir": str(self.store.dir),
                      "hits": self.store.hits,
                      "stores": self.store.stores,
                      "write_errors": self.store.write_errors,
                      "read_errors": self.store.read_errors},
        }

    def render_metrics(self) -> str:
        """Prometheus text exposition (``GET /metrics``)."""
        return self.telemetry.render_prometheus()

    async def wait(self, job: Job,
                   timeout: Optional[float] = None) -> Job:
        """Suspend until the job reaches a terminal status."""
        event = self._done_events.get(job.id)
        if event is None or job.status.terminal:
            return job
        await asyncio.wait_for(event.wait(), timeout)
        return job

    def cancel(self, job: Job) -> bool:
        """Cancel a pending job (running jobs finish; sweeps cancel
        their pending children)."""
        if job.status is not JobStatus.PENDING \
                and not (job.spec.kind == "sweep"
                         and job.status is JobStatus.RUNNING):
            return False
        if job.spec.kind == "sweep":
            # Only this sweep's own children -- a dedup-shared child
            # (another submitter attached to it) keeps running.
            for child in list(job.children):
                if child.status is JobStatus.PENDING \
                        and child.dedup_hits == 0:
                    self._drop(child, JobStatus.CANCELLED,
                               error="sweep cancelled")
        self._drop(job, JobStatus.CANCELLED)
        return True

    def _drop(self, job: Job, status: JobStatus,
              error: Optional[str] = None, *,
              metric: str = "cancelled") -> None:
        job.error = error
        self._count(metric)
        self._log.emit("job-dropped", job=job.id, digest=job.digest,
                       status=status.value, metric=metric, error=error)
        job.transition(status, **({"error": error} if error else {}))
        self._finish(job)

    def _finish(self, job: Job) -> None:
        if self._inflight.get(job.digest) is job:
            del self._inflight[job.digest]
        if job.started_mono is not None and job.finished_mono is None:
            job.finished_mono = time.monotonic()
            self._run_hist.observe(job.finished_mono - job.started_mono)
        event = self._done_events.get(job.id)
        if event is not None and not event.is_set():
            event.set()
            self._terminal.append(job.id)
            while len(self._terminal) > self.retention:
                old = self._terminal.popleft()
                self._jobs.pop(old, None)
                self._done_events.pop(old, None)
                self._evictions.inc()
                self._log.emit("job-evicted", job=old)

    # -- execution -------------------------------------------------------
    async def _drain(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            try:
                if job.status is not JobStatus.PENDING:
                    continue  # cancelled while queued
                await self._run_one(job)
            finally:
                self._queue.task_done()

    async def _run_one(self, job: Job) -> None:
        while True:
            job.attempts += 1
            if job.started_mono is None:
                job.started_mono = time.monotonic()
                self._wait_hist.observe(
                    job.started_mono - job.created_mono)
            job.transition(JobStatus.RUNNING, attempt=job.attempts)
            self._log.emit("job-running", job=job.id, digest=job.digest,
                           attempt=job.attempts)
            try:
                payload = await self._execute_job(job)
            except _WorkerLost as exc:
                if job.attempts < self.max_attempts:
                    self._count("requeues")
                    job.status = JobStatus.PENDING
                    job.events.emit(kind="requeue", job=job.id,
                                    attempt=job.attempts, error=str(exc))
                    self._log.emit("job-requeued", job=job.id,
                                   attempt=job.attempts, error=str(exc))
                    try:
                        # Never a blocking put: this coroutine IS the
                        # consumer that would have to free the slot, so
                        # awaiting a full queue here deadlocks.
                        self._queue.put_nowait(
                            (job.priority, next(self._seq), job))
                    except asyncio.QueueFull:
                        continue  # retry inline instead of requeueing
                    return
                self._count("failures")
                job.error = f"worker lost x{job.attempts}: {exc}"
                self._log.emit("job-failed", job=job.id, error=job.error)
                job.transition(JobStatus.FAILED, error=job.error)
                self._finish(job)
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # job error: terminal, not retried
                self._count("failures")
                job.error = f"{type(exc).__name__}: {exc}"
                self._log.emit("job-failed", job=job.id, error=job.error)
                job.transition(JobStatus.FAILED, error=job.error)
                self._finish(job)
                return
            else:
                self._persist(job, payload)
                job.payload = payload
                self._count("executed")
                self._record_batch_telemetry(payload)
                self._emit_final_progress(job, payload)
                self._log.emit("job-done", job=job.id, digest=job.digest)
                job.transition(JobStatus.DONE, source="run",
                               persisted=job.persisted)
                self._finish(job)
                return

    def _persist(self, job: Job, payload: Dict) -> None:
        """Store a finished job's payload and record on the job whether
        it landed.  A failed write (already counted in the store's
        ``write_errors``) does not fail the job: its payload is valid."""
        job.persisted = self.store.put_payload(job.digest, payload)
        if not job.persisted:
            self._log.emit("job-not-persisted", job=job.id,
                           digest=job.digest)

    async def _execute_job(self, job: Job) -> Dict:
        spec_dict = job.spec.to_dict()
        forward = self._progress_enabled(job)
        if self.workers <= 0:
            # Inline mode: synchronous and deterministic.  Worker-loss
            # simulation (tests) still surfaces as requeue-able.
            try:
                if forward:
                    return self._execute(
                        spec_dict,
                        progress=functools.partial(
                            self._on_progress_row, job.id),
                        progress_interval=self.progress_interval)
                return self._execute(spec_dict)
            except BrokenExecutor as exc:
                raise _WorkerLost(str(exc) or "broken executor") from exc
        loop = asyncio.get_running_loop()
        pool = self._get_pool()
        if forward and self._execute is execute_spec:
            # A manager-queue proxy pickles into the worker; a bare
            # callback would not.  The drain thread re-emits rows on the
            # job's event stream from this side of the boundary.
            call = functools.partial(
                _pool_execute, spec_dict, self._get_progress_queue(),
                job.id, self.progress_interval)
        else:
            call = functools.partial(self._execute, spec_dict)
        try:
            return await loop.run_in_executor(pool, call)
        except BrokenExecutor as exc:
            # The process died (OOM-killed, signalled, ...): poison the
            # pool so the next job rebuilds it, and requeue this one.
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            raise _WorkerLost(str(exc) or "worker process died") from exc

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=max(1, self.workers))
        return self._pool

    # -- progress forwarding ---------------------------------------------
    def _progress_enabled(self, job: Job) -> bool:
        """Forward live rows for this job?  Requires an executor that
        understands the progress kwargs (injected test stubs keep their
        one-argument signature and are never handed them)."""
        return (self.progress_interval is not None
                and job.spec.kind in PROGRESS_KINDS
                and getattr(self._execute, "supports_progress", False))

    def _on_progress_row(self, job_id: str, row: Dict) -> None:
        """Re-emit one worker interval row as a ``job-progress`` event.

        Runs on the loop thread (inline mode) or the drain thread (pool
        mode) -- EventStream and the counters are thread-safe.
        """
        job = self._jobs.get(job_id)
        if job is None or job.events.closed:
            return
        job.progress = row
        self._progress_events.inc()
        job.events.emit(kind="job-progress", job=job_id, **row)
        self._log.emit("job-progress", job=job_id, **row)

    def _record_batch_telemetry(self, payload) -> None:
        """Fold a run payload's ``batch`` dict into the batch series.

        Scalar-backend payloads carry an empty dict and non-run payloads
        none at all; both are no-ops, so the series move exactly when a
        ``backend="numpy"`` run completes.  Unknown fallback reasons
        (from a payload recorded by a newer code version) are skipped
        rather than crashing the job loop.
        """
        if not isinstance(payload, dict):
            return
        batch = payload.get("batch")
        if not isinstance(batch, dict) or not batch:
            return
        windows = int(batch.get("windows") or 0)
        if windows:
            self._batch_windows.inc(windows)
        for reason, n in (batch.get("fallbacks") or {}).items():
            counter = self._batch_fallbacks.get(reason)
            if counter is not None and n:
                counter.inc(int(n))
        sizes = batch.get("cohort_sizes")
        if isinstance(sizes, list) \
                and len(sizes) == len(self._cohort_hist.buckets) + 1:
            self._cohort_hist.observe_bucketed(
                [int(n) for n in sizes],
                sum_=float(batch.get("scalar_excursions") or 0))

    def _emit_final_progress(self, job: Job, payload) -> None:
        """One authoritative ``final`` row from the stored payload.

        Worker-forwarded rows race the DONE transition (pool mode drains
        them on a thread); the final row is emitted service-side from
        the payload itself, so consumers always see a closing row whose
        counters match the stored RunSummary exactly.
        """
        if not self._progress_enabled(job):
            return
        if not isinstance(payload, dict) or "cycles" not in payload:
            return
        cycles = payload.get("cycles") or 0
        instructions = payload.get("instructions") or 0
        row = {
            "final": True,
            "pct": 1.0,
            "instructions": instructions,
            "cycle": cycles,
            "ipc": payload.get("metrics", {}).get(
                "ipc", instructions / cycles if cycles else 0.0),
            "walk_cycles": payload.get("walk_cycles_total", 0),
        }
        self._on_progress_row(job.id, row)

    def _get_progress_queue(self):
        """The manager queue pool workers forward rows into (lazy)."""
        if self._progress_queue is None:
            import multiprocessing
            self._progress_manager = multiprocessing.Manager()
            self._progress_queue = self._progress_manager.Queue()
            self._progress_thread = threading.Thread(
                target=self._drain_progress, name="progress-drain",
                daemon=True)
            self._progress_thread.start()
        return self._progress_queue

    def _drain_progress(self) -> None:
        queue = self._progress_queue
        while True:
            try:
                item = queue.get()
            except (EOFError, OSError):
                return  # manager shut down
            if item is None:
                return
            try:
                job_id, row = item
                self._on_progress_row(job_id, row)
            except Exception:
                continue  # a malformed row must not kill the drain

    # -- sweeps ----------------------------------------------------------
    async def _run_sweep(self, job: Job) -> None:
        if job.status.terminal:
            return  # cancelled before expansion got to run
        try:
            children = job.spec.sweep_children()
        except (JobError, TypeError, ValueError) as exc:
            self._count("failures")
            job.error = f"bad sweep: {exc}"
            job.transition(JobStatus.FAILED, error=job.error)
            self._finish(job)
            return
        job.transition(JobStatus.RUNNING, total=len(children))
        skipped: List[str] = []
        waiting: List[Job] = []
        for spec in children:
            digest = spec.digest
            if job.status is JobStatus.CANCELLED:
                return
            if self.store.contains(digest):
                # Already completed (possibly by an earlier, partial
                # attempt at this sweep): resume by skipping it.
                skipped.append(digest)
                self._count("store_hits")
                job.events.emit(kind="sweep-skip", digest=digest,
                                source="store")
                continue
            child = await self.submit_spec(spec, priority=job.priority)
            job.children.append(child)
            waiting.append(child)
            job.events.emit(kind="sweep-child", digest=digest,
                            child=child.id)
        failed: List[str] = []
        completed: List[str] = list(skipped)
        for child in waiting:
            await self.wait(child)
            if child.status is JobStatus.DONE:
                completed.append(child.digest)
            else:
                failed.append(child.digest)
            job.events.emit(kind="sweep-progress",
                            done=len(completed), failed=len(failed),
                            total=len(children))
        if job.status is JobStatus.CANCELLED:
            return
        payload = {"kind": "sweep", "total": len(children),
                   "skipped": skipped, "completed": completed,
                   "failed": failed}
        job.payload = payload
        if failed:
            self._count("failures")
            job.error = f"{len(failed)}/{len(children)} children failed"
            job.transition(JobStatus.FAILED, error=job.error)
        else:
            # Only a fully-completed sweep is stored: a partial one must
            # re-expand (and skip per-child) on resubmission.
            self._persist(job, payload)
            self._count("executed")
            job.transition(JobStatus.DONE, source="run",
                           persisted=job.persisted)
        self._finish(job)


# ----------------------------------------------------------------------
# In-process client handle
# ----------------------------------------------------------------------
class JobHandle:
    """What :func:`repro.api.submit` returns: a thin async view of one
    job inside an in-process :class:`SweepService`."""

    def __init__(self, service: SweepService, job: Job):
        self._service = service
        self._job = job

    # -- identity --------------------------------------------------------
    @property
    def id(self) -> str:
        return self._job.id

    @property
    def digest(self) -> str:
        return self._job.digest

    @property
    def status(self) -> JobStatus:
        return self._job.status

    @property
    def source(self) -> str:
        return self._job.source

    def describe(self) -> Dict:
        return self._job.describe()

    def events(self, start: int = 0) -> List[Dict]:
        return self._job.events.snapshot(start)

    @property
    def progress(self) -> Optional[Dict]:
        """Latest forwarded ``job-progress`` row (None before the
        first interval / when forwarding is off)."""
        return self._job.progress

    # -- outcome ---------------------------------------------------------
    async def wait(self, timeout: Optional[float] = None) -> "JobHandle":
        await self._service.wait(self._job, timeout)
        return self

    async def watch(self, on_event: Optional[Callable[[Dict], None]] = None,
                    on_progress: Optional[Callable[[Dict], None]] = None,
                    tick: float = 0.05) -> "JobHandle":
        """Follow the job to completion, streaming events to callbacks.

        ``on_event`` sees every event (lifecycle + progress);
        ``on_progress`` sees only ``job-progress`` rows -- the live
        IPC/MPKI/% feed a dashboard wants.  Returns once the job is
        terminal and the backlog is drained; callback exceptions
        propagate to the caller.
        """
        index = 0
        while True:
            for event in self._job.events.snapshot(index):
                index = event["seq"] + 1
                if on_event is not None:
                    on_event(event)
                if on_progress is not None \
                        and event.get("kind") == "job-progress":
                    on_progress(event)
            if self._job.status.terminal \
                    and len(self._job.events) <= index:
                return self
            try:
                await self._service.wait(self._job, timeout=tick)
            except asyncio.TimeoutError:
                pass

    def result(self) -> Dict:
        """The payload; raises if the job is not DONE."""
        job = self._job
        if job.status is not JobStatus.DONE:
            raise RuntimeError(
                f"{job.id} is {job.status.value}"
                + (f": {job.error}" if job.error else ""))
        return job.payload

    def summary(self) -> RunSummary:
        """The payload as a RunSummary (run/scenario jobs)."""
        self.result()
        return self._job.summary()

    async def cancel(self) -> bool:
        return self._service.cancel(self._job)
