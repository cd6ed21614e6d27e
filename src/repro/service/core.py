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
  (in-process callers) suspends the submitter until a slot frees;
  ``wait=False`` (the HTTP server) raises :class:`ServiceSaturated`,
  which surfaces as ``503 Retry-After``.
* **Priorities.**  Lower numbers run first; ties resolve in submission
  order (a deterministic total order, relied on by tests), a parent's
  children taking its place.
* **Worker loss is not job loss.**  A job whose worker process dies
  (``BrokenExecutor``) is re-queued up to ``max_attempts``; the pool is
  rebuilt lazily.
* **Parents expand into run children.**  A ``sweep`` into its run
  specs, a ``figure`` into its harness's grid, reduced on the loop.
  Stored children are skipped (a resubmitted partial sweep runs only
  the gap); parents never hold a drain slot.  Each finished point is
  one ``<kind>-skip`` or ``<kind>-progress`` event on the parent's
  stream, the progress vocabulary of every figure batch.
  :func:`serving` runs a service for ``repro figure``, which submits
  figure jobs to it, and binds ``run_many`` to it for ``make accuracy``
  and ``repro scenario run``.

Queued jobs execute through ``execute_spec`` -- a module-level,
picklable function -- either inline (``workers=0``: synchronous,
deterministic, what the tests drive) or via ``ProcessPoolExecutor``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.experiments.parallel import (ResultCache, RunKey, RunSummary,
                                        bind_executor, execute_key)
from repro.experiments.payloads import figure_payload, trace_payload
from repro.experiments.registry import finish
from repro.obs.forward import demand_total
from repro.obs.log import get_logger
from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL
from repro.obs.telemetry import TelemetryRegistry
from repro.service.jobs import (DEFAULT_PRIORITY, Job, JobError, JobSpec,
                                JobStatus, point_spec)

#: Default queue bound; small enough that a runaway sweep generator
#: feels back-pressure quickly, large enough to keep a pool busy.
DEFAULT_QUEUE_SIZE = 256

#: Terminal jobs kept in memory beyond this count are pruned (oldest
#: first).  Their payloads stay addressable via the on-disk store by
#: digest; only the in-memory Job (status doc + event history) goes.
DEFAULT_RETENTION = 1024

#: Job kinds that run as tasks expanding into children, never in a drain.
PARENT_KINDS = ("sweep", "figure")


class ServiceSaturated(RuntimeError):
    """Bounded queue is full and the caller declined to wait."""


class _WorkerLost(RuntimeError):
    """Internal: the worker process executing a job died."""


# ----------------------------------------------------------------------
# Spec execution (module-level: must pickle into worker processes)
# ----------------------------------------------------------------------
def execute_spec(spec_dict: Dict, progress: Optional[Callable] = None,
                 progress_interval: Optional[int] = None) -> Dict:
    """Execute one queued job spec; returns its JSON payload.

    A ``run`` or ``scenario`` spec is one :class:`RunKey`, and its
    payload the bare ``RunSummary`` dict stored under that key's digest.
    ``progress`` is an optional per-interval row sink for those two
    kinds (see :mod:`repro.obs.forward`); the payload is bit-identical
    with or without it.  Sweeps and figures expand in the service.
    """
    spec = JobSpec.from_dict(spec_dict)
    key = spec.run_key()
    if key is not None:
        forwarder = None
        if progress is not None and progress_interval:
            from repro.obs.forward import ProgressForwarder
            forwarder = ProgressForwarder(
                progress, total_instructions=key.instructions,
                interval=progress_interval)
        return execute_key(key, progress=forwarder).to_dict()
    if spec.kind == "trace":
        return trace_payload(spec.to_dict())
    raise JobError(f"{spec.kind} jobs expand in the service; "
                   "only run, scenario and trace specs execute")


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

    def __init__(self, store: Optional[ResultCache] = None,
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
        self.store = store if store is not None else ResultCache()
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
        self._parents: List[asyncio.Task] = []  # sweep and figure tasks
        #: Futures that callers of :meth:`run_points` block on.
        self._bridged: set = set()
        self._bridge_lock = threading.Lock()
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
        """Cancel drain and parent tasks, end every unfinished job as
        CANCELLED, release every thread blocked in :meth:`run_points`,
        and shut the pool down."""
        with self._bridge_lock:
            self.loop = None  # run_points refuses new batches from here
            for future in self._bridged:
                future.cancel()
        for task in self._tasks + self._parents:
            task.cancel()
        for task in self._tasks + self._parents:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._parents.clear()
        # Their tasks are gone: close their streams and wake waiters.
        for job in list(self._inflight.values()):
            self._drop(job, JobStatus.CANCELLED, error="service closed")
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
                          wait: bool = True,
                          parent: Optional[Job] = None) -> Job:
        """:meth:`submit` for a built spec; a ``parent`` sweep or figure
        submits its children here, and they queue at its place."""
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

        stored = self.store.get_raw(digest)
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

        job = Job(spec=spec, priority=priority, digest=digest,
                  place=parent.place if parent else next(self._seq))
        self._register(job)
        self._inflight[digest] = job
        job.events.emit(kind="status", status="pending", job=job.id)
        self._log.emit("job-submitted", job=job.id, digest=digest,
                       kind=spec.kind, priority=priority)
        if spec.kind in PARENT_KINDS:
            run = self._run_sweep if spec.kind == "sweep" \
                else self._run_figure
            self._parents.append(asyncio.ensure_future(run(job)))
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
        item = (job.priority, job.place, next(self._seq), job)
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
        """Cancel a pending job (running jobs finish; sweeps and
        figures cancel their pending children)."""
        parent = job.spec.kind in PARENT_KINDS
        if job.status is not JobStatus.PENDING \
                and not (parent and job.status is JobStatus.RUNNING):
            return False
        if parent:
            # Only this parent's own children -- a dedup-shared child
            # (another submitter attached to it) keeps running.
            for child in list(job.children):
                if child.status is JobStatus.PENDING \
                        and child.dedup_hits == 0:
                    self._drop(child, JobStatus.CANCELLED,
                               error=f"{job.spec.kind} cancelled")
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
            *_, job = await self._queue.get()
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
                        self._queue.put_nowait((job.priority, job.place,
                                                next(self._seq), job))
                    except asyncio.QueueFull:
                        continue  # retry inline instead of requeueing
                    return
                self._fail(job, f"worker lost x{job.attempts}: {exc}")
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # job error: terminal, not retried
                self._fail(job, f"{type(exc).__name__}: {exc}")
                return
            else:
                self._emit_final_progress(job, payload)
                self._done(job, payload)
                return

    def _done(self, job: Job, payload: Dict) -> None:
        """Finish a job that produced ``payload``: store it, count the
        execution and transition to DONE."""
        self._persist(job, payload)
        job.payload = payload
        self._count("executed")
        self._log.emit("job-done", job=job.id, digest=job.digest)
        job.transition(JobStatus.DONE, source="run",
                       persisted=job.persisted)
        self._finish(job)

    def _fail(self, job: Job, error: str) -> None:
        self._count("failures")
        job.error = error
        self._log.emit("job-failed", job=job.id, error=error)
        job.transition(JobStatus.FAILED, error=error)
        self._finish(job)

    def _persist(self, job: Job, payload: Dict) -> None:
        """Store a finished job's payload and record on the job whether
        it landed.  A failed write (already counted in the store's
        ``write_errors``) does not fail the job: its payload is valid."""
        job.persisted = self.store.put_raw(job.digest, payload)
        if not job.persisted:
            self._log.emit("job-not-persisted", job=job.id,
                           digest=job.digest)

    async def _execute_job(self, job: Job) -> Dict:
        spec_dict = job.spec.to_dict()
        forward = self._progress_enabled()
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
    def _progress_enabled(self) -> bool:
        """Forward live rows from queued jobs?  Requires an executor that
        understands the progress kwargs (injected test stubs keep their
        one-argument signature and are never handed them); the ``trace``
        branch ignores them."""
        return (self.progress_interval is not None
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

    def _emit_final_progress(self, job: Job, payload) -> None:
        """One authoritative ``final`` row from the stored payload.

        Worker-forwarded rows race the DONE transition (pool mode drains
        them on a thread); the final row is emitted service-side from
        the payload itself, so consumers always see a closing row whose
        counters match the stored RunSummary exactly.
        """
        if not self._progress_enabled():
            return
        if not isinstance(payload, dict) or "cycles" not in payload:
            return
        cycles = payload.get("cycles") or 0
        instructions = payload.get("instructions") or 0
        mpki = payload.get("mpki", {})
        row = {
            "final": True,
            "pct": 1.0,
            "instructions": instructions,
            "cycle": cycles,
            "ipc": payload.get("metrics", {}).get(
                "ipc", instructions / cycles if cycles else 0.0),
            "l2_mpki": round(demand_total(mpki.get("l2c", {})), 4),
            "llc_mpki": round(demand_total(mpki.get("llc", {})), 4),
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

    # -- parents: sweeps and figures --------------------------------------
    async def _run_children(self, parent: Optional[Job],
                            specs: List[JobSpec]
                            ) -> Tuple[List[str], List[Job]]:
        """Skip specs already stored, submit the rest (attaching to
        identical in-flight jobs), wait for all; returns the skipped
        digests and the children.  A ``parent`` owns the children and
        gets a ``<kind>-child`` event per submitted child and one point
        event per point: ``<kind>-skip`` for a stored one,
        ``<kind>-progress`` for a child once it ends.  Each names the
        parent's id as ``job``.  A point event carries the point's
        ``digest``, ``benchmark``, ``config`` (its config hash, 12
        digits) and ``seed``; its ``source`` (``run``, ``store``,
        ``dedup``, or the status of a child that failed); its
        ``wall_time``; and the ``done``/``failed``/``total`` counts."""
        total, done, failed = len(specs), 0, 0

        def point(event: str, spec: JobSpec, source: str,
                  wall_time: float) -> None:
            if parent is None:
                return
            key = spec.run_key()
            parent.events.emit(
                kind=f"{parent.spec.kind}-{event}", job=parent.id,
                digest=spec.digest, benchmark=key.benchmark,
                config=key.config_hash[:12], seed=key.seed, source=source,
                wall_time=wall_time, done=done, failed=failed, total=total)

        skipped: List[str] = []
        waiting: List[Tuple[Job, JobSpec, str]] = []
        for spec in specs:
            if parent is not None and parent.status.terminal:
                break  # cancelled while expanding
            digest = spec.digest
            if self.store.contains(digest):
                # Already completed (possibly by an earlier, partial
                # attempt at this sweep): resume by skipping it.
                skipped.append(digest)
                self._count("store_hits")
                done += 1
                point("skip", spec, "store", 0.0)
                continue
            shared = digest in self._inflight
            child = await self.submit_spec(
                spec, priority=parent.priority if parent is not None
                else DEFAULT_PRIORITY, parent=parent)
            waiting.append((child, spec,
                            "dedup" if shared else child.source))
            if parent is not None:
                parent.children.append(child)
                parent.events.emit(kind=f"{parent.spec.kind}-child",
                                   job=parent.id, digest=digest,
                                   child=child.id)
        for child, spec, source in waiting:
            await self.wait(child)
            if child.status is JobStatus.DONE:
                done += 1
            else:
                failed += 1
                source = child.status.value
            point("progress", spec, source,
                  0.0 if child.started_mono is None
                  else child.finished_mono - child.started_mono)
        return skipped, [child for child, _, _ in waiting]

    async def _run_sweep(self, job: Job) -> None:
        if job.status.terminal:
            return  # cancelled before expansion got to run
        try:
            specs = job.spec.sweep_children()
        except (JobError, TypeError, ValueError) as exc:
            self._fail(job, f"bad sweep: {exc}")
            return
        job.transition(JobStatus.RUNNING, total=len(specs))
        skipped, children = await self._run_children(job, specs)
        if job.status is JobStatus.CANCELLED:
            return
        completed = skipped + [c.digest for c in children
                               if c.status is JobStatus.DONE]
        failed = [c.digest for c in children
                  if c.status is not JobStatus.DONE]
        job.payload = {"kind": "sweep", "total": len(specs),
                       "skipped": skipped, "completed": completed,
                       "failed": failed}
        if failed:
            self._fail(job, f"{len(failed)}/{len(specs)} children failed")
        else:
            # Only a fully-completed sweep is stored: a partial one must
            # re-expand (and skip per-child) on resubmission.
            self._done(job, job.payload)

    async def _run_figure(self, job: Job) -> None:
        """Run the harness's grid as child ``run`` jobs of the figure,
        then reduce on the loop."""
        if job.status.terminal:
            return  # cancelled before it started
        job.started_mono = time.monotonic()
        self._wait_hist.observe(job.started_mono - job.created_mono)
        job.transition(JobStatus.RUNNING)
        try:
            points = figure_payload(job.spec.to_dict())
            grid = next(points)
            payload = finish(points, grid, await self._run_points(
                list(dict.fromkeys(grid.values())), job))
        except Exception as exc:
            if not job.status.terminal:
                self._fail(job, f"{type(exc).__name__}: {exc}")
            return
        if not job.status.terminal:  # not cancelled meanwhile
            self._done(job, payload)

    # -- run_many bridge -----------------------------------------------------
    def run_points(self, keys: List[RunKey]) -> Dict[RunKey, RunSummary]:
        """Run keys as jobs and block until every one finished: the
        executor :func:`serving` binds ``run_many`` to.  Call it from a
        thread other than the service loop's.  A failed point raises and
        names the point."""
        with self._bridge_lock:
            if self.loop is None:
                raise RuntimeError("sweep service is not running")
            future = asyncio.run_coroutine_threadsafe(
                self._run_points(keys, None), self.loop)
            self._bridged.add(future)
        try:
            return future.result()
        finally:
            with self._bridge_lock:
                self._bridged.discard(future)

    async def _run_points(self, keys: List[RunKey], parent: Optional[Job]
                          ) -> Dict[RunKey, RunSummary]:
        _, children = await self._run_children(
            parent, [point_spec(key) for key in keys])
        jobs = {child.digest: child for child in children}
        out: Dict[RunKey, RunSummary] = {}
        for key in keys:
            child = jobs.get(key.digest)
            if child is None:  # skipped: already in the store
                payload, error = self.store.get_raw(key.digest), \
                    "stored payload unreadable"
            else:
                payload = child.payload \
                    if child.status is JobStatus.DONE else None
                error = child.error or child.status.value
            if payload is None:
                raise RuntimeError(f"point {key!r} failed: {error}")
            out[key] = RunSummary.from_dict(payload)
        return out


# ----------------------------------------------------------------------
# A service on its own loop thread
# ----------------------------------------------------------------------
class ServiceRuntime:
    """Owns the service's event-loop thread; thread-safe call bridge."""

    def __init__(self, service: SweepService):
        self.service = service
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def start(self) -> "ServiceRuntime":
        self._thread.start()
        self.call(self.service.start())
        return self

    def call(self, coro, timeout: Optional[float] = 60.0):
        """Run a coroutine on the service loop; block for its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def sync(self, fn, *args, timeout: Optional[float] = 60.0):
        """Run a plain callable on the service loop thread."""
        async def invoke():
            return fn(*args)
        return self.call(invoke(), timeout)

    def stop(self) -> None:
        with contextlib.suppress(Exception):
            self.call(self.service.close(), timeout=10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10.0)
        if not self._thread.is_alive():
            self.loop.close()


@contextlib.contextmanager
def serving(workers: int = 0, store: Optional[ResultCache] = None):
    """A service on a loop thread with ``run_many`` bound to it for the
    block; ``workers=0`` runs inline, where ad-hoc scenario documents
    resolve.  Submit jobs to it from other threads through
    ``service.loop`` (``repro figure`` submits its figures so).  No
    progress forwarding: nothing reads it."""
    service = SweepService(store=store, workers=workers,
                           progress_interval=None)
    runtime = ServiceRuntime(service).start()
    try:
        with bind_executor(service.run_points):
            yield service
    finally:
        runtime.stop()
