"""``sweep_mix``: one in-process ``SweepService`` with two pool workers
(one per vCPU of the reference host) and the default progress
forwarding.

Each round gives the service a fresh store and one burst: a fig14-style
grid of ``run`` jobs over High/Medium/Low STLB-MPKI benchmarks and the
five enhancement presets, one ``figure`` job for fig14 over a subset of
those points and one ``scenario`` job.  The burst is then resubmitted
against the now warm store, one submission at a time.  Only the
service-side calls are traced: the simulations run in pool workers.
"""

from __future__ import annotations

import asyncio
import gc
import json
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed
import layers
from sims import SETUP_INSTRUCTIONS, SETUP_WARMUP, derive_seeds
from spans import SpanRecorder, Tally, median_count

#: Table II benchmarks of High, Medium and Low STLB MPKI, in the order
#: their jobs are submitted (longest first).
GRID_BENCHMARKS = ("pr", "mcf", "xalancbmk")
FIGURE = "fig14"
#: The figure job's subset of the grid's benchmarks.
FIGURE_BENCHMARKS = ("pr",)
SCENARIO = "RL-01-GRAPH-SOUP"
#: ``make figures-fast`` ROI and warmup.
INSTRUCTIONS = 20_000
WARMUP = 4_000
WORKERS = 2
#: Longest a job may take before it counts as failed.
JOB_TIMEOUT = 120.0


def burst_seeds(seed: int) -> Dict[str, int]:
    """Simulation seed of each grid benchmark and of the scenario."""
    names = GRID_BENCHMARKS + ("scenario",)
    return dict(zip(names, derive_seeds("sweep_mix", seed, len(names))))


def burst(seed: int) -> List[Tuple[object, int]]:
    """``(JobSpec, simulated instructions it covers)`` for one burst.

    Jobs go in longest first -- the figure, the scenario, then the grid
    from High to Low STLB MPKI -- so the two workers finish close
    together and the burst's makespan stays steady.  The figure's points
    use seed 1 (its harness takes no seed); the run and scenario seeds
    derive from the workload seed.
    """
    from repro.experiments.figures import FIG14_VARIANTS
    from repro.params import ENHANCEMENT_PRESET_NAMES
    from repro.scenarios import load_scenario
    from repro.service.jobs import JobSpec
    seeds = burst_seeds(seed)
    roi = INSTRUCTIONS + WARMUP
    doc = load_scenario(SCENARIO)
    specs = [
        (JobSpec.make("figure", figure=FIGURE,
                      benchmarks=list(FIGURE_BENCHMARKS),
                      instructions=INSTRUCTIONS, warmup=WARMUP),
         roi * len(FIGURE_BENCHMARKS) * (1 + len(FIG14_VARIANTS))),
        (JobSpec.make("scenario", scenario=SCENARIO,
                      seed=seeds["scenario"]),
         doc.instructions + doc.warmup),
    ]
    for bench in GRID_BENCHMARKS:
        for preset in ENHANCEMENT_PRESET_NAMES:
            specs.append((JobSpec.make("run", benchmark=bench,
                                       enhancements=preset,
                                       instructions=INSTRUCTIONS,
                                       warmup=WARMUP, seed=seeds[bench]),
                          roi))
    return specs


def setup_seed(seed: int) -> int:
    """Seed of the minimal job that ends ``setup_s``."""
    return derive_seeds("sweep_mix/setup", seed, 1)[0]


async def open_service(store_root, seed: int):
    """One ``setup_s`` sample: import, service start, then pool and
    progress-manager spawn up to the first minimal job reaching DONE.
    Returns ``(service, that job, seconds)``."""
    t0 = time.perf_counter()
    from repro import api  # noqa: F401  (the facade, as on the others)
    from repro.service.core import SweepService
    from repro.service.jobs import JobSpec
    from repro.service.store import JobStore
    service = SweepService(store=JobStore(root=store_root), workers=WORKERS)
    try:
        await service.start()
        job = await service.submit_spec(JobSpec.make(
            "run", benchmark="pr", enhancements="full",
            instructions=SETUP_INSTRUCTIONS, warmup=SETUP_WARMUP,
            seed=setup_seed(seed)))
        await service.wait(job, timeout=JOB_TIMEOUT)
    except BaseException:
        await close_service(service)
        raise
    return service, job, time.perf_counter() - t0


async def close_service(service) -> None:
    """Shut the service down and wait until every process it started
    (pool workers, progress manager) has exited and been reaped."""
    await service.close()
    deadline = time.monotonic() + 30
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("service processes did not exit")
        await asyncio.sleep(0.05)


async def first_result(store_root, seed: int) -> float:
    """A ``setup_s`` sample for a fresh process: open, then close."""
    service, _job, setup = await open_service(store_root, seed)
    await close_service(service)
    return setup


def _blob(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def counters(service) -> Dict[str, int]:
    """The service counters a round's per-layer figures difference."""
    counts = service.metrics.to_dict()
    counts["progress_rows"] = int(service.telemetry.counter(
        "repro_progress_events_total").value)
    return counts


@dataclass
class Round:
    """One burst on a fresh store and its warm resubmission."""

    cold_s: float
    instructions: int
    warm_ms: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    runs: List[float] = field(default_factory=list)
    warm_hits: int = 0
    #: Service counters accrued by the burst and its resubmission.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Mean seconds of the host-speed reference work right before and
    #: right after the round (None: not measured).
    host_s: Optional[float] = None

    @property
    def kips(self) -> float:
        return self.instructions / self.cold_s / 1e3


class SweepRun:
    """One benchmark run of ``sweep_mix`` on one service."""

    def __init__(self, service, seed: int, scratch, tally: Tally):
        self.service = service
        self.specs = burst(seed)
        self.scratch = scratch
        self.tally = tally
        self.rounds = 0
        #: Cold payload of every digest in the first round it completed.
        self.first: Dict[str, str] = {}

    async def _submit(self, spec, label: str):
        try:
            return await self.service.submit_spec(spec)
        except Exception as exc:
            self.tally.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    async def _wait(self, job) -> None:
        try:
            await self.service.wait(job, timeout=JOB_TIMEOUT)
        except asyncio.TimeoutError:
            pass  # still running: the DONE check records the failure

    async def round(self) -> Round:
        from repro.service.store import JobStore
        self.rounds += 1
        gc.collect()
        self.service.store = JobStore(
            root=self.scratch / f"store-{self.rounds}")
        before = counters(self.service)
        rnd = await self._burst()
        after = counters(self.service)
        rnd.counters = {k: after[k] - before[k] for k in after}
        return rnd

    async def _burst(self) -> Round:
        from repro.service.jobs import JobStatus
        t0 = time.perf_counter()
        jobs = [await self._submit(spec, f"cold: submit {spec.kind}")
                for spec, _ in self.specs]
        for job in jobs:
            if job is not None:
                await self._wait(job)
        rnd = Round(cold_s=time.perf_counter() - t0,
                    instructions=sum(n for _, n in self.specs))
        cold: List[Optional[str]] = []
        for job in jobs:
            blob = None
            if job is not None and self.tally.check(
                    job.status is JobStatus.DONE,
                    f"cold: {job.spec.kind} job {job.id} ended "
                    f"{job.status.value} ({job.error})"):
                blob = _blob(job.payload)
                first = self.first.setdefault(job.digest, blob)
                if first is not blob:
                    self.tally.check(blob == first,
                                     f"cold: {job.spec.kind} payload "
                                     f"differs from round 1")
                rnd.waits.append(job.started_mono - job.created_mono)
                rnd.runs.append(job.finished_mono - job.started_mono)
            cold.append(blob)
        for (spec, _), blob in zip(self.specs, cold):
            t0 = time.perf_counter()
            job = await self._submit(spec, f"warm: submit {spec.kind}")
            if job is None:
                continue
            if not job.status.terminal:
                await self._wait(job)
            rnd.warm_ms.append((time.perf_counter() - t0) * 1e3)
            hit = job.source == "store"
            rnd.warm_hits += hit
            same = blob is not None and _blob(job.payload) == blob
            self.tally.check(
                job.status is JobStatus.DONE and hit and same,
                f"warm: {spec.kind} job {job.id} ended {job.status.value} "
                f"from {job.source}; payload {'equal' if same else 'differs'}")
        return rnd

    async def rounds_for(self, seconds: float,
                         between: Optional[Callable[[], object]] = None,
                         host: bool = False) -> List[Round]:
        """Rounds for ``seconds``, and at least one; ``between()`` runs
        ahead of every round but the first, while the service is idle,
        and returns whether it did any work.  With ``host``, the
        host-speed reference work runs between rounds, and each round's
        ``host_s`` is the mean of the readings on either side of it."""
        deadline = time.perf_counter() + seconds
        done: List[Round] = []
        bracket = hostspeed.Bracket()
        while not done or time.perf_counter() < deadline:
            if done and between is not None and between():
                bracket.stale()
            if host:
                bracket.before()
            rnd = await self.round()
            if host:
                rnd.host_s = bracket.after()
            done.append(rnd)
        return done


def layer_values(rounds: List[Round], traced: List[Round],
                 totals) -> Dict[str, float]:
    """Per-layer values: spans per traced round, service figures per
    untraced round."""
    n = len(rounds)
    values = layers.span_metrics(*totals, len(traced))
    diff = {k: sum(r.counters[k] for r in rounds) for k in rounds[0].counters}
    warm = [ms for r in rounds for ms in r.warm_ms]
    values.update({
        "service.job_wait_s.p50": median_count(
            [w for r in rounds for w in r.waits])[0],
        "service.job_run_s.p50": median_count(
            [t for r in rounds for t in r.runs])[0],
        "service.executed": diff["executed"] / n,
        "service.store_hits": diff["store_hits"] / n,
        "service.dedup_hits": diff["dedup_hits"] / n,
        "service.requeues": diff["requeues"] / n,
        "service.failed": diff["failures"] / n,
        "service.warm_hit_ratio": (sum(r.warm_hits for r in rounds)
                                   / len(warm) if warm else 0.0),
        "service.warm_hit_ms": median_count(warm)[0] if warm else 0.0,
        "obs.progress_rows": diff["progress_rows"] / n,
        "trace.overhead": (median_count([r.cold_s for r in traced])[0]
                           / median_count([r.cold_s for r in rounds])[0]),
    })
    return values


async def run(seed: int, seconds: float, scratch, tally: Tally,
              recorder: Optional[SpanRecorder] = None, probes=None):
    """The whole workload in one event loop.  Returns ``(setup reading,
    untraced rounds, per-layer values or None)``; every service process
    has exited when it returns.  An untraced run reads the host speed
    around every round, and its ``setup_s`` ``probes`` go between
    rounds."""
    targets = None
    if recorder is not None:
        targets = layers.resolve(layers.SERVICE_BOUNDARIES, policies=False)
    service, job, setup = await open_service(scratch / "store-0", seed)
    try:
        setup = hostspeed.setup_reading(setup, hostspeed.fresh_start())
        from repro.service.jobs import JobStatus
        tally.check(job.status is JobStatus.DONE,
                    f"setup: job {job.id} ended {job.status.value} "
                    f"({job.error})")
        sweep = SweepRun(service, seed, scratch, tally)
        if recorder is None:
            probes.schedule(seconds)
            return setup, await sweep.rounds_for(seconds, probes.poll,
                                                 host=True), None
        rounds = await sweep.rounds_for(seconds / 3)
        with layers.Tracing(recorder, targets):
            traced = await sweep.rounds_for(seconds - seconds / 3)
        return setup, rounds, layer_values(rounds, traced,
                                           recorder.totals())
    finally:
        await close_service(service)
