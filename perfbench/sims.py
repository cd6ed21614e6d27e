"""``walk_storm`` and ``hit_stream``: back-to-back simulations through
``repro.api.run``, one caller, at scale 16 and the api's default ROI.

The timed region of a sample is the ``api.run`` call alone: trace
generation, hierarchy build and simulation, which is what a caller
waits for.  Statistics are digested outside it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import hostspeed
import layers
from spans import SpanRecorder, Tally, delta, median_count

#: Distinct simulation seeds per run, cycled through in order, so every
#: run mixes the same number of each and every seed repeats.
SEEDS_PER_RUN = 4

#: ROI and warmup of the minimal simulation ``setup_s`` ends with.
SETUP_INSTRUCTIONS = 4_000
SETUP_WARMUP = 1_000


@dataclass(frozen=True)
class SimWorkload:
    """One ``api.run`` configuration driven back to back."""

    name: str
    benchmark: str
    #: Keywords to ``api.run`` (and ``api.build_config``).
    options: Dict = field(default_factory=dict)
    #: ``api.run`` keywords of a once-per-run cross-check that must give
    #: the same statistics (None: no cross-check).
    reference: Optional[Dict] = None
    #: Run the extra progress-forwarded simulation the obs layer needs.
    observe: bool = False


#: ``pr`` has Table II's highest STLB MPKI: walks, L2C/LLC misses and
#: fills, T-DRRIP/T-SHiP, MSHRs, DRAM, recall tracking and ATP/TEMPO do
#: the work, on the scalar reference core.
WALK_STORM = SimWorkload("walk_storm", "pr", {"enhancements": "full"},
                         observe=True)

#: ``compute`` walks almost never: the DTLB/L1D hit path and retire
#: recurrences do the work, on the numpy backend where that fast path
#: pays; its statistics must equal the scalar core's.
HIT_STREAM = SimWorkload("hit_stream", "compute", {"backend": "numpy"},
                         reference={"backend": "python"})


def derive_seeds(workload: str, seed: int, n: int) -> List[int]:
    """``n`` distinct simulation seeds from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    seeds: List[int] = []
    while len(seeds) < n:
        s = rng.randrange(1, 1 << 31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def stats_digest(summary: Dict) -> str:
    """Digest of a ``RunSummary`` dict: every simulated statistic.  The
    ``batch`` engagement record is left out, since it describes the
    backend that ran, not the simulated machine."""
    stats = {k: v for k, v in summary.items() if k != "batch"}
    blob = json.dumps(stats, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def first_result(wl: SimWorkload, seed: int) -> float:
    """One ``setup_s`` sample: seconds from ``import repro.api`` to the
    result of one minimal simulation of the workload's config.  Only
    meaningful in a process that has not imported ``repro`` yet."""
    t0 = time.perf_counter()
    from repro import api
    api.run(wl.benchmark, instructions=SETUP_INSTRUCTIONS,
            warmup=SETUP_WARMUP, seed=seed, **wl.options)
    return time.perf_counter() - t0


@dataclass
class Sim:
    """One finished simulation, reduced to what the benchmark keeps."""

    seed: int
    wall: float
    instructions: int
    counts: Dict[str, float]
    summary: Dict
    digest: str
    #: Mean seconds of the host-speed reference work right before and
    #: right after the simulation (None: not measured).
    host_s: Optional[float] = None

    @property
    def kips(self) -> float:
        return self.instructions / self.wall / 1e3


def simulate(api, wl: SimWorkload, seed: int,
             options: Optional[Dict] = None) -> Sim:
    """Time one ``api.run`` (warmup + ROI instructions) and digest it."""
    from repro.experiments.parallel import RunSummary
    options = wl.options if options is None else options
    t0 = time.perf_counter()
    result = api.run(wl.benchmark, seed=seed, **options)
    wall = time.perf_counter() - t0
    summary = RunSummary.from_run(result, seed=seed).to_dict()
    return Sim(seed=seed, wall=wall,
               instructions=result.instructions + result.warmup,
               counts=layers.sim_counts(result), summary=summary,
               digest=stats_digest(summary))


class SimRun:
    """One benchmark run of a simulator workload: its seeds, the first
    result of each seed and the tally every check lands in."""

    def __init__(self, wl: SimWorkload, seed: int, tally: Tally):
        self.wl = wl
        self.tally = tally
        self.seeds = derive_seeds(wl.name, seed, SEEDS_PER_RUN)
        self.first: Dict[int, Sim] = {}

    def record(self, sim: Sim, label: str) -> None:
        first = self.first.setdefault(sim.seed, sim)
        if first is not sim:
            self.tally.check(
                sim.digest == first.digest,
                f"{label}: seed {sim.seed} statistics differ from its "
                f"first run")
        if self.wl.reference is not None:
            fallbacks = sim.summary["batch"].get("fallbacks")
            self.tally.check(
                not fallbacks,
                f"{label}: seed {sim.seed} fell back to the scalar core "
                f"({fallbacks})")

    def loop(self, api, seconds: float, label: str,
             before: Optional[Callable[[int], object]] = None,
             host: bool = False) -> List[Sim]:
        """Simulate the seeds in turn for ``seconds``, and at least once
        each.  ``before(i)`` runs ahead of the ``i``-th simulation and
        returns whether it did any work.  With ``host``, the host-speed
        reference work runs between simulations, and each one's
        ``host_s`` is the mean of the readings on either side of it."""
        sims: List[Sim] = []
        deadline = time.perf_counter() + seconds
        bracket = hostspeed.Bracket()
        i = 0
        while i < len(self.seeds) or time.perf_counter() < deadline:
            seed = self.seeds[i % len(self.seeds)]
            if before is not None and before(i):
                bracket.stale()
            gc.collect()
            if host:
                bracket.before()
            i += 1
            sim = self.tally.call(f"{label}: seed {seed}", simulate, api,
                                  self.wl, seed)
            host_s = None
            if host:
                gc.collect()  # free the hierarchy before the reading runs
                host_s = bracket.after()
            if sim is not None:
                sim.host_s = host_s
                self.record(sim, label)
                sims.append(sim)
        return sims

    def cross_check(self, api) -> None:
        """The workload's reference configuration on the first seed must
        reproduce its statistics exactly."""
        if self.wl.reference is None:
            return
        seed = self.seeds[0]
        ref = self.tally.call(f"reference: seed {seed}", simulate, api,
                              self.wl, seed, self.wl.reference)
        if ref is not None and seed in self.first:
            self.tally.check(
                ref.digest == self.first[seed].digest,
                f"reference {self.wl.reference}: seed {seed} statistics "
                f"differ from {self.wl.options}")

    def observed(self, api, seed: int):
        """The obs layer's extra simulation: ``run_benchmark`` with a
        ``ProgressForwarder`` attached, as the service's ``execute_spec``
        attaches it.  Returns ``(wall, rows forwarded)``; the statistics
        must equal the unobserved run's (``seed`` must have run)."""
        from repro.experiments.parallel import RunSummary
        from repro.experiments.runner import run_benchmark
        from repro.obs.forward import ProgressForwarder
        rows: List[Dict] = []
        forwarder = ProgressForwarder(
            rows.append, total_instructions=api.DEFAULT_INSTRUCTIONS,
            interval=api.DEFAULT_SAMPLE_INTERVAL)
        config = api.build_config(api.DEFAULT_SCALE, **self.wl.options)
        gc.collect()
        t0 = time.perf_counter()
        result = run_benchmark(self.wl.benchmark, config=config, seed=seed,
                               progress=forwarder)
        wall = time.perf_counter() - t0
        digest = stats_digest(RunSummary.from_run(result, seed=seed)
                              .to_dict())
        self.tally.check(
            seed in self.first and digest == self.first[seed].digest,
            f"observed: seed {seed} statistics differ from the unobserved "
            f"run")
        return wall, forwarder.rows_sent


def per_seed_walls(sims: Sequence[Sim]) -> Dict[int, List[float]]:
    walls: Dict[int, List[float]] = {}
    for sim in sims:
        walls.setdefault(sim.seed, []).append(sim.wall)
    return walls


def overhead(traced: Sequence[Sim], untraced: Sequence[Sim]) -> float:
    """``trace.overhead``: the median over seeds of traced ÷ untraced
    median wall of the same seed."""
    t, u = per_seed_walls(traced), per_seed_walls(untraced)
    ratios = [median_count(t[s])[0] / median_count(u[s])[0]
              for s in t if s in u]
    return median_count(ratios)[0]


def run_e2e(wl: SimWorkload, run: SimRun, api, seconds: float,
            probes) -> List[Sim]:
    """The timed run: simulations with their host-speed readings.  The
    ``setup_s`` probes run between simulations."""
    probes.schedule(seconds)
    sims = run.loop(api, seconds, "timed", before=probes.poll, host=True)
    run.cross_check(api)
    return sims


def run_traced(wl: SimWorkload, run: SimRun, api, seconds: float,
               recorder: SpanRecorder) -> Dict[str, float]:
    """The untraced and traced passes; returns every per-layer value."""
    targets = layers.resolve(layers.SIM_BOUNDARIES, policies=True)
    untraced = run.loop(api, seconds / 3, "untraced")
    run.cross_check(api)
    seed0 = run.seeds[0]
    obs: Dict[str, float] = {}
    if wl.observe:
        # An unobserved twin right before, so both see the same host.
        gc.collect()
        plain = run.tally.call(f"unobserved: seed {seed0}", simulate, api,
                               wl, seed0)
        if plain is not None:
            run.record(plain, "unobserved")
        observed = run.tally.call(f"observed: seed {seed0}", run.observed,
                                  api, seed0)
        if plain is not None and observed is not None:
            obs = {"obs.observed_slowdown": observed[0] / plain.wall,
                   "obs.progress_rows": observed[1]}
    with layers.Tracing(recorder, targets):
        traced = run.loop(api, seconds - seconds / 3, "traced",
                          before=recorder.start_sim)
        totals = recorder.totals()
        if wl.observe:
            # The sampler spans come from the observed simulation alone.
            recorder.start_sim(len(traced))
            run.tally.call(f"observed, traced: seed {seed0}", run.observed,
                           api, seed0)
            calls, self_s = delta(recorder.totals(), totals)
            obs["obs.sampler.calls"] = calls.get("obs.sampler", 0)
            obs["obs.sampler.self_s"] = self_s.get("obs.sampler", 0.0)
    values = layers.span_metrics(*totals, len(traced))
    values.update(obs)
    values.update(layers.sim_metrics([run.first[s].counts
                                      for s in run.seeds if s in run.first]))
    values["core.batch.fallbacks"] = sum(
        s.counts["batch.fallbacks"] for s in traced)
    values["trace.overhead"] = overhead(traced, untraced)
    return values
