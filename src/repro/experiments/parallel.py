"""Parallel, memoised experiment execution.

The figure/table harnesses are fleets of independent ``(benchmark,
config, seed)`` simulations -- exactly how ChampSim evaluations are run
on real clusters.  This module gives the Python reproduction the same
treatment:

* :class:`RunKey` -- the identity of one simulation (benchmark,
  config fingerprint, seed, instructions, warmup, scale).
* :class:`RunSummary` -- a picklable, JSON-serialisable snapshot of
  everything the figures consume from a run (a live
  :class:`~repro.experiments.runner.RunResult` holds ``Cache`` /
  ``OOOCore`` objects and cannot cross process boundaries).
* :class:`ResultCache` -- an on-disk JSON memo of completed runs,
  versioned by a schema number and invalidated by a fingerprint of the
  simulator's source code (and, per key, by the config hash).
* :class:`ParallelRunner` -- fans batches of :class:`RunKey` out over a
  ``ProcessPoolExecutor`` with per-job timeout, retry-once-on-failure
  and progress/metrics reporting.

The module-level :func:`run_many` / :func:`run_one` helpers route
through a process-wide runner configured by :func:`configure` (the CLI's
``--jobs`` / ``--no-cache`` flags land there); the default is serial,
uncached execution -- bit-identical to calling
:func:`~repro.experiments.runner.run_benchmark` directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.rob import StallCategory
from repro.experiments.runner import (DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP,
                                      RunResult, run_benchmark)
from repro.obs.log import get_logger
from repro.params import DEFAULT_SCALE, SimConfig, default_config

#: Bump when the RunSummary layout changes (invalidates every cache dir).
CACHE_SCHEMA_VERSION = 1

_RECALL_KINDS = ("translation", "replay")
_PREFETCH_LEVELS = ("l1d", "l2c", "llc")


# ----------------------------------------------------------------------
# Run identity
# ----------------------------------------------------------------------
def config_digest(config: SimConfig) -> str:
    """Stable hash of a simulation configuration."""
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True,
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class RunKey:
    """Identity of one simulation (hash/eq use the config *digest*)."""

    benchmark: str
    config: SimConfig
    seed: int = 1
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    scale: int = DEFAULT_SCALE
    #: Scenario-document digest when ``benchmark`` names a scenario, so
    #: editing a scenario file invalidates its memoised results even
    #: though the name is unchanged.  ``None`` for plain benchmarks.
    scenario: Optional[str] = None

    @classmethod
    def make(cls, benchmark: str, config: Optional[SimConfig] = None,
             instructions: int = DEFAULT_INSTRUCTIONS,
             warmup: int = DEFAULT_WARMUP, scale: int = DEFAULT_SCALE,
             seed: int = 1) -> "RunKey":
        """Normalised constructor (``config=None`` -> the scale default)."""
        return cls(benchmark=benchmark,
                   config=config if config is not None
                   else default_config(scale),
                   seed=seed, instructions=instructions, warmup=warmup,
                   scale=scale)

    @cached_property
    def config_hash(self) -> str:
        return config_digest(self.config)

    @cached_property
    def digest(self) -> str:
        """Filename-safe identity covering every field."""
        fields = {
            "benchmark": self.benchmark, "config": self.config_hash,
            "seed": self.seed, "instructions": self.instructions,
            "warmup": self.warmup, "scale": self.scale}
        if self.scenario is not None:
            # Only present for scenario keys: plain-benchmark digests
            # (and therefore existing cache entries) are unchanged.
            fields["scenario"] = self.scenario
        blob = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _identity(self):
        return (self.benchmark, self.config_hash, self.seed,
                self.instructions, self.warmup, self.scale, self.scenario)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RunKey)
                and self._identity() == other._identity())

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return (f"RunKey({self.benchmark!r}, cfg={self.config_hash[:8]}, "
                f"seed={self.seed}, n={self.instructions}, "
                f"w={self.warmup}, scale={self.scale})")


# ----------------------------------------------------------------------
# Picklable run snapshot
# ----------------------------------------------------------------------
@dataclass
class RunSummary:
    """Everything the figures consume from one run, as plain data.

    Mirrors the figure-facing accessors of
    :class:`~repro.experiments.runner.RunResult` (``ipc``, ``cycles``,
    ``speedup_over``, ``stall_*``, ``cache_mpki``, ...) so harnesses can
    consume either interchangeably.
    """

    benchmark: str
    seed: int
    instructions: int
    cycles: int
    #: ``RunResult.summary()`` -- the headline metric dict.
    metrics: Dict[str, float]
    #: Per-category head-of-ROB stall stats (total/events/avg/max).
    stalls: Dict[str, Dict[str, float]]
    #: Per-level, per-category MPKI plus the leaf (PTL1) MPKI.
    mpki: Dict[str, Dict[str, float]]
    #: Fig 3 response-level fractions per request class.
    response: Dict[str, Dict[str, float]]
    #: Recall-distance histograms (Figs 5/7/18): where -> kind -> data.
    recall: Dict[str, Dict[str, Dict]] = field(default_factory=dict)
    #: Per-level cache-pressure / prefetch counters.
    levels: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: ATP / TEMPO trigger counters (zero when disabled).
    atp_triggered_l2c: int = 0
    atp_triggered_llc: int = 0
    tempo_triggered: int = 0
    #: Page-walk totals (PSC sensitivity study).
    walks: int = 0
    walk_cycles_total: int = 0
    #: ``BatchStats.to_dict()`` from a ``backend="numpy"`` run
    #: (vectorization engagement / fallback accounting); empty for
    #: scalar runs.  Rides the snapshot so the sweep service can feed
    #: the batch telemetry series without holding live objects.
    batch: Dict = field(default_factory=dict)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_run(cls, run: RunResult, seed: int = 1) -> "RunSummary":
        h = run.hierarchy
        mpki = {}
        for level in ("l1d", "l2c", "llc"):
            per_cat = {cat: run.cache_mpki(level, cat)
                       for cat in ("translation", "replay", "non_replay")}
            per_cat["ptl1"] = run.leaf_mpki(level)
            mpki[level] = per_cat
        recall: Dict[str, Dict[str, Dict]] = {
            "stlb": {"translation": _tracker_data(h.mmu.stlb.recall)}}
        for level in ("l2c", "llc"):
            cache = getattr(h, level)
            recall[level] = {
                "translation": _tracker_data(cache.recall_translation),
                "replay": _tracker_data(cache.recall_replay)}
        levels = {}
        for level in _PREFETCH_LEVELS:
            cache = getattr(h, level)
            levels[level] = {
                "prefetch_useful": cache.stats.prefetch_useful,
                "prefetch_fills": cache.stats.prefetch_fills,
                "prefetches_dropped": cache.prefetches_dropped,
                "mshr_merges": cache.mshr.merges,
                "mshr_peak_occupancy": cache.mshr.peak_occupancy,
                "admission_stall_cycles": cache.mshr.admission_stall_cycles,
                "fills_bypassed": cache.fills_bypassed,
                "back_invalidations": cache.back_invalidations,
                "writebacks_issued": cache.writebacks_issued}
        atp, tempo = h.atp, h.tempo
        return cls(
            benchmark=run.benchmark, seed=seed,
            instructions=run.instructions, cycles=run.cycles,
            metrics=run.summary(),
            stalls=run.core.stalls.snapshot(),
            mpki=mpki,
            response={cat: h.response_distribution.fractions(cat)
                      for cat in ("translation", "replay", "non_replay")},
            recall=recall, levels=levels,
            atp_triggered_l2c=atp.triggered_l2c if atp else 0,
            atp_triggered_llc=atp.triggered_llc if atp else 0,
            tempo_triggered=tempo.triggered if tempo else 0,
            walks=h.mmu.walker.walks,
            walk_cycles_total=h.mmu.walk_cycles_total,
            batch=(run.batch.to_dict()
                   if getattr(run, "batch", None) is not None else {}))

    # -- RunResult-compatible accessors ----------------------------------
    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline) -> float:
        return baseline.cycles / self.cycles

    @property
    def stlb_mpki(self) -> float:
        return self.metrics["stlb_mpki"]

    def cache_mpki(self, level: str, category: str) -> float:
        return self.mpki[level][category]

    def leaf_mpki(self, level: str) -> float:
        return self.mpki[level]["ptl1"]

    def stall_cycles(self, category: StallCategory) -> int:
        return self.stalls[category.value]["total"]

    def stall_avg(self, category: StallCategory) -> float:
        return self.stalls[category.value]["avg"]

    def stall_max(self, category: StallCategory) -> int:
        return self.stalls[category.value]["max"]

    def translation_replay_stalls(self) -> int:
        return (self.stall_cycles(StallCategory.TRANSLATION)
                + self.stall_cycles(StallCategory.REPLAY))

    def summary(self) -> Dict[str, float]:
        return dict(self.metrics)

    def response_fractions(self, category: str) -> Dict[str, float]:
        return self.response[category]

    def recall_data(self, where: str, kind: str = "translation") -> Dict:
        """``{"cdf": [...], "samples": n, "histogram": [...]}`` for one
        tracker (``where`` in stlb/l2c/llc)."""
        return self.recall[where][kind]

    @property
    def atp_triggered(self) -> int:
        return self.atp_triggered_l2c + self.atp_triggered_llc

    def prefetch_useful(self, level: str) -> int:
        return self.levels[level]["prefetch_useful"]

    def prefetch_fills(self, level: str) -> int:
        return self.levels[level]["prefetch_fills"]

    @property
    def walk_latency(self) -> float:
        return self.walk_cycles_total / max(1, self.walks)

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunSummary":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


def _tracker_data(tracker) -> Dict:
    """Flush a recall tracker and snapshot its histogram/CDF."""
    if tracker is None:
        return {"cdf": [], "samples": 0, "histogram": []}
    tracker.flush()
    return {"cdf": tracker.cdf(), "samples": tracker.samples,
            "histogram": list(tracker.histogram)}


# ----------------------------------------------------------------------
# On-disk result memo
# ----------------------------------------------------------------------
def code_fingerprint() -> str:
    """Hash of the simulator's source files (memoised per process).

    Any edit to ``repro``'s code invalidates every cached result: the
    cache directory embeds this fingerprint, so stale results are never
    served after a behavioural change.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _CODE_FINGERPRINT = h.hexdigest()[:16]
    return _CODE_FINGERPRINT


_CODE_FINGERPRINT: Optional[str] = None

#: Default memo location (override with $REPRO_CACHE_DIR).
DEFAULT_CACHE_ROOT = "~/.cache/repro-runs"

#: Hex digits of the digest used as the fan-out subdirectory.  256
#: shards keep directory listings short when sweeps store tens of
#: thousands of results in one cache dir.
SHARD_WIDTH = 2

_log = get_logger("store")


class ResultCache:
    """Content-addressed JSON memo of completed runs.

    Layout: ``<root>/v<schema>-<code>/<digest[:2]>/<digest>.json`` --
    every entry is addressed purely by its :class:`RunKey` digest, with
    a :data:`SHARD_WIDTH`-wide fan-out subdirectory.  Pre-sharding
    caches (flat ``<digest>.json`` files) are still read, so a warm
    cache survives the upgrade.
    """

    def __init__(self, root=None, fingerprint: Optional[str] = None):
        root = Path(root or os.environ.get("REPRO_CACHE_DIR")
                    or DEFAULT_CACHE_ROOT).expanduser()
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()
        self.dir = root / f"v{CACHE_SCHEMA_VERSION}-{self.fingerprint}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Failed writes and unreadable entries.  Neither raises: each is
        #: counted here and logged; a missing entry is a plain miss.
        self.write_errors = 0
        self.read_errors = 0

    @staticmethod
    def _digest_of(key) -> str:
        return key.digest if isinstance(key, RunKey) else str(key)

    def path_for(self, key) -> Path:
        """Sharded path for a :class:`RunKey` or a raw digest string."""
        digest = self._digest_of(key)
        return self.dir / digest[:SHARD_WIDTH] / f"{digest}.json"

    def _read(self, key) -> Optional[Dict]:
        digest = self._digest_of(key)
        for path in (self.path_for(digest),
                     self.dir / f"{digest}.json"):  # pre-sharding layout
            try:
                with open(path) as f:
                    return json.load(f)
            except FileNotFoundError:
                continue
            except (OSError, ValueError) as exc:
                self._read_failed(digest, exc)
        return None

    def _read_failed(self, digest: str, exc: Exception) -> None:
        self.read_errors += 1
        _log.emit("store-read-error", digest=digest, error=repr(exc))

    def contains(self, key) -> bool:
        """Whether a result for this key/digest is on disk (no counter
        side effects -- probes are not hits)."""
        digest = self._digest_of(key)
        return (self.path_for(digest).is_file()
                or (self.dir / f"{digest}.json").is_file())

    def get(self, key) -> Optional[RunSummary]:
        data = self._read(key)
        if data is None:
            self.misses += 1
            return None
        try:
            summary = RunSummary.from_dict(data)
        except (ValueError, TypeError, KeyError) as exc:
            self._read_failed(self._digest_of(key), exc)
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def get_raw(self, key) -> Optional[Dict]:
        """The stored JSON document, schema-agnostic (the sweep service
        stores non-``RunSummary`` payloads through the same shards)."""
        data = self._read(key)
        if data is None:
            self.misses += 1
            return None
        self.hits += 1
        return data

    def _write(self, digest: str, document: Dict) -> None:
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(document, f)
            os.replace(tmp, path)
        except BaseException:
            # A failed write must not strand its temp file in the shard.
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stores += 1

    def put(self, key, summary: RunSummary) -> None:
        """Atomic write (temp file + rename) of one run's summary."""
        self.put_raw(key, summary.to_dict())

    def put_raw(self, key, document: Dict) -> bool:
        """Store an arbitrary JSON document under a key/digest; whether
        it was written.  An IO failure is non-fatal: it is counted in
        ``write_errors``, logged, and returns False."""
        digest = self._digest_of(key)
        try:
            self._write(digest, document)
        except OSError as exc:
            self.write_errors += 1
            _log.emit("store-write-error", digest=digest, error=repr(exc))
            return False
        return True

    def digests(self) -> List[str]:
        """Every stored digest, sorted (shards walked, flat layout
        included)."""
        if not self.dir.is_dir():
            return []
        return sorted(p.stem for p in self.dir.glob("**/*.json"))

    def prune_stale(self) -> int:
        """Delete result dirs for other schema versions / code states."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for child in self.root.iterdir():
            if child.is_dir() and child != self.dir:
                import shutil
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class RunnerMetrics:
    """Cumulative execution metrics (the acceptance-check surface)."""

    jobs_done: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    failures: int = 0
    wall_times: List[float] = field(default_factory=list)

    @property
    def total_wall_time(self) -> float:
        return sum(self.wall_times)


@dataclass
class ProgressEvent:
    """One completed job, as reported to the progress callback."""

    done: int
    total: int
    key: RunKey
    source: str  # "cache" | "run"
    wall_time: float


def _execute_key(key: RunKey):
    """Worker entry point: simulate one key (module-level: picklable)."""
    start = time.perf_counter()
    run = run_benchmark(key.benchmark, config=key.config,
                        instructions=key.instructions, warmup=key.warmup,
                        scale=key.scale, seed=key.seed)
    return RunSummary.from_run(run, seed=key.seed), time.perf_counter() - start


class ParallelRunner:
    """Executes batches of :class:`RunKey`, memoised and in parallel.

    ``jobs <= 1`` runs in-process (bit-identical to direct
    ``run_benchmark`` calls -- the simulations are deterministic, so the
    parallel path produces the same summaries, just sooner).
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 timeout: float = 600.0,
                 progress: Optional[Callable[[ProgressEvent], None]] = None):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout
        self.progress = progress
        self.metrics = RunnerMetrics()

    # ------------------------------------------------------------------
    def run(self, benchmark: str, config: Optional[SimConfig] = None,
            instructions: int = DEFAULT_INSTRUCTIONS,
            warmup: int = DEFAULT_WARMUP, scale: int = DEFAULT_SCALE,
            seed: int = 1) -> RunSummary:
        """Single-run convenience wrapper over :meth:`run_batch`."""
        key = RunKey.make(benchmark, config, instructions, warmup, scale,
                          seed)
        return self.run_batch([key])[key]

    def run_batch(self, keys: Iterable[RunKey]) -> Dict[RunKey, RunSummary]:
        """Execute every unique key; returns ``{key: summary}``.

        Duplicates collapse to one simulation; memoised results are
        served from the cache without running anything.
        """
        unique = list(dict.fromkeys(keys))
        total = len(unique)
        results: Dict[RunKey, RunSummary] = {}
        pending: List[RunKey] = []
        for key in unique:
            cached = self.cache.get(key) if self.cache else None
            if cached is not None:
                results[key] = cached
                self.metrics.cache_hits += 1
                self._report(len(results), total, key, "cache", 0.0)
            else:
                pending.append(key)

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                executed = self._run_pool(pending, len(results), total)
            else:
                executed = self._run_serial(pending, len(results), total)
            for key, summary in executed.items():
                results[key] = summary
                if self.cache is not None:
                    self.cache.put(key, summary)
        return results

    # ------------------------------------------------------------------
    def _record(self, key: RunKey, elapsed: float, done: int,
                total: int) -> None:
        self.metrics.executed += 1
        self.metrics.wall_times.append(elapsed)
        self._report(done, total, key, "run", elapsed)

    def _report(self, done: int, total: int, key: RunKey, source: str,
                elapsed: float) -> None:
        self.metrics.jobs_done += 1
        if self.progress is not None:
            self.progress(ProgressEvent(done=done, total=total, key=key,
                                        source=source, wall_time=elapsed))

    def _run_serial(self, pending: Sequence[RunKey], done: int,
                    total: int) -> Dict[RunKey, RunSummary]:
        out = {}
        for key in pending:
            try:
                summary, elapsed = _execute_key(key)
            except Exception:
                self.metrics.retries += 1
                try:
                    summary, elapsed = _execute_key(key)
                except Exception:
                    self.metrics.failures += 1
                    raise
            out[key] = summary
            done += 1
            self._record(key, elapsed, done, total)
        return out

    def _run_pool(self, pending: Sequence[RunKey], done: int,
                  total: int) -> Dict[RunKey, RunSummary]:
        out = {}
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(pool.submit(_execute_key, key), key)
                       for key in pending]
            for future, key in futures:
                try:
                    summary, elapsed = future.result(timeout=self.timeout)
                except Exception:
                    # Timeout, worker crash, or job error: retry once
                    # in-process (robust even if the pool is poisoned).
                    self.metrics.retries += 1
                    try:
                        summary, elapsed = _execute_key(key)
                    except Exception:
                        self.metrics.failures += 1
                        raise
                out[key] = summary
                done += 1
                self._record(key, elapsed, done, total)
        return out


# ----------------------------------------------------------------------
# Process-wide runner (what the figure harnesses route through)
# ----------------------------------------------------------------------
_active_runner: Optional[ParallelRunner] = None


def get_runner() -> ParallelRunner:
    """The ambient runner; defaults to serial, uncached execution
    (``$REPRO_JOBS`` overrides the default worker count)."""
    global _active_runner
    if _active_runner is None:
        _active_runner = ParallelRunner(
            jobs=int(os.environ.get("REPRO_JOBS", "1")))
    return _active_runner


def set_runner(runner: Optional[ParallelRunner]) -> None:
    global _active_runner
    _active_runner = runner


def configure(jobs: int = 1, use_cache: bool = False, cache_dir=None,
              progress=None, timeout: float = 600.0) -> ParallelRunner:
    """Build and install the ambient runner (CLI entry point)."""
    cache = ResultCache(root=cache_dir) if use_cache else None
    runner = ParallelRunner(jobs=jobs, cache=cache, timeout=timeout,
                            progress=progress)
    set_runner(runner)
    return runner


def run_many(keys: Iterable[RunKey]) -> Dict[RunKey, RunSummary]:
    """Execute a batch of keys through the ambient runner."""
    return get_runner().run_batch(keys)


def run_one(benchmark: str, config: Optional[SimConfig] = None,
            instructions: int = DEFAULT_INSTRUCTIONS,
            warmup: int = DEFAULT_WARMUP, scale: int = DEFAULT_SCALE,
            seed: int = 1) -> RunSummary:
    """Execute (or recall) one run through the ambient runner."""
    return get_runner().run(benchmark, config, instructions, warmup,
                            scale, seed)
