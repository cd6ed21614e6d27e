"""Run identity, run snapshots, the result store and ``run_many``.

* :class:`RunKey` -- the identity of one simulation (benchmark or mix,
  config fingerprint, seed, instructions, warmup, scale).
* :class:`RunSummary` -- a picklable, JSON-serialisable snapshot of
  everything the figures consume from a run (a live
  :class:`~repro.experiments.runner.RunResult` cannot cross processes).
* :class:`ResultCache` -- the sweep service's content-addressed JSON
  store, versioned by a schema number and a fingerprint of the code
  that can change a payload.
* :func:`execute_key` -- simulates one key, for the serial path, the
  inline service and the pool workers alike.
* :func:`run_many` -- runs a batch of keys through the executor bound
  by :func:`bind_executor` (the sweep service, under ``repro figure``,
  ``repro scenario run`` and figure jobs), or serially in-process.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.rob import StallCategory
from repro.experiments.runner import (DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP,
                                      RunResult, run_benchmark, run_mix)
from repro.obs.log import get_logger
from repro.obs.manifest import config_digest
from repro.params import DEFAULT_SCALE, SimConfig, default_config

#: Bump when the RunSummary layout changes (invalidates every cache dir).
CACHE_SCHEMA_VERSION = 3

#: Schema tag of the store manifest document (``GET /store``).
MANIFEST_SCHEMA = "repro.service.store/v1"

_RECALL_KINDS = ("translation", "replay")
_PREFETCH_LEVELS = ("l1d", "l2c", "llc")


# ----------------------------------------------------------------------
# Run identity
# ----------------------------------------------------------------------
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
    #: The streams of a mix, one workload each: the two ``threads`` of a
    #: 2-way SMT core, or one workload per core of a ``MultiCore``
    #: sharing its LLC (``cores``).  Stream ``i`` is traced with
    #: ``seed + i``, and ``benchmark`` joins the names with ``+``.
    #: ``None`` for one benchmark.
    threads: Optional[Tuple[str, ...]] = None
    cores: Optional[Tuple[str, ...]] = None

    @classmethod
    def make(cls, benchmark: Optional[str],
             config: Optional[SimConfig] = None,
             instructions: int = DEFAULT_INSTRUCTIONS,
             warmup: int = DEFAULT_WARMUP, scale: int = DEFAULT_SCALE,
             seed: int = 1, *, threads: Optional[Sequence[str]] = None,
             cores: Optional[Sequence[str]] = None) -> "RunKey":
        """Normalised constructor (``config=None`` -> the scale default;
        a mix names ``threads`` or ``cores`` and ``benchmark=None``)."""
        streams = threads or cores
        return cls(benchmark="+".join(streams) if streams else benchmark,
                   config=config if config is not None
                   else default_config(scale),
                   seed=seed, instructions=instructions, warmup=warmup,
                   scale=scale,
                   threads=tuple(threads) if threads else None,
                   cores=tuple(cores) if cores else None)

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
        # Likewise the streams of a mix.
        if self.threads is not None:
            fields["threads"] = list(self.threads)
        if self.cores is not None:
            fields["cores"] = list(self.cores)
        blob = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _identity(self):
        return (self.benchmark, self.config_hash, self.seed,
                self.instructions, self.warmup, self.scale, self.scenario,
                self.threads, self.cores)

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
    consume either interchangeably.  A mix's summary describes stream
    0 -- its core and the hierarchy it runs on, which both threads of
    an SMT pair share -- and ``streams`` has every stream's ROI.
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
    #: ROI replay loads and their summed data latency (data done minus
    #: translation done), the ATP head-start analysis.
    replay_loads: int = 0
    replay_latency_total: int = 0
    #: ROI ``instructions`` and ``cycles`` of each stream (one entry
    #: for a single benchmark).
    streams: List[Dict[str, int]] = field(default_factory=list)
    #: ``BatchStats.to_dict()``: how the run took the core's fast
    #: path, or why it was refused; empty for a mix.
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
            replay_loads=sum(h.response_distribution.counts["replay"]
                             .values()),
            replay_latency_total=h.replay_latency_total,
            streams=[{"instructions": core.instructions,
                      "cycles": core.cycles}
                     for core in run.streams or [run.core]],
            batch=run.batch.to_dict() if run.batch is not None else {})

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

    @property
    def replay_latency(self) -> float:
        """Mean data latency of a ROI replay load (cycles)."""
        return self.replay_latency_total / max(1, self.replay_loads)

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
#: Source under ``repro/`` that cannot change a stored payload, besides
#: ``service/`` and every ``cli.py``: it stays out of the fingerprint.
UNHASHED = ("__main__.py", "obs/stats_cli.py", "obs/telemetry.py",
            "obs/progress.py", "validate/invariants.py",
            "validate/oracle.py", "validate/fuzz.py")


def hashed_sources(root: Path) -> List[Path]:
    """The ``.py`` files under a ``repro`` package directory that
    :func:`code_fingerprint` covers, sorted (a new module included)."""
    return [path for path in sorted(root.rglob("*.py"))
            if (rel := path.relative_to(root)).parts[0] != "service"
            and rel.name != "cli.py" and rel.as_posix() not in UNHASHED]


def source_fingerprint(root: Path) -> str:
    """Hash of :func:`hashed_sources` under ``root`` (paths and bytes)."""
    h = hashlib.sha256()
    for path in hashed_sources(root):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def code_fingerprint() -> str:
    """Fingerprint of the code that can change a stored payload
    (memoised per process).  The store directory embeds it, so editing
    the simulator, a harness, :mod:`~repro.experiments.payloads`, the
    trace exporter, the scenario compiler or ``api.py`` invalidates
    every stored result; editing the service or a CLI does not."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro
        _CODE_FINGERPRINT = source_fingerprint(
            Path(repro.__file__).resolve().parent)
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
    every entry is addressed purely by its digest (a :class:`RunKey`'s
    or a job spec's), with a :data:`SHARD_WIDTH`-wide fan-out
    subdirectory.
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
        try:
            with open(self.path_for(digest)) as f:
                return json.load(f)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._read_failed(digest, exc)
            return None

    def _read_failed(self, digest: str, exc: Exception) -> None:
        self.read_errors += 1
        _log.emit("store-read-error", digest=digest, error=repr(exc))

    def contains(self, key) -> bool:
        """Whether a result for this key/digest is on disk (no counter
        side effects -- probes are not hits)."""
        return self.path_for(key).is_file()

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
        """Every stored digest, sorted (shards walked)."""
        if not self.dir.is_dir():
            return []
        return sorted(p.stem for p in self.dir.glob("*/*.json"))

    def manifest(self) -> Dict:
        """Store inventory + counters (``GET /store``; uploaded as a CI
        artifact)."""
        digests = self.digests()
        return {
            "schema": MANIFEST_SCHEMA,
            "root": str(self.root),
            "dir": str(self.dir),
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "code_fingerprint": self.fingerprint,
            "shard_width": SHARD_WIDTH,
            "entries": len(digests),
            "digests": digests,
            "counters": {"hits": self.hits, "misses": self.misses,
                         "stores": self.stores,
                         "write_errors": self.write_errors,
                         "read_errors": self.read_errors},
        }


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_key(key: RunKey, progress=None) -> RunSummary:
    """Simulate one key.  The serial path, the inline service and the
    service's pool workers all run a point through here; ``progress``
    is an optional :class:`~repro.obs.forward.ProgressForwarder`
    (observational: the summary is identical with or without it; a mix
    forwards no interval rows)."""
    if key.threads or key.cores:
        run = run_mix(threads=key.threads, cores=key.cores,
                      config=key.config, instructions=key.instructions,
                      warmup=key.warmup, scale=key.scale, seed=key.seed)
    else:
        run = run_benchmark(key.benchmark, config=key.config,
                            instructions=key.instructions,
                            warmup=key.warmup, scale=key.scale,
                            seed=key.seed, progress=progress)
    return RunSummary.from_run(run, seed=key.seed)


#: The executor :func:`run_many` hands its unique keys to; ``None`` runs
#: them serially in-process.
_EXECUTOR: contextvars.ContextVar[
    Optional[Callable[[List[RunKey]], Dict[RunKey, RunSummary]]]
] = contextvars.ContextVar("repro_run_many_executor", default=None)


@contextlib.contextmanager
def bind_executor(execute: Callable[[List[RunKey]],
                                    Dict[RunKey, RunSummary]]):
    """Route :func:`run_many` through ``execute`` in the current
    context (this thread, or this task) until the block exits."""
    token = _EXECUTOR.set(execute)
    try:
        yield execute
    finally:
        _EXECUTOR.reset(token)


def run_many(keys: Iterable[RunKey]) -> Dict[RunKey, RunSummary]:
    """Execute every unique key; returns ``{key: summary}``.

    Duplicates collapse to one simulation.  The keys go to the executor
    bound by :func:`bind_executor`; with none bound they run serially
    in-process.
    """
    unique = list(dict.fromkeys(keys))
    execute = _EXECUTOR.get()
    if execute is None:
        return {key: execute_key(key) for key in unique}
    return execute(unique)
