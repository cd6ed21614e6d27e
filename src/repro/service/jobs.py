"""Job model for the sweep service.

A :class:`JobSpec` is the declarative description of one unit of work
-- a simulation run, a scenario, a whole sweep, a figure or a span
trace.  Specs are plain data (JSON round-trippable, picklable) so they
can cross the HTTP API and the worker-pool boundary unchanged.  Every
spec has a stable content digest:

* ``run`` / ``scenario`` specs reduce to the existing
  :class:`~repro.experiments.parallel.RunKey` and reuse *its* digest,
  so store entries and dedupe agree on run identity (a figure's point
  is an ordinary ``run`` spec: :func:`point_spec`);
* other kinds hash their canonical JSON form.

A :class:`Job` is one accepted spec inside the service: status,
priority, attempt counter, event stream and (eventually) the digest of
its stored payload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import RunKey
from repro.experiments.payloads import run_config, sweep_runs
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.obs.progress import EventStream
from repro.params import DEFAULT_SCALE, default_config

JOB_KINDS = ("run", "scenario", "sweep", "figure", "trace")

#: Default job priority; smaller numbers run sooner.
DEFAULT_PRIORITY = 10


class JobStatus(str, Enum):
    """Lifecycle of one job (see ``docs/service.md``)."""

    PENDING = "pending"      # accepted, waiting in the queue
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED,
                        JobStatus.CANCELLED)


class JobError(ValueError):
    """A spec the service cannot accept (unknown kind, bad params)."""


@dataclass(frozen=True)
class JobSpec:
    """One unit of submittable work.

    ``params`` carries the kind-specific fields (``benchmark`` -- or
    the ``threads`` of an SMT pair or ``cores`` of a multicore mix --
    ``enhancements``, ``instructions``, ... for runs; ``scenario`` for
    scenarios; ``runs: [...]`` for sweeps; ``figure`` / ``benchmark``
    for figures and traces).  It is stored as a sorted item tuple so the
    spec is hashable; use :meth:`make` / :meth:`from_dict` rather than
    constructing directly.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: str, **params) -> "JobSpec":
        if kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {kind!r}; known: "
                           f"{' '.join(JOB_KINDS)}")
        clean = {k: v for k, v in params.items() if v is not None}
        _validate(kind, clean)
        return cls(kind=kind, params=_freeze(clean))

    @classmethod
    def from_dict(cls, data: Dict) -> "JobSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise JobError("job document must be an object with a 'kind'")
        params = {k: v for k, v in data.items()
                  if k not in ("kind", "priority")}
        return cls.make(data["kind"], **params)

    # -- views -----------------------------------------------------------
    def to_dict(self) -> Dict:
        return {"kind": self.kind, **_thaw(self.params)}

    # -- identity --------------------------------------------------------
    def run_key(self) -> Optional[RunKey]:
        """The :class:`RunKey` for ``run``/``scenario`` specs (``None``
        for the coarse kinds)."""
        p = _thaw(self.params)
        if self.kind == "run":
            return _run_key(p)
        if self.kind == "scenario":
            # Resolving the document pins its digest into the key, so a
            # scenario edit changes the job identity.  An ad-hoc document
            # registered in this process resolves here too.
            from repro.scenarios.engine import (load_scenario,
                                                resolve_scenario)
            doc = resolve_scenario(p["scenario"]) \
                or load_scenario(p["scenario"])
            scale = int(p.get("scale", doc.scale))
            # Mirrors run_scenario: base config (+ backend override),
            # then the document's own config block on top.
            cfg = default_config(scale)
            if p.get("backend"):
                cfg = cfg.with_(backend=p["backend"])
            if doc.config:
                cfg = cfg.with_(**doc.config)
            return RunKey(
                benchmark=doc.name, config=cfg,
                seed=int(p.get("seed", doc.seed)),
                instructions=int(p.get("instructions", doc.instructions)),
                warmup=int(p.get("warmup", doc.warmup)),
                scale=scale,
                scenario=doc.digest)
        return None

    @cached_property
    def digest(self) -> str:
        key = self.run_key()
        if key is not None:
            return key.digest
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def sweep_children(self) -> List["JobSpec"]:
        """Expand a ``sweep`` spec into its child ``run`` specs."""
        if self.kind != "sweep":
            raise JobError(f"not a sweep: {self.kind}")
        return [JobSpec.make("run", **params)
                for params in sweep_runs(_thaw(self.params))]


def _validate(kind: str, params: Dict) -> None:
    required = {"run": (), "scenario": ("scenario",),
                "sweep": ("runs",), "figure": ("figure",),
                "trace": ("benchmark",)}[kind]
    for name in required:
        if name not in params:
            raise JobError(f"{kind} job needs {name!r}")
    if kind == "run":
        # One benchmark, or the streams of an SMT pair or multicore mix.
        named = [n for n in ("benchmark", "threads", "cores") if n in params]
        if len(named) != 1:
            raise JobError("run job needs 'benchmark', or a mix's "
                           "'threads' or 'cores': exactly one, got "
                           f"{named or 'none'}")
        streams = params.get("threads", params.get("cores"))
        if streams is not None and (
                not isinstance(streams, (list, tuple)) or not streams
                or not all(isinstance(name, str) for name in streams)):
            raise JobError(f"{named[0]} must be a non-empty list of "
                           f"workload names, got {streams!r}")
    # Warmup and seed may be 0, as the simulator and scenario schema allow.
    for name, least in (("instructions", 1), ("scale", 1), ("warmup", 0),
                        ("seed", 0)):
        if name in params:
            value = params[name]
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < least:
                raise JobError(f"{name} must be a "
                               f"{'positive' if least else 'non-negative'}"
                               f" integer, got {value!r}")
    if "backend" in params:
        from repro.params import BACKENDS
        if params["backend"] not in BACKENDS:
            raise JobError(f"unknown backend {params['backend']!r}; "
                           f"known: {' '.join(BACKENDS)}")
    if kind == "sweep":
        runs = params["runs"]
        if not isinstance(runs, (list, tuple)) or not runs:
            raise JobError("sweep job needs a non-empty 'runs' list")
    if kind == "figure":
        from repro.experiments import registry
        figure = params["figure"]
        try:
            spec = registry.get(figure)
        except (KeyError, TypeError):  # TypeError: not a hashable name
            raise JobError(f"unknown figure {figure!r}; known: "
                           f"{' '.join(registry.names())}") from None
        if params.get("benchmarks") and not spec.takes_benchmarks:
            raise JobError(f"figure {spec.name!r} runs its own workload "
                           "mixes and takes no 'benchmarks'")
    if kind == "scenario":
        for name in ("config", "enhancements"):
            if name in params:
                # The document owns its config block; layering a second
                # one would make job identity order-dependent.
                raise JobError(f"scenario jobs do not accept {name!r}; "
                               "edit the scenario document instead")


def _freeze(value):
    """Recursively convert dicts/lists to hashable sorted tuples."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` (item tuples back to dicts)."""
    if isinstance(value, tuple):
        if all(isinstance(v, tuple) and len(v) == 2
               and isinstance(v[0], str) for v in value):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


def _changed(value, default) -> Dict:
    """The fields of config ``value`` that differ from ``default``; a
    changed sub-config shrinks to a dict of its changed fields."""
    return {f.name: _changed(v, d) if dataclasses.is_dataclass(v) else v
            for f in dataclasses.fields(value)
            for v, d in [(getattr(value, f.name), getattr(default, f.name))]
            if v != d}


def point_spec(key: RunKey) -> JobSpec:
    """The job spec that runs exactly ``key``: a ``run`` spec whose
    ``config`` lists only what differs from the scale default, or a
    ``scenario`` spec for a scenario key.  Raises :class:`JobError`
    when no spec reproduces the key's digest."""
    geometry = dict(instructions=key.instructions, warmup=key.warmup,
                    scale=key.scale, seed=key.seed)
    config = _changed(key.config, default_config(key.scale))
    if key.scenario is not None:
        spec = JobSpec.make("scenario", scenario=key.benchmark,
                            backend=config.get("backend"), **geometry)
    elif key.threads or key.cores:
        spec = JobSpec.make("run", threads=key.threads, cores=key.cores,
                            config=config or None, **geometry)
    else:
        spec = JobSpec.make("run", benchmark=key.benchmark,
                            config=config or None, **geometry)
    if spec.digest != key.digest:
        raise JobError(f"{key!r} has no job spec with its digest")
    return spec


def _run_key(params: Dict) -> RunKey:
    scale = int(params.get("scale", DEFAULT_SCALE))
    return RunKey.make(
        params.get("benchmark"), run_config(params, scale),
        instructions=int(params.get("instructions",
                                    DEFAULT_INSTRUCTIONS)),
        warmup=int(params.get("warmup", DEFAULT_WARMUP)),
        scale=scale, seed=int(params.get("seed", 1)),
        threads=params.get("threads"), cores=params.get("cores"))


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
_job_ids = itertools.count(1)


@dataclass
class Job:
    """One accepted spec inside the service."""

    spec: JobSpec
    priority: int = DEFAULT_PRIORITY
    #: Arrival order of the top-level submission, which breaks priority
    #: ties in the queue: a sweep's or figure's children keep its place.
    place: int = 0
    id: str = field(default="")
    digest: str = field(default="")
    status: JobStatus = JobStatus.PENDING
    #: Where the payload came from: "run" (executed), "store"
    #: (content-addressed hit) or "dedup" (attached to an identical
    #: in-flight job).
    source: str = "run"
    attempts: int = 0
    error: Optional[str] = None
    payload: Optional[Dict] = None
    events: EventStream = field(default_factory=EventStream)
    #: Submissions that were folded into this job (identical digest).
    dedup_hits: int = 0
    #: Child jobs this sweep or figure submitted (empty for the other
    #: kinds).  Cancel scopes to exactly these -- never to unrelated
    #: in-flight jobs.
    children: List["Job"] = field(default_factory=list)
    #: Latest forwarded ``job-progress`` row (None until the first
    #: interval arrives; the full history is on ``events``).
    progress: Optional[Dict] = None
    #: Whether the payload is in the store: None until the job is done,
    #: False when the write failed (the job is still DONE -- its payload
    #: is valid -- but a restarted service will not find it).
    persisted: Optional[bool] = None
    #: Monotonic timestamps for the wait/execute latency histograms.
    created_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None

    def __post_init__(self):
        if not self.digest:
            self.digest = self.spec.digest
        if not self.id:
            self.id = f"job-{next(_job_ids):06d}-{self.digest[:8]}"

    def transition(self, status: JobStatus, **extra) -> None:
        self.status = status
        self.events.emit(kind="status", status=status.value,
                         job=self.id, **extra)
        if status.terminal:
            self.events.close()

    def describe(self) -> Dict:
        """The JSON status document (``GET /jobs/<id>``)."""
        doc = {
            "id": self.id, "kind": self.spec.kind,
            "digest": self.digest, "status": self.status.value,
            "priority": self.priority, "source": self.source,
            "attempts": self.attempts, "dedup_hits": self.dedup_hits,
            "persisted": self.persisted,
            "events": len(self.events),
            "events_dropped": self.events.dropped,
        }
        if self.progress is not None:
            doc["progress"] = dict(self.progress)
        if self.error is not None:
            doc["error"] = self.error
        return doc
