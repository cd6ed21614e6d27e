"""Telemetry registry: counters, gauges and histograms for the service.

The sweep service (:mod:`repro.service`) instruments itself through one
:class:`TelemetryRegistry` -- a small, thread-safe, dependency-free
metrics plane modelled on the Prometheus client data model:

* :class:`Counter` -- monotonically increasing totals (jobs submitted,
  store hits, requeues, dropped events);
* :class:`Gauge` -- point-in-time values, either set explicitly or
  backed by a zero-argument callback evaluated at snapshot time (queue
  depth, in-flight jobs, uptime);
* :class:`Histogram` -- fixed cumulative buckets plus sum/count (job
  wait and execution latency).

Two stable output forms:

* :meth:`TelemetryRegistry.snapshot` -- a schema-versioned
  ``repro.obs/telemetry-v1`` JSON document (embedded in ``GET /health``
  and returned by :func:`repro.api.telemetry_snapshot`), checkable with
  :func:`validate_telemetry`;
* :meth:`TelemetryRegistry.render_prometheus` -- Prometheus text
  exposition format version 0.0.4 (served as ``GET /metrics``).

Everything is stdlib; emitting a metric is a lock + integer add, cheap
enough to live on the service's submit/finish paths.  See
``docs/observability.md`` ("Telemetry").
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Schema tag of :meth:`TelemetryRegistry.snapshot` documents.
TELEMETRY_SCHEMA = "repro.obs/telemetry-v1"

#: Default histogram buckets (seconds): spans sub-10ms queue hops to
#: multi-minute paper-scale executions.  Fixed so series from different
#: service runs are comparable.
DEFAULT_BUCKETS = (0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0,
                   300.0, 1800.0)

_TYPES = ("counter", "gauge", "histogram")


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared identity/locking for the three metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()

    @property
    def label_key(self) -> Tuple[Tuple[str, str], ...]:
        return _label_key(self.labels)


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help, labels)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def series(self) -> Dict:
        return {"name": self.name, "type": self.kind,
                "labels": self.labels, "value": self.value}


class Gauge(_Metric):
    """Point-in-time value, read from a callback at scrape time."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None, *,
                 fn: Callable[[], float]):
        super().__init__(name, help, labels)
        self._fn = fn

    @property
    def value(self) -> float:
        # Callback gauges read live service state; a failing callback
        # must not take /metrics down with it.
        try:
            return float(self._fn())
        except Exception:
            return 0.0

    def series(self) -> Dict:
        return {"name": self.name, "type": self.kind,
                "labels": self.labels, "value": self.value}


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                "histogram buckets must be non-empty, sorted, unique")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def series(self) -> Dict:
        with self._lock:
            cumulative = []
            running = 0
            for bound, n in zip(self.buckets, self._counts):
                running += n
                cumulative.append([bound, running])
            cumulative.append(["+Inf", running + self._counts[-1]])
            return {"name": self.name, "type": self.kind,
                    "labels": self.labels, "buckets": cumulative,
                    "sum": self._sum, "count": self._count}


class TelemetryRegistry:
    """Get-or-create home of every metric one service instance exposes.

    ``counter``/``gauge``/``histogram`` are idempotent per
    ``(name, labels)`` pair: the first call creates the metric, later
    calls return the same object (re-registering a name under a
    different kind raises).  ``snapshot()`` and ``render_prometheus()``
    are the two read surfaces.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple, _Metric] = {}

    # -- registration ----------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labels: Optional[Dict[str, str]], **kwargs):
        key = (name, _label_key(labels or {}))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"{name} already registered as {existing.kind}")
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None, *,
              fn: Callable[[], float]) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, labels, fn=fn)
        gauge._fn = fn
        return gauge

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    # -- read surfaces ---------------------------------------------------
    def _ordered(self) -> List[_Metric]:
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda m: (m.name, m.label_key))

    def snapshot(self) -> Dict:
        """The ``repro.obs/telemetry-v1`` JSON document."""
        return {"schema": TELEMETRY_SCHEMA,
                "series": [m.series() for m in self._ordered()]}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        seen_header = set()
        for metric in self._ordered():
            if metric.name not in seen_header:
                seen_header.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                series = metric.series()
                for bound, count in series["buckets"]:
                    le = bound if bound == "+Inf" else _fmt(bound)
                    labels = dict(metric.labels, le=le)
                    lines.append(f"{metric.name}_bucket"
                                 f"{_labels(labels)} {count}")
                lines.append(f"{metric.name}_sum{_labels(metric.labels)} "
                             f"{_fmt(series['sum'])}")
                lines.append(f"{metric.name}_count"
                             f"{_labels(metric.labels)} "
                             f"{series['count']}")
            else:
                lines.append(f"{metric.name}{_labels(metric.labels)} "
                             f"{_fmt(metric.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    """Prometheus sample formatting: integers stay integral."""
    number = float(value)
    if math.isfinite(number) and number == int(number):
        return str(int(number))
    return repr(number)


def _labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _escape(value) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


# ----------------------------------------------------------------------
# Schema validation (the CI serve-smoke acceptance surface)
# ----------------------------------------------------------------------
def validate_telemetry(doc) -> List[str]:
    """Problems with a ``repro.obs/telemetry-v1`` document ([] if ok)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document must be an object"]
    if doc.get("schema") != TELEMETRY_SCHEMA:
        problems.append(f"schema must be {TELEMETRY_SCHEMA!r}, "
                        f"got {doc.get('schema')!r}")
    series = doc.get("series")
    if not isinstance(series, list):
        return problems + ["series must be a list"]
    kinds: Dict[str, str] = {}
    for i, entry in enumerate(series):
        where = f"series[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        name, kind = entry.get("name"), entry.get("type")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing name")
            continue
        if kind not in _TYPES:
            problems.append(f"{where} ({name}): bad type {kind!r}")
            continue
        if kinds.setdefault(name, kind) != kind:
            problems.append(f"{where} ({name}): type conflicts with an "
                            f"earlier series")
        if not isinstance(entry.get("labels", {}), dict):
            problems.append(f"{where} ({name}): labels must be an object")
        if kind in ("counter", "gauge"):
            value = entry.get("value")
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                problems.append(f"{where} ({name}): non-numeric value")
            elif kind == "counter" and value < 0:
                problems.append(f"{where} ({name}): negative counter")
        else:
            problems.extend(_check_histogram(entry, where, name))
    return problems


def _check_histogram(entry: Dict, where: str, name: str) -> List[str]:
    problems: List[str] = []
    buckets = entry.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        return [f"{where} ({name}): missing buckets"]
    previous_bound = None
    previous_count = 0
    for j, pair in enumerate(buckets):
        if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
            problems.append(f"{where} ({name}): bucket {j} must be "
                            f"[le, count]")
            continue
        bound, count = pair
        last = j == len(buckets) - 1
        if last and bound != "+Inf":
            problems.append(f"{where} ({name}): final bucket must be "
                            f"+Inf")
        if not last:
            if not isinstance(bound, (int, float)) \
                    or isinstance(bound, bool):
                problems.append(f"{where} ({name}): bucket {j} bound "
                                f"not numeric")
            elif previous_bound is not None and bound <= previous_bound:
                problems.append(f"{where} ({name}): bounds not "
                                f"increasing")
            else:
                previous_bound = bound
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < previous_count:
            problems.append(f"{where} ({name}): cumulative counts must "
                            f"be non-decreasing ints")
        else:
            previous_count = count
    count = entry.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        problems.append(f"{where} ({name}): missing count")
    elif buckets and isinstance(buckets[-1], (list, tuple)) \
            and len(buckets[-1]) == 2 and buckets[-1][1] != count:
        problems.append(f"{where} ({name}): +Inf bucket must equal "
                        f"count")
    if not isinstance(entry.get("sum"), (int, float)) \
            or isinstance(entry.get("sum"), bool):
        problems.append(f"{where} ({name}): missing sum")
    return problems
