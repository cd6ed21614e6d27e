"""Structured JSON-lines logging for the sweep service.

One record per line, machine-parseable, quiet by default: the service
core, HTTP front door and CLI all log through :func:`get_logger`, and
nothing is written until :func:`configure_logging` turns the plane on
(``python -m repro serve --log-json`` does).  Each record carries the
event name, the emitting component, a service-instance ``run_id``, and
both wall-clock and monotonic timestamps so post-hoc analysis can order
events robustly across clock adjustments:

```json
{"event": "job-submitted", "component": "service", "run_id": "svc-...",
 "t_wall": 1770000000.123, "t_mono": 12.345, "job": "job-000001-...",
 "digest": "ab12..."}
```

Loggers are cheap handles -- resolve one at import time, check nothing:
a disabled logger's :meth:`~JsonLinesLogger.emit` is a single branch.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
import uuid
from typing import IO, Dict, Optional

_lock = threading.Lock()
_state: Dict = {
    "enabled": False,
    "stream": None,       # IO[str] to write to (default stderr)
    "owns_stream": False, # close it on reconfigure?
    "run_id": None,
}


def configure_logging(enabled: bool = True, stream: Optional[IO[str]] = None,
                      path=None, run_id: Optional[str] = None) -> str:
    """Turn the structured-log plane on (or off) process-wide.

    ``stream`` and ``path`` are mutually exclusive sinks; with neither,
    records go to stderr.  Returns the ``run_id`` stamped on every
    record (generated when not supplied) so callers can correlate logs
    with manifests/artifacts.
    """
    if stream is not None and path is not None:
        raise ValueError("pass stream or path, not both")
    with _lock:
        if _state["owns_stream"] and _state["stream"] is not None:
            try:
                _state["stream"].close()
            except OSError:
                pass
        owns = False
        if path is not None:
            stream = open(path, "a", encoding="utf-8")
            owns = True
        _state.update(
            enabled=bool(enabled),
            stream=stream,
            owns_stream=owns,
            run_id=run_id or f"svc-{uuid.uuid4().hex[:12]}",
        )
        return _state["run_id"]


class JsonLinesLogger:
    """A component-scoped handle onto the process-wide log plane."""

    def __init__(self, component: str):
        self.component = component

    def emit(self, event: str, **fields) -> Optional[Dict]:
        """Write one record if logging is on; returns it (or None)."""
        if not _state["enabled"]:
            return None
        record = {
            "event": event,
            "component": self.component,
            "run_id": _state["run_id"],
            "t_wall": round(time.time(), 6),
            "t_mono": round(time.monotonic(), 6),
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=False, default=str)
        with _lock:
            if not _state["enabled"]:
                return None
            sink = _state["stream"] or sys.stderr
            try:
                sink.write(line + "\n")
                sink.flush()
            except (OSError, ValueError, io.UnsupportedOperation):
                # A broken sink must never take the service down.
                pass
        return record


def get_logger(component: str) -> JsonLinesLogger:
    return JsonLinesLogger(component)
