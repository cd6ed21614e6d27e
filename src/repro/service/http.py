"""HTTP front door for the sweep service (stdlib only).

The asyncio service runs on a dedicated loop thread; handler threads of
a ``ThreadingHTTPServer`` bridge into it with
``run_coroutine_threadsafe``.  Endpoints (see ``docs/service.md``):

=======  ==========================  =====================================
POST     /jobs                       submit (202; 400 bad spec; 503+
                                     Retry-After when the queue is full)
GET      /jobs                       all jobs, newest last
GET      /jobs/<id>                  one job's status document
GET      /jobs/<id>/result           payload (409 until DONE)
GET      /jobs/<id>/events           NDJSON progress stream (chunked;
                                     ends when the job is terminal)
POST     /jobs/<id>/cancel           cancel a pending job
GET      /store                      store manifest (the CI artifact)
GET      /store/<digest>             one stored payload
GET      /health                     service status + metrics + gauges
GET      /metrics                    Prometheus text exposition
=======  ==========================  =====================================
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.obs.log import get_logger
from repro.service.core import (ServiceRuntime, ServiceSaturated,
                                SweepService)
from repro.service.jobs import JobError

#: Seconds an idle event-stream read blocks before emitting a keepalive.
STREAM_TICK = 0.5

#: Content type of ``GET /metrics`` (Prometheus text format 0.0.4).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_log = get_logger("http")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/2.0"

    # The server instance carries the runtime (set by build_server).
    @property
    def runtime(self) -> ServiceRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # -- plumbing --------------------------------------------------------
    def _send_json(self, code: int, document: Dict,
                   extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(document, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _not_found(self, what: str) -> None:
        self._send_json(404, {"error": f"{what} not found"})

    def _job_or_404(self, job_id: str):
        job = self.runtime.sync(self.runtime.service.get_job, job_id)
        if job is None:
            self._not_found(f"job {job_id}")
        return job

    # -- GET -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        service = self.runtime.service
        _log.emit("http-get", path=path)
        if parts == ["health"]:
            self._send_json(200, self.runtime.sync(service.describe))
        elif parts == ["metrics"]:
            # Registry reads are thread-safe; no loop hop needed.
            body = service.render_metrics().encode()
            self.send_response(200)
            self.send_header("Content-Type", METRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif parts == ["store"]:
            self._send_json(200, service.store.manifest())
        elif len(parts) == 2 and parts[0] == "store":
            payload = service.store.get_raw(parts[1])
            if payload is None:
                self._not_found(f"digest {parts[1]}")
            else:
                self._send_json(200, payload)
        elif parts == ["jobs"]:
            jobs = self.runtime.sync(service.jobs)
            self._send_json(200,
                            {"jobs": [j.describe() for j in jobs]})
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._send_json(200, job.describe())
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "result":
            job = self._job_or_404(parts[1])
            if job is None:
                return
            if job.payload is None:
                self._send_json(409, {"error": "no result",
                                      "status": job.status.value})
            else:
                self._send_json(200, job.payload)
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "events":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._stream_events(job, query)
        else:
            self._not_found(path)

    def _stream_events(self, job, query: str) -> None:
        start = 0
        for pair in query.split("&"):
            if pair.startswith("start="):
                try:
                    start = max(0, int(pair[6:]))
                except ValueError:
                    pass
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def chunk(line: str) -> None:
            data = line.encode()
            self.wfile.write(f"{len(data):x}\r\n".encode()
                             + data + b"\r\n")
            self.wfile.flush()

        try:
            index = start
            while True:
                for event in job.events.snapshot(index):
                    # Advance by the event's own seq: a bounded-backlog
                    # drop skips forward instead of under-counting.
                    index = event["seq"] + 1
                    chunk(json.dumps(event, sort_keys=True) + "\n")
                if job.events.closed and len(job.events) <= index:
                    break
                job.events.wait_for(index, timeout=STREAM_TICK)
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream

    # -- POST ------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["jobs"]:
            self._submit()
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "cancel":
            job = self._job_or_404(parts[1])
            if job is not None:
                ok = self.runtime.sync(self.runtime.service.cancel, job)
                self._send_json(200, {"id": job.id, "cancelled": ok,
                                      "status": job.status.value})
        else:
            self._not_found(self.path)

    def do_DELETE(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                ok = self.runtime.sync(self.runtime.service.cancel, job)
                self._send_json(200, {"id": job.id, "cancelled": ok,
                                      "status": job.status.value})
        else:
            self._not_found(self.path)

    def _submit(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", 0))
            document = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._send_json(400, {"error": "body must be JSON"})
            return
        if not isinstance(document, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return
        kind = document.pop("kind", None)
        priority = document.pop("priority", None)
        if priority is not None and (isinstance(priority, bool)
                                     or not isinstance(priority, int)):
            self._send_json(400, {"error": "priority must be an "
                                           f"integer, got {priority!r}"})
            return
        kwargs = dict(document)
        if priority is not None:
            kwargs["priority"] = priority
        try:
            job = self.runtime.call(
                self.runtime.service.submit(kind or "run", wait=False,
                                            **kwargs))
        except JobError as exc:
            self._send_json(400, {"error": str(exc)})
        except ServiceSaturated as exc:
            self._send_json(503, {"error": str(exc)},
                            extra_headers=(("Retry-After", "1"),))
        else:
            self._send_json(202, job.describe())


def build_server(service: SweepService, host: str = "127.0.0.1",
                 port: int = 0,
                 verbose: bool = False) -> Tuple[ThreadingHTTPServer,
                                                 ServiceRuntime]:
    """A started runtime + bound (not yet serving) HTTP server."""
    runtime = ServiceRuntime(service).start()
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.runtime = runtime  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server, runtime


def serve(host: str = "127.0.0.1", port: int = 8765, *, store=None,
          workers: Optional[int] = None,
          queue_size: Optional[int] = None,
          progress_interval: Optional[int] = "default",
          log_json: bool = False,
          verbose: bool = False, ready=None) -> None:
    """Blocking server entry point (``python -m repro serve``).

    ``progress_interval=None`` disables worker progress forwarding;
    ``log_json=True`` turns the structured JSON-lines log plane on
    (stderr)."""
    import os

    if log_json:
        from repro.obs.log import configure_logging
        configure_logging(True)
    kwargs: Dict = {}
    if queue_size is not None:
        kwargs["queue_size"] = queue_size
    if progress_interval != "default":
        kwargs["progress_interval"] = progress_interval
    service = SweepService(
        store=store,
        workers=(os.cpu_count() or 2) if workers is None else workers,
        **kwargs)
    server, runtime = build_server(service, host, port, verbose=verbose)
    actual_host, actual_port = server.server_address[:2]
    _log.emit("serve-start", host=str(actual_host), port=actual_port,
              workers=service.workers, store=str(service.store.dir))
    print(f"repro service listening on http://{actual_host}:{actual_port} "
          f"(store {service.store.dir}, {service.workers} workers)",
          flush=True)
    if ready is not None:
        ready(actual_host, actual_port, runtime)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        runtime.stop()
