"""CLI bodies for ``python -m repro serve|submit|status|result|cancel``.

Kept out of ``repro.__main__`` (which imports nothing deeper than the
``repro.api`` facade at module level) and imported lazily, like the
scenario subcommand.  The client commands speak the HTTP API of a
running server (``--url``, default ``http://127.0.0.1:8765``) with
stdlib ``urllib`` only.
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request
from typing import Dict, Optional

from repro.cli import int_at_least

DEFAULT_URL = "http://127.0.0.1:8765"


# ----------------------------------------------------------------------
# HTTP client helpers
# ----------------------------------------------------------------------
class ServiceClientError(RuntimeError):
    """An HTTP error with the server's JSON error body attached."""

    def __init__(self, status: int, document: Dict):
        self.status = status
        self.document = document
        super().__init__(f"HTTP {status}: "
                         f"{document.get('error', document)}")


def request(url: str, path: str, *, method: str = "GET",
            body: Optional[Dict] = None,
            timeout: float = 60.0) -> Dict:
    """One JSON request/response round-trip."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url.rstrip("/") + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.load(resp)
    except urllib.error.HTTPError as exc:
        try:
            document = json.load(exc)
        except (ValueError, TypeError):
            document = {"error": str(exc)}
        raise ServiceClientError(exc.code, document) from None


def follow_events(url: str, job_id: str, *, start: int = 0,
                  timeout: float = 600.0):
    """Yield the NDJSON event stream of one job until it closes."""
    req = urllib.request.Request(
        url.rstrip("/") + f"/jobs/{job_id}/events?start={start}")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        for line in resp:
            line = line.strip()
            if line:
                yield json.loads(line)


def wait_for_job(url: str, job_id: str, *,
                 timeout: float = 600.0) -> Dict:
    """Block on the event stream until terminal; return the final
    status document."""
    for _ in follow_events(url, job_id, timeout=timeout):
        pass
    return request(url, f"/jobs/{job_id}")


# ----------------------------------------------------------------------
# Subcommand bodies
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    from repro.service import serve
    from repro.service.store import JobStore
    store = JobStore(root=args.store) if args.store else None
    progress = "default"
    if getattr(args, "no_progress", False):
        progress = None
    elif getattr(args, "progress_interval", None) is not None:
        progress = args.progress_interval
    serve(host=args.host, port=args.port, store=store,
          workers=args.workers, queue_size=args.queue_size,
          progress_interval=progress,
          log_json=getattr(args, "log_json", False))
    return 0


def _print(document: Dict) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


def cmd_submit(args) -> int:
    body: Dict = {"kind": args.kind}
    if args.priority is not None:
        body["priority"] = args.priority
    for name in ("benchmark", "scenario", "figure", "enhancements",
                 "instructions", "warmup", "scale", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            body[name] = value
    if args.kind == "sweep":
        if not args.runs:
            print("sweep submission needs --runs", file=sys.stderr)
            return 2
        body["runs"] = args.runs
    try:
        job = request(args.url, "/jobs", method="POST", body=body)
    except ServiceClientError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if args.wait:
        job = wait_for_job(args.url, job["id"])
    _print(job)
    return 0 if job["status"] in ("pending", "running", "done") else 1


def cmd_status(args) -> int:
    try:
        if args.job_id is None:
            _print(request(args.url, "/jobs"))
        else:
            _print(request(args.url, f"/jobs/{args.job_id}"))
    except ServiceClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def cmd_result(args) -> int:
    try:
        if args.wait:
            final = wait_for_job(args.url, args.job_id)
            if final["status"] != "done":
                print(f"{args.job_id}: {final['status']}"
                      + (f" ({final.get('error')})"
                         if final.get("error") else ""),
                      file=sys.stderr)
                return 1
        _print(request(args.url, f"/jobs/{args.job_id}/result"))
    except ServiceClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def cmd_cancel(args) -> int:
    try:
        outcome = request(args.url, f"/jobs/{args.job_id}/cancel",
                          method="POST", body={})
    except ServiceClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _print(outcome)
    return 0 if outcome.get("cancelled") else 1


# ----------------------------------------------------------------------
# Parser registration (called from repro.__main__)
# ----------------------------------------------------------------------
def _add_url(parser) -> None:
    parser.add_argument("--url", default=DEFAULT_URL,
                        help=f"service base URL (default {DEFAULT_URL})")


def add_service_parsers(sub) -> None:
    """Register serve/submit/status/result/cancel subcommand trees."""
    p_serve = sub.add_parser(
        "serve", help="run the HTTP sweep service (docs/service.md)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="0 picks a free port (printed on startup)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: cpu count; "
                              "0 executes inline)")
    p_serve.add_argument("--queue-size", type=int_at_least(1), default=None,
                         help="bounded queue depth (back-pressure)")
    p_serve.add_argument("--store", metavar="DIR", default=None,
                         help="job-store root (default "
                              "~/.cache/repro-runs or $REPRO_CACHE_DIR)")
    p_serve.add_argument("--progress-interval", type=int_at_least(1),
                         default=None,
                         help="instructions between forwarded "
                              "job-progress rows (default 5000)")
    p_serve.add_argument("--no-progress", action="store_true",
                         help="disable worker progress forwarding")
    p_serve.add_argument("--log-json", action="store_true",
                         help="structured JSON-lines logs on stderr")
    p_serve.set_defaults(service_func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a job to a running service")
    p_submit.add_argument("kind", choices=("run", "scenario", "sweep",
                                           "figure", "trace"))
    p_submit.add_argument("benchmark", nargs="?", default=None,
                          help="benchmark (run/trace), scenario name "
                               "(scenario) or figure name (figure)")
    p_submit.add_argument("--runs", nargs="*", default=None,
                          help="benchmarks of a sweep's child runs")
    p_submit.add_argument("--enhancements", default=None)
    p_submit.add_argument("--instructions", type=int_at_least(1),
                          default=None)
    p_submit.add_argument("--warmup", type=int_at_least(0), default=None)
    p_submit.add_argument("--scale", type=int_at_least(1), default=None)
    p_submit.add_argument("--seed", type=int_at_least(0), default=None)
    p_submit.add_argument("--priority", type=int, default=None,
                          help="lower runs sooner")
    p_submit.add_argument("--wait", action="store_true",
                          help="follow the event stream until terminal")
    _add_url(p_submit)
    p_submit.set_defaults(service_func=_dispatch_submit)

    p_status = sub.add_parser("status", help="job (or service) status")
    p_status.add_argument("job_id", nargs="?", default=None)
    _add_url(p_status)
    p_status.set_defaults(service_func=cmd_status)

    p_result = sub.add_parser("result", help="fetch a job's payload")
    p_result.add_argument("job_id")
    p_result.add_argument("--wait", action="store_true")
    _add_url(p_result)
    p_result.set_defaults(service_func=cmd_result)

    p_cancel = sub.add_parser("cancel", help="cancel a pending job")
    p_cancel.add_argument("job_id")
    _add_url(p_cancel)
    p_cancel.set_defaults(service_func=cmd_cancel)

    p_top = sub.add_parser(
        "top", help="live dashboard over a running service")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between redraws")
    p_top.add_argument("--limit", type=int_at_least(1), default=20,
                       help="max job rows shown")
    p_top.add_argument("--width", type=int_at_least(1), default=None,
                       help="frame width (default 100 columns)")
    p_top.add_argument("--once", action="store_true",
                       help="print one frame and exit (no ANSI)")
    _add_url(p_top)
    p_top.set_defaults(service_func=_dispatch_top)


def _dispatch_top(args) -> int:
    from repro.service.top import cmd_top
    return cmd_top(args)


def _dispatch_submit(args) -> int:
    # Map the positional onto the kind-specific field name.
    if args.kind == "scenario":
        args.scenario, args.benchmark = args.benchmark, None
    elif args.kind == "figure":
        args.figure, args.benchmark = args.benchmark, None
    else:
        args.scenario = args.figure = None
    if args.kind in ("run", "trace") and not args.benchmark:
        print(f"{args.kind} submission needs a benchmark name",
              file=sys.stderr)
        return 2
    if args.kind == "scenario" and not args.scenario:
        print("scenario submission needs a scenario name",
              file=sys.stderr)
        return 2
    if args.kind == "figure" and not args.figure:
        print("figure submission needs a figure name", file=sys.stderr)
        return 2
    return cmd_submit(args)
