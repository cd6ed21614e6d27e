"""``python -m repro top`` -- live ANSI dashboard over a running service.

Polls ``GET /health`` (gauges + telemetry) and ``GET /jobs`` and redraws
a compact terminal view: queue/worker state on top, one line per job
with a progress bar fed by the forwarded ``job-progress`` rows
(pct/IPC/MPKI/walk cycles).  Pure-stdlib ANSI (no curses dependency);
``--once`` prints a single frame and exits, which is what the smoke
test drives.

Rendering is split from polling: :func:`render_dashboard` is a pure
function of the two JSON documents, so tests can exercise the layout
without a server.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional

#: Job statuses ordered most-interesting-first for the table.
_STATUS_ORDER = {"running": 0, "pending": 1, "failed": 2,
                 "cancelled": 3, "done": 4}

_STATUS_GLYPH = {"running": ">", "pending": ".", "done": "=",
                 "failed": "!", "cancelled": "x"}


def _bar(pct: float, width: int) -> str:
    pct = min(1.0, max(0.0, pct))
    filled = int(round(pct * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _job_line(job: Dict, width: int) -> str:
    status = job.get("status", "?")
    glyph = _STATUS_GLYPH.get(status, "?")
    head = (f" {glyph} {job.get('id', '?'):<24.24} "
            f"{job.get('kind', '?'):<8.8} {status:<9.9}")
    progress = job.get("progress") or {}
    if status == "done":
        progress = dict(progress, pct=1.0)
    if progress:
        bar = _bar(progress.get("pct", 0.0), 20)
        detail = (f"{bar} {progress.get('pct', 0.0) * 100:5.1f}%  "
                  f"ipc {progress.get('ipc', 0.0):5.3f}  "
                  f"l2 {progress.get('l2_mpki', 0.0):7.2f}  "
                  f"llc {progress.get('llc_mpki', 0.0):7.2f}  "
                  f"walk {progress.get('walk_cycles', 0):>8}")
    elif status == "failed":
        detail = (job.get("error") or "failed")[: max(10, width - 50)]
    else:
        detail = f"attempts {job.get('attempts', 0)}"
    return (head + " " + detail)[:width]


def render_dashboard(health: Dict, jobs: List[Dict], width: int = 100,
                     limit: int = 20, clock: Optional[float] = None) -> str:
    """One dashboard frame as a plain string (no ANSI codes).

    ``health`` is the ``GET /health`` document, ``jobs`` the list from
    ``GET /jobs``; both straight off the wire.
    """
    gauges = health.get("gauges", {})
    metrics = health.get("metrics", {})
    states = gauges.get("states", {})
    lines = []
    stamp = time.strftime("%H:%M:%S", time.localtime(clock))
    lines.append(f"repro top · {stamp} · up "
                 f"{gauges.get('uptime_seconds', 0.0):.0f}s · "
                 f"{health.get('workers', '?')} workers"[:width])
    lines.append(
        (f" queue {gauges.get('queue_depth', 0)}/"
         f"{health.get('queue_size', '?')}  "
         f"inflight {gauges.get('inflight', 0)}  "
         f"run {states.get('running', 0)}  pend {states.get('pending', 0)}"
         f"  done {states.get('done', 0)}  fail {states.get('failed', 0)}"
         )[:width])
    lines.append(
        (f" exec {metrics.get('executed', 0)}  "
         f"store-hit {metrics.get('store_hits', 0)}  "
         f"dedup {metrics.get('dedup_hits', 0)}  "
         f"requeue {metrics.get('requeues', 0)}  "
         f"rejected {metrics.get('rejected', 0)}  "
         f"progress-rows {gauges.get('progress_events', 0)}  "
         f"dropped {gauges.get('events_dropped', 0)}")[:width])
    lines.append("-" * min(width, 100))
    ordered = sorted(
        jobs, key=lambda j: (_STATUS_ORDER.get(j.get("status"), 9),
                             j.get("id", "")))
    for job in ordered[:limit]:
        lines.append(_job_line(job, width))
    if len(ordered) > limit:
        lines.append(f" ... {len(ordered) - limit} more")
    if not jobs:
        lines.append(" (no jobs)")
    return "\n".join(lines)


def cmd_top(args) -> int:
    """CLI entry point (wired by ``add_service_parsers``)."""
    from repro.service.cli import ServiceClientError, request
    interval = getattr(args, "interval", 1.0)
    limit = getattr(args, "limit", 20)
    once = getattr(args, "once", False)
    width = getattr(args, "width", None) or 100
    while True:
        try:
            health = request(args.url, "/health")
            jobs = request(args.url, "/jobs").get("jobs", [])
        except (ServiceClientError, OSError) as exc:
            print(f"repro top: {args.url}: {exc}", file=sys.stderr)
            return 1
        frame = render_dashboard(health, jobs, width=width, limit=limit)
        if once:
            print(frame)
            return 0
        # Home + clear-to-end redraw (flicker-free vs full clears).
        sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
