"""Tests for the service telemetry plane: registry instrumentation of
SweepService, /metrics exposition, health gauges, the job event stream
and the `repro top` dashboard renderer."""

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.obs.telemetry import validate_telemetry
from repro.service import JobStore, ServiceMetrics, SweepService
from repro.service.top import render_dashboard

RUN = {"kind": "run", "benchmark": "tc", "instructions": 2000,
       "warmup": 500}


def stub_execute(spec_dict):
    return {"benchmark": spec_dict.get("benchmark"), "stub": True}


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("execute", stub_execute)
    return SweepService(store=JobStore(root=tmp_path), **kwargs)


def run_async(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# ServiceMetrics is now a view over the registry
# ----------------------------------------------------------------------
def test_legacy_metrics_read_through_registry(tmp_path):
    async def main():
        service = make_service(tmp_path)
        await service.start()
        job = await service.submit(**RUN)
        await service.wait(job)
        await service.submit(**RUN)  # store hit
        assert service.metrics.submitted == 2
        assert service.metrics.executed == 1
        assert service.metrics.store_hits == 1
        assert service.metrics.to_dict() == {
            "submitted": 2, "executed": 1, "store_hits": 1,
            "dedup_hits": 0, "requeues": 0, "failures": 0,
            "cancelled": 0, "rejected": 0}
        # Identical numbers in the telemetry snapshot.
        by_name = {s["name"]: s for s in
                   service.telemetry.snapshot()["series"]
                   if not s["labels"]}
        assert by_name["repro_jobs_executed_total"]["value"] == 1
        assert by_name["repro_store_hits_total"]["value"] == 1
        await service.close()
    run_async(main())


def test_service_metrics_unknown_attribute_raises(tmp_path):
    service = make_service(tmp_path)
    assert isinstance(service.metrics, ServiceMetrics)
    with pytest.raises(AttributeError):
        service.metrics.nonsense


# ----------------------------------------------------------------------
# Gauges in status() (the /health satellite)
# ----------------------------------------------------------------------
def test_describe_reports_point_in_time_gauges(tmp_path):
    async def main():
        service = make_service(tmp_path)
        await service.start()
        job = await service.submit(**RUN)
        await service.wait(job)
        doc = service.describe()
        gauges = doc["gauges"]
        assert gauges["queue_depth"] == 0
        assert gauges["inflight"] == 0
        assert gauges["uptime_seconds"] >= 0.0
        assert gauges["retention_evictions"] == 0
        assert gauges["states"]["done"] == 1
        assert gauges["states"]["running"] == 0
        assert validate_telemetry(doc["telemetry"]) == []
        await service.close()
    run_async(main())


def test_retention_evictions_counted(tmp_path):
    async def main():
        service = make_service(tmp_path, retention=2)
        await service.start()
        for i in range(5):
            job = await service.submit(
                kind="run", benchmark="tc", instructions=1000 + i,
                warmup=500)
            await service.wait(job)
        doc = service.describe()
        assert doc["gauges"]["retention_evictions"] == 3
        assert doc["jobs"] == 2
        await service.close()
    run_async(main())


def test_latency_histograms_observe_each_job(tmp_path):
    async def main():
        service = make_service(tmp_path)
        await service.start()
        for benchmark in ("tc", "mg"):
            job = await service.submit(kind="run", benchmark=benchmark,
                                       instructions=2000, warmup=500)
            await service.wait(job)
        series = {s["name"]: s for s in
                  service.telemetry.snapshot()["series"]
                  if s["type"] == "histogram"}
        assert series["repro_job_wait_seconds"]["count"] == 2
        assert series["repro_job_run_seconds"]["count"] == 2
        # Store hits never execute, so the run histogram must not move.
        await service.submit(kind="run", benchmark="tc",
                             instructions=2000, warmup=500)
        series = {s["name"]: s for s in
                  service.telemetry.snapshot()["series"]
                  if s["type"] == "histogram"}
        assert series["repro_job_run_seconds"]["count"] == 2
        await service.close()
    run_async(main())


def test_events_dropped_rolls_up_to_service_counter(tmp_path):
    async def main():
        service = make_service(tmp_path)
        await service.start()
        job = await service.submit(**RUN)
        # Overflow this job's backlog after the fact: the on_drop hook
        # wired by _register must feed the service-wide counter.
        job.events.maxlen = 2
        for i in range(10):
            job.events._closed = False
            job.events.emit(kind="noise", i=i)
        doc = service.describe()
        assert doc["gauges"]["events_dropped"] > 0
        assert doc["gauges"]["events_dropped"] == job.events.dropped
        await service.close()
    run_async(main())


# ----------------------------------------------------------------------
# Job event stream
# ----------------------------------------------------------------------
def test_watch_streams_events_and_progress(tmp_path):
    def forwarding_execute(spec_dict, progress=None,
                           progress_interval=None):
        if progress is not None:
            for i in range(3):
                progress({"interval": i, "instructions": (i + 1) * 500,
                          "cycle": (i + 1) * 800, "ipc": 0.6,
                          "l2_mpki": 2.0, "llc_mpki": 1.0,
                          "walk_cycles": 5, "pct": (i + 1) / 4})
        return {"benchmark": spec_dict["benchmark"], "cycles": 3200,
                "instructions": 2000, "metrics": {"ipc": 0.625},
                "walk_cycles_total": 15}
    forwarding_execute.supports_progress = True

    async def main():
        service = make_service(tmp_path, execute=forwarding_execute,
                               progress_interval=500)
        await service.start()
        job = await service.submit(**RUN)
        await service.wait(job)
        events = job.events.snapshot()
        rows = [e for e in events if e.get("kind") == "job-progress"]
        assert [e["status"] for e in events
                if e.get("kind") == "status"] \
            == ["pending", "running", "done"]
        assert len(rows) == 4  # 3 worker rows + the final row
        assert rows[-1]["final"] is True
        assert rows[-1]["cycle"] == 3200
        assert job.progress["final"] is True
        await service.close()
    run_async(main())


def test_final_row_keeps_the_demand_miss_rates(tmp_path):
    """A real forwarded run job: the final row carries the payload's
    demand MPKIs (translation + replay + non-replay), the forwarded
    rows count the same misses and the same ROI cycles, and the
    dashboard draws the final row's values."""
    from repro.service.top import _job_line

    async def main():
        service = SweepService(store=JobStore(root=tmp_path), workers=0,
                               progress_interval=500)
        job = await service.submit("run", benchmark="pr", instructions=2000,
                                   warmup=200, scale=64)
        await service.wait(job)
        await service.close()
        return job

    job = run_async(main())
    *rows, final = [e for e in job.events.snapshot()
                    if e["kind"] == "job-progress"]
    assert len(rows) == 4 and final["final"] is True
    # Every row counts ROI cycles, so the job's cycle never goes back.
    cycles = [row["cycle"] for row in rows + [final]]
    assert cycles == sorted(cycles) and cycles[0] > 0
    assert rows[-1]["cycle"] == final["cycle"] == job.payload["cycles"]
    instructions = job.payload["instructions"]
    for field, level in (("l2_mpki", "l2c"), ("llc_mpki", "llc")):
        mpki = job.payload["mpki"][level]
        expected = round(mpki["translation"] + mpki["replay"]
                         + mpki["non_replay"], 4)
        assert final[field] == expected > 0
        # Each row covers 500 instructions; together they count the
        # ROI's misses.
        assert sum(row[field] * 500 for row in rows) \
            == pytest.approx(final[field] * instructions)
    line = _job_line(job.describe(), 120)
    assert f"l2 {final['l2_mpki']:7.2f}" in line
    assert f"llc {final['llc_mpki']:7.2f}" in line


# ----------------------------------------------------------------------
# Forwarding config guard rails
# ----------------------------------------------------------------------
def test_stub_executors_never_receive_progress_kwargs(tmp_path):
    # stub_execute has no supports_progress attribute: the service must
    # call it with one argument even though forwarding is configured.
    async def main():
        service = make_service(tmp_path, progress_interval=100)
        await service.start()
        job = await service.submit(**RUN)
        await service.wait(job)
        assert job.status.value == "done"
        assert job.progress is None
        await service.close()
    run_async(main())


def test_progress_interval_validation(tmp_path):
    with pytest.raises(ValueError):
        make_service(tmp_path, progress_interval=0)
    with pytest.raises(ValueError):
        make_service(tmp_path, progress_interval=-5)
    service = make_service(tmp_path, progress_interval=None)
    assert service.progress_interval is None


# ----------------------------------------------------------------------
# GET /metrics over HTTP
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    from repro.service.http import build_server
    service = make_service(tmp_path)
    httpd, runtime = build_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        httpd.shutdown()
        httpd.server_close()
        runtime.stop()
        thread.join(timeout=10)


def _scrape(url):
    with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
        return resp.headers["Content-Type"], resp.read().decode()


def test_metrics_endpoint_serves_prometheus_text(server):
    from repro.service.cli import request, wait_for_job
    url, service = server
    job = request(url, "/jobs", method="POST", body=RUN)
    wait_for_job(url, job["id"])
    request(url, "/jobs", method="POST", body=RUN)  # store hit

    content_type, text = _scrape(url)
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    lines = text.splitlines()
    assert "repro_jobs_submitted_total 2" in lines
    assert "repro_jobs_executed_total 1" in lines
    assert "repro_store_hits_total 1" in lines
    assert "repro_queue_depth 0" in lines
    assert 'repro_jobs_state{state="done"} 2' in lines
    assert any(line.startswith("repro_job_wait_seconds_bucket")
               for line in lines)
    assert "repro_job_run_seconds_count 1" in lines
    # Every non-comment line parses as `name{labels} value`.
    for line in lines:
        if line.startswith("#") or not line:
            continue
        name_part, _, value = line.rpartition(" ")
        assert name_part and float(value) is not None


def test_health_telemetry_block_validates(server):
    from repro.service.cli import request
    url, _ = server
    doc = request(url, "/health")
    assert validate_telemetry(doc["telemetry"]) == []
    assert doc["gauges"]["states"]["pending"] == 0


# ----------------------------------------------------------------------
# repro top renderer
# ----------------------------------------------------------------------
def make_health(**gauges):
    base = {"queue_depth": 1, "inflight": 2, "uptime_seconds": 42.0,
            "retention_evictions": 0, "events_dropped": 0,
            "progress_events": 7,
            "states": {"running": 1, "pending": 1, "done": 3,
                       "failed": 0, "cancelled": 0}}
    base.update(gauges)
    return {"workers": 4, "queue_size": 256,
            "metrics": {"executed": 3, "store_hits": 1, "dedup_hits": 0,
                        "requeues": 0, "rejected": 0},
            "gauges": base}


def test_render_dashboard_shows_gauges_and_progress_bars():
    jobs = [
        {"id": "job-000001-aaaaaaaa", "kind": "run", "status": "running",
         "progress": {"pct": 0.5, "ipc": 0.934, "l2_mpki": 12.5,
                      "llc_mpki": 3.25, "walk_cycles": 1234,
                      "instructions": 60000}},
        {"id": "job-000002-bbbbbbbb", "kind": "run", "status": "pending",
         "attempts": 0},
        {"id": "job-000003-cccccccc", "kind": "run", "status": "done",
         "progress": {"pct": 1.0, "ipc": 1.1, "l2_mpki": 4.0,
                      "llc_mpki": 1.0, "walk_cycles": 99}},
        {"id": "job-000004-dddddddd", "kind": "run", "status": "failed",
         "error": "ValueError: boom"},
    ]
    frame = render_dashboard(make_health(), jobs, width=100)
    assert "queue 1/256" in frame
    assert "inflight 2" in frame
    assert "exec 3" in frame
    assert "progress-rows 7" in frame
    assert "job-000001-aaaaaaaa" in frame
    assert "[##########----------]" in frame   # 50% bar
    assert "ipc 0.934" in frame
    assert "ValueError: boom" in frame
    # Running sorts above pending sorts above done.
    lines = frame.splitlines()
    order = [lines.index(next(ln for ln in lines if jid in ln))
             for jid in ("job-000001", "job-000002", "job-000004",
                         "job-000003")]
    assert order == sorted(order)


def test_render_dashboard_limits_rows_and_handles_empty():
    jobs = [{"id": f"job-{i:06d}-ffffffff", "kind": "run",
             "status": "done"} for i in range(30)]
    frame = render_dashboard(make_health(), jobs, width=80, limit=5)
    assert "... 25 more" in frame
    empty = render_dashboard(make_health(), [], width=80)
    assert "(no jobs)" in empty
    assert all(len(line) <= 80 for line in frame.splitlines())


def test_top_once_against_live_server(server, capsys):
    import argparse

    from repro.service.cli import add_service_parsers, request, \
        wait_for_job
    url, _ = server
    job = request(url, "/jobs", method="POST", body=RUN)
    wait_for_job(url, job["id"])

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    add_service_parsers(sub)
    args = parser.parse_args(["top", "--once", "--url", url])
    assert args.service_func(args) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert job["id"] in out


def test_top_unreachable_service_fails_cleanly(capsys):
    import argparse

    from repro.service.cli import add_service_parsers
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    add_service_parsers(sub)
    args = parser.parse_args(
        ["top", "--once", "--url", "http://127.0.0.1:1"])
    assert args.service_func(args) == 1
    assert "repro top" in capsys.readouterr().err
