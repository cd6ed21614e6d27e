"""Tests for repro.obs.progress: EventStream semantics (ordering under
concurrency, late-subscriber replay, the bounded backlog) and NDJSON
framing of forwarded job-progress events end-to-end through the HTTP
server."""

import json
import threading
import urllib.request

import pytest

from repro.obs.progress import DEFAULT_BACKLOG, EventStream


# ----------------------------------------------------------------------
# Ordering and replay
# ----------------------------------------------------------------------
def test_seq_is_dense_and_snapshot_slices():
    stream = EventStream()
    for i in range(5):
        stream.emit(kind="tick", i=i)
    events = stream.snapshot()
    assert [e["seq"] for e in events] == list(range(5))
    assert [e["i"] for e in stream.snapshot(3)] == [3, 4]
    assert stream.snapshot(99) == []
    assert len(stream) == 5


def test_late_subscriber_replays_full_history():
    stream = EventStream()
    for i in range(4):
        stream.emit(i=i)
    stream.close()
    # A subscriber arriving after close still sees every event, once.
    assert [e["i"] for e in stream.follow()] == [0, 1, 2, 3]
    # And again: replay does not consume.
    assert [e["i"] for e in stream.follow()] == [0, 1, 2, 3]


def test_concurrent_emitters_yield_unique_ordered_seqs():
    stream = EventStream()
    per_thread = 500

    def emitter(tag):
        for i in range(per_thread):
            stream.emit(tag=tag, i=i)

    threads = [threading.Thread(target=emitter, args=(t,))
               for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stream.close()
    events = stream.snapshot()
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 4 * per_thread
    # Per-emitter order is preserved within the interleaving.
    for tag in range(4):
        mine = [e["i"] for e in events if e["tag"] == tag]
        assert mine == list(range(per_thread))


def test_follower_thread_sees_live_emits_in_order():
    stream = EventStream()
    seen = []

    def consume():
        for event in stream.follow():
            seen.append(event["i"])

    thread = threading.Thread(target=consume)
    thread.start()
    for i in range(200):
        stream.emit(i=i)
    stream.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == list(range(200))


# ----------------------------------------------------------------------
# Bounded backlog (the dropped_events satellite)
# ----------------------------------------------------------------------
def test_default_backlog_is_bounded():
    assert EventStream().maxlen == DEFAULT_BACKLOG


def test_unbounded_growth_is_capped_with_dropped_counter():
    drops = []
    stream = EventStream(maxlen=10, on_drop=drops.append)
    for i in range(100):
        stream.emit(i=i)
    assert len(stream) == 100          # total emitted, for consumers
    assert stream.dropped == 90
    assert sum(drops) == 90
    retained = stream.snapshot()
    assert len(retained) == 10
    # The newest events are the ones kept, seq numbering intact.
    assert [e["seq"] for e in retained] == list(range(90, 100))


def test_snapshot_start_maps_through_dropped_prefix():
    stream = EventStream(maxlen=5)
    for i in range(20):
        stream.emit(i=i)
    # Asking for an already-dropped range resumes at the oldest kept.
    assert [e["seq"] for e in stream.snapshot(0)] \
        == [15, 16, 17, 18, 19]
    assert [e["seq"] for e in stream.snapshot(17)] == [17, 18, 19]


def test_follow_skips_over_dropped_events_without_stalling():
    stream = EventStream(maxlen=4)
    for i in range(50):
        stream.emit(i=i)
    stream.close()
    seen = [e["seq"] for e in stream.follow()]
    assert seen == [46, 47, 48, 49]


def test_slow_follower_detects_loss_via_seq_gap():
    stream = EventStream(maxlen=8)
    it = stream.follow(timeout=0.05)
    stream.emit(i=0)
    first = next(it)
    assert first["seq"] == 0
    for i in range(1, 30):  # overflow while the follower sleeps
        stream.emit(i=i)
    stream.close()
    rest = list(it)
    assert rest[0]["seq"] > 1  # the gap IS the loss signal
    assert [e["seq"] for e in rest] == list(range(22, 30))


def test_on_drop_callback_failure_is_swallowed():
    stream = EventStream(maxlen=1,
                         on_drop=lambda n: (_ for _ in ()).throw(
                             RuntimeError("boom")))
    stream.emit(i=0)
    stream.emit(i=1)  # drops i=0; the callback raising must not surface
    assert stream.dropped == 1


def test_maxlen_must_be_positive():
    with pytest.raises(ValueError):
        EventStream(maxlen=0)


# ----------------------------------------------------------------------
# job-progress NDJSON framing end-to-end over HTTP
# ----------------------------------------------------------------------
def progress_execute(spec_dict, progress=None, progress_interval=None):
    """Stub executor that forwards three deterministic rows."""
    if progress is not None:
        for i in range(3):
            progress({"interval": i, "instructions": (i + 1) * 100,
                      "cycle": (i + 1) * 250, "ipc": 0.4,
                      "l2_mpki": 1.5, "llc_mpki": 0.5,
                      "walk_cycles": 10 * i, "pct": (i + 1) / 4})
    return {"benchmark": spec_dict.get("benchmark"), "cycles": 1000,
            "instructions": 400, "metrics": {"ipc": 0.4},
            "walk_cycles_total": 30}


progress_execute.supports_progress = True


@pytest.fixture
def progress_server(tmp_path):
    from repro.service import JobStore, SweepService
    from repro.service.http import build_server
    service = SweepService(store=JobStore(root=tmp_path), workers=0,
                           execute=progress_execute,
                           progress_interval=100)
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


def test_job_progress_events_frame_as_ndjson_over_http(progress_server):
    from repro.service.cli import request, wait_for_job
    url, service = progress_server
    job = request(url, "/jobs", method="POST",
                  body={"kind": "run", "benchmark": "tc",
                        "instructions": 400, "warmup": 100})
    wait_for_job(url, job["id"])

    req = urllib.request.Request(url + f"/jobs/{job['id']}/events")
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        assert resp.headers.get("Transfer-Encoding") == "chunked"
        raw = [line for line in resp if line.strip()]
    events = [json.loads(line) for line in raw]
    # One JSON object per line, seq strictly increasing.
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    progress = [e for e in events if e.get("kind") == "job-progress"]
    # 3 forwarded rows + the authoritative service-side final row.
    assert len(progress) == 4
    assert [p["interval"] for p in progress[:3]] == [0, 1, 2]
    final = progress[-1]
    assert final["final"] is True and final["pct"] == 1.0
    assert final["cycle"] == 1000 and final["walk_cycles"] == 30
    # Lifecycle events interleave correctly around the rows.
    statuses = [e["status"] for e in events if e.get("kind") == "status"]
    assert statuses == ["pending", "running", "done"]
    # The job document carries the latest row for dashboards.
    doc = request(url, f"/jobs/{job['id']}")
    assert doc["progress"]["final"] is True
    assert doc["events_dropped"] == 0


def test_progress_rows_count_into_telemetry(progress_server):
    from repro.service.cli import request, wait_for_job
    url, service = progress_server
    job = request(url, "/jobs", method="POST",
                  body={"kind": "run", "benchmark": "mg",
                        "instructions": 400, "warmup": 100})
    wait_for_job(url, job["id"])
    health = request(url, "/health")
    assert health["gauges"]["progress_events"] == 4
    metrics_req = urllib.request.Request(url + "/metrics")
    with urllib.request.urlopen(metrics_req, timeout=30) as resp:
        text = resp.read().decode()
    assert "repro_progress_events_total 4" in text
