"""Tests for the HTTP front door and the urllib CLI client.

A real ``ThreadingHTTPServer`` on an ephemeral port, backed by a
``workers=0`` service with a stub executor -- no simulations, no fixed
ports, no sleeps (the event stream's own close signal provides the
synchronisation).
"""

import json
import threading
import urllib.request

import pytest

from repro.service import JobStore, SweepService
from repro.service.cli import (ServiceClientError, follow_events, request,
                               wait_for_job)
from repro.service.http import build_server
from repro.service.store import MANIFEST_SCHEMA

RUN = {"kind": "run", "benchmark": "tc", "instructions": 2000,
       "warmup": 500}


def stub_execute(spec_dict):
    return {"benchmark": spec_dict.get("benchmark"), "stub": True}


@pytest.fixture
def server(tmp_path):
    service = SweepService(store=JobStore(root=tmp_path), workers=0,
                           execute=stub_execute)
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


# ----------------------------------------------------------------------
# Submission round-trip
# ----------------------------------------------------------------------
def test_submit_execute_result_roundtrip(server):
    url, service = server
    accepted = request(url, "/jobs", method="POST", body=RUN)
    assert accepted["kind"] == "run"
    assert accepted["status"] in ("pending", "running", "done")

    final = wait_for_job(url, accepted["id"])
    assert final["status"] == "done"
    assert final["source"] == "run"

    payload = request(url, f"/jobs/{accepted['id']}/result")
    assert payload == {"benchmark": "tc", "stub": True}
    assert request(url, f"/store/{accepted['digest']}") == payload


def test_second_submission_is_store_hit(server):
    url, service = server
    first = request(url, "/jobs", method="POST", body=RUN)
    wait_for_job(url, first["id"])

    second = request(url, "/jobs", method="POST", body=RUN)
    assert second["id"] != first["id"]
    assert second["digest"] == first["digest"]
    assert second["status"] == "done"
    assert second["source"] == "store"
    assert service.metrics.executed == 1
    assert service.metrics.store_hits == 1


def test_bad_spec_is_400(server):
    url, _ = server
    with pytest.raises(ServiceClientError) as exc:
        request(url, "/jobs", method="POST",
                body={"kind": "run", "instructions": 2000})
    assert exc.value.status == 400
    assert "benchmark" in exc.value.document["error"]

    with pytest.raises(ServiceClientError) as exc:
        request(url, "/jobs", method="POST", body={"kind": "warp"})
    assert exc.value.status == 400


@pytest.mark.parametrize("body, named", [
    ({**RUN, "config": {"nonexistent": 1}}, "nonexistent"),
    ({**RUN, "config": {"seed": 3}}, "seed"),
    ({**RUN, "config": {"l1d": {"size_bytes": 100}}}, "L1D"),
    ({**RUN, "config": "notadict"}, "notadict"),
    ({"kind": "scenario", "scenario": "NO-SUCH-SCENARIO"},
     "NO-SUCH-SCENARIO"),
])
def test_spec_whose_identity_cannot_resolve_is_400(server, body, named):
    """A run's config and a scenario's document are resolved when the
    spec is made, so a bad one is a 400 naming it, and nothing is
    registered."""
    url, service = server
    with pytest.raises(ServiceClientError) as exc:
        request(url, "/jobs", method="POST", body=body)
    assert exc.value.status == 400
    assert named in exc.value.document["error"]
    assert service._inflight == {}


def test_non_int_priority_is_400_not_zombie(server):
    url, service = server
    for bad in ("high", True, 2.5):
        with pytest.raises(ServiceClientError) as exc:
            request(url, "/jobs", method="POST",
                    body={**RUN, "priority": bad})
        assert exc.value.status == 400
        assert "priority" in exc.value.document["error"]
    # Nothing was registered: the same spec still submits and runs.
    assert service._inflight == {}
    ok = request(url, "/jobs", method="POST", body=RUN)
    assert wait_for_job(url, ok["id"])["status"] == "done"


def test_unknown_resources_are_404(server):
    url, _ = server
    for path in ("/jobs/job-999999-deadbeef", "/store/" + "f" * 64,
                 "/nope"):
        with pytest.raises(ServiceClientError) as exc:
            request(url, path)
        assert exc.value.status == 404


# ----------------------------------------------------------------------
# Status and health documents
# ----------------------------------------------------------------------
def test_health_reports_metrics_and_store(server):
    url, service = server
    doc = request(url, "/health")
    assert doc["workers"] == 0
    assert doc["queue_size"] == service.queue_size
    assert set(doc["metrics"]) >= {"submitted", "executed", "store_hits",
                                   "dedup_hits", "requeues"}
    assert doc["store"]["dir"] == str(service.store.dir)


def test_jobs_index_lists_every_submission(server):
    url, _ = server
    a = request(url, "/jobs", method="POST", body=RUN)
    b = request(url, "/jobs", method="POST",
                body={**RUN, "benchmark": "mg"})
    wait_for_job(url, a["id"])
    wait_for_job(url, b["id"])
    index = request(url, "/jobs")["jobs"]
    assert {j["id"] for j in index} >= {a["id"], b["id"]}
    assert all(j["status"] == "done" for j in index)


def test_store_manifest_endpoint(server):
    url, _ = server
    job = request(url, "/jobs", method="POST", body=RUN)
    wait_for_job(url, job["id"])
    manifest = request(url, "/store")
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["entries"] == 1
    assert manifest["digests"] == [job["digest"]]


# ----------------------------------------------------------------------
# Event streaming
# ----------------------------------------------------------------------
def test_event_stream_replays_full_lifecycle(server):
    url, _ = server
    job = request(url, "/jobs", method="POST", body=RUN)
    events = list(follow_events(url, job["id"]))
    statuses = [e["status"] for e in events if e.get("kind") == "status"]
    assert statuses == ["pending", "running", "done"]
    assert [e["seq"] for e in events] == list(range(len(events)))


def test_event_stream_resumes_from_offset(server):
    url, _ = server
    job = request(url, "/jobs", method="POST", body=RUN)
    full = list(follow_events(url, job["id"]))
    tail = list(follow_events(url, job["id"], start=2))
    assert tail == full[2:]


def test_event_stream_is_chunked_ndjson(server):
    url, _ = server
    job = request(url, "/jobs", method="POST", body=RUN)
    wait_for_job(url, job["id"])
    req = urllib.request.Request(url + f"/jobs/{job['id']}/events")
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        lines = [line for line in resp if line.strip()]
    assert all(json.loads(line) for line in lines)


# ----------------------------------------------------------------------
# Cancellation over HTTP
# ----------------------------------------------------------------------
def test_cancel_terminal_job_reports_false(server):
    url, _ = server
    job = request(url, "/jobs", method="POST", body=RUN)
    wait_for_job(url, job["id"])
    outcome = request(url, f"/jobs/{job['id']}/cancel", method="POST",
                      body={})
    assert outcome == {"id": job["id"], "cancelled": False,
                       "status": "done"}
    # Cancelled-nothing: the result is still servable.
    assert request(url, f"/jobs/{job['id']}/result")["stub"] is True


def test_result_409_for_unfinished_job(server):
    url, service = server
    job = request(url, "/jobs", method="POST", body=RUN)
    wait_for_job(url, job["id"])
    # A cancelled (never-run) job has no payload: 409, not 200/404.
    doomed_spec = {**RUN, "benchmark": "bfs"}
    doomed = request(url, "/jobs", method="POST", body=doomed_spec)
    # It may already have finished (workers=0 drains fast); only assert
    # the 409 when cancellation actually won the race.
    cancel = request(url, f"/jobs/{doomed['id']}/cancel", method="POST",
                     body={})
    if cancel["cancelled"]:
        with pytest.raises(ServiceClientError) as exc:
            request(url, f"/jobs/{doomed['id']}/result")
        assert exc.value.status == 409
        assert exc.value.document["status"] == "cancelled"
    else:
        wait_for_job(url, doomed["id"])
        assert request(url, f"/jobs/{doomed['id']}/result")


# ----------------------------------------------------------------------
# CLI parser registration (argparse wiring, no HTTP)
# ----------------------------------------------------------------------
def test_service_parsers_register_all_commands():
    import argparse

    from repro.service.cli import add_service_parsers
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    add_service_parsers(sub)
    assert set(sub.choices) == {"serve", "submit", "status", "result",
                                "cancel", "top"}

    args = parser.parse_args(["submit", "run", "tc", "--instructions",
                              "2000", "--warmup", "500", "--priority",
                              "3", "--url", "http://127.0.0.1:1"])
    assert args.kind == "run" and args.benchmark == "tc"
    assert args.instructions == 2000 and args.priority == 3

    args = parser.parse_args(["serve", "--port", "0", "--workers", "0"])
    assert args.port == 0 and args.workers == 0

    with pytest.raises(SystemExit):
        parser.parse_args(["submit", "run", "tc", "--instructions",
                           "-5"])


def test_cli_submit_against_live_server(server, capsys):
    url, _ = server
    import argparse

    from repro.service.cli import add_service_parsers
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    add_service_parsers(sub)

    args = parser.parse_args(["submit", "run", "tc", "--instructions",
                              "2000", "--warmup", "500", "--wait",
                              "--url", url])
    assert args.service_func(args) == 0
    submitted = json.loads(capsys.readouterr().out)
    assert submitted["status"] == "done"

    args = parser.parse_args(["status", submitted["id"], "--url", url])
    assert args.service_func(args) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "done"

    args = parser.parse_args(["result", submitted["id"], "--url", url])
    assert args.service_func(args) == 0
    assert json.loads(capsys.readouterr().out)["stub"] is True

    args = parser.parse_args(["cancel", submitted["id"], "--url", url])
    assert args.service_func(args) == 1  # already done: nothing to do
