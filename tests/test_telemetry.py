"""Tests for repro.obs.telemetry (registry, exposition, validation)
and repro.obs.log (structured JSON-lines logging)."""

import io
import json
import threading

import pytest

from repro.obs.log import configure_logging, get_logger
from repro.obs.telemetry import (TELEMETRY_SCHEMA, Counter, Gauge,
                                 Histogram, TelemetryRegistry,
                                 validate_telemetry)


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
def test_counter_is_monotonic():
    c = Counter("jobs_total")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 5


def test_gauge_set_inc_dec_and_callback():
    backing = [3]
    live = Gauge("live", fn=lambda: backing[0])
    assert live.value == 3.0
    backing[0] = 9
    assert live.value == 9.0


def test_callback_gauge_failure_reads_zero_not_raise():
    def boom():
        raise RuntimeError("service mid-teardown")
    g = Gauge("flaky", fn=boom)
    assert g.value == 0.0


def test_histogram_cumulative_buckets_and_inf():
    h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    series = h.series()
    assert series["count"] == 5
    assert series["sum"] == pytest.approx(56.05)
    assert series["buckets"] == [[0.1, 1], [1.0, 3], [10.0, 4],
                                 ["+Inf", 5]]


def test_histogram_rejects_bad_buckets():
    for bad in ((), (1.0, 0.5), (1.0, 1.0)):
        with pytest.raises(ValueError):
            Histogram("x", buckets=bad)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_is_idempotent():
    reg = TelemetryRegistry()
    a = reg.counter("jobs_total", help="jobs")
    b = reg.counter("jobs_total")
    assert a is b
    a.inc()
    assert b.value == 1


def test_registry_labels_distinguish_series():
    reg = TelemetryRegistry()
    run = reg.gauge("state", labels={"state": "running"}, fn=lambda: 1)
    done = reg.gauge("state", labels={"state": "done"}, fn=lambda: 2)
    assert run is not done
    assert reg.gauge("state", labels={"state": "running"},
                     fn=lambda: 1) is run


def test_registry_kind_conflict_raises():
    reg = TelemetryRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x", fn=lambda: 0)


def test_registry_concurrent_increments_are_lossless():
    reg = TelemetryRegistry()
    c = reg.counter("n")

    def bump():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000


# ----------------------------------------------------------------------
# Snapshot schema + validation
# ----------------------------------------------------------------------
def make_registry():
    reg = TelemetryRegistry()
    reg.counter("repro_jobs_total", help="jobs").inc(3)
    reg.gauge("repro_depth", fn=lambda: 2)
    reg.gauge("repro_state", labels={"state": "done"}, fn=lambda: 1)
    reg.histogram("repro_wait_seconds",
                  buckets=(0.1, 1.0)).observe(0.5)
    return reg


def test_snapshot_validates_and_round_trips_json():
    doc = make_registry().snapshot()
    assert doc["schema"] == TELEMETRY_SCHEMA
    assert validate_telemetry(doc) == []
    assert validate_telemetry(json.loads(json.dumps(doc))) == []
    names = {s["name"] for s in doc["series"]}
    assert names == {"repro_jobs_total", "repro_depth", "repro_state",
                     "repro_wait_seconds"}


@pytest.mark.parametrize("mutate, problem", [
    (lambda d: d.update(schema="nope"), "schema"),
    (lambda d: d.update(series="x"), "series"),
    (lambda d: d["series"][0].update(type="warp"), "bad type"),
    (lambda d: d["series"][0].update(value="three"), "non-numeric"),
    (lambda d: d["series"][3]["buckets"].pop(), "+Inf"),
    (lambda d: d["series"][3].update(count=99), "+Inf bucket"),
])
def test_validator_flags_each_break(mutate, problem):
    doc = make_registry().snapshot()
    doc["series"].sort(key=lambda s: s["name"])
    mutate(doc)
    problems = validate_telemetry(doc)
    assert problems and any(problem in p for p in problems)


def test_negative_counter_is_invalid():
    doc = {"schema": TELEMETRY_SCHEMA,
           "series": [{"name": "n", "type": "counter", "labels": {},
                       "value": -1}]}
    assert any("negative" in p for p in validate_telemetry(doc))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def test_prometheus_rendering_shape():
    text = make_registry().render_prometheus()
    lines = text.splitlines()
    assert "# TYPE repro_jobs_total counter" in lines
    assert "repro_jobs_total 3" in lines
    assert "# TYPE repro_depth gauge" in lines
    assert "repro_depth 2" in lines
    assert 'repro_state{state="done"} 1' in lines
    assert 'repro_wait_seconds_bucket{le="0.1"} 0' in lines
    assert 'repro_wait_seconds_bucket{le="1"} 1' in lines
    assert 'repro_wait_seconds_bucket{le="+Inf"} 1' in lines
    assert "repro_wait_seconds_sum 0.5" in lines
    assert "repro_wait_seconds_count 1" in lines
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    reg = TelemetryRegistry()
    reg.gauge("g", labels={"k": 'a"b\\c\nd'}, fn=lambda: 1)
    text = reg.render_prometheus()
    assert r'g{k="a\"b\\c\nd"} 1' in text


# ----------------------------------------------------------------------
# Structured logging (repro.obs.log)
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def reset_log_plane():
    yield
    configure_logging(False, stream=io.StringIO())


def test_logging_is_quiet_by_default(capsys):
    configure_logging(False, stream=io.StringIO())
    assert get_logger("test").emit("nothing", x=1) is None
    assert capsys.readouterr().err == ""


def test_log_records_are_json_lines_with_run_id():
    sink = io.StringIO()
    run_id = configure_logging(True, stream=sink)
    log = get_logger("service")
    record = log.emit("job-submitted", job="job-1", digest="ab" * 4)
    log.emit("job-done", job="job-1")
    lines = [json.loads(line) for line in
             sink.getvalue().splitlines()]
    assert len(lines) == 2
    assert lines[0]["event"] == "job-submitted"
    assert lines[0]["component"] == "service"
    assert lines[0]["run_id"] == run_id
    assert lines[0]["job"] == "job-1"
    assert {"t_wall", "t_mono"} <= set(lines[0])
    assert lines[1]["t_mono"] >= lines[0]["t_mono"]
    assert record["event"] == "job-submitted"


def test_log_to_path_and_explicit_run_id(tmp_path):
    path = tmp_path / "service.jsonl"
    run_id = configure_logging(True, path=path, run_id="svc-fixed")
    assert run_id == "svc-fixed"
    get_logger("http").emit("http-get", path="/health")
    configure_logging(False, stream=io.StringIO())  # close the file
    rows = [json.loads(line) for line in
            path.read_text().splitlines()]
    assert rows[0]["run_id"] == "svc-fixed"
    assert rows[0]["component"] == "http"


def test_log_stream_and_path_are_exclusive(tmp_path):
    with pytest.raises(ValueError):
        configure_logging(True, stream=io.StringIO(),
                          path=tmp_path / "x.jsonl")


def test_broken_sink_never_raises():
    sink = io.StringIO()
    sink.close()
    configure_logging(True, stream=sink)
    assert get_logger("service").emit("event") is not None
