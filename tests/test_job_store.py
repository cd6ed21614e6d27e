"""Tests for the sharded content-addressed job store.

The service store is :class:`~repro.experiments.parallel.ResultCache`
(``JobStore`` is a second name for it): a ``RunSummary`` entry and a
job payload at the same digest are the same bytes, so figure points and
sweeps submitted to the service share results.
"""

import asyncio
import io
import json

import pytest

from repro import api
from repro.experiments.parallel import (CACHE_SCHEMA_VERSION, ResultCache,
                                        RunKey, RunSummary, SHARD_WIDTH)
from repro.obs.log import configure_logging
from repro.service import JobStore, SweepService
from repro.service.jobs import JobStatus
from repro.service.store import MANIFEST_SCHEMA

DIGEST = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@pytest.fixture
def store(tmp_path):
    return JobStore(root=tmp_path)


# ----------------------------------------------------------------------
# Sharded layout
# ----------------------------------------------------------------------
def test_payloads_land_in_fanout_shards(store):
    store.put_raw(DIGEST, {"x": 1})
    path = store.dir / DIGEST[:SHARD_WIDTH] / f"{DIGEST}.json"
    assert path.is_file()
    assert json.loads(path.read_text()) == {"x": 1}
    assert store.get_raw(DIGEST) == {"x": 1}


def test_distinct_prefixes_get_distinct_shards(store):
    store.put_raw(DIGEST, {"x": 1})
    store.put_raw(OTHER, {"y": 2})
    assert (store.dir / DIGEST[:SHARD_WIDTH]).is_dir()
    assert (store.dir / OTHER[:SHARD_WIDTH]).is_dir()
    assert store.digests() == sorted([DIGEST, OTHER])


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_counters_track_hits_misses_stores(store):
    assert store.get_raw(DIGEST) is None
    store.put_raw(DIGEST, {"x": 1})
    store.get_raw(DIGEST)
    assert (store.hits, store.misses, store.stores) == (1, 1, 1)


def test_contains_has_no_counter_side_effects(store):
    store.put_raw(DIGEST, {"x": 1})
    hits, misses = store.hits, store.misses
    assert store.contains(DIGEST)
    assert not store.contains(OTHER)
    assert (store.hits, store.misses) == (hits, misses)


# ----------------------------------------------------------------------
# Manifest (the CI artifact / GET /store document)
# ----------------------------------------------------------------------
def test_manifest_inventory(store):
    store.put_raw(DIGEST, {"x": 1})
    store.get_raw(DIGEST)
    store.get_raw(OTHER)  # miss
    doc = store.manifest()
    assert doc["schema"] == MANIFEST_SCHEMA
    assert doc["cache_schema_version"] == CACHE_SCHEMA_VERSION
    assert doc["shard_width"] == SHARD_WIDTH
    assert doc["entries"] == 1 and doc["digests"] == [DIGEST]
    assert doc["counters"] == {"hits": 1, "misses": 1, "stores": 1,
                               "write_errors": 0, "read_errors": 0}
    assert json.loads(json.dumps(doc)) == doc  # JSON-clean


# ----------------------------------------------------------------------
# ResultCache interop: same digest, same bytes
# ----------------------------------------------------------------------
def test_runner_cache_entry_serves_as_job_payload(tmp_path):
    key = RunKey.make("tc", instructions=2_000, warmup=500)
    summary = RunSummary.from_run(
        api.run("tc", instructions=2_000, warmup=500), seed=1)
    cache = ResultCache(root=tmp_path, fingerprint="pinned")
    cache.put(key, summary)

    store = JobStore(root=tmp_path, fingerprint="pinned")
    assert store.contains(key.digest)
    assert store.get_raw(key.digest) == summary.to_dict()


def test_job_payload_serves_runner_cache(tmp_path):
    key = RunKey.make("tc", instructions=2_000, warmup=500)
    summary = RunSummary.from_run(
        api.run("tc", instructions=2_000, warmup=500), seed=1)
    store = JobStore(root=tmp_path, fingerprint="pinned")
    store.put_raw(key.digest, summary.to_dict())

    cache = ResultCache(root=tmp_path, fingerprint="pinned")
    cached = cache.get(key)
    assert cached is not None
    assert cached.to_dict() == summary.to_dict()


# ----------------------------------------------------------------------
# Failed writes
# ----------------------------------------------------------------------
def _fail_replace(src, dst):
    raise OSError("simulated rename failure")


@pytest.mark.parametrize("failure", ["replace", "dump"])
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, failure):
    cache = ResultCache(root=tmp_path, fingerprint="pinned")
    if failure == "replace":
        monkeypatch.setattr("repro.experiments.parallel.os.replace",
                            _fail_replace)
        cache.put_raw(DIGEST, {"x": 1})  # OSError is still swallowed
    else:
        with pytest.raises(TypeError):
            cache.put_raw(DIGEST, {"x": object()})
    assert list(cache.dir.rglob("*.tmp")) == []
    assert not cache.contains(DIGEST) and cache.stores == 0


# ----------------------------------------------------------------------
# Storage failures are counted and logged, never silent
# ----------------------------------------------------------------------
@pytest.fixture
def log_sink():
    sink = io.StringIO()
    configure_logging(True, stream=sink)
    yield sink
    configure_logging(False, stream=io.StringIO())


def _records(sink):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def _fail_write(digest, document):
    raise OSError("disk full")


def test_failed_write_is_counted_and_logged(store, monkeypatch, log_sink):
    monkeypatch.setattr(store, "_write", _fail_write)
    store.put_raw(DIGEST, {"x": 1})  # returns: the result is still in hand
    assert (store.write_errors, store.stores) == (1, 0)
    assert store.manifest()["counters"]["write_errors"] == 1
    (record,) = _records(log_sink)
    assert record["component"] == "store"
    assert record["event"] == "store-write-error"
    assert record["digest"] == DIGEST and "disk full" in record["error"]


def test_corrupt_entry_is_a_counted_read_error(store, log_sink):
    path = store.path_for(DIGEST)
    path.parent.mkdir(parents=True)
    path.write_text('{"truncated": ')
    assert store.get_raw(DIGEST) is None
    assert (store.read_errors, store.misses) == (1, 1)
    assert store.manifest()["counters"]["read_errors"] == 1
    (record,) = _records(log_sink)
    assert record["event"] == "store-read-error"
    assert record["digest"] == DIGEST


def test_undecodable_summary_is_a_counted_read_error(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="pinned")
    key = RunKey.make("tc", instructions=2_000, warmup=500)
    cache.put_raw(key, {"not": "a run summary"})
    assert cache.get(key) is None
    assert (cache.read_errors, cache.misses) == (1, 1)


def test_absent_entry_is_a_plain_miss(store, log_sink):
    assert store.get_raw(DIGEST) is None
    assert (store.read_errors, store.misses) == (0, 1)
    assert _records(log_sink) == []


def test_health_store_block_shows_failure_counters(store, monkeypatch):
    monkeypatch.setattr(store, "_write", _fail_write)
    store.put_raw(DIGEST, {"x": 1})
    block = SweepService(store=store, workers=0).describe()["store"]
    assert (block["write_errors"], block["read_errors"]) == (1, 0)


def _run_job(store):
    """One ``run`` job through an inline service on ``store``."""
    service = SweepService(store=store, workers=0,
                           execute=lambda spec: {"x": 1})

    async def body():
        job = await service.submit("run", benchmark="tc",
                                   instructions=2_000, warmup=500)
        await service.wait(job)
        await service.close()
        return job
    return asyncio.run(body())


def test_unstored_job_is_done_but_flagged(store, monkeypatch, log_sink):
    monkeypatch.setattr(store, "_write", _fail_write)
    job = _run_job(store)
    # The payload is valid, so the job is DONE; it says it was not kept.
    assert job.status is JobStatus.DONE and job.payload == {"x": 1}
    assert job.describe()["persisted"] is False
    assert store.write_errors == 1
    (done,) = [e for e in job.events.snapshot() if e.get("status") == "done"]
    assert done["persisted"] is False
    records = [r for r in _records(log_sink)
               if r["event"] == "job-not-persisted"]
    assert [(r["job"], r["digest"]) for r in records] == [(job.id,
                                                           job.digest)]


def test_stored_job_is_persisted(store):
    job = _run_job(store)
    assert job.describe()["persisted"] is True
    assert store.write_errors == 0 and store.contains(job.digest)
