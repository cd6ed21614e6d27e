"""Tests for the sharded content-addressed job store.

The service store is :class:`~repro.experiments.parallel.ResultCache`
grown digest-level access: the two must agree byte-for-byte at the same
digest so figure batches warmed through ``--jobs`` and sweeps submitted
to the service share results.
"""

import json

import pytest

from repro import api
from repro.experiments.parallel import (CACHE_SCHEMA_VERSION, ResultCache,
                                        RunKey, RunSummary, SHARD_WIDTH)
from repro.service import JobStore
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
    store.put_payload(DIGEST, {"x": 1})
    path = store.dir / DIGEST[:SHARD_WIDTH] / f"{DIGEST}.json"
    assert path.is_file()
    assert json.loads(path.read_text()) == {"x": 1}
    assert store.get_payload(DIGEST) == {"x": 1}


def test_distinct_prefixes_get_distinct_shards(store):
    store.put_payload(DIGEST, {"x": 1})
    store.put_payload(OTHER, {"y": 2})
    assert (store.dir / DIGEST[:SHARD_WIDTH]).is_dir()
    assert (store.dir / OTHER[:SHARD_WIDTH]).is_dir()
    assert store.digests() == sorted([DIGEST, OTHER])


def test_pre_sharding_flat_entries_still_readable(store):
    # Entries written by the pre-sharding ResultCache live flat in the
    # fingerprint directory; reads (and contains) must still find them.
    store.dir.mkdir(parents=True, exist_ok=True)
    (store.dir / f"{DIGEST}.json").write_text(json.dumps({"legacy": True}))
    assert store.contains(DIGEST)
    assert store.get_payload(DIGEST) == {"legacy": True}
    assert DIGEST in store.digests()


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_counters_track_hits_misses_stores(store):
    assert store.get_payload(DIGEST) is None
    store.put_payload(DIGEST, {"x": 1})
    store.get_payload(DIGEST)
    assert (store.hits, store.misses, store.stores) == (1, 1, 1)


def test_contains_has_no_counter_side_effects(store):
    store.put_payload(DIGEST, {"x": 1})
    hits, misses = store.hits, store.misses
    assert store.contains(DIGEST)
    assert not store.contains(OTHER)
    assert (store.hits, store.misses) == (hits, misses)


# ----------------------------------------------------------------------
# Manifest (the CI artifact / GET /store document)
# ----------------------------------------------------------------------
def test_manifest_inventory(store):
    store.put_payload(DIGEST, {"x": 1})
    store.get_payload(DIGEST)
    store.get_payload(OTHER)  # miss
    doc = store.manifest()
    assert doc["schema"] == MANIFEST_SCHEMA
    assert doc["cache_schema_version"] == CACHE_SCHEMA_VERSION
    assert doc["shard_width"] == SHARD_WIDTH
    assert doc["entries"] == 1 and doc["digests"] == [DIGEST]
    assert doc["counters"] == {"hits": 1, "misses": 1, "stores": 1}
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
    assert store.get_payload(key.digest) == summary.to_dict()


def test_job_payload_serves_runner_cache(tmp_path):
    key = RunKey.make("tc", instructions=2_000, warmup=500)
    summary = RunSummary.from_run(
        api.run("tc", instructions=2_000, warmup=500), seed=1)
    store = JobStore(root=tmp_path, fingerprint="pinned")
    store.put_payload(key.digest, summary.to_dict())

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
