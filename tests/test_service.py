"""Tests for the asyncio sweep service (queue, dedupe, retries, sweeps).

Everything here drives the service deterministically: ``workers=0``
(inline execution on the event loop), injected ``execute`` stubs, and
explicit ``await``s instead of wall-clock sleeps.  The three dedupe
horizons, worker-loss requeueing and sweep resumption are the ISSUE's
acceptance surface.
"""

import asyncio
from concurrent.futures import BrokenExecutor

import pytest

from repro.service import JobStore, ServiceSaturated, SweepService
from repro.service.jobs import (Job, JobError, JobSpec, JobStatus,
                                point_spec)

RUN = dict(benchmark="tc", instructions=2_000, warmup=500)


class RecordingExecutor:
    """Deterministic ``execute`` stub: records call order, can fail."""

    def __init__(self, broken_for=(), broken_times=0, raises=None):
        self.calls = []
        self.broken_for = set(broken_for)
        self.broken_times = broken_times
        self.raises = raises

    def __call__(self, spec_dict):
        name = spec_dict.get("benchmark") or spec_dict.get("kind")
        self.calls.append(name)
        if self.raises is not None:
            raise self.raises
        if name in self.broken_for and self.broken_times > 0:
            self.broken_times -= 1
            raise BrokenExecutor(f"worker died on {name}")
        return {"benchmark": name, "calls": len(self.calls)}


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("store", JobStore(root=tmp_path))
    kwargs.setdefault("execute", RecordingExecutor())
    return SweepService(workers=0, **kwargs)


def drive(coro_fn):
    """Run an async test body to completion on a fresh loop."""
    return asyncio.run(coro_fn())


# ----------------------------------------------------------------------
# Dedupe: store hit > in-flight attach > queue
# ----------------------------------------------------------------------
def test_concurrent_identical_submits_execute_once(tmp_path):
    service = make_service(tmp_path)

    async def body():
        await service.start()
        # Submitted back-to-back with no scheduling point in between:
        # all five land before the drain task runs once.
        jobs = await asyncio.gather(
            *(service.submit("run", **RUN) for _ in range(5)))
        await service.wait(jobs[0])
        await service.close()
        return jobs

    jobs = drive(body)
    assert len({job.id for job in jobs}) == 1  # all folded into one
    assert jobs[0].status is JobStatus.DONE
    assert jobs[0].dedup_hits == 4
    assert service.metrics.executed == 1
    assert service.metrics.dedup_hits == 4
    assert service._execute.calls == ["tc"]
    # Every handle fans out the same payload object.
    assert all(j.payload == jobs[0].payload for j in jobs)


def test_store_hit_survives_service_restart(tmp_path):
    first = make_service(tmp_path)

    async def warm():
        job = await first.submit("run", **RUN)
        await first.wait(job)
        await first.close()
        return job

    warmed = drive(warm)
    assert warmed.source == "run"

    second = make_service(tmp_path)

    async def resubmit():
        job = await second.submit("run", **RUN)
        await second.close()
        return job

    job = drive(resubmit)
    assert job.status is JobStatus.DONE and job.source == "store"
    assert job.payload == warmed.payload
    assert second.metrics.store_hits == 1
    assert second._execute.calls == []  # nothing executed


def test_distinct_specs_execute_separately(tmp_path):
    service = make_service(tmp_path)

    async def body():
        a = await service.submit("run", **RUN)
        b = await service.submit("run", benchmark="mg",
                                 instructions=2_000, warmup=500)
        await service.wait(a)
        await service.wait(b)
        await service.close()
        return a, b

    a, b = drive(body)
    assert a.digest != b.digest
    assert service.metrics.executed == 2


# ----------------------------------------------------------------------
# Priorities
# ----------------------------------------------------------------------
def test_lower_priority_number_runs_first(tmp_path):
    service = make_service(tmp_path)

    async def body():
        await service.start()
        # Queued before the single drain task gets a scheduling point.
        low = await service.submit("run", benchmark="tc", priority=20,
                                   instructions=2_000, warmup=500)
        high = await service.submit("run", benchmark="mg", priority=1,
                                    instructions=2_000, warmup=500)
        mid = await service.submit("run", benchmark="bfs", priority=10,
                                   instructions=2_000, warmup=500)
        for job in (low, high, mid):
            await service.wait(job)
        await service.close()

    drive(body)
    assert service._execute.calls == ["mg", "bfs", "tc"]


# ----------------------------------------------------------------------
# Back-pressure
# ----------------------------------------------------------------------
def test_nowait_submit_raises_when_saturated(tmp_path):
    service = make_service(tmp_path, queue_size=1)

    async def body():
        await service.start()
        ok = await service.submit("run", wait=False, **RUN)
        with pytest.raises(ServiceSaturated, match="retry later"):
            await service.submit("run", benchmark="mg", wait=False,
                                 instructions=2_000, warmup=500)
        await service.wait(ok)
        await service.close()
        return ok

    ok = drive(body)
    assert ok.status is JobStatus.DONE
    # The rejected job is dropped terminally, not leaked in-flight.
    dropped = [j for j in service.jobs() if j is not ok]
    assert len(dropped) == 1
    assert dropped[0].status is JobStatus.CANCELLED
    assert "back-pressure" in dropped[0].error
    assert service._inflight == {}
    # Saturation is a rejection, not a user cancellation.
    assert service.metrics.rejected == 1
    assert service.metrics.cancelled == 0


def test_waiting_submit_suspends_until_slot_frees(tmp_path):
    service = make_service(tmp_path, queue_size=1)

    async def body():
        await service.start()
        first = await service.submit("run", wait=False, **RUN)
        # The queue is full; a waiting submit must suspend, then land
        # once the drain task frees the slot.
        blocked = asyncio.ensure_future(
            service.submit("run", benchmark="mg", instructions=2_000,
                           warmup=500))
        assert not blocked.done()
        # Unlike wait=False this does not raise ServiceSaturated: it
        # suspends until the drain task frees the slot.
        second = await blocked
        await service.wait(first)
        await service.wait(second)
        await service.close()
        return first, second

    first, second = drive(body)
    assert first.status is JobStatus.DONE
    assert second.status is JobStatus.DONE
    assert service._execute.calls == ["tc", "mg"]


# ----------------------------------------------------------------------
# Worker loss: requeued, not lost
# ----------------------------------------------------------------------
def test_killed_worker_requeues_job(tmp_path):
    service = make_service(
        tmp_path, max_attempts=2,
        execute=RecordingExecutor(broken_for={"tc"}, broken_times=1))

    async def body():
        job = await service.submit("run", **RUN)
        await service.wait(job)
        await service.close()
        return job

    job = drive(body)
    assert job.status is JobStatus.DONE
    assert job.attempts == 2
    assert service.metrics.requeues == 1
    assert service.metrics.executed == 1
    assert service._execute.calls == ["tc", "tc"]
    kinds = [e["kind"] for e in job.events.snapshot()]
    assert "requeue" in kinds


def test_worker_loss_exhausts_attempts_then_fails(tmp_path):
    service = make_service(
        tmp_path, max_attempts=2,
        execute=RecordingExecutor(broken_for={"tc"}, broken_times=99))

    async def body():
        job = await service.submit("run", **RUN)
        await service.wait(job)
        await service.close()
        return job

    job = drive(body)
    assert job.status is JobStatus.FAILED
    assert "worker lost" in job.error
    assert job.attempts == 2
    assert service.metrics.requeues == 1
    assert service.metrics.failures == 1
    assert not service.store.contains(job.digest)  # nothing stored


def test_requeue_against_full_queue_retries_inline(tmp_path):
    # The drain task is the queue's only consumer: a blocking put on
    # requeue would deadlock when the queue is full.  The service must
    # fall back to retrying the job inline instead.
    service = make_service(
        tmp_path, queue_size=1, max_attempts=3,
        execute=RecordingExecutor(broken_for={"tc"}, broken_times=2))

    async def body():
        await service.start()
        for task in service._tasks:  # park the drain: we drive by hand
            task.cancel()
        blocker = await service.submit("run", benchmark="mg",
                                       instructions=2_000, warmup=500)
        job = Job(spec=JobSpec.make("run", **RUN))
        service._register(job)
        service._inflight[job.digest] = job
        # Queue full the whole time; bounded so a regression to a
        # blocking put fails fast instead of hanging the suite.
        await asyncio.wait_for(service._run_one(job), timeout=10)
        queued = blocker.status
        await service.close()
        return blocker, queued, job

    blocker, queued, job = drive(body)
    assert queued is JobStatus.PENDING  # still queued, untouched
    assert blocker.status is JobStatus.CANCELLED  # ended by close()
    assert job.status is JobStatus.DONE
    assert job.attempts == 3
    assert service.metrics.requeues == 2
    assert service._execute.calls == ["tc", "tc", "tc"]


def test_job_exception_is_terminal_not_retried(tmp_path):
    service = make_service(
        tmp_path, execute=RecordingExecutor(
            raises=ValueError("bad workload")))

    async def body():
        job = await service.submit("run", **RUN)
        await service.wait(job)
        await service.close()
        return job

    job = drive(body)
    assert job.status is JobStatus.FAILED
    assert job.attempts == 1
    assert "bad workload" in job.error
    assert service.metrics.requeues == 0


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_pending_job_skips_execution(tmp_path):
    service = make_service(tmp_path)

    async def body():
        await service.start()
        doomed = await service.submit("run", **RUN)
        assert service.cancel(doomed)  # still queued: cancellable
        kept = await service.submit("run", benchmark="mg",
                                    instructions=2_000, warmup=500)
        await service.wait(doomed)
        await service.wait(kept)
        await service.close()
        return doomed, kept

    doomed, kept = drive(body)
    assert doomed.status is JobStatus.CANCELLED
    assert kept.status is JobStatus.DONE
    assert service._execute.calls == ["mg"]  # doomed never executed
    assert service.metrics.cancelled == 1


def test_sweep_cancel_spares_unrelated_jobs(tmp_path):
    service = make_service(tmp_path)

    async def body():
        await service.start()
        sweep = await service.submit("sweep", runs=["tc", "mg"],
                                     instructions=2_000, warmup=500)
        # One scheduling point: the sweep task expands its children
        # into the queue, the drain task has not consumed them yet.
        await asyncio.sleep(0)
        bystander = await service.submit("run", benchmark="fft",
                                         instructions=2_000, warmup=500)
        assert bystander.status is JobStatus.PENDING
        assert service.cancel(sweep)
        # The sweep's own pending children die with it; the unrelated
        # pending job does not.
        assert bystander.status is JobStatus.PENDING
        await service.wait(bystander)
        await service.wait(sweep)
        await service.close()
        return sweep, bystander

    sweep, bystander = drive(body)
    assert sweep.status is JobStatus.CANCELLED
    assert len(sweep.children) == 2
    assert all(c.status is JobStatus.CANCELLED for c in sweep.children)
    assert bystander.status is JobStatus.DONE
    assert service._execute.calls == ["fft"]
    assert service.metrics.cancelled == 3  # sweep + its two children


def test_cancel_before_sweep_expansion_cancels_nothing_else(tmp_path):
    service = make_service(tmp_path)

    async def body():
        await service.start()
        bystander = await service.submit("run", **RUN)
        sweep = await service.submit("sweep", runs=["mg", "bfs"],
                                     instructions=2_000, warmup=500)
        # No scheduling point yet: the sweep has not expanded, the
        # bystander is still queued.  Cancelling must touch only the
        # (childless) sweep.
        assert service.cancel(sweep)
        await service.wait(bystander)
        await service.wait(sweep)
        await service.close()
        return sweep, bystander

    sweep, bystander = drive(body)
    assert sweep.status is JobStatus.CANCELLED
    assert sweep.children == []
    assert bystander.status is JobStatus.DONE
    assert service._execute.calls == ["tc"]
    assert service.metrics.cancelled == 1


def test_cancel_terminal_job_is_refused(tmp_path):
    service = make_service(tmp_path)

    async def body():
        job = await service.submit("run", **RUN)
        await service.wait(job)
        refused = service.cancel(job)
        await service.close()
        return job, refused

    job, refused = drive(body)
    assert job.status is JobStatus.DONE
    assert refused is False


# ----------------------------------------------------------------------
# Sweeps: expansion, resumption, store skip
# ----------------------------------------------------------------------
SWEEP = dict(runs=["tc", "mg", "bfs"], instructions=2_000, warmup=500)


def test_sweep_executes_children_and_stores_itself(tmp_path):
    service = make_service(tmp_path)

    async def body():
        job = await service.submit("sweep", **SWEEP)
        await service.wait(job)
        await service.close()
        return job

    job = drive(body)
    assert job.status is JobStatus.DONE
    assert sorted(service._execute.calls) == ["bfs", "mg", "tc"]
    assert job.payload["total"] == 3
    assert job.payload["skipped"] == []
    assert len(job.payload["completed"]) == 3
    assert service.store.contains(job.digest)
    # Every child digest is store-resident and JSON-addressable.
    for digest in job.payload["completed"]:
        assert service.store.contains(digest)


def test_resumed_partial_sweep_skips_completed_digests(tmp_path):
    # First attempt: the "mg" child's worker keeps dying, so the sweep
    # fails but "tc" and "bfs" land in the store.
    broken = make_service(
        tmp_path, max_attempts=2,
        execute=RecordingExecutor(broken_for={"mg"}, broken_times=99))

    async def partial():
        job = await broken.submit("sweep", **SWEEP)
        await broken.wait(job)
        await broken.close()
        return job

    failed = drive(partial)
    assert failed.status is JobStatus.FAILED
    assert len(failed.payload["failed"]) == 1
    assert len(failed.payload["completed"]) == 2
    # A partial sweep is NOT stored: resubmission must re-expand.
    assert not broken.store.contains(failed.digest)

    # Second attempt (fresh service, healed workers, same store): only
    # the missing child executes; the rest are skipped from the store.
    healed = make_service(tmp_path)

    async def resume():
        job = await healed.submit("sweep", **SWEEP)
        await healed.wait(job)
        await healed.close()
        return job

    resumed = drive(resume)
    assert resumed.status is JobStatus.DONE
    assert healed._execute.calls == ["mg"]  # only the gap
    assert len(resumed.payload["skipped"]) == 2
    assert len(resumed.payload["completed"]) == 3
    assert healed.metrics.store_hits == 2
    assert healed.metrics.executed == 2  # the child + the sweep itself
    assert healed.store.contains(resumed.digest)
    kinds = [e["kind"] for e in resumed.events.snapshot()]
    assert kinds.count("sweep-skip") == 2

    # Third attempt: the whole sweep is now a store hit.
    warm = make_service(tmp_path)

    async def rehit():
        job = await warm.submit("sweep", **SWEEP)
        await warm.close()
        return job

    hit = drive(rehit)
    assert hit.status is JobStatus.DONE and hit.source == "store"
    assert warm._execute.calls == []


def test_bad_sweep_fails_loudly(tmp_path):
    service = make_service(tmp_path)

    async def body():
        with pytest.raises(JobError, match="non-empty 'runs'"):
            await service.submit("sweep", runs=[])
        await service.close()

    drive(body)


# ----------------------------------------------------------------------
# Retention: terminal jobs are pruned, results stay store-addressable
# ----------------------------------------------------------------------
def test_terminal_jobs_pruned_beyond_retention(tmp_path):
    service = make_service(tmp_path, retention=2)

    async def body():
        jobs = []
        for bench in ("tc", "mg", "bfs", "fft"):
            job = await service.submit("run", benchmark=bench,
                                       instructions=2_000, warmup=500)
            await service.wait(job)
            jobs.append(job)
        await service.close()
        return jobs

    jobs = drive(body)
    assert all(j.status is JobStatus.DONE for j in jobs)
    kept = {jobs[-2].id, jobs[-1].id}
    assert set(service._jobs) == kept
    assert set(service._done_events) == kept
    # Pruned jobs' payloads remain addressable by digest.
    for job in jobs:
        assert service.store.contains(job.digest)
    # Waiting on a pruned job returns immediately (it is terminal).
    assert drive(lambda: service.wait(jobs[0])) is jobs[0]


def test_retention_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="retention"):
        SweepService(store=JobStore(root=tmp_path), retention=0)


# ----------------------------------------------------------------------
# Spec validation and identity
# ----------------------------------------------------------------------
def test_unknown_kind_rejected():
    # "bench" was a kind until the timed bench matrix left the package.
    for kind in ("frobnicate", "bench"):
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec.make(kind)


def test_missing_required_field_rejected():
    with pytest.raises(JobError, match="needs 'benchmark'"):
        JobSpec.make("run")


def test_run_spec_names_a_mix():
    """A run spec names one benchmark, or the threads of an SMT pair or
    the cores of a multicore mix; a mix key round-trips to its spec."""
    spec = JobSpec.make("run", threads=["pr", "cc"], seed=7)
    key = spec.run_key()
    assert (key.benchmark, key.threads, key.cores) \
        == ("pr+cc", ("pr", "cc"), None)
    assert point_spec(key).digest == spec.digest == key.digest
    assert JobSpec.make("run", cores=["pr", "cc"], seed=7).digest \
        != spec.digest
    with pytest.raises(JobError, match="exactly one"):
        JobSpec.make("run", benchmark="pr", threads=["pr", "cc"])
    with pytest.raises(JobError, match="non-empty list"):
        JobSpec.make("run", cores=[])


def test_non_positive_int_rejected():
    with pytest.raises(JobError, match="positive integer"):
        JobSpec.make("run", benchmark="tc", instructions=0)


def test_zero_warmup_and_seed_accepted():
    key = JobSpec.make("run", benchmark="tc", warmup=0, seed=0).run_key()
    assert (key.warmup, key.seed) == (0, 0)
    for name in ("warmup", "seed"):
        with pytest.raises(JobError, match="non-negative integer"):
            JobSpec.make("run", benchmark="tc", **{name: -1})


def test_non_int_priority_rejected_before_registration(tmp_path):
    # A str (or bool) priority would poison the heap's tuple ordering;
    # it must be rejected before the job lands in _inflight, or every
    # later identical submission dedupe-attaches to a zombie.
    service = make_service(tmp_path)

    async def body():
        for bad in ("high", 1.5, True):
            with pytest.raises(JobError, match="priority"):
                await service.submit("run", priority=bad, **RUN)
        assert service._inflight == {}
        assert service._jobs == {}
        ok = await service.submit("run", **RUN)
        await service.wait(ok)
        await service.close()
        return ok

    ok = drive(body)
    assert ok.status is JobStatus.DONE


def test_scenario_spec_rejects_config_overlay():
    with pytest.raises(JobError, match="scenario document"):
        JobSpec.make("scenario", scenario="baseline-vs-full",
                     config={"stlb_entries": 64})


def test_figure_spec_rejects_unknown_figure():
    with pytest.raises(JobError, match="unknown figure 'fig99'"):
        JobSpec.make("figure", figure="fig99")
    with pytest.raises(JobError, match="unknown figure"):
        JobSpec.make("figure", figure=["fig14"])


def test_figure_spec_rejects_benchmarks_on_a_mix_study():
    for name in ("fig17", "multicore"):
        with pytest.raises(JobError, match="takes no 'benchmarks'"):
            JobSpec.make("figure", figure=name, benchmarks=["pr"])
    JobSpec.make("figure", figure="fig14", benchmarks=["pr"])


def test_spec_roundtrips_through_dict():
    spec = JobSpec.make("run", benchmark="tc", instructions=2_000,
                        warmup=500, config={"l2c_prefetcher": "spp"})
    again = JobSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.digest == spec.digest
    assert hash(again) == hash(spec)  # frozen + hashable


def test_run_spec_digest_is_runkey_digest():
    spec = JobSpec.make("run", benchmark="tc", instructions=2_000,
                        warmup=500)
    assert spec.digest == spec.run_key().digest


def test_sweep_children_inherit_shared_params():
    spec = JobSpec.make("sweep", runs=["tc", {"benchmark": "mg",
                                              "seed": 7}],
                        instructions=2_000, warmup=500)
    children = spec.sweep_children()
    assert [c.kind for c in children] == ["run", "run"]
    assert children[0].to_dict()["benchmark"] == "tc"
    assert children[0].to_dict()["instructions"] == 2_000
    assert children[1].to_dict()["seed"] == 7
    assert children[1].to_dict()["warmup"] == 500


# ----------------------------------------------------------------------
# Real spec execution (the non-run branches; runs are covered by the
# api-surface roundtrip test)
# ----------------------------------------------------------------------
def test_execute_spec_trace_branch():
    from repro.service.core import execute_spec
    doc = execute_spec(JobSpec.make("trace", benchmark="tc",
                                    instructions=2_000,
                                    warmup=500).to_dict())
    assert doc["kind"] == "trace" and doc["benchmark"] == "tc"
    assert doc["document"]


def test_execute_spec_scenario_is_bare_summary():
    from repro.service.core import execute_spec
    spec = JobSpec.make("scenario", scenario="SYN-01-STLB-THRASH",
                        instructions=3_000, warmup=500)
    payload = execute_spec(spec.to_dict())
    # Bare RunSummary dict: interchangeable with ResultCache entries.
    assert payload["cycles"] > 0 and payload["instructions"] > 0
    from repro.experiments.parallel import RunSummary
    assert RunSummary.from_dict(payload).ipc > 0


def test_execute_spec_rejects_unknown_kind():
    from repro.service.core import execute_spec
    with pytest.raises(JobError, match="unknown job kind"):
        execute_spec({"kind": "warp", "benchmark": "tc"})


def test_event_stream_is_ordered_and_closed(tmp_path):
    service = make_service(tmp_path)

    async def body():
        job = await service.submit("run", **RUN)
        await service.wait(job)
        await service.close()
        return job

    job = drive(body)
    events = job.events.snapshot()
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert job.events.closed
