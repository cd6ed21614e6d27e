"""Figure jobs of the sweep service.

A ``figure`` job drives its harness on the service loop: each point of
the grid the harness yields is a child ``run`` job, which dedupes
against the store and in-flight jobs and spreads over the workers, and
the harness reduces their summaries on the loop.  The payload stays the
figure's table.
"""

import asyncio

import pytest

from repro import api
from repro.service import JobStore, SweepService
from repro.service.jobs import JobStatus

TINY = dict(instructions=3_000, warmup=500)


def drive(coro_fn):
    return asyncio.run(coro_fn())


@pytest.mark.parametrize("workers", [0, 1])
def test_figure_points_dedupe_across_figures_and_runs(tmp_path, workers):
    """fig1 and fig14 on pr share the baseline point: 5 simulations,
    5 point entries + 2 figure tables in the store, and a later run job
    for fig1's point is a store hit.  Neither figure holds a drain slot
    while it waits (workers=0 has only one)."""
    service = SweepService(store=JobStore(root=tmp_path), workers=workers)

    async def body():
        figures = [await service.submit("figure", figure=name,
                                        benchmarks=["pr"], **TINY)
                   for name in ("fig1", "fig14")]
        for job in figures:
            await service.wait(job, timeout=120)
        point = await service.submit("run", benchmark="pr", **TINY)
        await service.close()
        return figures, point

    figures, point = drive(body)
    assert [job.status for job in figures] == [JobStatus.DONE] * 2
    simulated = {job.id for job in service.jobs()
                 if job.spec.kind == "run" and job.source == "run"}
    assert len(simulated) == 5
    assert service.metrics.executed == 7  # 5 points + 2 figure tables
    assert len(service.store.digests()) == 7
    assert point.status is JobStatus.DONE and point.source == "store"
    for job in figures:
        assert job.started_mono is not None
        assert job.finished_mono >= job.started_mono


def test_figure_points_keep_the_figure_place_in_the_queue(tmp_path):
    """With the one worker busy, a figure's point runs before a run job
    submitted after the figure, though the harness submits it later."""
    service = SweepService(store=JobStore(root=tmp_path), workers=1)

    async def body():
        figure = await service.submit("figure", figure="fig1",
                                      benchmarks=["pr"], **TINY)
        busy = await service.submit("run", benchmark="mg",
                                    instructions=20_000, warmup=4_000)
        later = await service.submit("run", benchmark="bfs", **TINY)
        for job in (figure, busy, later):
            await service.wait(job, timeout=120)
        await service.close()
        return figure, later

    figure, later = drive(body)
    (point,) = figure.children
    assert point.started_mono < later.started_mono


@pytest.mark.parametrize("warmup", [TINY["warmup"], 0])
def test_figure_payload_is_the_unbound_figure(tmp_path, warmup):
    kw = dict(benchmarks=["pr", "tc"], instructions=TINY["instructions"],
              warmup=warmup)
    service = SweepService(store=JobStore(root=tmp_path), workers=0)

    async def body():
        job = await service.submit("figure", figure="fig14", **kw)
        await service.wait(job)
        again = await service.submit("figure", figure="fig14", **kw)
        await service.close()
        return job, again

    job, again = drive(body)
    expected = {"kind": "figure", "figure": "fig14",
                "result": api.figure("fig14", **kw).to_dict()}
    assert job.payload == expected
    assert again.source == "store" and again.payload == expected
    kinds = [e["kind"] for e in job.events.snapshot()]
    assert kinds.count("figure-child") == 10
    assert kinds.count("figure-progress") == 10


def test_failing_child_fails_the_figure_and_names_the_point(tmp_path):
    def execute(spec_dict):
        raise RuntimeError("boom")

    service = SweepService(store=JobStore(root=tmp_path), workers=0,
                           execute=execute)

    async def body():
        job = await service.submit("figure", figure="fig1",
                                   benchmarks=["pr"], **TINY)
        await service.wait(job, timeout=60)
        await service.close()
        return job

    job = drive(body)
    assert job.status is JobStatus.FAILED
    assert "point RunKey('pr'" in job.error and "boom" in job.error
    assert not service.store.contains(job.digest)


def test_close_cancels_a_figure_with_points_in_flight(tmp_path):
    service = SweepService(store=JobStore(root=tmp_path), workers=1)

    async def body():
        job = await service.submit("figure", figure="fig14",
                                   benchmarks=["pr"], instructions=20_000,
                                   warmup=4_000)
        while not job.children:
            await asyncio.sleep(0.01)
        (task,) = service._parents
        in_flight = not any(child.status.terminal
                            for child in job.children)
        await asyncio.wait_for(service.close(), timeout=30)
        return job, task, in_flight

    job, task, in_flight = drive(body)
    assert in_flight  # closed with the figure's points still running
    assert task.cancelled()
    assert job.status is not JobStatus.DONE
    assert not service.store.contains(job.digest)


@pytest.mark.parametrize("name", ["fig17", "multicore", "atp_scope"])
def test_mix_and_atp_scope_figures_are_stored_points(tmp_path, name):
    """The SMT, multicore and ATP-scope harnesses yield grids too: every
    point is a child ``run`` job, and a resubmitted child is a store
    hit."""
    kw = dict(instructions=2_000, warmup=500)
    if name == "atp_scope":
        kw["benchmarks"] = ["canneal", "pr"]
    service = SweepService(store=JobStore(root=tmp_path), workers=0)

    async def body():
        job = await service.submit("figure", figure=name, **kw)
        await service.wait(job, timeout=300)
        again = [await service.submit_spec(child.spec)
                 for child in job.children]
        await service.close()
        return job, again

    job, again = drive(body)
    expected = {"kind": "figure", "figure": name,
                "result": api.figure(name, **kw).to_dict()}
    assert job.status is JobStatus.DONE and job.payload == expected
    assert job.children
    assert {child.spec.kind for child in job.children} == {"run"}
    assert [child.source for child in again] == ["store"] * len(again)
