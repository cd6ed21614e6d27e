#!/usr/bin/env python
"""End-to-end smoke test of the sweep service (`make serve-smoke`).

Boots the HTTP service on an ephemeral port against a throwaway store,
then drives it exactly the way a user would:

1. submit a tiny run over HTTP, scrape ``GET /metrics`` while it is in
   flight, and wait on its event stream;
2. submit a scenario the same way;
3. resubmit the identical run and assert it is a *store hit* that
   executed nothing (the same-RunKey-executes-once acceptance check);
4. submit a tiny ``figure`` job, then a ``run`` job for one of the
   figure's points, and assert that run is a store hit (figure points
   are ordinary run jobs);
5. assert the run payload is bit-identical to a direct ``api.run``, and
   that the run, forwarding progress from a pool worker, kept the
   core's fast path;
6. assert the telemetry plane: the ``/health`` telemetry block
   validates against ``repro.obs/telemetry-v1``, ``/metrics`` parses as
   Prometheus text with the queue/latency/dedupe series, at least one
   ``job-progress`` event arrived on the run's stream, and the final
   progress row agrees with the stored ``RunSummary``;
7. write the store manifest and a telemetry snapshot to
   ``service-artifacts/`` (CI uploads them).

Exits non-zero on any violated expectation.  Stdlib + repro only.
"""

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

INSTRUCTIONS = 20_000
WARMUP = 4_000
RUN_SPEC = {"kind": "run", "benchmark": "tc",
            "instructions": INSTRUCTIONS, "warmup": WARMUP}
SCENARIO_SPEC = {"kind": "scenario", "scenario": "SYN-01-STLB-THRASH",
                 "instructions": 6_000, "warmup": 1_000}
FIGURE_SPEC = {"kind": "figure", "figure": "fig1", "benchmarks": ["pr"],
               "instructions": 6_000, "warmup": 1_000}
#: fig1's one point on ``pr``: the default config at the figure's ROI.
FIGURE_POINT_SPEC = {"kind": "run", "benchmark": "pr",
                     "instructions": 6_000, "warmup": 1_000}

REQUIRED_SERIES = ("repro_jobs_submitted_total",
                   "repro_jobs_executed_total",
                   "repro_store_hits_total", "repro_dedup_hits_total",
                   "repro_queue_depth", "repro_inflight_jobs",
                   "repro_job_wait_seconds_bucket",
                   "repro_job_run_seconds_count")


def parse_prometheus(text):
    """Parse exposition text; return {series name} or raise ValueError."""
    names = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, sep, value = line.rpartition(" ")
        if not sep:
            raise ValueError(f"unparseable line: {line!r}")
        float(value)  # must be numeric
        names.add(name_part.split("{", 1)[0])
    return names


def scrape_metrics(url):
    import urllib.request
    req = urllib.request.Request(url + "/metrics")
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.headers.get("Content-Type", ""), resp.read().decode()


def main() -> int:
    import threading

    from repro import api
    from repro.obs.telemetry import validate_telemetry
    from repro.service import JobStore, SweepService
    from repro.service.cli import follow_events, request, wait_for_job
    from repro.service.http import build_server

    store_root = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    service = SweepService(store=JobStore(root=store_root), workers=2)
    httpd, runtime = build_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    url = f"http://{host}:{port}"
    print(f"serve-smoke: service on {url} (store {store_root})")

    failures = []

    def check(label, ok):
        print(f"serve-smoke: {'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    try:
        # 1. tiny run over HTTP; scrape /metrics while it is in flight,
        #    then wait on the event stream
        run1 = request(url, "/jobs", method="POST", body=RUN_SPEC)
        mid_type, mid_text = scrape_metrics(url)
        check("/metrics mid-run is Prometheus text",
              mid_type.startswith("text/plain")
              and "version=0.0.4" in mid_type)
        try:
            mid_names = parse_prometheus(mid_text)
            check("/metrics mid-run parses", True)
        except ValueError as exc:
            mid_names = set()
            check(f"/metrics mid-run parses ({exc})", False)
        check("mid-run submissions counted",
              "repro_jobs_submitted_total 1" in mid_text.splitlines())
        final1 = wait_for_job(url, run1["id"])
        check("run completes", final1["status"] == "done")
        check("run executed (not cached)", final1["source"] == "run")

        # 2. one scenario through the same path
        scen = request(url, "/jobs", method="POST", body=SCENARIO_SPEC)
        final_scen = wait_for_job(url, scen["id"])
        check("scenario completes", final_scen["status"] == "done")

        # 3. identical resubmission must be a store hit: same digest,
        #    nothing new executed.
        run2 = request(url, "/jobs", method="POST", body=RUN_SPEC)
        final2 = wait_for_job(url, run2["id"])
        check("resubmission completes", final2["status"] == "done")
        check("same RunKey, same digest",
              final2["digest"] == final1["digest"])
        check("resubmission is a store hit",
              final2["source"] == "store")
        health = request(url, "/health")
        check("exactly 2 executions (run + scenario)",
              health["metrics"]["executed"] == 2)
        check("store-hit counter advanced",
              health["metrics"]["store_hits"] == 1)

        # 4. a tiny figure job; its point then serves a run job from
        #    the store
        fig = request(url, "/jobs", method="POST", body=FIGURE_SPEC)
        final_fig = wait_for_job(url, fig["id"])
        check("figure completes", final_fig["status"] == "done")
        table = request(url, f"/jobs/{fig['id']}/result")
        check("figure payload is its table",
              table.get("kind") == "figure"
              and table["result"]["figure"] == "Fig 1")
        point = request(url, "/jobs", method="POST",
                        body=FIGURE_POINT_SPEC)
        final_point = wait_for_job(url, point["id"])
        check("run job for the figure's point is a store hit",
              final_point["status"] == "done"
              and final_point["source"] == "store")
        health = request(url, "/health")
        check("figure ran its one point as a child run job",
              health["metrics"]["executed"] == 4)

        # 5. the job payload is bit-identical to the direct API run
        payload = request(url, f"/jobs/{run1['id']}/result")
        direct = api.RunSummary.from_run(
            api.run("tc", instructions=INSTRUCTIONS, warmup=WARMUP),
            seed=1).to_dict()
        check("payload bit-identical to direct api.run",
              payload == direct)

        batch = payload.get("batch", {})
        check("run with progress forwarding keeps the fast path "
              f"(fallbacks {batch.get('fallbacks')!r}, windows "
              f"{batch.get('windows')!r})",
              batch.get("fallbacks") == {}
              and batch.get("windows", 0) > 0)
        forwarded = [e for e in follow_events(url, run1["id"])
                     if e.get("kind") == "job-progress"
                     and not e.get("final")]
        check("run forwarded progress rows from its pool worker",
              len(forwarded) >= 1)

        # 6. the telemetry plane
        problems = validate_telemetry(health["telemetry"])
        check("health telemetry block validates (telemetry-v1)",
              problems == [],)
        if problems:
            for p in problems:
                print(f"serve-smoke:   telemetry problem: {p}")
        end_type, end_text = scrape_metrics(url)
        try:
            end_names = parse_prometheus(end_text)
            check("/metrics parses after the run", True)
        except ValueError as exc:
            end_names = set()
            check(f"/metrics parses after the run ({exc})", False)
        missing = [n for n in REQUIRED_SERIES if n not in end_names]
        check("queue/latency/dedupe series exposed"
              + (f" (missing {missing})" if missing else ""),
              not missing)
        events = list(follow_events(url, run1["id"]))
        progress = [e for e in events
                    if e.get("kind") == "job-progress"]
        check("at least one job-progress event arrived",
              len(progress) >= 1)
        if progress:
            last = progress[-1]
            check("final progress row matches stored RunSummary",
                  last.get("final") is True
                  and last.get("cycle") == payload["cycles"]
                  and last.get("ipc") == payload["metrics"]["ipc"]
                  and last.get("walk_cycles")
                  == payload["walk_cycles_total"])
        check("progress rows counted in gauges",
              health["gauges"]["progress_events"] >= len(progress))

        # 7. manifest + telemetry artifacts
        manifest = request(url, "/store")
        check("manifest lists the runs, scenario, figure and its point",
              sorted(manifest["digests"]) == sorted(
                  {final1["digest"], final_scen["digest"],
                   final_fig["digest"], final_point["digest"]}))
        artifacts = pathlib.Path("service-artifacts")
        artifacts.mkdir(exist_ok=True)
        out = artifacts / "store-manifest.json"
        out.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        tele_out = artifacts / "telemetry.json"
        tele_out.write_text(json.dumps(health["telemetry"], indent=2,
                                       sort_keys=True))
        (artifacts / "metrics.prom").write_text(end_text)
        print(f"serve-smoke: manifest -> {out}")
        print(f"serve-smoke: telemetry -> {tele_out}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        runtime.stop()

    if failures:
        print(f"serve-smoke: {len(failures)} failure(s): "
              + ", ".join(failures))
        return 1
    print("serve-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
