#!/usr/bin/env python3
"""Host-time benchmark of the simulator: one workload per process.

    python3 perfbench/run.py --workload walk_storm --seed 1 --seconds 20 \
        --trace 0

Workloads are ``walk_storm``, ``hit_stream`` and ``sweep_mix`` (see
``README.md``).  The run prints a report, a stamp line and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` every end-to-end metric, with ``--trace 1`` every
per-layer metric of ``layers.PER_LAYER`` from a separate traced pass.
Exit status 2 means the simulator source is missing, 3 that a layer
boundary no longer resolves; neither prints a result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of every run (stores, temp files, trace and timing
#: samples).
SCRATCH = ROOT / ".perfbench"

import hostspeed  # noqa: E402  (HERE is on sys.path: this file's directory)
import layers  # noqa: E402
import sims  # noqa: E402
import sweep  # noqa: E402
from spans import SpanRecorder, Tally, median_count, tail  # noqa: E402

WORKLOADS = ("walk_storm", "hit_stream", "sweep_mix")
SIM_WORKLOADS = {"walk_storm": sims.WALK_STORM,
                 "hit_stream": sims.HIT_STREAM}

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
E2E_UNITS = {"sim_kips": "kinstr/s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Fresh processes measuring ``setup_s`` besides the run's own sample.
SETUP_PROBES = {"walk_storm": 8, "hit_stream": 8, "sweep_mix": 6}

#: multiprocessing puts its manager socket under the temp dir, and a
#: socket path must stay below 108 bytes.
MAX_TMPDIR = 70


def prepare_env(scratch: Path) -> None:
    """Pin the environment before anything imports ``repro``: no
    invariant checkers, serial figure harnesses inside workers, and
    every file the run writes under ``scratch``."""
    os.environ["REPRO_CHECK"] = "0"
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if len(str(tmp)) <= MAX_TMPDIR:
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_revision() -> Optional[str]:
    """HEAD's commit, read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class SetupProbes:
    """``setup_s`` samples from fresh processes, one at a time, spread
    evenly over the timed run so that they see the host as the run's
    other samples do (its speed drifts over tens of seconds)."""

    def __init__(self, workload: str, seed: int, n: int, scratch: Path,
                 tally: Tally):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"),
                    "--workload", workload, "--seed", str(seed)]
        self.n = n
        self.scratch = scratch
        self.tally = tally
        #: One ``hostspeed.setup_reading`` dict per probe that succeeded.
        self.samples: List[Dict[str, float]] = []
        self.due_at: List[float] = []
        self.started = 0

    def schedule(self, seconds: float) -> None:
        """Spread the probes over the next ``seconds``."""
        now = time.perf_counter()
        self.due_at = [now + (k + 0.5) * seconds / self.n
                       for k in range(self.n)]

    def poll(self, *_args) -> bool:
        """Run every probe that is due (a hook between timed samples);
        returns whether any ran."""
        ran = False
        while self.due_at and time.perf_counter() >= self.due_at[0]:
            self.due_at.pop(0)
            self._probe()
            ran = True
        return ran

    def finish(self) -> List[Dict[str, float]]:
        """Run the probes the run ended before; returns every reading."""
        for _ in range(len(self.due_at)):
            self._probe()
        self.due_at = []
        return self.samples

    def _probe(self) -> None:
        i = self.started
        self.started += 1
        cmd = self.cmd + ["--scratch", str(self.scratch / f"probe-{i}")]
        before = self.tally.call(f"setup probe {i}: fresh start",
                                 hostspeed.fresh_start)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.tally.fail(f"setup probe {i}: timed out")
            return
        after = self.tally.call(f"setup probe {i}: fresh start",
                                hostspeed.fresh_start)
        if self.tally.check(proc.returncode == 0,
                            f"setup probe {i}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}") \
                and before is not None and after is not None:
            raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            self.samples.append(hostspeed.setup_reading(raw, before, after))


def describe(samples: List[float]) -> str:
    median, n = median_count(samples)
    text = f"median of {n}"
    tail_at = tail(samples)
    if tail_at is not None:
        text += f", p{tail_at[0]} {tail_at[1]:.6g}"
    return text


def run(args, scratch: Path) -> int:
    load_start = os.getloadavg()
    tally = Tally()
    recorder = SpanRecorder() if args.trace else None
    values: Dict[str, float] = {}
    #: ``(rate as measured, host-speed reading)`` of every timed sample.
    timed: List[Tuple[float, float]] = []
    probes = SetupProbes(args.workload, args.seed,
                         SETUP_PROBES[args.workload], scratch, tally)
    if args.workload == "sweep_mix":
        setup, rounds, values = asyncio.run(sweep.run(
            args.seed, args.seconds, scratch, tally, recorder,
            None if args.trace else probes))
        timed = [(r.kips, r.host_s) for r in rounds if r.host_s]
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        geometry = {"scale": 16, "instructions": sweep.INSTRUCTIONS,
                    "warmup": sweep.WARMUP,
                    "burst_instructions": rounds[0].instructions,
                    "rounds": len(rounds),
                    "seeds": sweep.burst_seeds(args.seed)}
    else:
        wl = SIM_WORKLOADS[args.workload]
        sim_run = sims.SimRun(wl, args.seed, tally)
        setup = hostspeed.setup_reading(
            sims.first_result(wl, sim_run.seeds[0]), hostspeed.fresh_start())
        from repro import api
        if args.trace:
            values = sims.run_traced(wl, sim_run, api, args.seconds,
                                     recorder)
        else:
            timed = [(s.kips, s.host_s) for s in sims.run_e2e(
                wl, sim_run, api, args.seconds, probes)]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        geometry = {"scale": api.DEFAULT_SCALE,
                    "instructions": api.DEFAULT_INSTRUCTIONS,
                    "warmup": api.DEFAULT_WARMUP, "seeds": sim_run.seeds}
    setups = [setup] + ([] if args.trace else probes.finish())
    samples = {
        "sim_kips": [hostspeed.scale_rate(k, h) for k, h in timed],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [peak_kb / 1024]}
    #: Each scaled metric's samples as measured, and the median reading
    #: they were scaled by.
    measured = {"sim_kips": ([k for k, _ in timed], "work()",
                             [h for _, h in timed]),
                "setup_s": ([s["raw_s"] for s in setups], "fresh start",
                            [s["start_s"] for s in setups])}
    host = {"work_s": median_count([h for _, h in timed])[0]
            if timed else None,
            "work_nominal_s": hostspeed.NOMINAL_S,
            "elasticity": hostspeed.ELASTICITY,
            "start_s": median_count([s["start_s"] for s in setups])[0],
            "start_nominal_s": hostspeed.NOMINAL_START_S}

    import numpy
    from repro.experiments.parallel import code_fingerprint
    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "git_revision": git_revision(),
             "source_fingerprint": code_fingerprint(), **geometry,
             "host": host,
             "loadavg_start": load_start, "loadavg_end": os.getloadavg()}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics = layers.layer_report(values)
        for name, metric in metrics.items():
            print(f"  {name:38} {metric['value']:<14.6g} {metric['unit']:<11}"
                  f" moves {layers.moves(name)}")
        out = SCRATCH / "traces"
        out.mkdir(parents=True, exist_ok=True)
        calls, self_s = recorder.totals()
        path = out / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"stamp": stamp, "calls": calls,
                                    "self_s": self_s,
                                    "spans": recorder.sample()}))
        print(f"  trace sample: {path.relative_to(ROOT)}")
    else:
        metrics = {}
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": median_count(samples[name])[0],
                             "unit": unit}
            line = (f"  {name:12} {metrics[name]['value']:<12.6g} {unit:9} "
                    f"{describe(samples[name])}")
            if name in measured:
                raw, reading, readings = measured[name]
                line += (f"; as measured {median_count(raw)[0]:.6g}, "
                         f"{reading} {median_count(readings)[0]:.4g} s")
            print(line)
        out = SCRATCH / "samples"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"stamp": stamp, "timed": timed, "setup": setups}))
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for reason in tally.failures:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print("stamp " + json.dumps(stamp))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    scratch = SCRATCH / f"run-{os.getpid()}"
    prepare_env(scratch)
    try:
        return run(args, scratch)
    except layers.LayerPathError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
