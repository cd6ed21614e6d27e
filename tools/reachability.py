#!/usr/bin/env python3
"""Reachability report: which functions under ``src/repro`` no entry
point runs (`make reachability`).

Runs every user entry point of the repository as a subprocess with a
``sys.setprofile``/``threading.setprofile`` recorder attached, then
lists every ``def`` under ``src/repro`` that none of them entered.  The
entry points are the CLI verbs (``run``, ``figure`` over every
registered figure and study, ``stats``, ``trace``, ``scenario`` over
the whole library, and ``serve`` driven by ``submit``, ``status``,
``result``, ``cancel`` and ``top``), the fuzz driver, perfbench's
workloads, ``tools/serve_smoke.py``, ``tools/calibrate.py`` and the
examples, all at small ROIs.  Services run inline (``--jobs 1``,
``serve --workers 0``), so no simulation escapes into an untraced pool
worker; the pools that ``serve_smoke`` and perfbench's ``sweep_mix``
start are not traced.

A function that is never entered must be listed in
``tools/reachability_keep.txt`` with a reason; the run exits 1 if any
unreached function is not, or if the keep file names a function that
does not exist.  Stdlib only::

    python tools/reachability.py            # drive, record, report
    python tools/reachability.py --list     # print every unreached def

Internally, ``--record OUT -- <python argv>`` runs one entry point under
the recorder and writes the entered ``(file, first line)`` pairs to OUT.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
KEEP_FILE = Path(__file__).resolve().parent / "reachability_keep.txt"
#: A keep reason opens with the letter of its category (the keep file's
#: header says what each one covers).
KEEP_REASON = re.compile(r"^\(([a-f])\) \S")

#: ROI of every simulated entry point but the scenarios, which need
#: enough traffic for their inclusive LLC to evict.
INSTR = ["--instructions", "2000", "--warmup", "500"]
SCENARIO_INSTR = ["--instructions", "6000", "--warmup", "1000"]
#: Entry points whose exit status 1 is a verdict, not a crash:
#: calibration flags drifted bands, and cancelling a finished job is
#: refused.  A traceback still fails them.
VERDICT_EXITS = ("tools/calibrate.py", "cancel")
LIBRARY = PACKAGE / "scenarios" / "library"
#: Every example but the one ``make figures`` runs (it regenerates
#: EXPERIMENTS.md over about ten minutes).
EXAMPLES = sorted(p.name for p in (ROOT / "examples").glob("*.py")
                  if p.name != "regenerate_experiments.py")
#: Seconds each perfbench workload runs for.
PERFBENCH_SECONDS = "2"


class Def(NamedTuple):
    """One ``def`` under ``src/repro``."""
    name: str           # ``repro.module:Qual.name``
    path: Path
    first: int          # first line of the def, decorators included
    last: int


# ----------------------------------------------------------------------
# Recording (one entry point, in its own process)
# ----------------------------------------------------------------------
def record(out: str, argv: List[str]) -> None:
    """Run ``argv`` (``-m module args`` or ``script args``) in this
    process under the recorder; write what it entered to ``out`` at
    exit."""
    seen: Set = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        entered = sorted({(c.co_filename, c.co_firstlineno)
                          for c in seen.copy()
                          if c.co_filename.startswith(prefix)})
        Path(out).write_text(json.dumps(entered))

    atexit.register(dump)
    # A background job of a non-interactive shell starts with SIGINT
    # ignored; restore the handler an interactive start installs, so
    # SIGINT stops ``repro serve`` however this tool was started.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.setprofile(profile)
    sys.setprofile(profile)
    import runpy
    if argv[0] == "-m":
        sys.argv = [argv[1]] + argv[2:]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path.insert(0, str(Path(argv[0]).resolve().parent))
        runpy.run_path(argv[0], run_name="__main__")


# ----------------------------------------------------------------------
# Driving the entry points
# ----------------------------------------------------------------------
def _figure_names(env: Dict[str, str]) -> List[str]:
    out = subprocess.run([sys.executable, "-m", "repro", "list"],
                         env=env, cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout
    names: List[str] = []
    for line in out.splitlines():
        label, _, rest = line.partition(":")
        if label.strip() in ("figures", "studies"):
            names += rest.split()
    return names


def entry_points(tmp: Path, env: Dict[str, str]) -> List[List[List[str]]]:
    """Groups of python argvs; the commands of one group run in order."""
    repro = ["-m", "repro"]
    run_json, trace_base, trace_full = (str(tmp / "run.json"),
                                        str(tmp / "base.json"),
                                        str(tmp / "full.json"))
    run2_json = str(tmp / "run2.json")
    obs = [
        repro + ["run", "pr", "--enhancements", "full", *INSTR,
                 "--metrics", run_json, "--trace", trace_full,
                 "--trace-sample", "2"],
        repro + ["run", "pr", *INSTR,
                 "--metrics", run2_json, "--sample-interval", "500",
                 "--trace", trace_base, "--trace-sample", "2"],
        repro + ["stats", run_json, "--csv", str(tmp / "run.csv")],
        repro + ["stats", "--validate", run_json, run2_json],
        repro + ["stats", run_json, run2_json],
        repro + ["trace", "summary", trace_full],
        repro + ["trace", "render", trace_full, "--limit", "3",
                 "--perfetto", str(tmp / "perfetto.json")],
        repro + ["trace", "diff", trace_base, trace_full],
    ]
    figure_out = [str(tmp / "batch.json"), str(tmp / "heartbeat.ndjson")]
    figures = _figure_names(env)
    scenarios = sorted(p.stem for p in LIBRARY.glob("*.yaml"))
    # An ad-hoc document: a library scenario under another name.
    adhoc = tmp / "adhoc.yaml"
    adhoc.write_text((LIBRARY / "SYN-01-STLB-THRASH.yaml").read_text()
                     .replace("name: SYN-01-STLB-THRASH",
                              "name: ADHOC-STLB-THRASH"))
    groups = [
        obs,
        [repro + ["list"],
         repro + ["run", "tc", *INSTR],
         repro + ["run", "mcf", "--l2c-prefetcher", "spp", "--check",
                  "--enhancements", "full", *INSTR],
         repro + ["run", "SYN-01-STLB-THRASH", "--check", *INSTR]],
        [repro + ["figure", "fig1", "--check", "--benchmarks", "pr",
                  *INSTR, "--verbose", "--metrics", figure_out[0],
                  "--heartbeat", figure_out[1]],
         repro + ["stats", figure_out[0]]],
        [repro + ["scenario", "list"],
         repro + ["scenario", "validate", "--all"],
         repro + ["scenario", "run", *scenarios, *SCENARIO_INSTR,
                  "--no-cache",
                  "--out", str(tmp / "scenarios.jsonl")],
         repro + ["scenario", "validate", str(adhoc)],
         repro + ["scenario", "run", str(adhoc), *INSTR, "--no-cache"]],
        [["-m", "repro.validate.fuzz", "0", "200"]],
        [["tools/serve_smoke.py"]],
        [["tools/calibrate.py", *INSTR]],
    ]
    # Figures one per process, so that they spread over the two
    # runners.  The comparison study also runs long enough to fill LLC
    # sets, so that its partitioned policy picks victims.
    groups += [[repro + ["figure", name, *INSTR, "--no-cache"]]
               for name in figures]
    # The longest entry points go first.
    slow = [[["examples/" + name]] for name in EXAMPLES]
    slow += [[["perfbench/run.py", "--workload", w, "--seed", "1",
               "--seconds", PERFBENCH_SECONDS, "--trace", "0"]]
             for w in ("walk_storm", "hit_stream", "sweep_mix")]
    slow.append([repro + ["figure", "comparison", "--benchmarks", "pr",
                          "--instructions", "20000", "--warmup", "4000",
                          "--no-cache"]])
    return slow + groups


def _recorded(argv: List[str], out: Path) -> List[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--record",
            str(out), "--", *argv]


def _run_one(argv: List[str], tmp: Path, env: Dict[str, str],
             ids) -> subprocess.CompletedProcess:
    return subprocess.run(_recorded(argv, tmp / f"rec-{next(ids)}.json"),
                          env=env, cwd=ROOT, capture_output=True,
                          text=True)


def _run_group(group: List[List[str]], tmp: Path, env: Dict[str, str],
               ids) -> List[Tuple[str, int, str]]:
    """Run one group; ``(command, status, stderr tail)`` per command."""
    results = []
    for argv in group:
        proc = _run_one(argv, tmp, env, ids)
        results.append((" ".join(argv), proc.returncode,
                        proc.stderr[-2000:]))
    return results


def _run_service(tmp: Path, env: Dict[str, str],
                 ids) -> List[Tuple[str, int, str]]:
    """``serve`` inline, driven by every client verb, then stopped with
    SIGINT (a clean shutdown, so its recorder writes its file)."""
    out = tmp / f"rec-{next(ids)}.json"
    log = tmp / "serve.log"     # a file: a full pipe would stall it
    with open(log, "w") as stderr:
        server = subprocess.Popen(
            _recorded(["-m", "repro", "serve", "--port", "0", "--workers",
                       "0", "--store", str(tmp / "serve-store"),
                       "--progress-interval", "500", "--log-json"], out),
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr,
            text=True)
    results = []
    try:
        match = re.search(r"http://[\d.]+:\d+", server.stdout.readline())
        if match is None:
            return [("repro serve", 1, "no listening banner")]
        url = ["--url", match.group(0)]
        repro = ["-m", "repro"]
        first = repro + ["submit", "run", "tc", *INSTR, "--wait", *url]
        proc = _run_one(first, tmp, env, ids)
        results.append((" ".join(first), proc.returncode,
                        proc.stderr[-2000:]))
        if proc.returncode != 0:
            return results
        job = json.loads(proc.stdout)["id"]
        results += _run_group([
            repro + ["submit", "scenario", "SYN-01-STLB-THRASH", *INSTR,
                     "--wait", *url],
            repro + ["submit", "sweep", "--runs", "tc", "pr", *INSTR,
                     "--wait", *url],
            repro + ["submit", "figure", "fig1", *INSTR, "--wait", *url],
            repro + ["submit", "trace", "pr", *INSTR, "--wait", *url],
            repro + ["status", *url],
            repro + ["status", job, *url],
            repro + ["result", job, "--wait", *url],
            repro + ["top", "--once", *url],
        ], tmp, env, ids)
        # Cancelling a job that already finished is refused, which
        # still drives the verb end to end.
        results += _run_group([repro + ["cancel", job, *url]], tmp, env,
                              ids)
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    results.append(("repro serve", 0 if out.exists() else 1,
                    log.read_text()[-2000:]))
    return results


def drive(tmp: Path) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every entry point; returns what they entered and the
    commands that failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env.pop("REPRO_CHECK", None)
    ids = itertools.count()     # next() on a count is atomic
    groups = entry_points(tmp, env)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_run_service, tmp, env, ids)]
        futures += [pool.submit(_run_group, g, tmp, env, ids)
                    for g in groups]
        results = [r for f in futures for r in f.result()]
    failed = [f"{cmd} (exit {status})\n{err}"
              for cmd, status, err in results
              if status != 0 and not (
                  status == 1 and "Traceback" not in err
                  and any(v in cmd for v in VERDICT_EXITS))]
    entered: Set[Tuple[str, int]] = set()
    for path in tmp.glob("rec-*.json"):
        entered.update(map(tuple, json.loads(path.read_text())))
    return entered, failed


# ----------------------------------------------------------------------
# Static side: every def, and the keep file
# ----------------------------------------------------------------------
def all_defs() -> List[Def]:
    """Every ``def``/``async def`` under ``src/repro``."""
    defs: List[Def] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    defs.append(Def(f"{module}:{qual}", path, first,
                                    child.end_lineno))
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return defs


def read_keep(path: Path = KEEP_FILE) -> Dict[str, str]:
    """``{name: reason}`` of the keep file (``name reason`` per line;
    ``#`` starts a comment line)."""
    keep: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        keep[name] = reason.strip()
    return keep


def keep_problems(defs: List[Def], keep: Dict[str, str]) -> List[str]:
    """Keep entries that name no def or carry no categorised reason."""
    names = {d.name for d in defs}
    problems = []
    for name, reason in keep.items():
        if name not in names:
            problems.append(f"{name}: no such def under src/repro")
        elif not KEEP_REASON.match(reason):
            problems.append(f"{name}: reason must open with a category "
                            f"(a)-(f) and say why: {reason!r}")
    return problems


def _lines(defs: List[Def]) -> int:
    """Source lines the defs span, each line counted once."""
    return len({(d.path, n) for d in defs
                for n in range(d.first, d.last + 1)})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--record"]:
        record(argv[1], argv[3:] if argv[2:3] == ["--"] else argv[2:])
        return 0
    parser = argparse.ArgumentParser(prog="reachability")
    parser.add_argument("--list", action="store_true",
                        help="print every unreached def, kept or not")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        entered, failed = drive(Path(tmp))
    wall = time.perf_counter() - start
    defs = all_defs()
    keep = read_keep()
    unreached = [d for d in defs
                 if (str(d.path), d.first) not in entered]
    missing = [d for d in unreached if d.name not in keep]
    kept_but_run = sorted(set(keep) & {d.name for d in defs}
                          - {d.name for d in unreached})
    problems = keep_problems(defs, keep)

    if args.list:
        for d in unreached:
            print(f"{d.name}  ({d.last - d.first + 1} lines)"
                  + ("  [kept]" if d.name in keep else ""))
    print(f"reachability: {len(unreached)} of {len(defs)} functions "
          f"never entered ({_lines(unreached)} of {_lines(defs)} "
          f"function lines); {len(unreached) - len(missing)} kept; "
          f"{wall:.0f} s")
    for name in kept_but_run:
        print(f"note: kept but entered: {name}")
    for cmd in failed:
        print(f"FAILED entry point: {cmd}")
    for problem in problems:
        print(f"keep file: {problem}")
    for d in missing:
        print(f"unreached, not kept: {d.name} "
              f"({d.path.relative_to(ROOT)}:{d.first})")
    return 1 if (failed or problems or missing) else 0


if __name__ == "__main__":
    sys.exit(main())
