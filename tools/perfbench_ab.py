#!/usr/bin/env python3
"""Same-machine interleaved A/B of the working tree against a base revision.

    python3 tools/perfbench_ab.py --base HEAD --workload walk_storm --pairs 10

The base revision is checked out into a temporary ``git worktree add
--detach``, removed again on exit.  Each pair runs ``perfbench/run.py
--trace 0`` for the benchmark's ``run_seconds`` once in the base
checkout and once in the working tree, with a fresh seed per pair and
the side that goes first swapped from one pair to the next, so that
host drift falls on both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` (read, never written)
the report gives each side's median and quartiles, the pairs the change
won, and a verdict:

* ``gain`` -- the change won at least nine tenths of the pairs (ties
  count for neither side) and its median beats the base's by more than
  the base's interquartile range;
* ``worse`` -- the change's median is worse than the base's by more
  than the metric's bound;
* ``unresolved`` -- neither, and either side's interquartile range is
  wider than the bound, unless every change run beats every base run;
* ``no change`` -- otherwise.

Every run writes its record to the tracked history,
``bench-history/BENCH_<UTC %Y%m%dT%H%M%SZ>_<workload>.json`` (schema
``repro.perfbench-ab/v1``), and prints its path;
``tools/bench_history.py`` prints the records over time.  The record holds the
base revision as given and as resolved, the change's HEAD and whether
its tree was dirty, the workload and ``run_seconds``, each pair's seed,
the side that ran first and both runs' ``stamp`` lines, and for every
end-to-end metric the raw values in pair order, both sides' quartiles,
the pairs won, the bound and the verdict, plus each side's failed and
attempted operations.  The printed table is read from the record.

Exit status 1 when a metric is ``worse`` or the change fails a larger
share of operations than the base, 2 when the base does not resolve to
a commit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Where records land: the tracked history (``.perfbench/`` stays
#: perfbench's own scratch).
RECORDS = ROOT / "bench-history"
RECORD_SCHEMA = "repro.perfbench-ab/v1"
#: Format of a record's ``created_utc``, which also names its file.
STAMP_FORMAT = "%Y%m%dT%H%M%SZ"

SIDES = ("base", "change")

#: A gain needs at least this share of the pairs won.
WIN_SHARE = 0.9


class Verdict(NamedTuple):
    """One metric's comparison over the pairs."""

    base_quartiles: Tuple[float, float, float]
    change_quartiles: Tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, interpolating between samples."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Verdict:
    """Compare paired samples of one metric (``base[i]`` and
    ``change[i]`` ran as pair ``i``); ``better`` is ``"higher"`` or
    ``"lower"`` and ``bound`` the relative worsening the benchmark
    allows."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of samples a side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq, cq = quartiles(base), quartiles(change)
    gap = sign * (cq[1] - bq[1])  # > 0: the change's median is better
    if wins >= WIN_SHARE * len(base) and gap > bq[2] - bq[0]:
        outcome = "gain"
    elif -gap > bound * abs(bq[1]):
        outcome = "worse"
    elif (max(bq[2] - bq[0], cq[2] - cq[0]) > bound * abs(bq[1])
          and not all(sign * (c - b) > 0 for c in change for b in base)):
        outcome = "unresolved"
    else:
        outcome = "no change"
    return Verdict(bq, cq, wins, len(base), outcome)


def schedule(pairs: int, first_seed: int
             ) -> List[Tuple[int, Tuple[str, str]]]:
    """Each pair's seed and the order its sides run in."""
    return [(first_seed + i, SIDES if i % 2 == 0 else SIDES[::-1])
            for i in range(pairs)]


def run_side(root: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One untraced perfbench run in checkout ``root``: its result line,
    with the run's stamp line under ``"stamp"``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["stamp"] = next((json.loads(line[len("stamp "):])
                            for line in lines if line.startswith("stamp ")),
                           None)
    return result


def run_pairs(base_root: Path, change_root: Path, workload: str, pairs: int,
              seconds: float, first_seed: int) -> Dict[str, List[Dict]]:
    """``pairs`` interleaved pairs; the result lines of each side."""
    results: Dict[str, List[Dict]] = {side: [] for side in SIDES}
    roots = {"base": base_root, "change": change_root}
    for i, (seed, order) in enumerate(schedule(pairs, first_seed)):
        for side in order:
            results[side].append(run_side(roots[side], workload, seed,
                                          seconds))
        print(f"pair {i + 1}/{pairs} seed={seed} ({order[0]} first): "
              + ", ".join(
                  f"{name} {results['base'][-1]['metrics'][name]['value']:.4g}"
                  f" -> {results['change'][-1]['metrics'][name]['value']:.4g}"
                  for name in results["base"][-1]["metrics"]),
              flush=True)
    return results


def judge(results: Dict[str, List[Dict]], end_to_end: Sequence[Dict]
          ) -> Dict:
    """The verdict pass over the pairs: for every end-to-end metric the
    values of each side in pair order, both sides' quartiles, the pairs
    won, the bound and the verdict; each side's failed and attempted
    operations; and ``ok``, False when a metric is ``worse`` or the
    change fails a larger share of operations than the base."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in SIDES}
        v = verdict(values["base"], values["change"], spec["better"],
                    spec["bound"])
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], **values,
            "base_quartiles": list(v.base_quartiles),
            "change_quartiles": list(v.change_quartiles),
            "wins": v.wins, "pairs": v.pairs, "verdict": v.verdict}
    operations = {side: {"failed": sum(r["failed"] for r in results[side]),
                         "attempted": sum(r["attempted"]
                                          for r in results[side])}
                  for side in SIDES}
    share = {side: ops["failed"] / ops["attempted"] if ops["attempted"]
             else 0.0 for side, ops in operations.items()}
    ok = (all(m["verdict"] != "worse" for m in metrics.values())
          and share["change"] <= share["base"])
    return {"metrics": metrics, "operations": operations, "ok": ok}


def report(judgement: Dict) -> bool:
    """Print the per-metric table of a :func:`judge` result (or of a
    record) and return its ``ok``."""
    print(f"{'metric':12} {'base q1/median/q3':>30} "
          f"{'change q1/median/q3':>30} {'won':>7}  verdict")
    for name, m in judgement["metrics"].items():
        fmt = "/".join
        print(f"{name:12} {fmt(f'{q:.4g}' for q in m['base_quartiles']):>30} "
              f"{fmt(f'{q:.4g}' for q in m['change_quartiles']):>30} "
              f"{m['wins']:>3}/{m['pairs']:<3}  {m['verdict']} "
              f"(bound {m['bound']}, {m['better']} is better)")
    for side, ops in judgement["operations"].items():
        print(f"{side}: {ops['failed']} of {ops['attempted']} "
              "operations failed")
    return judgement["ok"]


def git(*args: str) -> str:
    """The output of ``git args`` in this checkout, stripped."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def revisions(base: str) -> Dict:
    """The base revision as given and as resolved, and the change's HEAD
    and whether its tree is dirty, not counting the records in
    :data:`RECORDS` (an earlier run's record is not a code change).
    Raises :class:`subprocess.CalledProcessError` when ``base`` names no
    commit."""
    return {"base": {"given": base,
                     "resolved": git("rev-parse", "--verify",
                                     base + "^{commit}")},
            "change": {"head": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "--",
                                         ".", f":(exclude){RECORDS.name}"))}}


@contextlib.contextmanager
def base_checkout(commit: str) -> Iterator[Path]:
    """A detached worktree of ``commit`` in a temporary directory,
    removed again on exit."""
    holder = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    worktree = holder / "base"
    try:
        git("worktree", "add", "--detach", str(worktree), commit)
        yield worktree
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(worktree)], cwd=ROOT, check=False,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False,
                       capture_output=True)
        shutil.rmtree(holder, ignore_errors=True)


def record(spec: Dict, workload: str, first_seed: int, revs: Dict,
           results: Dict[str, List[Dict]]) -> Dict:
    """The ``repro.perfbench-ab/v1`` record of one A/B run: ``revs``
    from :func:`revisions`, ``spec`` the parsed ``BENCHMARK.json``."""
    pairs = len(results["base"])
    return {
        "schema": RECORD_SCHEMA,
        "created_utc": time.strftime(STAMP_FORMAT, time.gmtime()),
        **revs,
        "workload": workload,
        "run_seconds": spec["run_seconds"],
        "pairs": [{"seed": seed, "first": order[0],
                   "stamps": {side: results[side][i]["stamp"]
                              for side in SIDES}}
                  for i, (seed, order) in enumerate(schedule(pairs,
                                                             first_seed))],
        **judge(results, spec["end_to_end"]),
    }


def write_record(rec: Dict) -> Path:
    """Write ``rec`` to ``RECORDS/BENCH_<created_utc>_<workload>.json``."""
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / f"BENCH_{rec['created_utc']}_{rec['workload']}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--workload", default="walk_storm",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000,
                        help="seed of the first pair; pair i uses +i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    try:
        revs = revisions(args.base)
    except subprocess.CalledProcessError as exc:
        print(f"perfbench_ab: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    with base_checkout(revs["base"]["resolved"]) as worktree:
        print(f"base {args.base} ({revs['base']['resolved'][:12]}) in "
              f"{worktree}; change = working tree {ROOT}"
              f"{' (dirty)' if revs['change']['dirty'] else ''}; "
              f"{args.workload}, {args.pairs} pairs of {seconds} s",
              flush=True)
        results = run_pairs(worktree, ROOT, args.workload, args.pairs,
                            seconds, args.first_seed)
    rec = record(spec, args.workload, args.first_seed, revs, results)
    ok = report(rec)
    print(f"record: {write_record(rec)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
