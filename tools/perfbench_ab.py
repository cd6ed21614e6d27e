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

Exit status 1 when a metric is ``worse`` or the change fails a larger
share of operations than the base, 2 when the base does not check out.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

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


def run_side(root: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One untraced perfbench run in checkout ``root``; its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(base_root: Path, change_root: Path, workload: str, pairs: int,
              seconds: float, first_seed: int) -> Dict[str, List[Dict]]:
    """``pairs`` interleaved pairs; the result lines of each side."""
    results: Dict[str, List[Dict]] = {"base": [], "change": []}
    roots = {"base": base_root, "change": change_root}
    for i in range(pairs):
        seed = first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
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


def report(results: Dict[str, List[Dict]], end_to_end: Sequence[Dict]
           ) -> bool:
    """Print the per-metric table; True when nothing got worse."""
    ok = True
    print(f"{'metric':12} {'base q1/median/q3':>30} "
          f"{'change q1/median/q3':>30} {'won':>7}  verdict")
    for spec in end_to_end:
        name = spec["name"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        v = verdict(base, change, spec["better"], spec["bound"])
        fmt = "/".join
        print(f"{name:12} {fmt(f'{q:.4g}' for q in v.base_quartiles):>30} "
              f"{fmt(f'{q:.4g}' for q in v.change_quartiles):>30} "
              f"{v.wins:>3}/{v.pairs:<3}  {v.verdict} "
              f"(bound {spec['bound']}, {spec['better']} is better)")
        ok = ok and v.verdict != "worse"
    shares = {}
    for side, lines in results.items():
        attempted = sum(r["attempted"] for r in lines)
        failed = sum(r["failed"] for r in lines)
        shares[side] = failed / attempted if attempted else 0.0
        print(f"{side}: {failed} of {attempted} operations failed")
    return ok and shares["change"] <= shares["base"]


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

    holder = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    worktree = holder / "base"
    try:
        added = subprocess.run(["git", "worktree", "add", "--detach",
                                str(worktree), args.base], cwd=ROOT,
                               check=False, capture_output=True, text=True)
        if added.returncode != 0:
            print(f"perfbench_ab: {added.stderr.strip()}", file=sys.stderr)
            return 2
        seconds = spec["run_seconds"]
        print(f"base {args.base} in {worktree}; change = working tree "
              f"{ROOT}; {args.workload}, {args.pairs} pairs of {seconds} s",
              flush=True)
        results = run_pairs(worktree, ROOT, args.workload, args.pairs,
                            seconds, args.first_seed)
        return 0 if report(results, spec["end_to_end"]) else 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(worktree)], cwd=ROOT, check=False,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False,
                       capture_output=True)
        shutil.rmtree(holder, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
