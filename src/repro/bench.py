"""Timed performance benchmark harness (``python -m repro bench``).

Measures end-to-end simulation throughput (hierarchy accesses per
second) over a **pinned workload matrix** and emits a schema-stable
``BENCH_<date>.json`` document.  The matrix is part of the harness
contract: scale-16 memory-intensive configurations at 200K-instruction
ROIs, which keep the measurement dominated by the simulation kernel
(cache/TLB/walker/MSHR datapath) rather than by trace generation or
setup.  See ``docs/performance.md`` for usage, the baseline-updating
procedure, and the optimisation inventory behind the current numbers.

Regression gating compares against the committed baseline at
``benchmarks/perf/baseline.json``.  Raw accesses/sec is not portable
across machines, so the baseline also records a pure-Python
*calibration* score measured at baseline time; at check time the
calibration is re-measured and the expected throughput is scaled by the
machine-speed ratio before the threshold is applied.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import run_benchmark
from repro.obs.manifest import Profiler
from repro.params import default_config, paper_config

#: Schema identifier written into every bench document.
BENCH_SCHEMA = "repro.bench/v1"

#: Regression gate: fail when aggregate accesses/sec drops more than
#: this fraction below the (machine-speed-scaled) baseline.
REGRESSION_THRESHOLD = 0.15

#: Workloads whose numpy entry must keep pace with its python twin
#: (intra-document simulate-phase comparison; see :func:`vector_parity`).
VECTOR_PARITY_WORKLOADS = ("pr",)

#: Ceiling on the vectorized backend's fallback rate for the gated
#: workloads: the batch path must actually engage, not silently route
#: to the scalar core and coast on its numbers.
FALLBACK_RATE_LIMIT = 0.05


@dataclass(frozen=True)
class BenchCase:
    """One pinned configuration of the benchmark matrix."""

    benchmark: str
    enhancements: str = "none"
    scale: int = 16
    instructions: int = 200_000
    warmup: int = 20_000
    #: Execution backend (``SimConfig.backend``): the scalar reference
    #: core or the vectorized batch core.
    backend: str = "python"

    @property
    def key(self) -> str:
        return (f"{self.benchmark}/{self.enhancements}"
                f"/s{self.scale}/{self.instructions}/{self.backend}")


#: The pinned matrix.  Memory-pressure workloads at reduced scale: small
#: caches keep miss/eviction/walk rates high, so the run exercises the
#: flat-store datapath, the MSHRs, the page-table walker and the
#: recall trackers rather than idling in hit loops.  ``compute`` is the
#: hit-friendly counterweight where the ``numpy`` backend's fast path
#: engages most (see docs/performance.md for the per-backend numbers).
#: Every entry runs under both backends so the regression gate covers
#: the vectorized core too.  Changing this list invalidates the
#: committed baseline (see docs/performance.md).
WORKLOAD_MATRIX: Tuple[BenchCase, ...] = (
    BenchCase("pr"),
    BenchCase("radii"),
    BenchCase("canneal"),
    BenchCase("compute"),
    BenchCase("pr", backend="numpy"),
    BenchCase("radii", backend="numpy"),
    BenchCase("canneal", backend="numpy"),
    BenchCase("compute", backend="numpy"),
)


@dataclass
class BenchResult:
    """Outcome of one harness invocation (see :func:`run_bench`)."""

    document: Dict = field(repr=False)
    path: Optional[Path] = None

    @property
    def accesses_per_sec(self) -> float:
        return self.document["aggregate"]["accesses_per_sec"]

    @property
    def wall_s(self) -> float:
        return self.document["aggregate"]["wall_s"]

    def compare(self, baseline: Dict,
                threshold: float = REGRESSION_THRESHOLD) -> Dict:
        """Regression verdict against a baseline document."""
        return compare_to_baseline(self.document, baseline,
                                   threshold=threshold)


#: Shortest wall time a calibration pass may take and still be trusted:
#: below this the measurement is dominated by timer resolution and the
#: resulting ops/sec (and hence the scaled regression floor) is garbage.
MIN_CALIBRATION_SECONDS = 1e-3

#: Any genuine interpreter manages far more than this; a score below it
#: means the measurement (or a recorded baseline) is degenerate.
MIN_CREDIBLE_CALIBRATION = 1e3


def _calibration_pass(iterations: int) -> float:
    """One timed run of the calibration loop; returns the wall seconds."""
    table: Dict[int, int] = {}
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        key = (i * 0x9E3779B9) & 0xFFFF
        hit = table.get(key)
        if hit is None:
            table[key] = i
        else:
            acc += hit & 7
        if len(table) > 4096:
            table.clear()
    return time.perf_counter() - t0


def calibrate(iterations: int = 400_000) -> float:
    """Machine-speed score: dict/arithmetic ops per second.

    The loop mirrors the simulator's hot-path instruction mix (dict
    probes, integer arithmetic, attribute-free bookkeeping), so its
    score tracks how fast *this* interpreter/machine runs the kernel.

    Passes shorter than :data:`MIN_CALIBRATION_SECONDS` (possible with a
    tiny ``iterations`` or a coarse ``perf_counter``) are retried with a
    4x larger loop rather than divided through -- a sub-resolution delta
    would otherwise yield a zero division or a nonsense score that
    silently corrupts the regression gate.
    """
    its = max(1, int(iterations))
    dt = 0.0
    for _ in range(8):
        dt = _calibration_pass(its)
        if dt >= MIN_CALIBRATION_SECONDS:
            return its / dt
        its *= 4
    raise RuntimeError(
        f"calibration unmeasurable: {its // 4} iterations completed in "
        f"{dt:.3e}s (below the {MIN_CALIBRATION_SECONDS}s timer floor); "
        f"refusing to produce a machine-speed score")


def _run_case(case: BenchCase, repeats: int) -> Dict:
    """Run one matrix entry ``repeats`` times; keep the fastest wall."""
    cfg = paper_config() if case.scale == 1 else default_config(case.scale)
    if case.enhancements != "none":
        cfg = cfg.with_(enhancements=case.enhancements)
    if case.backend != "python":
        cfg = cfg.with_(backend=case.backend)
    best: Optional[Dict] = None
    for _ in range(max(1, repeats)):
        profiler = Profiler()
        t0 = time.perf_counter()
        result = run_benchmark(case.benchmark, config=cfg,
                               instructions=case.instructions,
                               warmup=case.warmup, scale=case.scale,
                               profiler=profiler)
        wall = time.perf_counter() - t0
        accesses = result.hierarchy.loads + result.hierarchy.stores
        phases = profiler.snapshot()
        entry = {
            "benchmark": case.benchmark,
            "enhancements": case.enhancements,
            "scale": case.scale,
            "instructions": case.instructions,
            "warmup": case.warmup,
            "backend": case.backend,
            "wall_s": round(wall, 4),
            "accesses": accesses,
            "accesses_per_sec": round(accesses / wall, 1),
            "ipc": round(result.ipc, 4),
            "cycles": result.cycles,
            # Per-component wall split: workload trace generation,
            # hierarchy/core construction, and the simulation kernel.
            "phases": {name: round(seconds, 4)
                       for name, seconds in phases.items()},
            # BatchStats of the vectorized backend (None on scalar
            # runs): lets the gate assert engagement, not just speed.
            "batch": (result.batch.to_dict()
                      if result.batch is not None else None),
        }
        if best is None or entry["wall_s"] < best["wall_s"]:
            best = entry
    return best


def run_bench(matrix: Sequence[BenchCase] = WORKLOAD_MATRIX,
              repeats: int = 1,
              out_dir=None,
              calibrate_machine: bool = True) -> BenchResult:
    """Run the pinned matrix; return (and optionally write) the document.

    ``repeats`` re-runs each configuration and keeps the fastest wall
    time (min-of-N is the standard noise reducer for throughput
    benchmarks).  ``out_dir`` writes ``BENCH_<UTC date>.json`` there.
    The document is schema-stable: top-level keys and per-config fields
    only grow, never change meaning, within ``repro.bench/v1``.
    """
    configs: List[Dict] = []
    total_wall = 0.0
    total_accesses = 0
    per_backend: Dict[str, Dict[str, float]] = {}
    for case in matrix:
        entry = _run_case(case, repeats)
        configs.append(entry)
        total_wall += entry["wall_s"]
        total_accesses += entry["accesses"]
        acc = per_backend.setdefault(case.backend,
                                     {"wall_s": 0.0, "accesses": 0})
        acc["wall_s"] += entry["wall_s"]
        acc["accesses"] += entry["accesses"]
    by_backend = {
        backend: {
            "wall_s": round(acc["wall_s"], 4),
            "accesses": acc["accesses"],
            "accesses_per_sec": round(acc["accesses"] / acc["wall_s"], 1),
        }
        for backend, acc in sorted(per_backend.items())}
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    document = {
        "schema": BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": max(1, repeats),
        "calibration_ops_per_sec": (round(calibrate(), 1)
                                    if calibrate_machine else None),
        "configs": configs,
        "aggregate": {
            "wall_s": round(total_wall, 4),
            "accesses": total_accesses,
            "accesses_per_sec": round(total_accesses / total_wall, 1),
            "peak_rss_kb": peak_rss_kb,
            # Per-execution-backend breakdown, so the regression gate
            # can hold the vectorized core to the same floor as the
            # scalar reference (absent from pre-backend baselines).
            "by_backend": by_backend,
        },
    }
    path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d", time.gmtime())
        path = out / f"BENCH_{stamp}.json"
        path.write_text(json.dumps(document, indent=1) + "\n")
    return BenchResult(document=document, path=path)


# ----------------------------------------------------------------------
# Baseline handling
# ----------------------------------------------------------------------
def baseline_path() -> Path:
    """The committed baseline location (repo checkouts only)."""
    return (Path(__file__).resolve().parents[2]
            / "benchmarks" / "perf" / "baseline.json")


def load_baseline(path=None) -> Dict:
    p = Path(path) if path is not None else baseline_path()
    with open(p) as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{p}: not a {BENCH_SCHEMA} document")
    return doc


def _check_calibration(score, which: str) -> None:
    """Reject calibration scores that would corrupt the machine ratio."""
    ok = (isinstance(score, (int, float)) and math.isfinite(score)
          and score >= MIN_CREDIBLE_CALIBRATION)
    if not ok:
        raise ValueError(
            f"degenerate {which} calibration score {score!r} (expected a "
            f"finite value >= {MIN_CREDIBLE_CALIBRATION}); re-record it "
            f"with repro.bench.calibrate()")


def vector_parity(document: Dict,
                  threshold: float = REGRESSION_THRESHOLD) -> Dict:
    """Intra-document vectorized-backend gates (no baseline needed).

    For each workload in :data:`VECTOR_PARITY_WORKLOADS` that the
    document ran under both backends, two conditions:

    * **speed floor** -- the numpy entry's simulate-phase wall must be
      at least 1.0x the python entry's, minus the gate's noise
      tolerance (``threshold``); the comparison is within one document,
      so machine-speed scaling is unnecessary;
    * **engagement** -- the numpy entry's ``batch`` record must show
      drained windows with a fallback rate below
      :data:`FALLBACK_RATE_LIMIT` (a backend that falls back to the
      scalar core would trivially pass the speed floor).

    Workloads missing either backend entry are skipped, so pre-backend
    documents gate on the aggregate alone.
    """
    by_key = {(c["benchmark"], c.get("backend", "python")): c
              for c in document["configs"]}
    workloads = {}
    ok = True
    for bench in VECTOR_PARITY_WORKLOADS:
        scalar = by_key.get((bench, "python"))
        vector = by_key.get((bench, "numpy"))
        if scalar is None or vector is None:
            continue
        s_sim = (scalar.get("phases") or {}).get("simulate",
                                                 scalar["wall_s"])
        v_sim = (vector.get("phases") or {}).get("simulate",
                                                 vector["wall_s"])
        speedup = s_sim / v_sim if v_sim else 0.0
        floor = 1.0 * (1.0 - threshold)
        batch = vector.get("batch") or {}
        windows = int(batch.get("windows") or 0)
        refused = sum((batch.get("fallbacks") or {}).values())
        rate = (refused / (windows + refused)
                if windows + refused else 1.0)
        entry_ok = (speedup >= floor and windows > 0
                    and rate < FALLBACK_RATE_LIMIT)
        workloads[bench] = {
            "ok": entry_ok,
            "speedup": round(speedup, 3),
            "floor": round(floor, 3),
            "windows": windows,
            "fallback_rate": round(rate, 4),
        }
        ok = ok and entry_ok
    return {"ok": ok, "workloads": workloads}


def compare_to_baseline(document: Dict, baseline: Dict,
                        threshold: float = REGRESSION_THRESHOLD) -> Dict:
    """Regression verdict: current vs. baseline aggregate throughput.

    When both documents carry a calibration score, the baseline
    throughput is scaled by the machine-speed ratio first, making the
    gate meaningful on hardware other than where the baseline was
    recorded.  Returns a dict with ``ok`` plus the numbers behind it.

    Degenerate inputs fail loudly (:class:`ValueError`) instead of
    skewing the gate: a near-zero current calibration would scale the
    floor to ~0 and pass everything; a near-zero baseline calibration
    (or a non-positive baseline throughput) would fail or pass
    everything regardless of the code under test.
    """
    current = document["aggregate"]["accesses_per_sec"]
    recorded = baseline["aggregate"]["accesses_per_sec"]
    if not (isinstance(recorded, (int, float)) and recorded > 0):
        raise ValueError(
            f"degenerate baseline: aggregate accesses_per_sec is "
            f"{recorded!r}; the regression floor would be meaningless")
    cal_now = document.get("calibration_ops_per_sec")
    cal_then = baseline.get("calibration_ops_per_sec")
    machine_ratio = None
    expected = recorded
    if cal_now is not None and cal_then is not None:
        _check_calibration(cal_now, "document")
        _check_calibration(cal_then, "baseline")
        machine_ratio = cal_now / cal_then
        expected = recorded * machine_ratio
    floor = expected * (1.0 - threshold)

    def _identity(cfg: Dict) -> Tuple[str, str]:
        # Pre-backend documents carry no "backend" field; they ran the
        # scalar reference core.
        return cfg["benchmark"], cfg.get("backend", "python")

    mismatched = [_identity(c) for c in document["configs"]] != \
                 [_identity(c) for c in baseline["configs"]]

    # Per-backend floors: when both documents break the aggregate down
    # by execution backend, each backend must clear its own scaled
    # floor -- a vectorized-core regression can't hide behind a fast
    # scalar run (or vice versa).  Baselines predating the backend
    # split skip this and gate on the aggregate alone.
    backends = {}
    backends_ok = True
    doc_bb = document["aggregate"].get("by_backend") or {}
    base_bb = baseline["aggregate"].get("by_backend") or {}
    for backend in sorted(set(doc_bb) & set(base_bb)):
        b_recorded = base_bb[backend]["accesses_per_sec"]
        b_expected = b_recorded * (machine_ratio
                                   if machine_ratio is not None else 1.0)
        b_floor = b_expected * (1.0 - threshold)
        b_current = doc_bb[backend]["accesses_per_sec"]
        b_ok = b_current >= b_floor
        backends_ok = backends_ok and b_ok
        backends[backend] = {
            "ok": b_ok,
            "current_aps": b_current,
            "baseline_aps": b_recorded,
            "floor_aps": round(b_floor, 1),
        }
    vector = vector_parity(document, threshold=threshold)
    return {
        "ok": (current >= floor and backends_ok and not mismatched
               and vector["ok"]),
        "current_aps": current,
        "baseline_aps": recorded,
        "machine_ratio": machine_ratio,
        "expected_aps": round(expected, 1),
        "floor_aps": round(floor, 1),
        "threshold": threshold,
        "matrix_mismatch": mismatched,
        "backends": backends,
        "vector": vector,
    }


def add_arguments(parser) -> None:
    """Register the bench CLI options (shared by ``python -m repro
    bench`` and standalone invocation)."""
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="directory for BENCH_<date>.json "
                             "(default: current directory)")
    parser.add_argument("--repeats", type=int, default=1, metavar="N",
                        help="runs per config; fastest wall is kept")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline document to compare against "
                             "(default: benchmarks/perf/baseline.json)")
    parser.add_argument("--check-regression", action="store_true",
                        help="exit non-zero when aggregate throughput "
                             f"drops >{REGRESSION_THRESHOLD:.0%}% below "
                             "the (machine-scaled) baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write this run as the committed baseline")


def cmd_bench(args) -> int:
    """CLI body for ``python -m repro bench``."""
    result = run_bench(repeats=args.repeats, out_dir=args.out)
    doc = result.document
    for entry in doc["configs"]:
        print(f"{entry['benchmark']:>10}/{entry['enhancements']}"
              f"/s{entry['scale']}/{entry['instructions']}"
              f"/{entry.get('backend', 'python')}: "
              f"{entry['accesses_per_sec']:>9.0f} acc/s "
              f"({entry['wall_s']:.2f}s wall, "
              f"sim {entry['phases'].get('simulate', 0.0):.2f}s, "
              f"trace {entry['phases'].get('trace', 0.0):.2f}s)")
    agg = doc["aggregate"]
    print(f"{'AGGREGATE':>10}: {agg['accesses_per_sec']:>9.0f} acc/s "
          f"({agg['wall_s']:.2f}s wall, {agg['accesses']} accesses, "
          f"peak RSS {agg['peak_rss_kb']} kB)")
    for backend, entry in agg.get("by_backend", {}).items():
        print(f"{backend:>10}: {entry['accesses_per_sec']:>9.0f} acc/s "
              f"({entry['wall_s']:.2f}s wall)")
    if result.path is not None:
        print(f"wrote {result.path}")

    if args.update_baseline:
        target = Path(args.baseline) if args.baseline else baseline_path()
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"baseline updated: {target}")
        return 0

    baseline_file = Path(args.baseline) if args.baseline else baseline_path()
    if baseline_file.exists():
        verdict = compare_to_baseline(doc, load_baseline(baseline_file))
        scale_note = (f" (machine x{verdict['machine_ratio']:.2f})"
                      if verdict["machine_ratio"] else "")
        status = "OK" if verdict["ok"] else "REGRESSION"
        print(f"baseline   : {verdict['baseline_aps']:.0f} acc/s"
              f"{scale_note} -> floor {verdict['floor_aps']:.0f}; "
              f"current {verdict['current_aps']:.0f} [{status}]")
        for backend, sub in verdict["backends"].items():
            sub_status = "OK" if sub["ok"] else "REGRESSION"
            print(f"  {backend:>9}: floor {sub['floor_aps']:.0f}; "
                  f"current {sub['current_aps']:.0f} [{sub_status}]")
        for bench, sub in verdict["vector"]["workloads"].items():
            sub_status = "OK" if sub["ok"] else "REGRESSION"
            print(f"  vector/{bench}: numpy {sub['speedup']:.2f}x python "
                  f"(floor {sub['floor']:.2f}x), "
                  f"{sub['windows']} windows, "
                  f"fallback rate {sub['fallback_rate']:.1%} "
                  f"[{sub_status}]")
        if args.check_regression and not verdict["ok"]:
            return 1
    elif args.check_regression:
        print(f"no baseline at {baseline_file}; cannot check", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(prog="repro bench")
    add_arguments(parser)
    return cmd_bench(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
