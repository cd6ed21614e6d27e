"""Benchmark registry: the paper's nine workloads (Table II).

Each entry binds a name to a :class:`PatternMix`, its suite, and the paper's
reference numbers so experiments can report paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.params import DEFAULT_SCALE
from repro.workloads.graph import (bf_mix, cc_mix, mis_mix, pr_mix,
                                   radii_mix, tc_mix)
from repro.workloads.parsec import canneal_mix
from repro.workloads.spec import mcf_mix, xalancbmk_mix
from repro.workloads.synthetic import PatternMix, SyntheticWorkload
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class BenchmarkInfo:
    """One Table II row."""

    name: str
    suite: str
    dataset_size: str
    category: str  # Low / Medium / High (by STLB MPKI)
    mix: PatternMix


def _compute_mix() -> PatternMix:
    """A cache/TLB-friendly control workload (not in the paper's table).

    The paper claims its enhancements "do not affect the performance of
    applications that do not see significant STLB misses"; this workload
    exists to test that claim.
    """
    return PatternMix(loads_per_kilo=220, stores_per_kilo=30,
                      random_fraction=0.0, seq_fraction=0.15,
                      random_pages=256, seq_pages=640, seq_stride=8,
                      local_pages=2, n_local_ips=6)


BENCHMARKS: Dict[str, BenchmarkInfo] = {
    "xalancbmk": BenchmarkInfo("xalancbmk", "SPEC CPU2017", "500MB", "Low",
                               xalancbmk_mix()),
    "tc": BenchmarkInfo("tc", "Ligra", "918MB", "Medium", tc_mix()),
    "canneal": BenchmarkInfo("canneal", "PARSEC", "2.3GB", "Medium",
                             canneal_mix()),
    "mis": BenchmarkInfo("mis", "Ligra", "918MB", "Medium", mis_mix()),
    "mcf": BenchmarkInfo("mcf", "SPEC CPU2017", "4GB", "Medium", mcf_mix()),
    "bf": BenchmarkInfo("bf", "Ligra", "918MB", "High", bf_mix()),
    "radii": BenchmarkInfo("radii", "Ligra", "918MB", "High", radii_mix()),
    "cc": BenchmarkInfo("cc", "Ligra", "918MB", "High", cc_mix()),
    "pr": BenchmarkInfo("pr", "Ligra", "918MB", "High", pr_mix()),
    # Control workload (not part of Table II): near-zero STLB misses.
    "compute": BenchmarkInfo("compute", "synthetic", "-", "Low",
                             _compute_mix()),
}

#: Paper's Table II: per-benchmark STLB MPKI and L2C/LLC MPKIs
#: (replay, non-replay, leaf translations a.k.a. PTL1).
TABLE2_REFERENCE: Dict[str, Dict[str, float]] = {
    "xalancbmk": {"stlb": 4.78, "l2c_replay": 4.37, "l2c_non_replay": 17.27,
                  "l2c_ptl1": 1.04, "llc_replay": 2.16,
                  "llc_non_replay": 7.81, "llc_ptl1": 0.48},
    "tc": {"stlb": 12.54, "l2c_replay": 12.35, "l2c_non_replay": 10.88,
           "l2c_ptl1": 3.51, "llc_replay": 11.64, "llc_non_replay": 8.59,
           "llc_ptl1": 1.6},
    "canneal": {"stlb": 17.54, "l2c_replay": 17.51, "l2c_non_replay": 4.15,
                "l2c_ptl1": 7.65, "llc_replay": 17.41,
                "llc_non_replay": 4.07, "llc_ptl1": 1.76},
    "mis": {"stlb": 18.64, "l2c_replay": 17.76, "l2c_non_replay": 63.68,
            "l2c_ptl1": 1.49, "llc_replay": 14.7, "llc_non_replay": 39.07,
            "llc_ptl1": 0.49},
    "mcf": {"stlb": 22.35, "l2c_replay": 22.27, "l2c_non_replay": 8.21,
            "l2c_ptl1": 6.84, "llc_replay": 22.24, "llc_non_replay": 4.5,
            "llc_ptl1": 0.11},
    "bf": {"stlb": 33.31, "l2c_replay": 29.37, "l2c_non_replay": 42.06,
           "l2c_ptl1": 4.82, "llc_replay": 27.10, "llc_non_replay": 34.18,
           "llc_ptl1": 1.62},
    "radii": {"stlb": 35.69, "l2c_replay": 34.08, "l2c_non_replay": 44.91,
              "l2c_ptl1": 5.18, "llc_replay": 31.11,
              "llc_non_replay": 31.86, "llc_ptl1": 1.54},
    "cc": {"stlb": 49.5, "l2c_replay": 47.25, "l2c_non_replay": 4.94,
           "l2c_ptl1": 66.15, "llc_replay": 40.40, "llc_non_replay": 42.54,
           "llc_ptl1": 0.79},
    "pr": {"stlb": 82.29, "l2c_replay": 80.43, "l2c_non_replay": 44.65,
           "l2c_ptl1": 20.98, "llc_replay": 76.53, "llc_non_replay": 35.63,
           "llc_ptl1": 7.1},
}

#: STLB MPKI category thresholds used for SMT mix construction (Section V).
CATEGORY_THRESHOLDS = {"Low": 10.0, "Medium": 25.0}


def categorize(stlb_mpki: float) -> str:
    """Classify an STLB MPKI value per the paper's Low/Medium/High bands."""
    if stlb_mpki <= CATEGORY_THRESHOLDS["Low"]:
        return "Low"
    if stlb_mpki <= CATEGORY_THRESHOLDS["Medium"]:
        return "Medium"
    return "High"


def benchmark_names(include_controls: bool = False) -> List[str]:
    """Table II benchmark names, in ascending-STLB-MPKI order.

    ``include_controls=True`` appends the synthetic control workloads
    (e.g. ``compute``) that are not part of the paper's table."""
    names = [n for n in BENCHMARKS if n in TABLE2_REFERENCE]
    if include_controls:
        names += [n for n in BENCHMARKS if n not in TABLE2_REFERENCE]
    return names


def make_trace(name: str, instructions: int, scale: int = DEFAULT_SCALE,
               seed: int = 1) -> Trace:
    """Generate a trace for one named benchmark or registered scenario.

    Registry benchmarks take priority.  Unknown names fall through to the
    scenario engine (library documents plus process-local ad-hoc
    registrations), so scenario traces flow through the exact same entry
    point -- and therefore the same runner/cache plumbing -- as benchmarks.
    """
    if name in BENCHMARKS:
        info = BENCHMARKS[name]
        workload = SyntheticWorkload(info.mix, name=name)
        return workload.generate(instructions, scale=scale, seed=seed)
    # Imported lazily: repro.scenarios depends on this module.
    from repro.scenarios.engine import resolve_trace
    trace = resolve_trace(name, instructions, scale=scale, seed=seed)
    if trace is not None:
        return trace
    raise ValueError(f"unknown benchmark or scenario {name!r}; "
                     f"available benchmarks: {sorted(BENCHMARKS)}")
