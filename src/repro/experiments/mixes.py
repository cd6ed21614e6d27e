"""SMT and multi-core mix experiments (Fig 17 and the Section V
multi-core study).

SMT mixes pair benchmarks across the paper's Low/Medium/High STLB-MPKI
categories; the reported metric is the *harmonic speedup* of the enhanced
configuration over the baseline, both run as 2-thread SMT.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.smt import SMTCore
from repro.core.multicore import MultiCore
from repro.experiments.figures import FigureResult
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import (DEFAULT_SCALE, EnhancementConfig, SimConfig,
                          default_config)
from repro.stats.report import geometric_mean, harmonic_mean
from repro.uncore.hierarchy import MemoryHierarchy
from repro.workloads.registry import make_trace
from repro.experiments.registry import figure

#: The paper's example SMT pairings, covering category combinations.
SMT_MIXES: Tuple[Tuple[str, str], ...] = (
    ("xalancbmk", "xalancbmk"),   # Low-Low
    ("canneal", "xalancbmk"),     # Medium-Low
    ("mcf", "tc"),                # Medium-Medium
    ("bf", "xalancbmk"),          # High-Low
    ("pr", "canneal"),            # High-Medium
    ("radii", "bf"),              # High-High
    ("pr", "cc"),                 # High-High
    ("tc", "pr"),                 # Medium-High
)


def _run_smt(mix: Tuple[str, str], config: SimConfig, instructions: int,
             warmup: int, scale: int) -> List:
    traces = [make_trace(name, instructions + warmup, scale=scale,
                         seed=7 + i)
              for i, name in enumerate(mix)]
    hierarchy = MemoryHierarchy(config)
    smt = SMTCore(config, hierarchy)
    return smt.run(traces, warmup=warmup)


@figure("fig17", takes_benchmarks=False)
def fig17_smt(mixes: Sequence[Tuple[str, str]] = SMT_MIXES,
              instructions: int = DEFAULT_INSTRUCTIONS,
              warmup: int = DEFAULT_WARMUP,
              scale: int = DEFAULT_SCALE) -> FigureResult:
    """Harmonic speedup of the full enhancements for 2-way SMT mixes."""
    rows, data = [], {}
    speedups = []
    for mix in mixes:
        base_cfg = default_config(scale)
        enh_cfg = base_cfg.with_(enhancements=EnhancementConfig.full())
        base = _run_smt(mix, base_cfg, instructions, warmup, scale)
        enh = _run_smt(mix, enh_cfg, instructions, warmup, scale)
        per_thread = [b.cycles / e.cycles for b, e in zip(base, enh)]
        hsp = harmonic_mean(per_thread)
        label = f"{mix[0]}-{mix[1]}"
        rows.append([label, per_thread[0], per_thread[1], hsp])
        data[label] = {"t0": per_thread[0], "t1": per_thread[1],
                       "harmonic": hsp}
        speedups.append(hsp)
    g = geometric_mean(speedups)
    rows.append(["gmean", "", "", g])
    data["gmean"] = g
    return FigureResult("Fig 17", "2-way SMT harmonic speedup",
                        ["mix (T0-T1)", "T0 speedup", "T1 speedup",
                         "harmonic"], rows, data)


#: Example multiprogrammed mixes (heterogeneous + homogeneous).  The
#: paper uses 25 8-core mixes; a representative subset keeps the bench
#: affordable while still averaging over interleaving noise.
MULTICORE_MIXES: Tuple[Tuple[str, ...], ...] = (
    ("pr", "cc", "bf", "radii", "mcf", "tc", "canneal", "xalancbmk"),
    ("pr",) * 8,
    ("mcf", "mcf", "canneal", "canneal", "tc", "tc", "bf", "bf"),
    ("cc", "canneal", "tc", "mcf"),
)


def multicore_speedup(mix: Sequence[str],
                      instructions: int = DEFAULT_INSTRUCTIONS,
                      warmup: int = DEFAULT_WARMUP,
                      scale: int = DEFAULT_SCALE) -> Dict:
    """Harmonic speedup of the enhancements for one multi-core mix (one
    core per workload)."""
    traces = [make_trace(name, instructions + warmup, scale=scale,
                         seed=11 + i)
              for i, name in enumerate(mix)]

    def run(config: SimConfig):
        machine = MultiCore(config, len(mix))
        return machine.run(traces, warmup=warmup)

    base = run(default_config(scale))
    enh = run(default_config(scale).with_(
        enhancements=EnhancementConfig.full()))
    per_core = [b.cycles / e.cycles for b, e in zip(base, enh)]
    return {"mix": tuple(mix), "per_core": per_core,
            "harmonic": harmonic_mean(per_core)}


@figure("multicore", takes_benchmarks=False)
def multicore_study(mixes: Sequence[Sequence[str]] = MULTICORE_MIXES,
                    instructions: int = DEFAULT_INSTRUCTIONS,
                    warmup: int = DEFAULT_WARMUP,
                    scale: int = DEFAULT_SCALE) -> FigureResult:
    """Section V multi-core results over a set of 8-core mixes."""
    rows, data = [], {}
    speedups = []
    for mix in mixes:
        res = multicore_speedup(mix, instructions=instructions,
                                warmup=warmup, scale=scale)
        label = "+".join(sorted(set(mix)))
        rows.append([label, res["harmonic"]])
        data[label] = res
        speedups.append(res["harmonic"])
    g = geometric_mean(speedups)
    rows.append(["gmean", g])
    data["gmean"] = g
    return FigureResult("Multi-core", "8-core mix harmonic speedup",
                        ["mix", "harmonic speedup"], rows, data)
