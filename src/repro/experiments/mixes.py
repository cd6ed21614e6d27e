"""SMT and multi-core mix experiments (Fig 17 and the Section V
multi-core study).

SMT mixes pair benchmarks across the paper's Low/Medium/High STLB-MPKI
categories; the reported metric is the *harmonic speedup* of the enhanced
configuration over the baseline, both run as 2-thread SMT.  Each mix
is one point whose key names its streams: SMT threads traced with seeds
7, 8 and multicore cores with seeds 11, 12, ...
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.experiments.figures import FigureResult
from repro.experiments.parallel import RunKey
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import DEFAULT_SCALE, EnhancementConfig, default_config
from repro.stats.report import geometric_mean, harmonic_mean
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


def _mix_grid(mixes: Sequence[Sequence[str]], stream: str, seed: int,
              instructions: int, warmup: int, scale: int):
    """Each mix under the baseline and the full enhancements, labelled
    ``(index, "base"|"enh")``; ``stream`` is the key field that names
    the mix (``threads`` or ``cores``)."""
    base_cfg = default_config(scale)
    configs = {"base": base_cfg, "enh": base_cfg.with_(
        enhancements=EnhancementConfig.full())}
    return {(i, label): RunKey.make(None, cfg, instructions, warmup, scale,
                                    seed, **{stream: mix})
            for i, mix in enumerate(mixes)
            for label, cfg in configs.items()}


@figure("fig17", takes_benchmarks=False)
def fig17_smt(mixes: Sequence[Tuple[str, str]] = SMT_MIXES,
              instructions: int = DEFAULT_INSTRUCTIONS,
              warmup: int = DEFAULT_WARMUP,
              scale: int = DEFAULT_SCALE) -> FigureResult:
    """Harmonic speedup of the full enhancements for 2-way SMT mixes."""
    runs = yield _mix_grid(mixes, "threads", 7, instructions, warmup, scale)
    rows, data = [], {}
    speedups = []
    for i, mix in enumerate(mixes):
        base, enh = runs[(i, "base")].streams, runs[(i, "enh")].streams
        per_thread = [b["cycles"] / e["cycles"] for b, e in zip(base, enh)]
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


@figure("multicore", takes_benchmarks=False)
def multicore_study(mixes: Sequence[Sequence[str]] = MULTICORE_MIXES,
                    instructions: int = DEFAULT_INSTRUCTIONS,
                    warmup: int = DEFAULT_WARMUP,
                    scale: int = DEFAULT_SCALE) -> FigureResult:
    """Section V multi-core results over a set of 8-core mixes."""
    runs = yield _mix_grid(mixes, "cores", 11, instructions, warmup, scale)
    rows, data = [], {}
    speedups = []
    for i, mix in enumerate(mixes):
        base, enh = runs[(i, "base")].streams, runs[(i, "enh")].streams
        per_core = [b["cycles"] / e["cycles"] for b, e in zip(base, enh)]
        res = {"mix": tuple(mix), "per_core": per_core,
               "harmonic": harmonic_mean(per_core)}
        label = "+".join(sorted(set(mix)))
        rows.append([label, res["harmonic"]])
        data[label] = res
        speedups.append(res["harmonic"])
    g = geometric_mean(speedups)
    rows.append(["gmean", g])
    data["gmean"] = g
    return FigureResult("Multi-core", "8-core mix harmonic speedup",
                        ["mix", "harmonic speedup"], rows, data)
