"""Ablation studies beyond the paper's figures.

The paper presents its mechanisms cumulatively (Fig 14).  These
ablations isolate each design choice DESIGN.md calls out:

* each mechanism alone (is ATP useful without the T-policies that give
  translations their on-chip residency?);
* ATP trigger placement (L2C-only vs LLC-only vs both);
* the contribution of the new signatures vs RRPV=0 insertion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures import FigureResult
from repro.experiments.parallel import RunKey
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import DEFAULT_SCALE, EnhancementConfig, default_config
from repro.stats.report import geometric_mean
from repro.workloads.registry import benchmark_names
from repro.experiments.registry import figure

#: Single-mechanism variants (plus the full stack for reference).
ABLATION_VARIANTS: Dict[str, EnhancementConfig] = {
    "t_drrip_only": EnhancementConfig(t_drrip=True),
    "t_ship_only": EnhancementConfig(t_ship=True, newsign=True),
    "newsign_only": EnhancementConfig(newsign=True),
    "atp_only": EnhancementConfig(atp=True),
    "tempo_only": EnhancementConfig(tempo=True),
    "full": EnhancementConfig.full(),
}


@figure("ablation", paper=False)
def single_mechanism_ablation(benchmarks: Optional[Sequence[str]] = None,
                              instructions: int = DEFAULT_INSTRUCTIONS,
                              warmup: int = DEFAULT_WARMUP,
                              scale: int = DEFAULT_SCALE) -> FigureResult:
    """Speedup of each mechanism alone vs the shared baseline."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    specs = {(name, "base"): RunKey.make(name, None, instructions, warmup,
                                         scale)
             for name in names}
    for name in names:
        for label, enh in ABLATION_VARIANTS.items():
            cfg = default_config(scale).with_(enhancements=enh)
            specs[(name, label)] = RunKey.make(name, cfg, instructions,
                                               warmup, scale)
    runs = yield specs
    rows, data = [], {}
    speedups: Dict[str, List[float]] = {v: [] for v in ABLATION_VARIANTS}
    for name in names:
        row = [name]
        data[name] = {}
        for label in ABLATION_VARIANTS:
            sp = runs[(name, label)].speedup_over(runs[(name, "base")])
            row.append(sp)
            data[name][label] = sp
            speedups[label].append(sp)
        rows.append(row)
    gmean_row = ["gmean"] + [geometric_mean(speedups[v])
                             for v in ABLATION_VARIANTS]
    rows.append(gmean_row)
    data["gmean"] = dict(zip(ABLATION_VARIANTS, gmean_row[1:]))
    return FigureResult("Ablation", "Single-mechanism speedups",
                        ["benchmark"] + list(ABLATION_VARIANTS), rows, data)


@figure("atp_placement", paper=False)
def atp_trigger_placement(benchmarks: Optional[Sequence[str]] = None,
                          instructions: int = DEFAULT_INSTRUCTIONS,
                          warmup: int = DEFAULT_WARMUP,
                          scale: int = DEFAULT_SCALE) -> FigureResult:
    """Where do ATP triggers fire, and what does each level contribute?

    Reports, per benchmark, the L2C vs LLC trigger counts of the full
    configuration -- the paper notes the LLC contribution grows with LLC
    size (Fig 21 discussion).
    """
    names = list(benchmarks) if benchmarks else benchmark_names()
    cfg = default_config(scale).with_(
        enhancements=EnhancementConfig.full())
    runs = yield {name: RunKey.make(name, cfg, instructions, warmup, scale)
                  for name in names}
    rows, data = [], {}
    for name in names:
        run = runs[name]
        total = max(1, run.atp_triggered + run.tempo_triggered)
        rows.append([name, run.atp_triggered_l2c, run.atp_triggered_llc,
                     run.tempo_triggered, run.atp_triggered_l2c / total])
        data[name] = {"l2c": run.atp_triggered_l2c,
                      "llc": run.atp_triggered_llc,
                      "tempo": run.tempo_triggered}
    return FigureResult(
        "Ablation", "Replay-prefetch trigger placement (full config)",
        ["benchmark", "ATP @ L2C", "ATP @ LLC", "TEMPO @ DRAM",
         "L2C share"], rows, data)
