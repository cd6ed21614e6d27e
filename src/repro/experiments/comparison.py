"""Section V-B: comparison with recent prior works.

* **CbPred/DpPred** (HPCA'21): bypassing dead pages at the STLB and dead
  blocks at the LLC.  Paper: the proposed enhancements beat CbPred by
  3.1% on average -- bypassing dead entries frees capacity but neither
  keeps the short-recall translations nor covers replay loads.
* **CSALT** (MICRO'17): dynamic translation/data partitioning at the
  LLC.  Paper: ~1% over an enhanced SHiP baseline.
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

#: Configurations compared in Section V-B, all normalized to the shared
#: DRRIP+SHiP baseline.
COMPARISON_VARIANTS = ("cbpred", "csalt", "proposed")


@figure("comparison", paper=False)
def prior_work_comparison(benchmarks: Optional[Sequence[str]] = None,
                          instructions: int = DEFAULT_INSTRUCTIONS,
                          warmup: int = DEFAULT_WARMUP,
                          scale: int = DEFAULT_SCALE) -> FigureResult:
    """Speedup of CbPred, CSALT and the paper's proposal vs baseline."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    configs = {"base": None,
               "cbpred": default_config(scale).with_(comparison="cbpred"),
               "csalt": default_config(scale).with_(comparison="csalt"),
               "proposed": default_config(scale).with_(
                   enhancements=EnhancementConfig.full())}
    runs = yield {(name, label): RunKey.make(name, cfg, instructions,
                                             warmup, scale)
                  for name in names
                  for label, cfg in configs.items()}
    rows: List[List] = []
    data: Dict = {}
    speedups: Dict[str, List[float]] = {v: [] for v in COMPARISON_VARIANTS}
    for name in names:
        row = [name]
        data[name] = {}
        for variant in COMPARISON_VARIANTS:
            sp = runs[(name, variant)].speedup_over(runs[(name, "base")])
            row.append(sp)
            data[name][variant] = sp
            speedups[variant].append(sp)
        rows.append(row)
    gmean_row = ["gmean"] + [geometric_mean(speedups[v])
                             for v in COMPARISON_VARIANTS]
    rows.append(gmean_row)
    data["gmean"] = dict(zip(COMPARISON_VARIANTS, gmean_row[1:]))
    return FigureResult("Sec V-B", "Comparison with prior works",
                        ["benchmark"] + list(COMPARISON_VARIANTS),
                        rows, data)
