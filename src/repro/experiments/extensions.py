"""Extension studies beyond the paper.

**Huge pages.** The paper maps everything with 4KB pages.  A natural
question is how much of the problem transparent huge pages would solve:
backing the gather region with 2MB pages multiplies the STLB's reach by
512, collapsing the STLB MPKI -- and with it, the replay-load population
the paper's mechanisms accelerate.  The study quantifies both the
benefit of THP and the residual value of the enhancements under THP
(walks still happen, just rarely, and the remaining ones still behave
as the paper describes).
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


@figure("hugepages", paper=False)
def huge_page_study(benchmarks: Optional[Sequence[str]] = None,
                    instructions: int = DEFAULT_INSTRUCTIONS,
                    warmup: int = DEFAULT_WARMUP,
                    scale: int = DEFAULT_SCALE) -> FigureResult:
    """4KB vs 2MB gather pages, with and without the enhancements.

    All four configurations are normalized to the 4KB baseline, and the
    4KB/2MB STLB MPKIs are reported alongside.
    """
    names = list(benchmarks) if benchmarks else benchmark_names()
    variant_cfgs = {
        "4K+enh": ("none", EnhancementConfig.full()),
        "2M": ("gather_region", EnhancementConfig.none()),
        "2M+enh": ("gather_region", EnhancementConfig.full()),
    }
    specs = {}
    for name in names:
        specs[(name, "base")] = RunKey.make(name, None, instructions,
                                            warmup, scale)
        for label, (huge, enh) in variant_cfgs.items():
            cfg = default_config(scale).with_(huge_page_policy=huge,
                                                enhancements=enh)
            specs[(name, label)] = RunKey.make(name, cfg, instructions,
                                               warmup, scale)
    runs = yield specs
    rows: List[List] = []
    data: Dict = {}
    speedup_cols = {"4K+enh": [], "2M": [], "2M+enh": []}
    for name in names:
        base = runs[(name, "base")]
        variants = {label: runs[(name, label)] for label in variant_cfgs}
        row = [name, base.stlb_mpki, variants["2M"].stlb_mpki]
        data[name] = {"stlb_4k": base.stlb_mpki,
                      "stlb_2m": variants["2M"].stlb_mpki}
        for label, run in variants.items():
            sp = run.speedup_over(base)
            row.append(sp)
            data[name][label] = sp
            speedup_cols[label].append(sp)
        rows.append(row)
    gmean_row = ["gmean", "", ""] + [geometric_mean(speedup_cols[c])
                                     for c in speedup_cols]
    rows.append(gmean_row)
    data["gmean"] = {c: geometric_mean(v) for c, v in speedup_cols.items()}
    return FigureResult(
        "Extension", "Huge pages vs translation-conscious caching",
        ["benchmark", "STLB MPKI (4K)", "STLB MPKI (2M)",
         "4K+enh", "2M", "2M+enh"], rows, data)
