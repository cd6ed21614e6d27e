"""Prefetch accuracy study (Section V: "Our ATP prefetcher is 100%
accurate as it is not speculative").

Conventional prefetchers guess future addresses; wrong guesses burn DRAM
bandwidth and cache capacity.  ATP computes the replay line *exactly*
from the leaf PTE and the carried page-offset bits, so every prefetch is
consumed by its replay demand (unless it is evicted first).  This study
measures, per prefetcher, the fraction of prefetched blocks that a
demand touched before eviction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures import FigureResult
from repro.experiments.parallel import RunKey
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import DEFAULT_SCALE, EnhancementConfig, default_config
from repro.workloads.registry import benchmark_names
from repro.experiments.registry import figure


def _useful_and_filled(run, levels: Sequence[str]):
    useful = sum(run.prefetch_useful(lvl) for lvl in levels)
    filled = sum(run.prefetch_fills(lvl) for lvl in levels)
    return useful, filled


@figure("accuracy", paper=False)
def prefetch_accuracy(benchmarks: Optional[Sequence[str]] = None,
                      instructions: int = DEFAULT_INSTRUCTIONS,
                      warmup: int = DEFAULT_WARMUP,
                      scale: int = DEFAULT_SCALE) -> FigureResult:
    """Useful-prefetch fraction for IPCP/SPP/Bingo/ISB vs ATP."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    # Per prefetcher: config overrides and the level it *targets* (a miss
    # also fills the levels below on the way up; those passthrough copies
    # are side effects, not predictions, so they are excluded).
    variants = {
        "ipcp": (dict(l1d_prefetcher="ipcp"), ("l1d",)),
        "spp": (dict(l2c_prefetcher="spp"), ("l2c",)),
        "bingo": (dict(l2c_prefetcher="bingo"), ("l2c",)),
        "isb": (dict(l2c_prefetcher="isb"), ("l2c",)),
        "atp": (dict(enhancements=EnhancementConfig(
            t_drrip=True, t_ship=True, newsign=True, atp=True)),
            ("l2c", "llc")),
    }
    specs = {}
    for name in names:
        for label, (overrides, levels) in variants.items():
            cfg = default_config(scale).with_(**overrides)
            specs[(name, label)] = RunKey.make(name, cfg, instructions,
                                               warmup, scale)
    runs = yield specs
    rows: List[List] = []
    data: Dict = {}
    totals = {v: [0, 0] for v in variants}
    for name in names:
        row = [name]
        data[name] = {}
        for label, (overrides, levels) in variants.items():
            run = runs[(name, label)]
            useful, filled = _useful_and_filled(run, levels)
            if label == "atp":
                # Each trigger targets exactly one block at one level;
                # the passthrough LLC copy of an L2C-targeted prefetch is
                # not a prediction.  Consumed triggers / triggers.
                filled = run.atp_triggered
            accuracy = min(1.0, useful / filled) if filled else 0.0
            row.append(accuracy)
            data[name][label] = {"useful": useful, "filled": filled,
                                 "accuracy": accuracy}
            totals[label][0] += useful
            totals[label][1] += filled
        rows.append(row)
    mean_row = ["overall"]
    data["overall"] = {}
    for label, (useful, filled) in totals.items():
        acc = useful / filled if filled else 0.0
        mean_row.append(acc)
        data["overall"][label] = acc
    rows.append(mean_row)
    return FigureResult("Accuracy", "Useful fraction of prefetched blocks",
                        ["benchmark"] + list(variants), rows, data)
