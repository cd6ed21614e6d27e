"""ATP scope analysis (quantifying Fig 13's timeline).

ATP's benefit per replay load equals the head start its prefetch gets
over the replay demand: the translation-response climb back to the
core, the TLB fills, the load-queue re-issue, and the demand's descent
back to the trigger level.  This analysis measures, per benchmark and
over the region of interest, from Fig 14's ``+T-SHiP`` and ``+ATP``
points:

* the number of ATP triggers;
* the mean replay data latency with and without ATP -- whose difference
  is the realized head start;
* the fraction of replay loads that the L2C or LLC served (the line was
  in flight or resident at the trigger level).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures import FIG14_VARIANTS, FigureResult
from repro.experiments.parallel import RunKey
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import DEFAULT_SCALE, default_config
from repro.workloads.registry import benchmark_names
from repro.experiments.registry import figure


@figure("atp_scope", paper=False)
def atp_scope(benchmarks: Optional[Sequence[str]] = None,
              instructions: int = DEFAULT_INSTRUCTIONS,
              warmup: int = DEFAULT_WARMUP,
              scale: int = DEFAULT_SCALE) -> FigureResult:
    """Realized ATP head start per benchmark (cycles per replay load)."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    runs = yield {(name, label): RunKey.make(
        name, default_config(scale).with_(
            enhancements=FIG14_VARIANTS[label]),
        instructions, warmup, scale)
        for name in names for label in ("+T-SHiP", "+ATP")}
    rows: List[List] = []
    data: Dict = {}
    for name in names:
        base, atp = runs[(name, "+T-SHiP")], runs[(name, "+ATP")]
        served = atp.response_fractions("replay")
        coverage = served["L2C"] + served["LLC"]
        base_lat, atp_lat = base.replay_latency, atp.replay_latency
        head_start = base_lat - atp_lat
        rows.append([name, base_lat, atp_lat, head_start, coverage,
                     atp.atp_triggered])
        data[name] = {"base_latency": base_lat, "atp_latency": atp_lat,
                      "head_start": head_start, "coverage": coverage,
                      "triggers": atp.atp_triggered}
    return FigureResult(
        "ATP scope", "Replay data latency with/without ATP (Fig 13)",
        ["benchmark", "latency (T-stack)", "latency (+ATP)",
         "head start", "on-chip coverage", "triggers"], rows, data)
