"""Sensitivity sweeps (Figs 19, 20, 21).

Each sweep varies one structure's capacity and reports the speedup of the
full enhancement stack over the baseline *at that size* -- the paper's
methodology ("normalized ... with respect to their corresponding
baselines").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List, Optional, Sequence

from repro.experiments.figures import FigureResult
from repro.experiments.parallel import RunKey
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import DEFAULT_SCALE, EnhancementConfig, default_config
from repro.stats.report import geometric_mean
from repro.workloads.registry import benchmark_names
from repro.experiments.registry import figure

#: Paper sweep points (at paper scale; divided by ``scale`` at run time).
STLB_SWEEP_ENTRIES = (512, 1024, 2048, 4096)
L2C_SWEEP_BYTES = (256 * 1024, 512 * 1024, 768 * 1024, 1024 * 1024)
LLC_SWEEP_BYTES = (1 << 20, 2 << 20, 4 << 20, 8 << 20)

#: L2C access latency grows with capacity (Table I note: 1MB is slower).
_L2C_LATENCY = {256 * 1024: 9, 512 * 1024: 10, 768 * 1024: 11,
                1024 * 1024: 12}
_LLC_LATENCY = {1 << 20: 18, 2 << 20: 20, 4 << 20: 22, 8 << 20: 24}


def _sweep(figure: str, title: str, structure: str, points: Sequence[int],
           benchmarks: Optional[Sequence[str]], instructions: int,
           warmup: int, scale: int
           ) -> Generator[Dict, Dict, FigureResult]:
    names = list(benchmarks) if benchmarks else benchmark_names()

    def point_config(point: int):
        cfg = default_config(scale)
        if structure == "stlb":
            stlb = dataclasses.replace(cfg.stlb,
                                       entries=max(cfg.stlb.ways,
                                                   point // scale))
            return cfg.with_(stlb=stlb)
        if structure == "l2c":
            l2c = dataclasses.replace(
                cfg.l2c, size_bytes=max(64 * cfg.l2c.ways, point // scale),
                latency=_L2C_LATENCY[point])
            return cfg.with_(l2c=l2c)
        llc = dataclasses.replace(
            cfg.llc, size_bytes=max(64 * cfg.llc.ways, point // scale),
            latency=_LLC_LATENCY[point])
        return cfg.with_(llc=llc)

    specs = {}
    for point in points:
        cfg = point_config(point)
        enh_cfg = cfg.with_(enhancements=EnhancementConfig.full())
        for name in names:
            specs[(point, name, "base")] = RunKey.make(
                name, cfg, instructions, warmup, scale)
            specs[(point, name, "enh")] = RunKey.make(
                name, enh_cfg, instructions, warmup, scale)
    runs = yield specs
    rows: List[List] = []
    data: Dict = {}
    gmeans = []
    for point in points:
        speedups = []
        data[point] = {}
        for name in names:
            sp = runs[(point, name, "enh")].speedup_over(
                runs[(point, name, "base")])
            speedups.append(sp)
            data[point][name] = sp
        g = geometric_mean(speedups)
        data[point]["gmean"] = g
        gmeans.append(g)
        rows.append([str(point)] + speedups + [g])
    return FigureResult(figure, title, ["size"] + names + ["gmean"],
                        rows, data)


@figure("psc", paper=False)
def psc_sensitivity(benchmarks: Optional[Sequence[str]] = None,
                    instructions: int = DEFAULT_INSTRUCTIONS,
                    warmup: int = DEFAULT_WARMUP,
                    scale: int = DEFAULT_SCALE) -> FigureResult:
    """Beyond the paper: how much do the paging-structure caches matter?

    Sweeps PSC capacity from none to 4x Table I and reports baseline
    walk latency (cycles per walk) and IPC.  With healthy PSCs most
    walks are a single leaf read -- the regime ATP exploits.
    """
    import dataclasses as _dc
    from repro.params import PSCConfig

    names = list(benchmarks) if benchmarks else benchmark_names()
    variants = {
        "no_psc": PSCConfig(pscl5_entries=1, pscl4_entries=1,
                            pscl3_entries=1, pscl2_entries=1),
        "table1": PSCConfig(),
        "4x": PSCConfig(pscl5_entries=8, pscl4_entries=16,
                        pscl3_entries=32, pscl2_entries=128),
    }
    specs = {}
    for name in names:
        for label, psc in variants.items():
            cfg = default_config(scale).with_(psc=psc)
            specs[(name, label)] = RunKey.make(name, cfg, instructions,
                                               warmup, scale)
    runs = yield specs
    rows, data = [], {}
    for name in names:
        row = [name]
        data[name] = {}
        for label in variants:
            run = runs[(name, label)]
            row.append(run.walk_latency)
            data[name][label] = {"walk_latency": run.walk_latency,
                                 "ipc": run.ipc}
        rows.append(row)
    return FigureResult("PSC sweep",
                        "Average page-walk latency by PSC capacity",
                        ["benchmark"] + list(variants), rows, data)


@figure("fig19")
def fig19_stlb_sensitivity(benchmarks: Optional[Sequence[str]] = None,
                           instructions: int = DEFAULT_INSTRUCTIONS,
                           warmup: int = DEFAULT_WARMUP,
                           scale: int = DEFAULT_SCALE,
                           points: Sequence[int] = STLB_SWEEP_ENTRIES
                           ) -> FigureResult:
    """Speedup of the enhancements vs baseline across STLB sizes."""
    return (yield from _sweep(
        "Fig 19", "STLB sensitivity (entries at paper scale)",
        "stlb", points, benchmarks, instructions, warmup, scale))


@figure("fig20")
def fig20_l2c_sensitivity(benchmarks: Optional[Sequence[str]] = None,
                          instructions: int = DEFAULT_INSTRUCTIONS,
                          warmup: int = DEFAULT_WARMUP,
                          scale: int = DEFAULT_SCALE,
                          points: Sequence[int] = L2C_SWEEP_BYTES
                          ) -> FigureResult:
    """Speedup of the enhancements vs baseline across L2C sizes."""
    return (yield from _sweep(
        "Fig 20", "L2C sensitivity (bytes at paper scale)",
        "l2c", points, benchmarks, instructions, warmup, scale))


@figure("fig21")
def fig21_llc_sensitivity(benchmarks: Optional[Sequence[str]] = None,
                          instructions: int = DEFAULT_INSTRUCTIONS,
                          warmup: int = DEFAULT_WARMUP,
                          scale: int = DEFAULT_SCALE,
                          points: Sequence[int] = LLC_SWEEP_BYTES
                          ) -> FigureResult:
    """Speedup of the enhancements vs baseline across LLC sizes."""
    return (yield from _sweep(
        "Fig 21", "LLC sensitivity (bytes at paper scale)",
        "llc", points, benchmarks, instructions, warmup, scale))
