"""One harness per data figure/table of the paper.

Each harness yields its grid of runs once (``runs = yield {label:
RunKey}``; see :mod:`repro.experiments.registry`) and returns a
:class:`FigureResult` whose ``rows``/``headers`` regenerate the
figure's series, and whose ``data`` dict holds the raw values for
programmatic checks.  ``str(result)`` renders the ASCII table.

All functions accept ``instructions``/``warmup``/``scale`` so tests can use
tiny runs and full regenerations can use longer ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.core.rob import StallCategory
from repro.experiments.parallel import RunKey
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import (DEFAULT_SCALE, EnhancementConfig, IdealConfig,
                          SimConfig, default_config)
from repro.stats.recall import RECALL_BUCKETS
from repro.stats.report import format_table, geometric_mean
from repro.workloads.registry import TABLE2_REFERENCE, benchmark_names
from repro.experiments.registry import figure


@dataclass
class FigureResult:
    """A regenerated figure/table."""

    figure: str
    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    data: Dict = field(default_factory=dict)

    def __str__(self) -> str:
        return format_table(f"[{self.figure}] {self.title}",
                            self.headers, self.rows)

    def to_dict(self) -> Dict:
        """JSON-serializable form (for downstream plotting/archiving)."""
        return {"figure": self.figure, "title": self.title,
                "headers": list(self.headers),
                "rows": [list(r) for r in self.rows], "data": self.data}


def _benchmarks(benchmarks: Optional[Sequence[str]]) -> List[str]:
    return list(benchmarks) if benchmarks else benchmark_names()


def _baseline_grid(benchmarks: Sequence[str], instructions: int,
                   warmup: int, scale: int,
                   config: Optional[SimConfig] = None
                   ) -> Dict[str, RunKey]:
    """Every benchmark under the baseline config (or ``config``),
    labelled by name."""
    return {name: RunKey.make(name, config, instructions, warmup, scale)
            for name in benchmarks}


# ----------------------------------------------------------------------
# Fig 1: head-of-ROB stall cycles per category.
# ----------------------------------------------------------------------
@figure("fig1")
def fig1_rob_stalls(benchmarks: Optional[Sequence[str]] = None,
                    instructions: int = DEFAULT_INSTRUCTIONS,
                    warmup: int = DEFAULT_WARMUP,
                    scale: int = DEFAULT_SCALE) -> FigureResult:
    """Average/max head-of-ROB stall cycles for STLB-miss translations,
    replay loads and non-replay loads (baseline DRRIP+SHiP)."""
    names = _benchmarks(benchmarks)
    runs = yield _baseline_grid(names, instructions, warmup, scale)
    rows, data = [], {}
    for name in names:
        r = runs[name]
        row = [name,
               r.stall_avg(StallCategory.TRANSLATION),
               r.stall_max(StallCategory.TRANSLATION),
               r.stall_avg(StallCategory.REPLAY),
               r.stall_max(StallCategory.REPLAY),
               r.stall_avg(StallCategory.NON_REPLAY),
               r.stall_max(StallCategory.NON_REPLAY)]
        rows.append(row)
        data[name] = {"translation_avg": row[1], "translation_max": row[2],
                      "replay_avg": row[3], "replay_max": row[4],
                      "non_replay_avg": row[5], "non_replay_max": row[6],
                      "translation_total": r.stall_cycles(
                          StallCategory.TRANSLATION),
                      "replay_total": r.stall_cycles(StallCategory.REPLAY),
                      "non_replay_total": r.stall_cycles(
                          StallCategory.NON_REPLAY)}
    avg = ["mean"] + [sum(r[i] for r in rows) / len(rows)
                      for i in range(1, 7)]
    rows.append(avg)
    data["mean"] = {"translation_avg": avg[1], "replay_avg": avg[3],
                    "non_replay_avg": avg[5]}
    return FigureResult(
        "Fig 1", "Head-of-ROB stall cycles by request class",
        ["benchmark", "T avg", "T max", "R avg", "R max",
         "NR avg", "NR max"], rows, data)


# ----------------------------------------------------------------------
# Fig 2: ideal L2C/LLC opportunity study.
# ----------------------------------------------------------------------
_IDEAL_MODES = {
    "LLC(T)": IdealConfig(llc_translations=True),
    "LLC(R)": IdealConfig(llc_replays=True),
    "LLC(TR)": IdealConfig(llc_translations=True, llc_replays=True),
    "L2C+LLC(T)": IdealConfig(llc_translations=True, l2c_translations=True),
    "L2C+LLC(R)": IdealConfig(llc_replays=True, l2c_replays=True),
    "L2C+LLC(TR)": IdealConfig(llc_translations=True, llc_replays=True,
                               l2c_translations=True, l2c_replays=True),
}


@figure("fig2")
def fig2_ideal(benchmarks: Optional[Sequence[str]] = None,
               instructions: int = DEFAULT_INSTRUCTIONS,
               warmup: int = DEFAULT_WARMUP,
               scale: int = DEFAULT_SCALE,
               modes: Optional[Sequence[str]] = None) -> FigureResult:
    """Normalized performance with ideal caches for leaf translations (T),
    replay loads (R) and both (TR)."""
    names = _benchmarks(benchmarks)
    mode_names = list(modes) if modes else list(_IDEAL_MODES)
    specs = {(name, "base"): RunKey.make(name, None, instructions, warmup,
                                         scale)
             for name in names}
    for name in names:
        for mode in mode_names:
            cfg = default_config(scale).with_(ideal=_IDEAL_MODES[mode])
            specs[(name, mode)] = RunKey.make(name, cfg, instructions,
                                              warmup, scale)
    runs = yield specs
    rows, data = [], {}
    speedups_by_mode: Dict[str, List[float]] = {m: [] for m in mode_names}
    for name in names:
        row = [name]
        data[name] = {}
        for mode in mode_names:
            sp = runs[(name, mode)].speedup_over(runs[(name, "base")])
            row.append(sp)
            data[name][mode] = sp
            speedups_by_mode[mode].append(sp)
        rows.append(row)
    gmean_row = ["gmean"] + [geometric_mean(speedups_by_mode[m])
                             for m in mode_names]
    rows.append(gmean_row)
    data["gmean"] = dict(zip(mode_names, gmean_row[1:]))
    return FigureResult("Fig 2", "Normalized performance with ideal caches",
                        ["benchmark"] + mode_names, rows, data)


# ----------------------------------------------------------------------
# Fig 3: which level serves leaf translations and replays.
# ----------------------------------------------------------------------
@figure("fig3")
def fig3_response_distribution(benchmarks: Optional[Sequence[str]] = None,
                               instructions: int = DEFAULT_INSTRUCTIONS,
                               warmup: int = DEFAULT_WARMUP,
                               scale: int = DEFAULT_SCALE) -> FigureResult:
    """Distribution of memory-hierarchy responses to leaf translations (T)
    and replay loads (R) after STLB misses."""
    names = _benchmarks(benchmarks)
    runs = yield _baseline_grid(names, instructions, warmup, scale)
    rows, data = [], {}
    sums = {"T": {lvl: 0.0 for lvl in ("L1D", "L2C", "LLC", "DRAM")},
            "R": {lvl: 0.0 for lvl in ("L1D", "L2C", "LLC", "DRAM")}}
    for name in names:
        t = runs[name].response_fractions("translation")
        r = runs[name].response_fractions("replay")
        rows.append([name, t["L1D"], t["L2C"], t["LLC"], t["DRAM"],
                     r["L1D"], r["L2C"], r["LLC"], r["DRAM"]])
        data[name] = {"translation": t, "replay": r}
        for lvl in sums["T"]:
            sums["T"][lvl] += t[lvl]
            sums["R"][lvl] += r[lvl]
    n = len(names)
    mean = ["mean"] + [sums["T"][l] / n for l in ("L1D", "L2C", "LLC", "DRAM")] \
        + [sums["R"][l] / n for l in ("L1D", "L2C", "LLC", "DRAM")]
    rows.append(mean)
    data["mean"] = {"translation": dict(zip(("L1D", "L2C", "LLC", "DRAM"),
                                            mean[1:5])),
                    "replay": dict(zip(("L1D", "L2C", "LLC", "DRAM"),
                                       mean[5:9]))}
    return FigureResult(
        "Fig 3", "Response level for leaf translations (T) and replays (R)",
        ["benchmark", "T:L1D", "T:L2C", "T:LLC", "T:DRAM",
         "R:L1D", "R:L2C", "R:LLC", "R:DRAM"], rows, data)


# ----------------------------------------------------------------------
# Figs 4 / 6: per-policy MPKI at the LLC.
# ----------------------------------------------------------------------
_POLICY_SWEEP = ("lru", "srrip", "drrip", "ship", "hawkeye")


def _policy_mpki_figure(figure: str, title: str, metric: str,
                        benchmarks: Optional[Sequence[str]],
                        instructions: int, warmup: int, scale: int,
                        policies: Sequence[str]
                        ) -> Generator[Dict, Dict, FigureResult]:
    names = _benchmarks(benchmarks)
    specs = {}
    for name in names:
        for policy in policies:
            cfg = default_config(scale)
            cfg = cfg.with_(llc=cfg.llc.scaled(1))
            cfg.llc.replacement = policy
            specs[(name, policy)] = RunKey.make(name, cfg, instructions,
                                                warmup, scale)
    runs = yield specs
    rows, data = [], {}
    totals = {p: 0.0 for p in policies}
    for name in names:
        row = [name]
        data[name] = {}
        for policy in policies:
            run = runs[(name, policy)]
            mpki = (run.leaf_mpki("llc") if metric == "ptl1"
                    else run.cache_mpki("llc", metric))
            row.append(mpki)
            data[name][policy] = mpki
            totals[policy] += mpki
        rows.append(row)
    rows.append(["mean"] + [totals[p] / len(names) for p in policies])
    data["mean"] = {p: totals[p] / len(names) for p in policies}
    return FigureResult(figure, title, ["benchmark"] + list(policies),
                        rows, data)


@figure("fig4")
def fig4_translation_mpki(benchmarks: Optional[Sequence[str]] = None,
                          instructions: int = DEFAULT_INSTRUCTIONS,
                          warmup: int = DEFAULT_WARMUP,
                          scale: int = DEFAULT_SCALE,
                          policies: Sequence[str] = _POLICY_SWEEP
                          ) -> FigureResult:
    """Leaf-level translation MPKI at the LLC per replacement policy."""
    return (yield from _policy_mpki_figure(
        "Fig 4", "Leaf-translation MPKI at LLC by replacement policy",
        "ptl1", benchmarks, instructions, warmup, scale, policies))


@figure("fig6")
def fig6_replay_mpki(benchmarks: Optional[Sequence[str]] = None,
                     instructions: int = DEFAULT_INSTRUCTIONS,
                     warmup: int = DEFAULT_WARMUP,
                     scale: int = DEFAULT_SCALE,
                     policies: Sequence[str] = _POLICY_SWEEP
                     ) -> FigureResult:
    """Replay-load MPKI at the LLC per replacement policy (all ~equal:
    replay blocks are dead and no policy can keep them)."""
    return (yield from _policy_mpki_figure(
        "Fig 6", "Replay-load MPKI at LLC by replacement policy",
        "replay", benchmarks, instructions, warmup, scale, policies))


# ----------------------------------------------------------------------
# Figs 5 / 7 / 18: recall-distance histograms, the only points that
# track recall (``SimConfig.track_recall``).
# ----------------------------------------------------------------------
def _recall_figure(figure: str, title: str, kind: str,
                   benchmarks: Optional[Sequence[str]],
                   instructions: int, warmup: int,
                   scale: int) -> Generator[Dict, Dict, FigureResult]:
    names = _benchmarks(benchmarks)
    runs = yield _baseline_grid(
        names, instructions, warmup, scale,
        default_config(scale).with_(track_recall=True))
    bucket_labels = [f"<={b}" for b in RECALL_BUCKETS] + [">50"]
    rows, data = [], {}
    for name in names:
        if kind == "stlb":
            trackers = {"STLB": runs[name].recall_data("stlb")}
        else:
            trackers = {"LLC": runs[name].recall_data("llc", kind),
                        "L2C": runs[name].recall_data("l2c", kind)}
        data[name] = {}
        for where, tracked in trackers.items():
            cdf = tracked["cdf"]
            rows.append([name, where] + cdf)
            data[name][where] = {"cdf": cdf, "samples": tracked["samples"]}
    return FigureResult(figure, title, ["benchmark", "at"] + bucket_labels,
                        rows, data)


@figure("fig5")
def fig5_recall_translations(benchmarks: Optional[Sequence[str]] = None,
                             instructions: int = DEFAULT_INSTRUCTIONS,
                             warmup: int = DEFAULT_WARMUP,
                             scale: int = DEFAULT_SCALE) -> FigureResult:
    """Recall-distance CDF of leaf translations at LLC and L2C."""
    return (yield from _recall_figure(
        "Fig 5", "Recall distance of leaf translations (CDF)",
        "translation", benchmarks, instructions, warmup, scale))


@figure("fig7")
def fig7_recall_replays(benchmarks: Optional[Sequence[str]] = None,
                        instructions: int = DEFAULT_INSTRUCTIONS,
                        warmup: int = DEFAULT_WARMUP,
                        scale: int = DEFAULT_SCALE) -> FigureResult:
    """Recall-distance CDF of replay loads at LLC and L2C (mostly >50:
    replay blocks are dead)."""
    return (yield from _recall_figure(
        "Fig 7", "Recall distance of replay loads (CDF)",
        "replay", benchmarks, instructions, warmup, scale))


@figure("fig18")
def fig18_stlb_recall(benchmarks: Optional[Sequence[str]] = None,
                      instructions: int = DEFAULT_INSTRUCTIONS,
                      warmup: int = DEFAULT_WARMUP,
                      scale: int = DEFAULT_SCALE) -> FigureResult:
    """Recall distance of translations at the STLB (Section V-B)."""
    return (yield from _recall_figure(
        "Fig 18", "Recall distance at the STLB (CDF)",
        "stlb", benchmarks, instructions, warmup, scale))


# ----------------------------------------------------------------------
# Fig 8: prefetchers cannot cover replay loads.
# ----------------------------------------------------------------------
@figure("fig8")
def fig8_prefetcher_replay_mpki(benchmarks: Optional[Sequence[str]] = None,
                                instructions: int = DEFAULT_INSTRUCTIONS,
                                warmup: int = DEFAULT_WARMUP,
                                scale: int = DEFAULT_SCALE,
                                prefetchers: Sequence[str] = (
                                    "none", "ipcp", "spp", "bingo", "isb")
                                ) -> FigureResult:
    """LLC replay-load MPKI with and without data prefetchers."""
    names = _benchmarks(benchmarks)
    specs = {}
    for name in names:
        for pf in prefetchers:
            cfg = default_config(scale)
            if pf == "ipcp":
                cfg = cfg.with_(l1d_prefetcher="ipcp")
            elif pf != "none":
                cfg = cfg.with_(l2c_prefetcher=pf)
            specs[(name, pf)] = RunKey.make(name, cfg, instructions,
                                            warmup, scale)
    runs = yield specs
    rows, data = [], {}
    totals = {p: 0.0 for p in prefetchers}
    for name in names:
        row = [name]
        data[name] = {}
        for pf in prefetchers:
            mpki = runs[(name, pf)].cache_mpki("llc", "replay")
            row.append(mpki)
            data[name][pf] = mpki
            totals[pf] += mpki
        rows.append(row)
    rows.append(["mean"] + [totals[p] / len(names) for p in prefetchers])
    data["mean"] = {p: totals[p] / len(names) for p in prefetchers}
    return FigureResult("Fig 8", "LLC replay MPKI with prefetchers",
                        ["benchmark"] + list(prefetchers), rows, data)


# ----------------------------------------------------------------------
# Fig 10: the replay-at-RRPV0 misconfiguration degrades performance.
# ----------------------------------------------------------------------
@figure("fig10")
def fig10_replay_rrpv0_degradation(benchmarks: Optional[Sequence[str]] = None,
                                   instructions: int = DEFAULT_INSTRUCTIONS,
                                   warmup: int = DEFAULT_WARMUP,
                                   scale: int = DEFAULT_SCALE
                                   ) -> FigureResult:
    """Performance when both translations AND replays insert at RRPV=0
    (normalized to baseline; the paper shows degradation)."""
    names = _benchmarks(benchmarks)
    cfg = default_config(scale).with_(
        enhancements=EnhancementConfig(t_drrip=True, t_ship=True,
                                       newsign=True,
                                       replay_rrpv0=True))
    specs = {}
    for name in names:
        specs[(name, "base")] = RunKey.make(name, None, instructions,
                                            warmup, scale)
        specs[(name, "rrpv0")] = RunKey.make(name, cfg, instructions,
                                             warmup, scale)
    runs = yield specs
    rows, data = [], {}
    speedups = []
    for name in names:
        sp = runs[(name, "rrpv0")].speedup_over(runs[(name, "base")])
        rows.append([name, sp])
        data[name] = sp
        speedups.append(sp)
    g = geometric_mean(speedups)
    rows.append(["gmean", g])
    data["gmean"] = g
    return FigureResult(
        "Fig 10", "Normalized perf with replays inserted at RRPV=0",
        ["benchmark", "norm perf"], rows, data)


# ----------------------------------------------------------------------
# Fig 12: LLC translation MPKI with the enhancements.
# ----------------------------------------------------------------------
@figure("fig12")
def fig12_newsign_mpki(benchmarks: Optional[Sequence[str]] = None,
                       instructions: int = DEFAULT_INSTRUCTIONS,
                       warmup: int = DEFAULT_WARMUP,
                       scale: int = DEFAULT_SCALE) -> FigureResult:
    """Leaf-translation MPKI at LLC: baseline SHiP vs new signatures only
    vs full T-SHiP."""
    names = _benchmarks(benchmarks)
    variants = {
        "ship": EnhancementConfig.none(),
        "newsign": EnhancementConfig(newsign=True),
        "t_ship": EnhancementConfig(t_drrip=True, t_ship=True,
                                    newsign=True),
    }
    specs = {}
    for name in names:
        for label, enh in variants.items():
            cfg = default_config(scale).with_(enhancements=enh)
            specs[(name, label)] = RunKey.make(name, cfg, instructions,
                                               warmup, scale)
    runs = yield specs
    rows, data = [], {}
    totals = {v: 0.0 for v in variants}
    for name in names:
        row = [name]
        data[name] = {}
        for label in variants:
            mpki = runs[(name, label)].leaf_mpki("llc")
            row.append(mpki)
            data[name][label] = mpki
            totals[label] += mpki
        rows.append(row)
    rows.append(["mean"] + [totals[v] / len(names) for v in variants])
    data["mean"] = {v: totals[v] / len(names) for v in variants}
    return FigureResult(
        "Fig 12", "Leaf-translation MPKI at LLC with enhancements",
        ["benchmark"] + list(variants), rows, data)


# ----------------------------------------------------------------------
# Fig 14: cumulative performance of the proposals.
# ----------------------------------------------------------------------
FIG14_VARIANTS = {
    "T-DRRIP": EnhancementConfig(t_drrip=True),
    "+T-SHiP": EnhancementConfig(t_drrip=True, t_ship=True,
                                 newsign=True),
    "+ATP": EnhancementConfig(t_drrip=True, t_ship=True, newsign=True,
                              atp=True),
    "+TEMPO": EnhancementConfig.full(),
}


@figure("fig14")
def fig14_performance(benchmarks: Optional[Sequence[str]] = None,
                      instructions: int = DEFAULT_INSTRUCTIONS,
                      warmup: int = DEFAULT_WARMUP,
                      scale: int = DEFAULT_SCALE,
                      base_config: Optional[SimConfig] = None
                      ) -> FigureResult:
    """Normalized performance of T-DRRIP -> +T-SHiP -> +ATP -> +TEMPO."""
    names = _benchmarks(benchmarks)
    base_cfg = base_config or default_config(scale)
    specs = {(name, "base"): RunKey.make(name, base_cfg, instructions,
                                         warmup, scale)
             for name in names}
    for name in names:
        for label, enh in FIG14_VARIANTS.items():
            cfg = base_cfg.with_(enhancements=enh)
            specs[(name, label)] = RunKey.make(name, cfg, instructions,
                                               warmup, scale)
    runs = yield specs
    rows, data = [], {}
    speedups = {v: [] for v in FIG14_VARIANTS}
    for name in names:
        row = [name]
        data[name] = {}
        for label in FIG14_VARIANTS:
            sp = runs[(name, label)].speedup_over(runs[(name, "base")])
            row.append(sp)
            data[name][label] = sp
            speedups[label].append(sp)
        rows.append(row)
    gmean_row = ["gmean"] + [geometric_mean(speedups[v])
                             for v in FIG14_VARIANTS]
    rows.append(gmean_row)
    data["gmean"] = dict(zip(FIG14_VARIANTS, gmean_row[1:]))
    return FigureResult("Fig 14", "Normalized performance of enhancements",
                        ["benchmark"] + list(FIG14_VARIANTS), rows, data)


# ----------------------------------------------------------------------
# Fig 15: enhancements on top of data prefetchers.
# ----------------------------------------------------------------------
@figure("fig15")
def fig15_with_prefetchers(benchmarks: Optional[Sequence[str]] = None,
                           instructions: int = DEFAULT_INSTRUCTIONS,
                           warmup: int = DEFAULT_WARMUP,
                           scale: int = DEFAULT_SCALE,
                           prefetchers: Sequence[str] = (
                               "ipcp", "bingo", "spp", "isb")
                           ) -> FigureResult:
    """Normalized performance of the full enhancement stack on top of each
    prefetcher baseline."""
    names = _benchmarks(benchmarks)
    specs = {}
    for name in names:
        for pf in prefetchers:
            cfg = default_config(scale)
            if pf == "ipcp":
                cfg = cfg.with_(l1d_prefetcher="ipcp")
            else:
                cfg = cfg.with_(l2c_prefetcher=pf)
            enh_cfg = cfg.with_(enhancements=EnhancementConfig.full())
            specs[(name, pf, "base")] = RunKey.make(name, cfg, instructions,
                                                    warmup, scale)
            specs[(name, pf, "enh")] = RunKey.make(name, enh_cfg,
                                                   instructions, warmup,
                                                   scale)
    runs = yield specs
    rows, data = [], {}
    speedups = {p: [] for p in prefetchers}
    for name in names:
        row = [name]
        data[name] = {}
        for pf in prefetchers:
            sp = runs[(name, pf, "enh")].speedup_over(
                runs[(name, pf, "base")])
            row.append(sp)
            data[name][pf] = sp
            speedups[pf].append(sp)
        rows.append(row)
    gmean_row = ["gmean"] + [geometric_mean(speedups[p])
                             for p in prefetchers]
    rows.append(gmean_row)
    data["gmean"] = dict(zip(prefetchers, gmean_row[1:]))
    return FigureResult(
        "Fig 15", "Normalized perf of enhancements over prefetcher baselines",
        ["benchmark"] + list(prefetchers), rows, data)


# ----------------------------------------------------------------------
# Fig 16: reduction in ROB stall cycles.
# ----------------------------------------------------------------------
@figure("fig16")
def fig16_stall_reduction(benchmarks: Optional[Sequence[str]] = None,
                          instructions: int = DEFAULT_INSTRUCTIONS,
                          warmup: int = DEFAULT_WARMUP,
                          scale: int = DEFAULT_SCALE) -> FigureResult:
    """Reduction in head-of-ROB stall cycles due to STLB misses and replay
    requests with the full enhancement stack."""
    names = _benchmarks(benchmarks)
    cfg = default_config(scale).with_(
        enhancements=EnhancementConfig.full())
    specs = {}
    for name in names:
        specs[(name, "base")] = RunKey.make(name, None, instructions,
                                            warmup, scale)
        specs[(name, "enh")] = RunKey.make(name, cfg, instructions,
                                           warmup, scale)
    runs = yield specs
    base = {name: runs[(name, "base")] for name in names}
    enh = {name: runs[(name, "enh")] for name in names}
    rows, data = [], {}
    t_reductions, r_reductions, tr_reductions = [], [], []

    def reduction(b: int, e: int) -> float:
        return (b - e) / b if b > 0 else 0.0

    for name in names:
        bt = base[name].stall_cycles(StallCategory.TRANSLATION)
        br = base[name].stall_cycles(StallCategory.REPLAY)
        et = enh[name].stall_cycles(StallCategory.TRANSLATION)
        er = enh[name].stall_cycles(StallCategory.REPLAY)
        t_red, r_red = reduction(bt, et), reduction(br, er)
        tr_red = reduction(bt + br, et + er)
        rows.append([name, t_red, r_red, tr_red])
        data[name] = {"translation": t_red, "replay": r_red,
                      "combined": tr_red}
        t_reductions.append(t_red)
        r_reductions.append(r_red)
        tr_reductions.append(tr_red)
    n = len(names)
    rows.append(["mean", sum(t_reductions) / n, sum(r_reductions) / n,
                 sum(tr_reductions) / n])
    data["mean"] = {"translation": sum(t_reductions) / n,
                    "replay": sum(r_reductions) / n,
                    "combined": sum(tr_reductions) / n}
    return FigureResult(
        "Fig 16", "Reduction in ROB stall cycles (fractions)",
        ["benchmark", "STLB-miss stalls", "replay stalls", "combined"],
        rows, data)


# ----------------------------------------------------------------------
# Table II: benchmark characterization.
# ----------------------------------------------------------------------
@figure("table2")
def table2_characterization(benchmarks: Optional[Sequence[str]] = None,
                            instructions: int = DEFAULT_INSTRUCTIONS,
                            warmup: int = DEFAULT_WARMUP,
                            scale: int = DEFAULT_SCALE) -> FigureResult:
    """Per-benchmark STLB / L2C / LLC MPKIs (measured vs paper)."""
    names = _benchmarks(benchmarks)
    runs = yield _baseline_grid(names, instructions, warmup, scale)
    rows, data = [], {}
    for name in names:
        s = runs[name].summary()
        ref = TABLE2_REFERENCE.get(name, {})
        rows.append([name, s["stlb_mpki"], ref.get("stlb", 0.0),
                     s["l2c_replay_mpki"], s["l2c_non_replay_mpki"],
                     s["l2c_ptl1_mpki"], s["llc_replay_mpki"],
                     s["llc_non_replay_mpki"], s["llc_ptl1_mpki"]])
        data[name] = s
    return FigureResult(
        "Table II", "Benchmark characterization (measured; paper STLB ref)",
        ["benchmark", "STLB", "STLB(paper)", "L2C R", "L2C NR", "L2C PTL1",
         "LLC R", "LLC NR", "LLC PTL1"], rows, data)
