"""Robustness: the headline result holds across trace seeds.

Reduced-scale single runs carry sampling noise; this bench re-runs the
Fig 14 endpoint on three different trace seeds and checks that the
full-stack speedup's *direction* is seed-independent."""

from conftest import WARMUP

from repro.experiments.parallel import RunKey, run_many
from repro.params import EnhancementConfig, default_config
from repro.stats.report import geometric_mean

BENCHMARKS = ["canneal", "mcf", "tc", "mis"]
SEEDS = [1, 2, 3]


def _study():
    """Every point is a seeded run key, so the session's sweep service
    stores and dedupes it like a figure's."""
    base = default_config()
    full = base.with_(enhancements=EnhancementConfig.full())

    def key(name, cfg, seed):
        return RunKey.make(name, cfg, instructions=20_000, warmup=WARMUP,
                           seed=seed)
    keys = {(name, cfg is full, seed): key(name, cfg, seed)
            for name in BENCHMARKS for cfg in (base, full)
            for seed in SEEDS}
    runs = run_many(keys.values())
    return {name: [runs[keys[name, False, seed]].cycles
                   / runs[keys[name, True, seed]].cycles
                   for seed in SEEDS]
            for name in BENCHMARKS}


def test_fig14_direction_is_seed_stable(benchmark):
    speedups = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    for name, per_seed in speedups.items():
        print(f"{name:<10} " + "  ".join(f"{s:.3f}" for s in per_seed))
    # Per-benchmark: the stack never hurts badly under any seed.
    for name, per_seed in speedups.items():
        assert min(per_seed) > 0.95, (name, per_seed)
    # Aggregate: a clear win under every seed.
    for i in range(len(SEEDS)):
        gmean = geometric_mean([speedups[n][i] for n in BENCHMARKS])
        assert gmean > 1.0, f"seed index {i}"
