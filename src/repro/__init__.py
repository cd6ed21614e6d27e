"""repro: reproduction of "Address Translation Conscious Caching and
Prefetching for High Performance Cache Hierarchy" (Vasudha & Panda,
ISPASS 2022).

A trace-driven timing simulator of a Sunny-Cove-like core's memory system:
five-level page table + TLBs + paging-structure caches + page-table walker,
a three-level cache hierarchy with pluggable replacement policies (LRU,
SRRIP, DRRIP, SHiP, Hawkeye and the paper's T-DRRIP / T-SHiP / T-Hawkeye),
hardware prefetchers (IPCP, SPP, Bingo, ISB and the paper's ATP / TEMPO),
and an OOO core model with head-of-ROB stall attribution.

Quickstart::

    from repro import run_benchmark, default_config, EnhancementConfig

    base = run_benchmark("mcf")
    cfg = default_config().with_(enhancements=EnhancementConfig.full())
    enhanced = run_benchmark("mcf", config=cfg)
    print(enhanced.speedup_over(base))  # ~1.1x
"""

import importlib

__version__ = "1.0.0"

#: The defining module of every exported name.  Names resolve on first
#: access (PEP 562): ``import repro`` loads nothing else, and a
#: simulation loads only the simulator.
_EXPORTS = {name: module for module, names in (
    ("repro.params", ("SimConfig", "EnhancementConfig", "IdealConfig",
                      "CacheConfig", "TLBConfig", "default_config",
                      "paper_config", "DEFAULT_SCALE")),
    ("repro.experiments.runner", ("run_benchmark", "RunResult",
                                  "DEFAULT_INSTRUCTIONS",
                                  "DEFAULT_WARMUP")),
    ("repro.core.ooo_core", ("OOOCore", "CoreResult")),
    ("repro.core.rob", ("StallCategory",)),
    ("repro.core.smt", ("SMTCore",)),
    ("repro.core.multicore", ("MultiCore",)),
    ("repro.uncore.hierarchy", ("MemoryHierarchy",)),
    ("repro.workloads.registry", ("benchmark_names", "make_trace",
                                  "BENCHMARKS", "TABLE2_REFERENCE")),
) for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
