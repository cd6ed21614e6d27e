"""Trace analysis utilities.

Used to calibrate the synthetic workloads against the paper's Table II
and to sanity-check that the generated address streams have the
properties the mechanisms react to (working-set size, translation
working set, STLB reach).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.params import LINE_SHIFT, PAGE_SHIFT
from repro.workloads.trace import KIND_NONMEM, Trace


def memory_addresses(trace: Trace) -> np.ndarray:
    """Virtual addresses of all memory operations, in program order."""
    mask = trace.kinds != KIND_NONMEM
    return trace.addrs[mask]


def working_set(trace: Trace) -> Dict[str, int]:
    """Distinct pages/lines touched (virtual)."""
    addrs = memory_addresses(trace)
    if addrs.size == 0:
        return {"pages": 0, "lines": 0}
    return {"pages": int(np.unique(addrs >> PAGE_SHIFT).size),
            "lines": int(np.unique(addrs >> LINE_SHIFT).size)}


def stlb_reach_ratio(trace: Trace, stlb_entries: int) -> float:
    """Touched pages per STLB entry: > 1 means the STLB cannot cover the
    working set (the paper's Medium/High regime)."""
    pages = working_set(trace)["pages"]
    return pages / stlb_entries if stlb_entries else float("inf")


def leaf_pte_lines(trace: Trace) -> int:
    """Distinct leaf-PTE cache lines the trace's pages map to (8 pages
    share one PTE line) -- the translation working set at L2C/LLC."""
    addrs = memory_addresses(trace)
    if addrs.size == 0:
        return 0
    pages = np.unique(addrs >> PAGE_SHIFT)
    return int(np.unique(pages >> 3).size)


def summarize(trace: Trace, stlb_entries: int = 128) -> Dict[str, float]:
    """One-stop characterization used by calibration scripts."""
    ws = working_set(trace)
    return {
        "instructions": len(trace),
        "loads_per_kilo": trace.loads_per_kilo(),
        "pages": ws["pages"],
        "lines": ws["lines"],
        "leaf_pte_lines": leaf_pte_lines(trace),
        "stlb_reach_ratio": stlb_reach_ratio(trace, stlb_entries),
    }
