"""Synthetic address-stream generator.

Each benchmark is modelled as a mix of four access-pattern classes, the
knobs that determine everything the paper's mechanisms react to:

* **sequential** -- streaming reads (frontier/edge arrays, text scanning);
  hits the STLB (64 lines per page) but misses caches once per line.
* **local** -- reuse within a small, slowly drifting window (stack, hot
  objects); mostly cache and TLB hits.
* **random** -- uniform gathers over a huge footprint (graph property
  arrays, pointer chasing).  These are the STLB-missing accesses whose
  data requests become *replay loads*.
* **stores** -- read-modify-write traffic over the local/random regions.

Footprints scale with ``1/scale`` so reduced-scale caches see the same
pressure the paper's full-size hierarchy saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.params import DEFAULT_SCALE, PAGE_SHIFT
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, KIND_STORE, Trace

#: Virtual base addresses of the synthetic regions (well separated).
SEQ_BASE = 0x1000_0000_0000
LOCAL_BASE = 0x2000_0000_0000
RANDOM_BASE = 0x4000_0000_0000


@dataclass
class PatternMix:
    """Access-pattern knobs of one benchmark (at paper scale)."""

    #: Memory operations per kilo-instruction.
    loads_per_kilo: float = 300.0
    stores_per_kilo: float = 40.0
    #: Of the loads: fraction in each class (must sum to <= 1; the
    #: remainder is local).
    random_fraction: float = 0.10
    seq_fraction: float = 0.30
    #: Footprint of the random region, in 4KB pages, at paper scale.
    random_pages: int = 100_000
    #: Active-window size for random draws, in pages at paper scale (0 =
    #: draw from the whole region).  Graph kernels sweep their vertex set
    #: once per iteration, so gathers concentrate in a window that drifts
    #: across the footprint -- this is what gives leaf-PTE lines (8 pages
    #: each) the short recall distances of Fig 5.
    random_window_pages: int = 0
    #: Sequential region (wraps), at paper scale.
    seq_pages: int = 20_000
    #: Stride of the sequential stream in bytes (controls non-replay MPKI).
    seq_stride: int = 16
    #: Locality window for "local" loads.
    local_pages: int = 16
    #: Zipf skew for the random region (0 = uniform).  Skew concentrates
    #: reuse on hot pages, lowering effective STLB misses.
    zipf_alpha: float = 0.0
    #: Pointer-chase mode: random pages are visited along a fixed
    #: permutation cycle instead of i.i.d. draws (mcf-style).
    pointer_chase: bool = False
    #: Distinct instruction pointers per class (signature diversity).
    n_seq_ips: int = 4
    n_local_ips: int = 8
    n_random_ips: int = 4
    #: Code footprint in 64B instruction lines for non-memory IPs
    #: (small by default).
    code_lines: int = 16


class SyntheticWorkload:
    """Generates traces for one :class:`PatternMix`."""

    def __init__(self, mix: PatternMix, name: str = "synthetic"):
        if mix.random_fraction + mix.seq_fraction > 1.0 + 1e-9:
            raise ValueError("pattern fractions exceed 1.0")
        self.mix = mix
        self.name = name

    # ------------------------------------------------------------------
    def generate(self, instructions: int, scale: int = DEFAULT_SCALE,
                 seed: int = 1) -> Trace:
        """Build a trace of ``instructions`` records.

        ``scale`` divides the regions' footprints, matching the capacity
        scaling of :func:`repro.params.default_config`.
        """
        if instructions <= 0:
            raise ValueError("need a positive instruction count")
        mix = self.mix
        rng = np.random.default_rng(seed)
        n = instructions

        random_pages = max(64, mix.random_pages // scale)
        seq_pages = max(8, mix.seq_pages // scale)

        p_load = mix.loads_per_kilo / 1000.0
        p_store = mix.stores_per_kilo / 1000.0
        draw = rng.random(n)
        kinds = np.full(n, KIND_NONMEM, dtype=np.int8)
        kinds[draw < p_load] = KIND_LOAD
        kinds[(draw >= p_load) & (draw < p_load + p_store)] = KIND_STORE

        addrs = np.zeros(n, dtype=np.int64)
        # Non-memory IPs sweep the code footprint in short sequential
        # bursts (loop bodies).
        code_bytes = mix.code_lines * 64
        ips = (0x400000
               + (np.arange(n, dtype=np.int64) * 4) % code_bytes)

        load_idx = np.flatnonzero(kinds == KIND_LOAD)
        store_idx = np.flatnonzero(kinds == KIND_STORE)
        deps = np.zeros(n, dtype=np.int8)
        self._fill_loads(rng, load_idx, addrs, ips,
                         random_pages, seq_pages, scale, deps)
        self._fill_stores(rng, store_idx, addrs, ips, random_pages)
        return Trace(ips, kinds, addrs, name=self.name, deps=deps)

    # ------------------------------------------------------------------
    def _random_page_sequence(self, rng, count: int,
                              random_pages: int,
                              window_pages: int) -> np.ndarray:
        mix = self.mix
        if mix.pointer_chase:
            # A fixed permutation cycle through the pages, entered at a
            # random point: successive accesses are unpredictable but the
            # *sequence* recurs, which temporal prefetchers can learn.
            perm = np.random.default_rng(12345).permutation(random_pages)
            start = int(rng.integers(0, random_pages))
            idx = (start + np.arange(count)) % random_pages
            return perm[idx]
        if window_pages and window_pages < random_pages:
            # Uniform draws inside a window that drifts across the whole
            # footprint exactly once over the trace.
            drift = (np.arange(count, dtype=np.float64)
                     * (random_pages / max(1, count))).astype(np.int64)
            offsets = rng.integers(0, window_pages, size=count)
            return (drift + offsets) % random_pages
        if mix.zipf_alpha > 0:
            # Zipf over page ranks; clip to the footprint.
            raw = rng.zipf(1.0 + mix.zipf_alpha, size=count)
            ranks = np.minimum(raw - 1, random_pages - 1)
            # Scatter ranks across the address space deterministically.
            return (ranks * 2654435761) % random_pages
        return rng.integers(0, random_pages, size=count)

    def _fill_loads(self, rng, load_idx: np.ndarray, addrs: np.ndarray,
                    ips: np.ndarray, random_pages: int,
                    seq_pages: int, scale: int = DEFAULT_SCALE,
                    deps=None) -> None:
        mix = self.mix
        n_loads = len(load_idx)
        if n_loads == 0:
            return
        cls_draw = rng.random(n_loads)
        is_random = cls_draw < mix.random_fraction
        is_seq = (~is_random) & (cls_draw
                                 < mix.random_fraction + mix.seq_fraction)
        is_local = ~(is_random | is_seq)

        # Random gathers.
        n_rand = int(is_random.sum())
        if n_rand:
            window = max(0, mix.random_window_pages // scale)
            pages = self._random_page_sequence(rng, n_rand, random_pages,
                                               window)
            offsets = rng.integers(0, 4096 // 8, size=n_rand) * 8
            addrs[load_idx[is_random]] = (RANDOM_BASE
                                          + (pages << PAGE_SHIFT) + offsets)
            ips[load_idx[is_random]] = 0x500000 + 4 * rng.integers(
                0, mix.n_random_ips, size=n_rand)
            if mix.pointer_chase and deps is not None:
                # Each chase load consumes the previous one's value: the
                # core must serialize them (mcf-style dependent chains).
                deps[load_idx[is_random]] = 1

        # Sequential stream (wrapping over the region).
        n_seq = int(is_seq.sum())
        if n_seq:
            region_bytes = seq_pages << PAGE_SHIFT
            start = int(rng.integers(0, region_bytes))
            stream = (start + np.arange(n_seq, dtype=np.int64)
                      * mix.seq_stride) % region_bytes
            addrs[load_idx[is_seq]] = SEQ_BASE + stream
            ips[load_idx[is_seq]] = 0x600000 + 4 * (
                np.arange(n_seq) % mix.n_seq_ips)

        # Local window, drifting slowly across a few pages.
        n_local = int(is_local.sum())
        if n_local:
            drift = (np.arange(n_local, dtype=np.int64)
                     // max(1, n_local // 8)) * (1 << PAGE_SHIFT)
            page_pick = rng.integers(0, mix.local_pages, size=n_local)
            offsets = rng.integers(0, 4096 // 8, size=n_local) * 8
            addrs[load_idx[is_local]] = (LOCAL_BASE + drift
                                         + (page_pick << PAGE_SHIFT)
                                         + offsets)
            ips[load_idx[is_local]] = 0x700000 + 4 * rng.integers(
                0, mix.n_local_ips, size=n_local)

    def _fill_stores(self, rng, store_idx: np.ndarray, addrs: np.ndarray,
                     ips: np.ndarray, random_pages: int) -> None:
        mix = self.mix
        n_stores = len(store_idx)
        if n_stores == 0:
            return
        # Stores split between the local window and the random region in
        # proportion to the load mix (canneal-style read-modify-write).
        to_random = rng.random(n_stores) < mix.random_fraction
        n_rand = int(to_random.sum())
        if n_rand:
            pages = rng.integers(0, random_pages, size=n_rand)
            offsets = rng.integers(0, 4096 // 8, size=n_rand) * 8
            addrs[store_idx[to_random]] = (RANDOM_BASE
                                           + (pages << PAGE_SHIFT) + offsets)
        n_local = n_stores - n_rand
        if n_local:
            page_pick = rng.integers(0, mix.local_pages, size=n_local)
            offsets = rng.integers(0, 4096 // 8, size=n_local) * 8
            addrs[store_idx[~to_random]] = (LOCAL_BASE
                                            + (page_pick << PAGE_SHIFT)
                                            + offsets)
        ips[store_idx] = 0x800000 + 4 * rng.integers(0, 8, size=n_stores)
