"""Simulation parameters.

``paper_config`` holds Table I of the paper verbatim (Intel Sunny Cove-like
core).  ``default_config`` is a reduced-scale variant: capacities of caches
and TLBs are divided by :data:`DEFAULT_SCALE` so that Python-speed simulation
of 100K-1M instruction synthetic ROIs reproduces the paper's miss-ratio
regimes in seconds instead of hours.  Scaling capacity and footprint together
preserves the reuse-distance relationships the paper's mechanisms exploit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: Architectural constants (57-bit VA, 4KB pages, 64B lines, 8B PTEs).
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT
PTE_SIZE = 8
PTES_PER_LINE = LINE_SIZE // PTE_SIZE
PT_LEVELS = 5
BITS_PER_LEVEL = 9
VA_BITS = 57

#: Capacity divisor used by :func:`default_config`.
DEFAULT_SCALE = 16


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int
    mshr_entries: int = 32
    replacement: str = "lru"

    def __post_init__(self):
        if self.ways <= 0 or self.size_bytes <= 0 or self.latency < 0:
            raise ValueError(f"invalid cache geometry for {self.name}")
        if self.size_bytes % (LINE_SIZE * self.ways):
            raise ValueError(
                f"{self.name}: size must be a multiple of "
                f"{LINE_SIZE} * {self.ways} ways")
        if self.mshr_entries <= 0:
            raise ValueError(f"{self.name}: need at least one MSHR")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (LINE_SIZE * self.ways)

    def scaled(self, divisor: int) -> "CacheConfig":
        """Return a copy with capacity divided by ``divisor``.

        Associativity is preserved; the number of sets shrinks.  A floor of
        one set per way group is enforced.
        """
        size = max(self.size_bytes // divisor, LINE_SIZE * self.ways)
        return dataclasses.replace(self, size_bytes=size)


@dataclass
class TLBConfig:
    """Geometry and timing of one TLB level."""

    name: str
    entries: int
    ways: int
    latency: int

    def __post_init__(self):
        if self.entries <= 0 or self.ways <= 0 or self.latency < 0:
            raise ValueError(f"invalid TLB geometry for {self.name}")
        if self.entries % self.ways:
            raise ValueError(
                f"{self.name}: entries must be a multiple of ways")

    @property
    def num_sets(self) -> int:
        return max(1, self.entries // self.ways)

    def scaled(self, divisor: int) -> "TLBConfig":
        entries = max(self.entries // divisor, self.ways)
        return dataclasses.replace(self, entries=entries)


@dataclass
class PSCConfig:
    """Paging-structure cache sizes (PSCL5 caches level-5 PTEs, etc.)."""

    pscl5_entries: int = 2
    pscl4_entries: int = 4
    pscl3_entries: int = 8
    pscl2_entries: int = 32
    latency: int = 1

    def entries_for_level(self, level: int) -> int:
        return {5: self.pscl5_entries, 4: self.pscl4_entries,
                3: self.pscl3_entries, 2: self.pscl2_entries}[level]


@dataclass
class DRAMConfig:
    """Single-channel DDR5-like timing in core cycles (4 GHz core)."""

    channels: int = 1
    banks_per_channel: int = 32
    row_buffer_bytes: int = 8192
    # Latencies in core cycles (4 GHz core, DDR5-6400-like timings).
    row_hit_latency: int = 64
    row_miss_latency: int = 190
    bus_transfer_cycles: int = 4


@dataclass
class CoreConfig:
    """Out-of-order core model (Table I: Sunny Cove-like)."""

    rob_entries: int = 352
    dispatch_width: int = 6
    retire_width: int = 4
    #: Cycles to re-schedule and re-issue a load from the load queue after
    #: its STLB-missing translation finally fills (pipeline replay).  This
    #: is the window in which ATP's prefetch -- launched the moment the
    #: leaf PTE *hits* at L2C/LLC -- gets ahead of the replay data request.
    replay_issue_latency: int = 24


@dataclass
class EnhancementConfig:
    """Which of the paper's mechanisms are enabled.

    ``t_drrip``      -- T-DRRIP at L2C (translations at RRPV=0, replays at 3).
    ``t_ship``       -- T-SHiP at the LLC (translations at RRPV=0); selects
                        T-Hawkeye instead when the LLC base policy is Hawkeye.
    ``newsign``      -- translation/replay-aware SHiP/Hawkeye signatures
                        (the paper's "NewSign" scheme).
    ``atp``          -- address-translation-hit triggered replay prefetcher.
    ``tempo``        -- TEMPO-style DRAM-side replay prefetch on LLC
                        translation miss.
    ``replay_rrpv0`` -- the *misconfiguration* of Fig 10: replays also
                        inserted at RRPV=0.
    """

    t_drrip: bool = False
    t_ship: bool = False
    newsign: bool = False
    atp: bool = False
    tempo: bool = False
    replay_rrpv0: bool = False

    @classmethod
    def none(cls) -> "EnhancementConfig":
        return cls()

    @classmethod
    def full(cls) -> "EnhancementConfig":
        """All of the paper's proposed mechanisms (the Fig 14 endpoint)."""
        return cls(t_drrip=True, t_ship=True, newsign=True,
                   atp=True, tempo=True)


#: Named enhancement stacks, in the paper's cumulative order.  This is
#: the single source the facade (``repro.api``) and ``SimConfig.with_``
#: resolve preset names against.
ENHANCEMENT_PRESETS = {
    "none": {},
    "t_drrip": dict(t_drrip=True),
    "t_ship": dict(t_drrip=True, t_ship=True, newsign=True),
    "atp": dict(t_drrip=True, t_ship=True, newsign=True, atp=True),
    "full": dict(t_drrip=True, t_ship=True, newsign=True, atp=True,
                 tempo=True),
}

ENHANCEMENT_PRESET_NAMES = tuple(ENHANCEMENT_PRESETS)


def enhancement_preset(name: str) -> EnhancementConfig:
    """A fresh :class:`EnhancementConfig` for a named preset
    (``none``/``t_drrip``/``t_ship``/``atp``/``full``)."""
    try:
        flags = ENHANCEMENT_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown enhancement preset {name!r}; known: "
                         f"{' '.join(ENHANCEMENT_PRESET_NAMES)}") from None
    return EnhancementConfig(**flags)


@dataclass
class IdealConfig:
    """Ideal-cache modes used for the Fig 2 opportunity study.

    When a flag is set, the corresponding request class is served with the
    level's hit latency even on a miss; the miss still goes to the MSHRs and
    DRAM to model bandwidth, as described in the paper.
    """

    llc_translations: bool = False
    llc_replays: bool = False
    l2c_translations: bool = False
    l2c_replays: bool = False


@dataclass(frozen=True)
class SimConfig:
    """Complete configuration of one simulated machine.

    Instances are frozen: deriving a variant goes through
    :meth:`with_`, which returns a new config with the given fields
    overridden (``enhancements`` additionally accepts a preset name).
    Sub-configs (:class:`CacheConfig`,
    :class:`EnhancementConfig`, ...) remain plain mutable dataclasses --
    freezing applies to the top-level field bindings that identify a
    machine, which is what result memoisation hashes.
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig("DTLB", 64, 4, 1))
    stlb: TLBConfig = field(default_factory=lambda: TLBConfig("STLB", 2048, 16, 8))
    psc: PSCConfig = field(default_factory=PSCConfig)
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1D", 48 * 1024, 12, 5, mshr_entries=24, replacement="lru"))
    l2c: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2C", 512 * 1024, 8, 10, mshr_entries=48, replacement="drrip"))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        "LLC", 2 * 1024 * 1024, 16, 20, mshr_entries=96, replacement="ship"))
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    enhancements: EnhancementConfig = field(default_factory=EnhancementConfig)
    ideal: IdealConfig = field(default_factory=IdealConfig)
    #: LLC inclusion policy: "non_inclusive" (ChampSim default, the
    #: paper's setting) or "inclusive" (LLC evictions back-invalidate the
    #: L1D/L2C copies -- which also evicts retained translations early,
    #: an interesting interaction with T-DRRIP).
    llc_inclusion: str = "non_inclusive"
    #: Huge-page policy (extension study): "none" maps everything with
    #: 4KB pages (the paper's setting); "gather_region" backs the
    #: irregular gather region with 2MB pages (THP-style).
    huge_page_policy: str = "none"
    #: Prior-work comparison mode (Section V-B): "none", "cbpred"
    #: (DpPred dead-page bypass at STLB + CbPred dead-block bypass at
    #: LLC) or "csalt" (translation/data way partitioning at the LLC).
    comparison: str = "none"
    #: L1D prefetcher name ("none", "ipcp", "next_line", or any L2C
    #: prefetcher).
    l1d_prefetcher: str = "none"
    #: L2C prefetcher name ("none", "spp", "bingo", "isb", "next_line").
    l2c_prefetcher: str = "none"
    #: STLB fill latency applied after a completed page walk.
    stlb_fill_latency: int = 2
    #: Track recall distances at the STLB, L2C and LLC.  Only Figs 5, 7
    #: and 18 read them, and they set it on their points: tracking costs
    #: about 15% of a ``pr``/full run.
    track_recall: bool = False

    def with_(self, **overrides) -> "SimConfig":
        """Return a copy with the given fields overridden.

        The canonical way to derive a config variant::

            cfg = default_config().with_(enhancements="full",
                                         l2c_prefetcher="spp")

        ``enhancements`` accepts an :class:`EnhancementConfig` or a
        preset name (see :data:`ENHANCEMENT_PRESETS`); every other
        keyword is a :class:`SimConfig` field.  Unknown fields raise
        ``TypeError``.
        """
        enh = overrides.get("enhancements")
        if isinstance(enh, str):
            overrides = dict(overrides,
                             enhancements=enhancement_preset(enh))
        return dataclasses.replace(self, **overrides)


def paper_config() -> SimConfig:
    """Table I of the paper, verbatim, less its instruction side (ITLB
    and L1I): the paper's workloads are data-bound, and nothing here
    models instruction fetch."""
    return SimConfig()


def default_config(scale: int = DEFAULT_SCALE) -> SimConfig:
    """Reduced-scale configuration for fast Python simulation.

    Cache and TLB capacities are divided by ``scale`` (default 16); the
    workload generators in :mod:`repro.workloads` shrink their footprints by
    the same factor, preserving the paper's miss-ratio regimes.
    """
    cfg = SimConfig()
    # The capacity structures under study (STLB, L2C, LLC) shrink by the
    # full factor.  The L1D and DTLB scale by scale/4: shrinking the L1D
    # 16x floods its MSHRs and makes memory-level parallelism the
    # bottleneck (a regime the paper's machine is never in), while not
    # shrinking it at all lets the whole scaled leaf-PTE working set live
    # in the L1D, which would starve the L2C/LLC mechanisms under study
    # (Fig 3: only 23% of leaf translations are served at the L1D).
    return cfg.with_(
        dtlb=cfg.dtlb.scaled(max(1, scale // 4)),
        stlb=cfg.stlb.scaled(scale),
        l1d=cfg.l1d.scaled(max(1, scale // 4)),
        l2c=cfg.l2c.scaled(scale),
        llc=cfg.llc.scaled(scale),
    )
