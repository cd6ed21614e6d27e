"""Multi-core model (Section V: 8-core multiprogrammed mixes).

Each core has private L1D/L2C, TLBs and page-table walker; all cores share
the LLC and the DRAM channel(s).  Address spaces are disjoint: each core
has its own page table, but all page tables draw frames from one shared
allocator so physical addresses never collide in the shared LLC.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.engine import interleave
from repro.core.ooo_core import CoreResult, OOOCore
from repro.params import SimConfig
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.page_table import FrameAllocator


class MultiCore:
    """N cores with private L2Cs and a shared LLC/DRAM."""

    def __init__(self, config: SimConfig, num_cores: int):
        if num_cores <= 0:
            raise ValueError("need at least one core")
        import dataclasses
        # Table I: the LLC is 2MB *per slice* (per core), so the shared LLC
        # grows with the core count.  DRAM channels: the paper provisions
        # one per four cores at full scale; at reduced scale cache
        # capacities shrink but DRAM timings do not, leaving each core
        # with a proportionally higher miss *rate*, so we provision one
        # channel per two cores to keep the bandwidth-per-miss ratio
        # comparable.
        llc = dataclasses.replace(config.llc,
                                  size_bytes=config.llc.size_bytes * num_cores,
                                  mshr_entries=config.llc.mshr_entries
                                  * num_cores)
        dram = dataclasses.replace(config.dram,
                                   channels=max(1, num_cores // 2))
        config = config.with_(llc=llc, dram=dram)
        self.config = config
        self.num_cores = num_cores
        allocator = FrameAllocator(seed=config.seed)
        first = MemoryHierarchy(config, allocator)
        self.hierarchies: List[MemoryHierarchy] = [first]
        for _ in range(1, num_cores):
            self.hierarchies.append(
                MemoryHierarchy(config, allocator,
                                shared_llc=first.llc,
                                shared_dram=first.dram))
        self.llc = first.llc
        self.dram = first.dram

    def run(self, traces: Sequence, warmup: int = 0) -> List[CoreResult]:
        """Run one trace per core to completion; per-core results."""
        if len(traces) != self.num_cores:
            raise ValueError(f"need {self.num_cores} traces")
        cores = [OOOCore(self.config, hierarchy)
                 for hierarchy in self.hierarchies]
        return interleave(cores, traces, warmup)
