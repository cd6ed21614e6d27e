"""CSALT-style dynamic translation/data cache partitioning (Marathe et
al., MICRO'17), compact model.

CSALT partitions cache ways between page-table (translation) blocks and
data blocks, steering the split with hit-rate estimators.  Our model
wraps SHiP: every set allows translation blocks at most ``t_ways`` ways;
victim selection evicts within the over-quota class, and ``t_ways``
adapts every epoch toward whichever class shows the higher marginal hit
rate.

The paper corroborates CSALT's ~1% improvement over an enhanced
SHiP/DRRIP baseline (Section V-B): partitioning protects translations as
a *class*, but cannot distinguish the short-recall translations worth
keeping, and does nothing for replay loads.
"""

from __future__ import annotations

from repro.cache.replacement.ship import SHiPPolicy
from repro.memsys.request import MemoryRequest


class CSALTPolicy(SHiPPolicy):
    """SHiP with an adaptive translation-way quota per set."""

    name = "csalt"
    EPOCH_FILLS = 2048
    MIN_T_WAYS = 1
    INITIAL_T_WAYS = 2

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self.t_ways = max(self.MIN_T_WAYS,
                          min(self.INITIAL_T_WAYS, num_ways - 1))
        self._fills = 0
        self._hits = {"translation": 0, "data": 0}
        self._accesses = {"translation": 0, "data": 0}

    # -- epoch adaptation -------------------------------------------------
    def _class_of(self, req: MemoryRequest) -> str:
        return "translation" if req.is_translation else "data"

    def _epoch_tick(self) -> None:
        self._fills += 1
        if self._fills % self.EPOCH_FILLS:
            return
        rates = {}
        for cls in ("translation", "data"):
            acc = self._accesses[cls]
            rates[cls] = self._hits[cls] / acc if acc else 0.0
            self._hits[cls] = 0
            self._accesses[cls] = 0
        # Grow the quota of the class with the lower hit rate (it is the
        # one starved of capacity), within bounds.
        if rates["translation"] < rates["data"]:
            self.t_ways = min(self.num_ways - 1, self.t_ways + 1)
        else:
            self.t_ways = max(self.MIN_T_WAYS, self.t_ways - 1)

    # -- policy hooks -------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        cls = self._class_of(req)
        self._accesses[cls] += 1
        self._hits[cls] += 1
        super().on_hit(set_idx, way, req)

    def on_fill(self, set_idx: int, way: int, req: MemoryRequest) -> None:
        self._accesses[self._class_of(req)] += 1
        self._epoch_tick()
        super().on_fill(set_idx, way, req)

    def victim(self, set_idx: int, req: MemoryRequest) -> int:
        """Enforce the partition: evict within the over-quota class."""
        store = self.store
        base = set_idx * self.num_ways
        valid = store.valid
        is_translation = store.is_translation
        rrpv = store.rrpv
        slots = range(base, base + self.num_ways)
        t_count = sum(1 for s in slots if valid[s] and is_translation[s])
        if req.is_translation:
            restrict_to_translations = t_count >= self.t_ways
        else:
            restrict_to_translations = t_count > self.t_ways
        want = 1 if restrict_to_translations else 0
        candidates = [s for s in slots if is_translation[s] == want]
        if not candidates:
            return super().victim(set_idx, req)
        # SRRIP-style selection within the allowed class.
        while True:
            best = max(candidates, key=rrpv.__getitem__)
            if rrpv[best] >= self.max_rrpv:
                return best - base
            for s in candidates:
                rrpv[s] += 1
