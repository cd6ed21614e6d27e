"""Set-associative, non-inclusive cache level.

Timing model: a request arrives at ``req.cycle``; a hit responds after the
level's access latency.  A miss forwards to the next level (advancing the
request clock by the lookup latency), allocates an MSHR entry, and fills on
response.  Requests to a line already in flight merge with the MSHR entry.

Storage: per-line metadata lives in the flat parallel columns of a
:class:`repro.cache.store.CacheStore` -- one preallocated column per field,
indexed by ``set_idx * num_ways + way`` -- and residency in one
``{line_addr: slot}`` dict for the whole cache.  The replacement policy is
bound to the same store, so RRPVs and signatures are shared columns rather
than per-block attributes (see :mod:`repro.cache.replacement.base`).

Paper-specific hooks:

* ``ideal_translations`` / ``ideal_replays`` -- the Fig 2 opportunity modes:
  the matching request class is answered with the hit latency even on a
  miss, while the miss still descends to consume bandwidth.
* ``on_leaf_translation_hit`` -- fired when a leaf-level PTE read hits here;
  the ATP prefetcher subscribes at L2C and LLC.
* ``evict_priority`` fills (ATP/TEMPO prefetches) are demoted to the highest
  eviction priority right after insertion.
* Recall-distance trackers for translation and replay blocks (Figs 5/7).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cache.replacement import make_policy
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.store import CacheStore
from repro.memsys import request as request_pool
from repro.memsys.mshr import MSHR
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import CacheConfig
from repro.stats.counters import CacheStats
from repro.stats.recall import RecallPair, RecallTracker

_PREFETCH = AccessType.PREFETCH
_STORE = AccessType.STORE
_WRITEBACK = AccessType.WRITEBACK


class Cache:
    """One level of the data-cache hierarchy."""

    def __init__(self, config: CacheConfig, next_level,
                 policy: Optional[ReplacementPolicy] = None,
                 track_recall: bool = False,
                 ideal_translations: bool = False,
                 ideal_replays: bool = False):
        self.config = config
        self.name = config.name
        self.num_sets = config.num_sets
        self.num_ways = config.ways
        self.latency = config.latency
        self.next_level = next_level
        self._store = CacheStore(self.num_sets, self.num_ways)
        self._slot_of = self._store.slot_of
        self._policy = None
        self.policy = policy or make_policy(
            config.replacement, self.num_sets, self.num_ways)
        self.mshr = MSHR(config.mshr_entries)
        self.stats = CacheStats(config.name)
        self.ideal_translations = ideal_translations
        self.ideal_replays = ideal_replays

        #: Demand-triggered prefetcher operating at this level (or None).
        self.prefetcher = None
        #: Optional fill-bypass hook (CbPred-style dead-block bypassing):
        #: a callable (request) -> bool; True skips installing the block.
        self.bypass_predicate = None
        self.fills_bypassed = 0
        #: ATP hook: (request, hit_completion_cycle) on leaf-PTE hits here.
        self.on_leaf_translation_hit: Optional[
            Callable[[MemoryRequest, int], None]] = None

        self.recall_pair: Optional[RecallPair] = None
        self.recall_translation: Optional[RecallTracker] = None
        self.recall_replay: Optional[RecallTracker] = None
        if track_recall:
            self.recall_pair = RecallPair(f"{self.name}/translation",
                                          f"{self.name}/replay")
            self.recall_translation = self.recall_pair.translation
            self.recall_replay = self.recall_pair.replay
        self.writebacks_issued = 0
        #: How many live fills past its demand entries the MSHR table may
        #: hold before a prefetch miss is dropped (a prefetch queue).
        #: Prefetch fills share the table, so a demand miss waits for
        #: them too (:meth:`MSHR.admission_delay`).
        self._prefetch_queue = config.mshr_entries
        self.prefetches_dropped = 0
        #: Inclusive-LLC support: caches to back-invalidate on eviction.
        self.back_invalidate_targets = []
        self.back_invalidations = 0

    # ------------------------------------------------------------------
    @property
    def policy(self) -> ReplacementPolicy:
        """The replacement policy (assigning one binds it to the store)."""
        return self._policy

    @policy.setter
    def policy(self, policy: ReplacementPolicy) -> None:
        policy.bind(self._store)
        self._policy = policy

    @property
    def store(self) -> CacheStore:
        """The flat column store (shared with the bound policy)."""
        return self._store

    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def contains(self, line_addr: int) -> bool:
        """Tag probe without side effects (used by tests and prefetchers)."""
        return line_addr in self._slot_of

    # ------------------------------------------------------------------
    def access(self, req: MemoryRequest) -> int:
        """Process one request; returns the data-ready cycle.

        One pass through the level: a hit is answered here, and so is a
        miss -- merged with an in-flight fill, a prefetch dropped or sent
        down, a writeback installed, or a demand or translation miss
        admitted to the MSHR, sent down and filled.  Counter updates and
        the MSHR merge probes are inlined (they match ``MSHR.lookup``):
        this runs once per request on the innermost path."""
        line = req.line_addr
        set_idx = line % self.num_sets
        ready = req.cycle + self.latency

        rt = self.recall_translation
        if rt is not None and (rt.pending or self.recall_replay.pending):
            self.recall_pair.on_access(set_idx, line)

        stats = self.stats
        cat = req._category
        mshr = self.mshr
        slot = self._slot_of.get(line)
        if slot is None:
            stats.accesses[cat] += 1
            stats.misses[cat] += 1
            if req.is_leaf_translation:
                stats.leaf_accesses += 1
                stats.leaf_misses += 1
            if req.is_demand_data:
                record_miss = self._policy.record_miss
                if record_miss is not None:
                    record_miss(set_idx)

            access_type = req.access_type
            merged = mshr._inflight.get(line)
            if merged is not None and merged > req.cycle:
                mshr.merges += 1
                if mshr.tracer is not None:
                    mshr.tracer.instant("mshr_merge", req.cycle, cat="mshr",
                                        component=mshr.component,
                                        line=line, fill=merged)
                req.served_by = self.name
                # A miss on a line whose fill is in flight: the line was
                # evicted before its fill completed (the victim loop does
                # not know about MSHRs).  The pending fill still delivers
                # the data, so it re-installs the block -- dropping it
                # would strand the response.
                self._fill(req, set_idx, merged)
                if merged > ready:
                    ready = merged
            elif access_type is _PREFETCH:
                # Prefetch fills enter the same MSHR table as demand
                # fills, so they count toward a demand miss's admission
                # wait; a prefetch is dropped once the table holds its
                # demand entries plus a prefetch queue's worth of fills.
                if (mshr.occupancy(req.cycle)
                        >= mshr.entries + self._prefetch_queue):
                    self.prefetches_dropped += 1
                    req.served_by = self.name
                    req.dropped = True
                    return ready
                req.cycle = ready
                fill_cycle = self.next_level.access(req)
                if req.dropped:
                    # A lower level dropped the prefetch: no data will
                    # ever return, so installing here would manufacture
                    # a line out of nothing (and break inclusion under
                    # an inclusive LLC).
                    return ready
                mshr.allocate_prefetch(line, fill_cycle, ready)
                self._fill(req, set_idx, fill_cycle)
                return fill_cycle
            elif access_type is _WRITEBACK:
                # Non-inclusive: install the written-back line here.
                self._fill(req, set_idx, ready)
                return ready
            else:
                ideal = ((req.is_leaf_translation and self.ideal_translations)
                         or (req.is_demand_data and req.is_replay
                             and self.ideal_replays))
                # A full MSHR delays the start of the downstream access
                # until a slot frees (MLP throttling).  Lower levels
                # advance req.cycle, so this level's admission cycle is
                # kept for its own MSHR.
                start = ready + mshr.admission_delay(ready)
                req.cycle = start
                fill_cycle = self.next_level.access(req)
                mshr.allocate(line, fill_cycle, start)
                if (self.bypass_predicate is not None
                        and self.bypass_predicate(req)):
                    self.fills_bypassed += 1
                else:
                    self._fill(req, set_idx, fill_cycle)
                if ideal:
                    # Fig 2 mode: answer with the hit latency; the real
                    # miss above already consumed MSHR and downstream
                    # bandwidth.
                    req.served_by = self.name
                else:
                    ready = fill_cycle
            if self.prefetcher is not None and req.is_demand_data:
                self._run_prefetcher(req, hit=False)
            return ready

        # -- hit
        stats.accesses[cat] += 1
        stats.hits[cat] += 1
        if req.is_leaf_translation:
            stats.leaf_accesses += 1
            stats.leaf_hits += 1
        req.served_by = self.name
        # A "hit" on a line whose fill is still in flight (e.g. an ATP
        # prefetch racing the replay demand) completes when the data
        # actually arrives, not at the tag-hit latency.
        pending = mshr._inflight.get(line)
        if pending is not None and pending > req.cycle:
            mshr.merges += 1
            if mshr.tracer is not None:
                mshr.tracer.instant("mshr_merge", req.cycle, cat="mshr",
                                    component=mshr.component,
                                    line=line, fill=pending)
            if pending > ready:
                ready = pending
        access_type = req.access_type
        store = self._store
        if access_type is _WRITEBACK:
            store.dirty[slot] = 1
        elif access_type is not _PREFETCH:
            # Prefetch hits neither promote nor train the policy.
            if store.is_prefetch[slot] and not store.reused[slot]:
                stats.prefetch_useful += 1
            store.reused[slot] = 1
            if access_type is _STORE:
                store.dirty[slot] = 1
            way = slot - set_idx * self.num_ways
            self._policy.on_hit(set_idx, way, req)
            if store.dead_on_hit[slot]:
                # ATP/TEMPO replay fills are dead after their single use
                # (Fig 7): the consuming hit must not promote them.
                self._policy.demote(set_idx, way)
            if (req.is_leaf_translation
                    and self.on_leaf_translation_hit is not None):
                self.on_leaf_translation_hit(req, ready)
            if self.prefetcher is not None and req.is_demand_data:
                self._run_prefetcher(req, hit=True)
        return ready

    # ------------------------------------------------------------------
    def _fill(self, req: MemoryRequest, set_idx: int, fill_cycle: int) -> None:
        """Install ``req``'s line in ``set_idx``: the first free way, or
        the policy's victim after evicting it; then every live column is
        written once from the request.  ``signature`` and ``rrpv`` are
        the policy's to write in ``on_fill``."""
        store = self._store
        base = set_idx * self.num_ways
        slot = store.valid.find(0, base, base + self.num_ways)
        if slot < 0:
            policy = self._policy
            way = policy.victim(set_idx, req)
            slot = base + way
            on_evict = policy.on_evict
            if on_evict is not None:
                on_evict(set_idx, way)
            victim_line = store.line[slot]
            del self._slot_of[victim_line]
            # Back-invalidation: a dirty upper-level copy holds data the
            # LLC never saw; dropping it silently would lose the only
            # dirty copy, so it upgrades this eviction to a writeback.
            upper_dirty = False
            for upper in self.back_invalidate_targets:
                dropped_dirty = upper.invalidate(victim_line)
                if dropped_dirty is not None:
                    self.back_invalidations += 1
                    upper_dirty = upper_dirty or dropped_dirty
            if self.recall_translation is not None:
                if store.is_leaf_translation[slot]:
                    self.recall_translation.on_evict(set_idx, victim_line)
                elif store.is_replay[slot]:
                    self.recall_replay.on_evict(set_idx, victim_line)
            if store.dirty[slot] or upper_dirty:
                self.writebacks_issued += 1
                wb = request_pool.acquire(victim_line << 6, fill_cycle, 0,
                                          _WRITEBACK)
                self.next_level.access(wb)
                request_pool.release(wb)
        else:
            way = slot - base
            store.valid[slot] = 1
        line = req.line_addr
        access_type = req.access_type
        is_prefetch = access_type is _PREFETCH
        store.line[slot] = line
        store.dirty[slot] = access_type is _STORE or access_type is _WRITEBACK
        store.reused[slot] = 0
        store.is_translation[slot] = req.is_translation
        store.is_leaf_translation[slot] = req.is_leaf_translation
        store.is_replay[slot] = req.is_demand_data and req.is_replay
        store.is_prefetch[slot] = is_prefetch
        store.dead_on_hit[slot] = req.evict_priority
        self._slot_of[line] = slot
        self._policy.on_fill(set_idx, way, req)
        if req.evict_priority:
            self._policy.demote(set_idx, way)
        if is_prefetch:
            self.stats.prefetch_fills += 1

    def invalidate(self, line_addr: int) -> Optional[bool]:
        """Drop ``line_addr`` if resident (inclusion back-invalidation).

        Returns the dropped line's dirty bit, so the inclusive parent can
        fold a dirty upper-level copy into its own eviction writeback, or
        None when the line was not resident."""
        slot = self._slot_of.pop(line_addr, None)
        if slot is None:
            return None
        self._store.valid[slot] = 0
        return bool(self._store.dirty[slot])

    # ------------------------------------------------------------------
    def _run_prefetcher(self, req: MemoryRequest, hit: bool) -> None:
        candidates = self.prefetcher.operate(req, hit)
        for line_addr in candidates:
            if line_addr in self._slot_of:
                continue
            pref = request_pool.acquire(line_addr << 6, req.cycle, req.ip,
                                        _PREFETCH)
            self.access(pref)
            request_pool.release(pref)

    def issue_prefetch(self, line_addr: int, cycle: int,
                       evict_priority: bool = False) -> int:
        """Externally-triggered prefetch into this level (ATP path)."""
        if line_addr in self._slot_of:
            return cycle
        pref = request_pool.acquire(line_addr << 6, cycle,
                                    access_type=_PREFETCH,
                                    evict_priority=evict_priority)
        done = self.access(pref)
        request_pool.release(pref)
        return done

    def reset_stats(self) -> None:
        """Zero all counters (warmup boundary); cache contents persist."""
        self.stats = CacheStats(self.name)
        self.writebacks_issued = 0
        self.prefetches_dropped = 0
        self.fills_bypassed = 0
        self.back_invalidations = 0
        self.mshr.merges = 0
        self.mshr.allocations = 0
        self.mshr.expirations = 0
        self.mshr.peak_occupancy = 0
        self.mshr.admission_stall_cycles = 0
        if self.recall_translation is not None:
            self.recall_pair = RecallPair(f"{self.name}/translation",
                                          f"{self.name}/replay")
            self.recall_translation = self.recall_pair.translation
            self.recall_replay = self.recall_pair.replay
        if self.prefetcher is not None:
            self.prefetcher.issued = 0

    # ------------------------------------------------------------------
    def rrpv_histogram(self) -> List[int]:
        """Counts of valid blocks by RRPV value (index = RRPV).

        Policies without RRPV state (LRU) leave every block at
        RRPV 0, so the histogram degenerates to one bucket."""
        max_rrpv = getattr(self._policy, "max_rrpv", 0)
        counts = [0] * (max_rrpv + 1)
        rrpv = self._store.rrpv
        for slot in self._slot_of.values():
            value = rrpv[slot]
            counts[value if value < max_rrpv else max_rrpv] += 1
        return counts

    def occupancy_by_category(self) -> Dict[str, int]:
        """Count of resident blocks per fill category (for analysis)."""
        store = self._store
        is_translation = store.is_translation
        is_replay = store.is_replay
        translation = replay = other = 0
        for slot in self._slot_of.values():
            if is_translation[slot]:
                translation += 1
            elif is_replay[slot]:
                replay += 1
            else:
                other += 1
        return {"translation": translation, "replay": replay, "other": other}
