"""Differential test of the cache access and fill path.

``Cache.access`` answers a hit and a miss in one pass, and
``Cache._fill`` finds the free way, evicts the victim and writes each
live column once; SHiP-family fills hash their signature once, and a
level whose hooks were probed (``Cache.probe_hooks``) skips the
policy's no-op ``on_evict`` and ``record_miss``.  None of this may
change a simulated statistic, so this module keeps the code it replaced
as a reference:

* :class:`ReferenceStore` -- the previous ``CacheStore``, verbatim,
  with ``first_free``, ``reset_slot`` and the ``fill_cycle`` column;
* :class:`ReferenceCache` -- the previous ``Cache`` access and fill
  path, verbatim (``_handle_hit``, ``_handle_miss``, ``_fill``,
  ``_evict``), plus the one-line admission-cycle fix that each level's
  MSHR is told its own admission cycle;
* :func:`reference_policy` -- every registered policy, with the
  SHiP family's previous ``on_fill``, which hashed the signature once
  for the column and again for the insertion RRPV.

Hypothesis streams drive a two-level chain of each (upper over lower
over a fixed-latency memory) on small geometries that fill their sets:
loads and stores, replay or not; leaf and upper-level translations;
prefetches with and without ``evict_priority``, as requests and through
``issue_prefetch``; writebacks; and cycles that go backwards.  Every
registered policy runs with and without inclusive back-invalidation, a
bypass predicate, the ``ideal_*`` flags, recall tracking, a demand
prefetcher and the hook probe.  After each request the returned cycle,
``served_by`` and ``dropped`` must agree; at the end every store column
and ``slot_of``, the stats, the MSHR, the writeback, back-invalidation,
drop and bypass counters, the policy state, the recall histograms and
everything the memory, the prefetcher and the leaf-hit hook saw.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.replacement import _REGISTRY, make_policy
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.ship import SHiPPolicy
from repro.memsys import request as request_pool
from repro.memsys.mshr import MSHR
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import CacheConfig
from repro.stats.counters import CacheStats
from repro.stats.recall import RecallPair, RecallTracker

_PREFETCH = AccessType.PREFETCH
_STORE = AccessType.STORE
_WRITEBACK = AccessType.WRITEBACK


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
class ReferenceStore:
    """The parent's ``CacheStore``, verbatim."""

    __slots__ = ("num_sets", "num_ways", "size", "line", "valid", "dirty",
                 "reused", "is_translation", "is_leaf_translation",
                 "is_replay", "is_prefetch", "dead_on_hit", "signature",
                 "rrpv", "fill_cycle", "slot_of")

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        n = num_sets * num_ways
        self.size = n
        self.line: List[int] = [-1] * n
        self.valid = bytearray(n)
        self.dirty = bytearray(n)
        self.reused = bytearray(n)
        self.is_translation = bytearray(n)
        self.is_leaf_translation = bytearray(n)
        self.is_replay = bytearray(n)
        self.is_prefetch = bytearray(n)
        self.dead_on_hit = bytearray(n)
        self.signature: List[int] = [0] * n
        self.rrpv: List[int] = [0] * n
        self.fill_cycle: List[int] = [0] * n
        #: Single residency map for the whole cache: line_addr -> slot.
        #: (A line can live in exactly one set, so one dict suffices.)
        self.slot_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def first_free(self, set_idx: int) -> int:
        """Slot of the first invalid way in ``set_idx``, or -1 when full."""
        base = set_idx * self.num_ways
        return self.valid.find(0, base, base + self.num_ways)

    def reset_slot(self, slot: int, line_addr: int, fill_cycle: int) -> None:
        """Reinitialise ``slot`` for a fresh fill; the caller updates
        :attr:`slot_of`."""
        self.line[slot] = line_addr
        self.valid[slot] = 1
        self.dirty[slot] = 0
        self.reused[slot] = 0
        self.is_translation[slot] = 0
        self.is_leaf_translation[slot] = 0
        self.is_replay[slot] = 0
        self.is_prefetch[slot] = 0
        self.dead_on_hit[slot] = 0
        self.signature[slot] = 0
        self.fill_cycle[slot] = fill_cycle


class ReferenceCache:
    """The parent's ``Cache``, verbatim, plus the admission-cycle fix."""

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
        self._store = ReferenceStore(self.num_sets, self.num_ways)
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
        #: Extra in-flight prefetch capacity on top of the demand MSHRs
        #: (a model of the separate prefetch queue).
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
    def store(self) -> ReferenceStore:
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
        """Process one request; returns the data-ready cycle."""
        line = req.line_addr
        set_idx = line % self.num_sets
        ready = req.cycle + self.latency

        rt = self.recall_translation
        if rt is not None and (rt.pending or self.recall_replay.pending):
            self.recall_pair.on_access(set_idx, line)

        slot = self._slot_of.get(line)
        if slot is not None:
            completion = self._handle_hit(req, set_idx, slot, ready)
        else:
            completion = self._handle_miss(req, set_idx, ready)

        if self.prefetcher is not None and req.is_demand_data:
            self._run_prefetcher(req, hit=slot is not None)
        return completion

    # ------------------------------------------------------------------
    def _handle_hit(self, req: MemoryRequest, set_idx: int, slot: int,
                    ready: int) -> int:
        store = self._store
        # Counter updates and the MSHR merge probe are inlined (the probe
        # matches MSHR.lookup): this runs once per hit on the innermost
        # path.
        stats = self.stats
        cat = req._category
        stats.accesses[cat] += 1
        stats.hits[cat] += 1
        if req.is_leaf_translation:
            stats.leaf_accesses += 1
            stats.leaf_hits += 1
        req.served_by = self.name
        # A "hit" on a line whose fill is still in flight (e.g. an ATP
        # prefetch racing the replay demand) completes when the data
        # actually arrives, not at the tag-hit latency.
        mshr = self.mshr
        pending = mshr._inflight.get(req.line_addr)
        if pending is not None and pending > req.cycle:
            mshr.merges += 1
            if mshr.tracer is not None:
                mshr.tracer.instant("mshr_merge", req.cycle, cat="mshr",
                                    component=mshr.component,
                                    line=req.line_addr, fill=pending)
            if pending > ready:
                ready = pending
        access_type = req.access_type
        if access_type is _WRITEBACK:
            store.dirty[slot] = 1
            return ready
        if access_type is _PREFETCH:
            # Prefetch hits neither promote nor train the policy.
            return ready
        if store.is_prefetch[slot] and not store.reused[slot]:
            self.stats.prefetch_useful += 1
        store.reused[slot] = 1
        if access_type is _STORE:
            store.dirty[slot] = 1
        way = slot - set_idx * self.num_ways
        self._policy.on_hit(set_idx, way, req)
        if store.dead_on_hit[slot]:
            # ATP/TEMPO replay fills are dead after their single use (Fig 7):
            # the consuming hit must not promote them.
            self._policy.demote(set_idx, way)
        if req.is_leaf_translation and self.on_leaf_translation_hit is not None:
            self.on_leaf_translation_hit(req, ready)
        return ready

    def _handle_miss(self, req: MemoryRequest, set_idx: int,
                     ready: int) -> int:
        line = req.line_addr
        # Counter updates and the MSHR merge probe are inlined (the probe
        # matches MSHR.lookup): this runs once per miss on the innermost
        # path.
        stats = self.stats
        cat = req._category
        stats.accesses[cat] += 1
        stats.misses[cat] += 1
        if req.is_leaf_translation:
            stats.leaf_accesses += 1
            stats.leaf_misses += 1
        if req.is_demand_data:
            self._policy.record_miss(set_idx)

        mshr = self.mshr
        merged = mshr._inflight.get(line)
        if merged is not None and merged > req.cycle:
            mshr.merges += 1
            if mshr.tracer is not None:
                mshr.tracer.instant("mshr_merge", req.cycle, cat="mshr",
                                    component=mshr.component,
                                    line=line, fill=merged)
            req.served_by = self.name
            if line not in self._slot_of:
                # The line was evicted while its fill was still in flight
                # (the victim loop does not know about MSHRs).  The
                # pending fill still delivers the data, so it re-installs
                # the block -- dropping it would strand the response.
                self._fill(req, set_idx, merged)
                if req.access_type is _WRITEBACK:
                    self._store.dirty[self._slot_of[line]] = 1
            return merged if merged > ready else ready

        if req.access_type is _PREFETCH:
            # Prefetches ride a separate queue: they never steal demand
            # MSHR capacity, but a flooded queue drops them.
            if (self.mshr.occupancy(req.cycle)
                    >= self.mshr.entries + self._prefetch_queue):
                self.prefetches_dropped += 1
                req.served_by = self.name
                req.dropped = True
                return ready
            req.cycle = ready
            fill_cycle = self.next_level.access(req)
            if req.dropped:
                # A lower level dropped the prefetch: no data will ever
                # return, so installing here would manufacture a line out
                # of nothing (and break inclusion under an inclusive LLC).
                return ready
            self.mshr.allocate_prefetch(line, fill_cycle, ready)
            self._fill(req, set_idx, fill_cycle)
            return fill_cycle

        ideal = ((req.is_leaf_translation and self.ideal_translations)
                 or (req.is_demand_data and req.is_replay
                     and self.ideal_replays))

        if req.access_type is _WRITEBACK:
            # Non-inclusive: install the written-back line here.
            self._fill(req, set_idx, ready)
            self._store.dirty[self._slot_of[line]] = 1
            return ready

        # A full MSHR delays the start of the downstream access until a
        # slot frees (MLP throttling).
        start = ready + self.mshr.admission_delay(ready)
        req.cycle = start
        fill_cycle = self.next_level.access(req)
        self.mshr.allocate(line, fill_cycle, start)
        if (self.bypass_predicate is not None
                and self.bypass_predicate(req)):
            self.fills_bypassed += 1
        else:
            self._fill(req, set_idx, fill_cycle)
        if ideal:
            # Fig 2 mode: answer with the hit latency; the real miss above
            # already consumed MSHR and downstream bandwidth.
            req.served_by = self.name
            return ready
        return fill_cycle

    # ------------------------------------------------------------------
    def _fill(self, req: MemoryRequest, set_idx: int, fill_cycle: int) -> None:
        store = self._store
        slot = store.first_free(set_idx)
        if slot < 0:
            way = self._policy.victim(set_idx, req)
            slot = set_idx * self.num_ways + way
            self._policy.on_evict(set_idx, way)
            self._evict(set_idx, slot, fill_cycle)
        else:
            way = slot - set_idx * self.num_ways
        line = req.line_addr
        store.reset_slot(slot, line, fill_cycle)
        if req.is_translation:
            store.is_translation[slot] = 1
            if req.is_leaf_translation:
                store.is_leaf_translation[slot] = 1
        access_type = req.access_type
        is_prefetch = access_type is _PREFETCH
        if req.is_demand_data and req.is_replay:
            store.is_replay[slot] = 1
        if is_prefetch:
            store.is_prefetch[slot] = 1
        if access_type is _STORE:
            store.dirty[slot] = 1
        self._slot_of[line] = slot
        self._policy.on_fill(set_idx, way, req)
        if req.evict_priority:
            self._policy.demote(set_idx, way)
            store.dead_on_hit[slot] = 1
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

    def _evict(self, set_idx: int, slot: int, cycle: int) -> None:
        store = self._store
        victim_line = store.line[slot]
        del self._slot_of[victim_line]
        # Back-invalidation: a dirty upper-level copy holds data the LLC
        # never saw; dropping it silently would lose the only dirty copy,
        # so it upgrades this eviction to a writeback.
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
            wb = request_pool.acquire(victim_line << 6, cycle, 0,
                                      _WRITEBACK)
            self.next_level.access(wb)
            request_pool.release(wb)
        store.valid[slot] = 0

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


class _TwiceHashedFill:
    """The SHiP family's previous ``on_fill``: ``insertion_rrpv`` hashed
    the signature a second time."""

    def on_fill(self, set_idx, way, req):
        slot = set_idx * self.num_ways + way
        self.store.signature[slot] = self.signature(req)
        self.store.rrpv[slot] = self.insertion_rrpv(set_idx, req)


def reference_policy(name: str, num_sets: int,
                     num_ways: int) -> ReplacementPolicy:
    """Registered policy ``name`` as the previous fill path ran it."""
    cls = _REGISTRY[name]
    if issubclass(cls, SHiPPolicy):
        cls = type("Reference" + cls.__name__, (_TwiceHashedFill, cls), {})
    return cls(num_sets, num_ways)


# ----------------------------------------------------------------------
# The chain both sides run on
# ----------------------------------------------------------------------
class FixedMemory:
    """Fixed-latency memory that, like a missing lower level, advances
    ``req.cycle``, and drops every fifth prefetch line."""

    def __init__(self):
        self.log = []

    def access(self, req):
        self.log.append((req.line_addr, req.cycle, req.access_type.value,
                         req.evict_priority))
        if req.access_type is _PREFETCH and req.line_addr % 5 == 0:
            req.dropped = True
        req.served_by = "DRAM"
        req.cycle += 7
        return req.cycle + 93


class NextLine:
    """Demand prefetcher: the next two lines, recorded per call."""

    def __init__(self):
        self.issued = 0
        self.log = []

    def operate(self, req, hit):
        self.log.append((req.line_addr, req.cycle, hit))
        return [req.line_addr + 1, req.line_addr + 2]


#: The lower level has fewer sets than the upper, so lines of different
#: upper sets compete for one lower set: under inclusion, a line the
#: upper keeps hitting (and may have dirtied) is back-invalidated.
UPPER = CacheConfig("U", size_bytes=4 * 2 * 64, ways=2, latency=4,
                    mshr_entries=2)
LOWER = CacheConfig("L", size_bytes=2 * 4 * 64, ways=4, latency=9,
                    mshr_entries=3)


def build(cache_cls, policy_fn, policy: str, options: Dict):
    """(upper, lower, memory, prefetcher, leaf-hit log) of one side."""
    memory = FixedMemory()
    levels = []
    below = memory
    for config in (LOWER, UPPER):
        cache = cache_cls(
            config, below,
            policy=policy_fn(policy, config.num_sets, config.ways),
            track_recall=options["recall"],
            ideal_translations=options["ideal"],
            ideal_replays=options["ideal"])
        levels.append(cache)
        below = cache
    lower, upper = levels
    if options["inclusive"]:
        lower.back_invalidate_targets = [upper]
    if options["bypass"]:
        lower.bypass_predicate = lambda req: req.line_addr % 3 == 0
    prefetcher = None
    if options["prefetcher"]:
        prefetcher = upper.prefetcher = NextLine()
    if options["probe"] and cache_cls is Cache:
        for cache in levels:
            cache.probe_hooks()
    hits = []
    for cache in levels:
        cache.on_leaf_translation_hit = (
            lambda req, ready, name=cache.name:
            hits.append((name, req.line_addr, ready)))
    return upper, lower, memory, prefetcher, hits


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
KINDS = ("load", "store", "leaf", "upper_pte", "prefetch", "issue_prefetch",
         "writeback")

ops = st.lists(
    st.tuples(st.sampled_from(KINDS),
              st.integers(min_value=0, max_value=23),   # line
              st.integers(min_value=-60, max_value=160),  # cycle step
              st.integers(min_value=0, max_value=5),    # ip
              st.booleans()),                           # replay / priority
    min_size=1, max_size=160)


def request(kind: str, line: int, cycle: int, ip: int,
            flag: bool) -> MemoryRequest:
    address = line << 6
    if kind == "load":
        return MemoryRequest(address, cycle, ip, is_replay=flag)
    if kind == "store":
        return MemoryRequest(address, cycle, ip, AccessType.STORE,
                             is_replay=flag)
    if kind == "leaf":
        return MemoryRequest(address, cycle, ip, AccessType.TRANSLATION,
                             pt_level=1, leaf_walk=True,
                             replay_line_addr=line + 100)
    if kind == "upper_pte":
        return MemoryRequest(address, cycle, ip, AccessType.TRANSLATION,
                             pt_level=2 + ip % 4)
    if kind == "prefetch":
        return MemoryRequest(address, cycle, ip, _PREFETCH,
                             evict_priority=flag)
    return MemoryRequest(address, cycle, ip, _WRITEBACK)


def drive(side, stream) -> List:
    """Run ``stream`` through one side; what each request returned."""
    upper = side[0]
    seen = []
    cycle = 0
    for kind, line, step, ip, flag in stream:
        cycle = max(0, cycle + step)
        if kind == "issue_prefetch":
            seen.append((upper.issue_prefetch(line, cycle, flag),))
            continue
        req = request(kind, line, cycle, ip, flag)
        done = upper.access(req)
        seen.append((done, req.served_by, req.dropped, req.cycle))
    return seen


def policy_state(policy) -> Dict:
    state = {}
    for key, value in vars(policy).items():
        if key == "store":
            continue
        if key == "_histories":
            value = {s: {slot: getattr(h, slot) for slot in h.__slots__}
                     for s, h in value.items()}
        state[key] = value
    return state


def level_state(cache) -> Dict:
    store = cache.store
    columns = {name: list(getattr(store, name))
               for name in ("line", "valid", "dirty", "reused",
                            "is_translation", "is_leaf_translation",
                            "is_replay", "is_prefetch", "dead_on_hit",
                            "signature", "rrpv")}
    stats = cache.stats
    mshr = cache.mshr
    recall = None
    if cache.recall_pair is not None:
        recall = [(t.histogram, t.samples, t.pending)
                  for t in (cache.recall_translation, cache.recall_replay)]
    return {
        "columns": columns, "slot_of": dict(store.slot_of),
        "stats": (dict(stats.accesses), dict(stats.hits),
                  dict(stats.misses), stats.leaf_accesses, stats.leaf_hits,
                  stats.leaf_misses, stats.prefetch_useful,
                  stats.prefetch_fills),
        "mshr": (dict(mshr._inflight), list(mshr._fills),
                 list(mshr._lines), mshr.merges, mshr.allocations,
                 mshr.expirations, mshr.peak_occupancy,
                 mshr.admission_stall_cycles),
        "counters": (cache.writebacks_issued, cache.back_invalidations,
                     cache.prefetches_dropped, cache.fills_bypassed),
        "policy": policy_state(cache.policy),
        "recall": recall,
    }


@pytest.mark.parametrize("policy", sorted(_REGISTRY))
@settings(max_examples=40, deadline=None)
@given(stream=ops, inclusive=st.booleans(), bypass=st.booleans(),
       ideal=st.booleans(), recall=st.booleans(), prefetcher=st.booleans(),
       probe=st.booleans())
def test_access_and_fill_match_the_previous_path(policy, stream, inclusive,
                                                 bypass, ideal, recall,
                                                 prefetcher, probe):
    options = {"inclusive": inclusive, "bypass": bypass, "ideal": ideal,
               "recall": recall, "prefetcher": prefetcher, "probe": probe}
    new = build(Cache, make_policy, policy, options)
    ref = build(ReferenceCache, reference_policy, policy, options)
    new_seen = drive(new, stream)
    ref_seen = drive(ref, stream)
    for i, (got, want) in enumerate(zip(new_seen, ref_seen)):
        assert got == want, f"request {i} ({stream[i]}) diverged"
    for new_level, ref_level in zip(new[:2], ref[:2]):
        got, want = level_state(new_level), level_state(ref_level)
        for key in want:
            assert got[key] == want[key], f"{new_level.name} {key}"
    assert new[2].log == ref[2].log
    if prefetcher:
        assert new[3].log == ref[3].log
    assert new[4] == ref[4]
