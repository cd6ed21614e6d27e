"""Runtime invariant checkers for the simulated hierarchy.

Every figure in the paper rests on the simulator's internal bookkeeping
being exactly right, so this module machine-checks the conservation laws
the rest of the code relies on *while the simulation runs*:

* **Cache stats** -- hits + misses == accesses for every request category,
  and the leaf-translation (PTL1) triple is internally consistent.
* **Cache structure** -- the tag lookup table and the block array describe
  the same residency: every mapped line points at a valid block with a
  matching tag, no two lines share a way, and the valid-block count equals
  the mapped-line count.
* **RRPV bounds** -- for RRIP-family policies, every valid block's RRPV
  stays within ``[0, max_rrpv]``.
* **MSHR conservation** -- ``allocations - expirations`` equals the live
  entry count; the entries admitted and live at a probe never exceed
  demand + prefetch-queue capacity; the misses admitted for a later
  start stay within the queue limit; and the recorded peak stays within
  their sum.  Each entry's admitted start is recorded by shadowing
  ``MSHR.allocate``.
* **Inclusion** -- under an inclusive LLC, every line resident in a
  back-invalidation target is also resident in the LLC.
* **TLB / PSC sanity** -- per-set entry counts within associativity, tag
  and frame tables keyed identically, paging-structure caches within
  capacity (checked by :class:`MMUChecker`).
* **ROB** -- occupancy never exceeds the ROB size and retirement times
  are monotonically non-decreasing (in-order retire).

Checkers attach by wrapping *instance* methods (``cache.access``,
``mmu.translate``, ...), so an unchecked run pays nothing beyond one
``is None`` test per retired instruction.  Enable them with the
``--check`` CLI flag or ``REPRO_CHECK=1``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

from repro.memsys.request import AccessType, MemoryRequest
from repro.params import PAGE_SHIFT, PAGE_SIZE, PT_LEVELS
from repro.vm.psc import PSC_LEVELS


class ValidationError(AssertionError):
    """An invariant of the simulated machine was violated."""


class CheckContext:
    """Shared violation sink for one hierarchy's checkers.

    ``strict`` (the default) raises :class:`ValidationError` at the first
    violation; non-strict mode records every violation for inspection,
    which the fuzz shrinker uses to classify failures.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.events = 0
        self.violations: List[str] = []

    def fail(self, site: str, message: str) -> None:
        record = f"[{site}] {message}"
        self.violations.append(record)
        if self.strict:
            raise ValidationError(record)

    def require(self, condition: bool, site: str, message: str) -> None:
        if not condition:
            self.fail(site, message)


def mshr_queue_limit(rob_entries: int) -> int:
    """Most misses an MSHR may hold admitted for a start later than a
    probe.  Requests reach a level out of cycle order, so a probe can
    see misses that earlier requests admitted for later starts (behind
    a full table, or issued after a page walk).  Each belongs to an
    instruction in flight, which issues one data access and at most one
    PTE read per page-table level, and each may have started a
    prefetch: at most ``2 * (1 + PT_LEVELS)`` entries per ROB entry.
    Growth past that means admission delays are running away."""
    return 2 * (1 + PT_LEVELS) * rob_entries


class CacheChecker:
    """Per-event invariant checks for one cache level."""

    def __init__(self, cache, ctx: CheckContext, queue_limit: int,
                 inclusion_parent=None):
        self.cache = cache
        self.ctx = ctx
        #: The inclusive LLC this cache's contents must be a subset of
        #: (None outside inclusive mode).
        self.inclusion_parent = inclusion_parent
        #: Live MSHR entries at the last stats reset (conservation base).
        self._mshr_live_base = len(cache.mshr._inflight)
        #: Admitted start (the ``now`` passed to ``MSHR.allocate``) of
        #: each MSHR entry, by line.
        self._mshr_starts: Dict[int, int] = {}
        #: Limit on misses admitted for a later start
        #: (:func:`mshr_queue_limit`).
        self.queue_limit = queue_limit

    # ------------------------------------------------------------------
    def attach(self) -> "CacheChecker":
        cache = self.cache
        orig_access = cache.access
        orig_reset = cache.reset_stats

        def checked_access(req: MemoryRequest) -> int:
            start = req.cycle
            done = orig_access(req)
            self.after_access(req, start, done)
            return done

        def checked_reset() -> None:
            orig_reset()
            self._mshr_live_base = len(cache.mshr._inflight)

        mshr = cache.mshr
        orig_allocate = mshr.allocate
        starts = self._mshr_starts

        def tracked_allocate(line_addr: int, fill_cycle: int,
                             now: int) -> int:
            starts[line_addr] = now
            return orig_allocate(line_addr, fill_cycle, now)

        cache.access = checked_access
        cache.reset_stats = checked_reset
        mshr.allocate = tracked_allocate
        cache._validation_attached = True
        return self

    # ------------------------------------------------------------------
    def after_access(self, req: MemoryRequest, start: int, done: int) -> None:
        ctx = self.ctx
        ctx.events += 1
        name = self.cache.name
        if done < start and not req.dropped:
            ctx.fail(name, f"completion {done} precedes issue {start}")
        self.check_stats(req.category())
        self.check_set(self.cache.set_index(req.line_addr))
        # Probe at the *original* request cycle: admission throttling
        # mutates req.cycle forward, and a pathological delay (the leak
        # this check exists to catch) would otherwise move the probe past
        # every leaked entry's fill time.
        self.check_mshr(start)
        parent = self.inclusion_parent
        if (parent is not None and self.cache.contains(req.line_addr)
                and not parent.contains(req.line_addr)):
            ctx.fail(name, f"line {req.line_addr:#x} resident here but "
                           f"absent from inclusive {parent.name}")

    def check_stats(self, category: Optional[str] = None) -> None:
        s = self.cache.stats
        ctx = self.ctx
        cats = [category] if category else sorted(
            set(s.accesses) | set(s.hits) | set(s.misses))
        for cat in cats:
            ctx.require(s.hits[cat] + s.misses[cat] == s.accesses[cat],
                        s.name, f"{cat}: hits {s.hits[cat]} + misses "
                                f"{s.misses[cat]} != accesses {s.accesses[cat]}")
        ctx.require(s.leaf_hits + s.leaf_misses == s.leaf_accesses, s.name,
                    f"leaf hits {s.leaf_hits} + misses {s.leaf_misses} "
                    f"!= accesses {s.leaf_accesses}")
        ctx.require(s.leaf_accesses <= s.accesses["translation"], s.name,
                    f"leaf accesses {s.leaf_accesses} exceed translation "
                    f"accesses {s.accesses['translation']}")

    def check_set(self, set_idx: int) -> None:
        cache = self.cache
        ctx = self.ctx
        store = cache.store
        slot_of = store.slot_of
        base = set_idx * cache.num_ways
        max_rrpv = getattr(cache.policy, "max_rrpv", None)
        for way in range(cache.num_ways):
            slot = base + way
            if not store.valid[slot]:
                continue
            line = store.line[slot]
            mapped = slot_of.get(line)
            # Two lines cannot share a way (each slot holds one tag) and a
            # mapped line cannot point at an invalid or mistagged slot:
            # both collapse into this single bijection check.
            ctx.require(mapped == slot, cache.name,
                        f"set {set_idx} way {way}: valid line {line:#x} "
                        f"maps to slot {mapped}, expected {slot}")
            ctx.require(line % cache.num_sets == set_idx, cache.name,
                        f"set {set_idx} way {way}: line {line:#x} belongs "
                        f"in set {line % cache.num_sets}")
            if max_rrpv is not None:
                rrpv = store.rrpv[slot]
                if not 0 <= rrpv <= max_rrpv:
                    ctx.fail(cache.name, f"set {set_idx} way {way}: RRPV "
                                         f"{rrpv} outside [0, {max_rrpv}]")

    def check_mshr(self, now: int) -> None:
        cache = self.cache
        ctx = self.ctx
        mshr = cache.mshr
        # The entries live at ``now`` (fill after it) split by admitted
        # start.  Those admitted by ``now`` passed the admission gate:
        # the last of them to be allocated found every other one still
        # in flight, and a demand miss waits until fewer than
        # ``entries`` are, a prefetch is dropped unless fewer than
        # ``entries + _prefetch_queue`` are.  So they never exceed
        # that capacity.  The rest were admitted for a later start and
        # only look live because requests probe out of cycle order;
        # they get the queue limit.
        capacity = mshr.entries + cache._prefetch_queue
        starts = self._mshr_starts
        admitted = queued = 0
        for line in mshr._lines[bisect_right(mshr._fills, now):]:
            if starts.get(line, now) > now:
                queued += 1
            else:
                admitted += 1
        ctx.require(admitted <= capacity, cache.name,
                    f"MSHR occupancy {admitted} (entries admitted and "
                    f"live at cycle {now}) exceeds capacity {capacity} "
                    f"({mshr.entries} demand + {cache._prefetch_queue} "
                    f"prefetch): entries are leaking")
        limit = self.queue_limit
        ctx.require(queued <= limit, cache.name,
                    f"MSHR queue {queued} (misses admitted for a start "
                    f"after cycle {now}) exceeds the limit {limit}: "
                    f"admission delays are running away")
        ctx.require(mshr.peak_occupancy <= capacity + limit, cache.name,
                    f"MSHR peak occupancy {mshr.peak_occupancy} exceeds "
                    f"capacity {capacity} + queue limit {limit}: entries "
                    f"are leaking")
        # Bound the record: forget lines whose entries have expired.
        if len(starts) > 2 * len(mshr._inflight) + 64:
            for line in [l for l in starts if l not in mshr._inflight]:
                del starts[line]
        live = len(mshr._inflight) - self._mshr_live_base
        ctx.require(mshr.allocations - mshr.expirations == live, cache.name,
                    f"MSHR conservation: {mshr.allocations} allocations - "
                    f"{mshr.expirations} expirations != {live} live entries")

    def check_full(self) -> None:
        """Exhaustive sweep (end of run / periodic)."""
        self.check_stats()
        for set_idx in range(self.cache.num_sets):
            self.check_set(set_idx)
        # Global closure of the per-slot bijection: every mapped line
        # points at a valid, matching slot, and the residency-map size
        # equals the valid-slot count (no orphaned entries either way).
        cache = self.cache
        ctx = self.ctx
        store = cache.store
        for line, slot in store.slot_of.items():
            ctx.require(
                0 <= slot < store.size and store.valid[slot]
                and store.line[slot] == line, cache.name,
                f"line {line:#x} mapped to slot {slot}, which does not "
                f"hold it")
        valid = sum(store.valid)
        ctx.require(valid == len(store.slot_of), cache.name,
                    f"{valid} valid slots vs {len(store.slot_of)} mapped "
                    f"lines")
        parent = self.inclusion_parent
        if parent is not None:
            for line in store.slot_of:
                ctx.require(
                    parent.contains(line), cache.name,
                    f"line {line:#x} resident here but absent from "
                    f"inclusive {parent.name}")


class MMUChecker:
    """Translation-path checks: TLB/PSC sanity plus the exact-page-walker
    differential check (the MMU's cached translation must equal a direct,
    timing-free page-table lookup)."""

    def __init__(self, mmu, ctx: CheckContext):
        self.mmu = mmu
        self.ctx = ctx

    def attach(self) -> "MMUChecker":
        orig = self.mmu.translate

        def checked(va: int, cycle: int, ip: int = 0,
                    count_stats: bool = True):
            result = orig(va, cycle, ip, count_stats=count_stats)
            self.after_translate(va, cycle, result)
            return result

        self.mmu.translate = checked
        return self

    def after_translate(self, va: int, cycle: int, result) -> None:
        ctx = self.ctx
        ctx.events += 1
        mmu = self.mmu
        # Differential oracle: the page table is the ground truth the
        # TLBs/PSCs merely cache (translate() is idempotent once mapped).
        expected = ((mmu.page_table.translate(va) << PAGE_SHIFT)
                    | (va & (PAGE_SIZE - 1)))
        ctx.require(result.paddr == expected, "MMU",
                    f"VA {va:#x} translated to {result.paddr:#x}, page "
                    f"table says {expected:#x}")
        ctx.require(result.done_cycle >= cycle, "MMU",
                    f"translation completes at {result.done_cycle} before "
                    f"issue {cycle}")
        ctx.require(result.stlb_hit or result.walk is not None, "MMU",
                    "STLB miss without a page-table walk")
        ctx.require(not (result.dtlb_hit and not result.stlb_hit), "MMU",
                    "DTLB hit classified as STLB miss")
        self.check_structures()

    def check_structures(self) -> None:
        ctx = self.ctx
        mmu = self.mmu
        for tlb in (mmu.dtlb, mmu.stlb):
            ctx.require(tlb.hits + tlb.misses == tlb.accesses, tlb.name,
                        f"hits {tlb.hits} + misses {tlb.misses} != "
                        f"accesses {tlb.accesses}")
            for set_idx, (entries, frames) in enumerate(
                    zip(tlb._sets, tlb._frames)):
                ctx.require(len(entries) <= tlb.num_ways, tlb.name,
                            f"set {set_idx}: {len(entries)} entries exceed "
                            f"{tlb.num_ways} ways")
                ctx.require(entries.keys() == frames.keys(), tlb.name,
                            f"set {set_idx}: tag and frame tables diverge")
        psc = mmu.psc
        for level in PSC_LEVELS:
            held = psc.entries(level)
            cap = psc.config.entries_for_level(level)
            ctx.require(held <= cap, f"PSCL{level}",
                        f"{held} entries exceed capacity {cap}")
        ctx.require(mmu.walker.walks >= mmu.stlb.misses, "PTW",
                    f"{mmu.walker.walks} walks for {mmu.stlb.misses} "
                    f"STLB misses")


class ROBChecker:
    """In-order-retire and occupancy checks for the O(1)-recurrence core."""

    def __init__(self, rob_entries: int, ctx: CheckContext):
        self.rob_entries = rob_entries
        self.ctx = ctx
        self._last_retire: Optional[int] = None

    def on_retire(self, retire_cycle: int, occupancy: int) -> None:
        ctx = self.ctx
        ctx.events += 1
        ctx.require(occupancy <= self.rob_entries, "ROB",
                    f"occupancy {occupancy} exceeds {self.rob_entries} "
                    f"entries")
        if self._last_retire is not None:
            ctx.require(retire_cycle >= self._last_retire, "ROB",
                        f"retire at {retire_cycle} after retire at "
                        f"{self._last_retire}: out-of-order retirement")
        self._last_retire = retire_cycle


class HierarchyChecker:
    """Assembles and attaches all checkers (and, where the level's policy
    is timing-independent, the differential cache oracle) for one
    :class:`~repro.uncore.hierarchy.MemoryHierarchy`."""

    def __init__(self, hierarchy, strict: bool = True):
        from repro.validate.oracle import CacheOracle

        self.hierarchy = hierarchy
        self.ctx = CheckContext(strict)
        self.cache_checkers: List[CacheChecker] = []
        self.oracles: List[CacheOracle] = []
        self.rob_checkers: List[ROBChecker] = []

        llc = hierarchy.llc
        inclusive = (hierarchy.config.llc_inclusion == "inclusive"
                     and llc.bypass_predicate is None)
        queue_limit = mshr_queue_limit(hierarchy.config.core.rob_entries)
        for cache in (hierarchy.l1d, hierarchy.l2c, llc):
            if getattr(cache, "_validation_attached", False):
                continue  # shared LLC: its owner already checks it
            parent = (llc if inclusive
                      and cache in llc.back_invalidate_targets else None)
            self.cache_checkers.append(
                CacheChecker(cache, self.ctx, queue_limit,
                             inclusion_parent=parent).attach())
            # The oracle only models true-LRU exactly; other policies are
            # covered by the invariant checkers and golden tests.
            if cache.policy.name == "lru":
                self.oracles.append(CacheOracle(cache, self.ctx).attach())
        self.mmu_checker = MMUChecker(hierarchy.mmu, self.ctx).attach()

    # ------------------------------------------------------------------
    @property
    def events(self) -> int:
        return self.ctx.events

    @property
    def violations(self) -> List[str]:
        return self.ctx.violations

    def final_check(self) -> None:
        """Exhaustive end-of-run sweep across every structure."""
        for checker in self.cache_checkers:
            checker.check_full()
        self.mmu_checker.check_structures()
        for oracle in self.oracles:
            oracle.final_check()
