"""Property-based tests (hypothesis) on the core data structures."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache.cache import Cache
from repro.cache.replacement import make_policy
from repro.cache.store import CacheStore
from repro.memsys.mshr import MSHR
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import CacheConfig
from repro.stats.recall import RecallTracker


class NullMemory:
    def access(self, req):
        req.served_by = "DRAM"
        return req.cycle + 100


ACCESS_STRATEGY = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),      # line (small space)
        st.sampled_from(["load", "store", "leaf", "upper", "replay",
                         "prefetch"]),
        st.integers(min_value=0, max_value=1 << 20),  # ip
    ),
    min_size=1, max_size=200)


def build_request(line, kind, ip, cycle):
    addr = line << 6
    if kind == "load":
        return MemoryRequest(address=addr, cycle=cycle, ip=ip)
    if kind == "store":
        return MemoryRequest(address=addr, cycle=cycle, ip=ip,
                             access_type=AccessType.STORE)
    if kind == "replay":
        return MemoryRequest(address=addr, cycle=cycle, ip=ip,
                             is_replay=True)
    if kind == "leaf":
        return MemoryRequest(address=addr, cycle=cycle, ip=ip,
                             access_type=AccessType.TRANSLATION, pt_level=1,
                             replay_line_addr=line + 1000)
    if kind == "upper":
        return MemoryRequest(address=addr, cycle=cycle, ip=ip,
                             access_type=AccessType.TRANSLATION, pt_level=4)
    return MemoryRequest(address=addr, cycle=cycle, ip=ip,
                         access_type=AccessType.PREFETCH)


#: Every registered replacement policy.
POLICIES = ("drrip", "hawkeye", "lru", "newsign_ship", "ship", "srrip",
            "t_drrip", "t_hawkeye", "t_ship")


@pytest.mark.parametrize("policy_name", POLICIES)
@settings(max_examples=25, deadline=None)
@given(accesses=ACCESS_STRATEGY)
def test_cache_invariants_under_random_traffic(policy_name, accesses):
    """For every policy: the lookup index stays consistent with block
    state, completions are causal, and no set holds duplicate lines."""
    config = CacheConfig("T", size_bytes=4 * 64 * 2, ways=2, latency=10,
                         mshr_entries=4, replacement="lru")
    cache = Cache(config, NullMemory(),
                  policy=make_policy(policy_name, 4, 2),
                  track_recall=True)
    cycle = 0
    for line, kind, ip in accesses:
        cycle += 7
        req = build_request(line, kind, ip, cycle)
        done = cache.access(req)
        assert done >= cycle + cache.latency  # causality

    store = cache.store
    all_valid_lines = []
    for set_idx in range(cache.num_sets):
        base = set_idx * cache.num_ways
        valid_lines = [store.line[base + w] for w in range(cache.num_ways)
                       if store.valid[base + w]]
        assert len(valid_lines) == len(set(valid_lines))
        for way in range(cache.num_ways):
            slot = base + way
            if store.valid[slot]:
                assert store.slot_of[store.line[slot]] == slot
                assert store.line[slot] % cache.num_sets == set_idx
        all_valid_lines.extend(valid_lines)
    assert set(store.slot_of) == set(all_valid_lines)
    assert len(store.slot_of) == len(all_valid_lines)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=31),
                              st.integers(min_value=0, max_value=500)),
                    min_size=1, max_size=300))
def test_recall_tracker_counts_are_consistent(ops):
    """samples == resolved evictions; histogram sums to samples."""
    tracker = RecallTracker("t")
    for is_evict, set_idx, line in ops:
        if is_evict:
            tracker.on_evict(set_idx % 4, line)
        else:
            tracker.on_access(set_idx % 4, line)
    tracker.flush()
    assert sum(tracker.histogram) == tracker.samples


@settings(max_examples=50, deadline=None)
@given(fills=st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                                st.integers(min_value=1, max_value=300)),
                      min_size=1, max_size=100))
def test_mshr_admission_never_negative_and_bounded(fills):
    mshr = MSHR(4)
    now = 0
    for line, latency in fills:
        now += 5
        delay = mshr.admission_delay(now)
        assert delay >= 0
        start = now + delay
        mshr.allocate(line, start + latency, start)
    # Occupancy of pending demand entries never exceeds capacity by more
    # than the duplicate-line slack (same line re-allocated overwrites).
    assert mshr.occupancy(now) <= 16


@settings(max_examples=30, deadline=None)
@given(seq=st.lists(st.integers(min_value=0, max_value=1 << 40),
                    min_size=1, max_size=200))
def test_rrpv_bounds_hold(seq):
    """RRPVs stay within [0, max] for RRIP policies under arbitrary mixes."""
    pol = make_policy("ship", 8, 4)
    store = CacheStore(8, 4)
    pol.bind(store)
    for addr in seq:
        line = addr >> 6
        set_idx = line % 8
        req = MemoryRequest(address=addr, cycle=0, ip=addr & 0xFFFF)
        base = set_idx * 4
        way = next((w for w in range(4) if store.valid[base + w]
                    and store.line[base + w] == line), None)
        if way is not None:
            pol.on_hit(set_idx, way, req)
        else:
            slot = store.first_free(set_idx)
            if slot < 0:
                victim = pol.victim(set_idx, req)
                pol.on_evict(set_idx, victim)
                slot = base + victim
            else:
                victim = slot - base
            store.reset_slot(slot, line, 0)
            pol.on_fill(set_idx, victim, req)
        for w in range(4):
            assert 0 <= store.rrpv[base + w] <= pol.max_rrpv
