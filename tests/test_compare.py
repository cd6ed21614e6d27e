"""Tests for the Section V-B prior-work models (DpPred/CbPred, CSALT)."""

import pytest

from repro.cache.store import CacheStore
from repro.compare.csalt import CSALTPolicy
from repro.compare.dead_page import DeadBlockBypass, DeadPagePredictor
from repro.memsys.request import AccessType, MemoryRequest
from repro.params import default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va


# -- DpPred ---------------------------------------------------------------
def test_dppred_learns_dead_signature():
    pred = DeadPagePredictor()
    ip = 0x42
    for vpn in range(10):
        pred.on_stlb_fill(vpn, ip)
        pred.on_stlb_evict(vpn)  # never reused
    assert pred.is_dead(ip)


def test_dppred_learns_live_signature():
    pred = DeadPagePredictor()
    ip = 0x42
    for vpn in range(10):
        pred.on_stlb_fill(vpn, ip)
        pred.on_stlb_reuse(vpn)
        pred.on_stlb_evict(vpn)
    assert not pred.is_dead(ip)


def test_dppred_signatures_independent():
    pred = DeadPagePredictor()
    for vpn in range(10):
        pred.on_stlb_fill(vpn, 0x42)
        pred.on_stlb_evict(vpn)
    assert pred.is_dead(0x42)
    assert not pred.is_dead(0x1000 + 7)


def test_dppred_evict_unknown_vpn_is_noop():
    pred = DeadPagePredictor()
    pred.on_stlb_evict(0x999)  # never filled: no crash, no training
    pred.on_stlb_reuse(0x999)


# -- CbPred bypass ----------------------------------------------------------
def test_dead_block_bypass_only_demand_data():
    pred = DeadPagePredictor()
    for vpn in range(10):
        pred.on_stlb_fill(vpn, 0x42)
        pred.on_stlb_evict(vpn)
    bypass = DeadBlockBypass(pred)
    dead_load = MemoryRequest(address=0x1000, cycle=0, ip=0x42)
    translation = MemoryRequest(address=0x1000, cycle=0, ip=0x42,
                                access_type=AccessType.TRANSLATION,
                                pt_level=1)
    assert bypass(dead_load)
    assert not bypass(translation)  # translations are never bypassed
    assert bypass.bypassed == 1


def test_cbpred_hierarchy_wiring():
    cfg = default_config().with_(comparison="cbpred")
    h = MemoryHierarchy(cfg)
    assert h.dead_page_predictor is not None
    assert h.mmu.stlb.observer is h.dead_page_predictor
    assert h.llc.bypass_predicate is h.dead_block_bypass
    # It runs end to end.
    h.load(make_va([1, 2, 3, 4, 5]), cycle=0, ip=0x42)


def test_unknown_comparison_mode_rejected():
    cfg = default_config().with_(comparison="mockingjay")
    with pytest.raises(ValueError):
        MemoryHierarchy(cfg)


def test_llc_bypass_skips_install():
    cfg = default_config().with_(comparison="cbpred")
    h = MemoryHierarchy(cfg)
    # Make every prediction dead.
    h.dead_page_predictor._counters = [0] * len(
        h.dead_page_predictor._counters)
    va = make_va([1, 2, 3, 4, 5])
    res = h.load(va, cycle=0, ip=0x42)
    assert not h.llc.contains(res.paddr >> 6)  # bypassed at the LLC
    assert h.l2c.contains(res.paddr >> 6)      # still filled above
    assert h.llc.fills_bypassed >= 1


def test_shared_llc_judges_each_core_with_its_own_predictor():
    """In a multicore mix the shared LLC's bypass asks the predictor of
    the core whose demand fill it judges.  Each core's L2C tags the
    requests it sends down, and each predictor's ``is_dead`` records
    whose fill it judged while the bypass runs."""
    from collections import Counter

    from repro.core.multicore import MultiCore
    from repro.workloads.registry import make_trace

    mc = MultiCore(default_config().with_(comparison="cbpred"), 2)
    llc = mc.llc
    sender = [None]
    judging = [False]
    judged = Counter()  # (predictor's core, fill's core)

    class Tagged:
        def __init__(self, core):
            self.core = core

        def access(self, req):
            sender[0] = self.core
            return llc.access(req)

    bypass = llc.bypass_predicate

    def judge(req):
        judging[0] = True
        try:
            return bypass(req)
        finally:
            judging[0] = False
    llc.bypass_predicate = judge

    for core, h in enumerate(mc.hierarchies):
        h.l2c.next_level = Tagged(core)
        predictor = h.dead_page_predictor

        def is_dead(ip, core=core, own=predictor.is_dead):
            if judging[0]:
                judged[core, sender[0]] += 1
            return own(ip)
        predictor.is_dead = is_dead

    mc.run([make_trace("pr", 6000, seed=11),
            make_trace("cc", 6000, seed=12)], warmup=1000)
    assert judged[0, 0] > 0 and judged[1, 1] > 0
    assert judged[0, 1] == judged[1, 0] == 0


# -- CSALT -----------------------------------------------------------------
def _bound(pol, specs):
    store = CacheStore(pol.num_sets, pol.num_ways)
    pol.bind(store)
    for way, (line, is_translation) in enumerate(specs):
        store.valid[way] = 1
        store.line[way] = line
        store.is_translation[way] = 1 if is_translation else 0
        store.rrpv[way] = 1
    return store


def test_csalt_partition_evicts_within_class():
    pol = CSALTPolicy(4, 4)
    store = _bound(pol, [(1, True), (2, True), (3, False), (4, False)])
    # Translation fill while at quota: must evict a translation way.
    t_req = MemoryRequest(address=0x100, cycle=0,
                          access_type=AccessType.TRANSLATION, pt_level=1)
    victim = pol.victim(0, t_req)
    assert store.is_translation[victim]
    # Data fill while translations within quota: evicts a data way.
    d_req = MemoryRequest(address=0x200, cycle=0)
    victim = pol.victim(0, d_req)
    assert not store.is_translation[victim]


def test_csalt_quota_adapts():
    pol = CSALTPolicy(4, 8)
    _bound(pol, [])
    start = pol.t_ways
    # Starve translations: low translation hit rate, high data hit rate.
    t_req = MemoryRequest(address=0x100, cycle=0,
                          access_type=AccessType.TRANSLATION, pt_level=1)
    d_req = MemoryRequest(address=0x200, cycle=0)
    for _ in range(pol.EPOCH_FILLS):
        pol._accesses["translation"] += 1       # misses only
        pol.on_hit(0, 0, d_req)
        pol._epoch_tick_count = 0
        pol.on_fill(0, 0, d_req)
    assert pol.t_ways > start


def test_csalt_hierarchy_wiring():
    cfg = default_config().with_(comparison="csalt")
    h = MemoryHierarchy(cfg)
    assert h.llc.policy.name == "csalt"
    h.load(make_va([1, 2, 3, 4, 5]), cycle=0)
