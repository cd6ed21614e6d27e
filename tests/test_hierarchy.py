"""Tests for the wired memory hierarchy."""

import pytest

from repro.memsys.request import AccessType
from repro.params import EnhancementConfig, IdealConfig, default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.vm.address import make_va

VA = make_va([1, 2, 3, 4, 5], 0x40)


def build(enh=None, **cfg_kwargs):
    cfg = default_config()
    if enh is not None:
        cfg = cfg.with_(enhancements=enh)
    if cfg_kwargs:
        cfg = cfg.with_(**cfg_kwargs)
    return MemoryHierarchy(cfg)


def test_cold_load_is_replay_and_reaches_dram():
    h = build()
    res = h.load(VA, cycle=0)
    assert res.is_replay
    assert res.data_served_by == "DRAM"
    assert res.data_done > res.translation_done


def test_replay_issue_latency_applied():
    h = build()
    res = h.load(VA, cycle=0)
    # Data request issued replay_issue_latency after translation.
    min_data = (res.translation_done
                + h.config.core.replay_issue_latency
                + h.config.l1d.latency)
    assert res.data_done >= min_data


def test_warm_load_is_non_replay():
    h = build()
    h.load(VA, cycle=0)
    res = h.load(VA, cycle=10_000)
    assert not res.is_replay
    assert res.dtlb_hit
    assert res.data_served_by == "L1D"


def test_store_translates_and_fills():
    h = build()
    res = h.store(VA, cycle=0)
    assert res.is_replay
    store = h.l1d.store
    assert store.dirty[store.slot_of[res.paddr >> 6]]


def test_response_distribution_tracks_replays():
    h = build()
    h.load(VA, cycle=0)
    dist = h.response_distribution
    assert sum(dist.counts["replay"].values()) == 1
    assert sum(dist.counts["translation"].values()) == 1


def test_replay_latency_counts_replay_loads_only():
    """The ATP head-start counter sums data done minus translation done
    over replay loads; a warm load and a store add nothing."""
    h = build()
    res = h.load(VA, cycle=0)
    assert h.replay_latency_total == res.data_done - res.translation_done
    h.load(VA, cycle=10_000)
    h.store(make_va([9, 2, 3, 4, 5], 0x40), cycle=20_000)
    assert h.replay_latency_total == res.data_done - res.translation_done
    h.reset_stats()
    assert h.replay_latency_total == 0


def test_t_policies_swapped_in():
    h = build(EnhancementConfig(t_drrip=True, t_ship=True,
                                newsign=True))
    assert h.l2c.policy.name == "t_drrip"
    assert h.llc.policy.name == "t_ship"


def test_newsign_only_variant():
    h = build(EnhancementConfig(newsign=True))
    assert h.llc.policy.name == "newsign_ship"
    assert h.l2c.policy.name == "drrip"


def test_t_hawkeye_when_llc_is_hawkeye():
    cfg = default_config().with_(
        enhancements=EnhancementConfig(t_ship=True))
    cfg.llc.replacement = "hawkeye"
    h = MemoryHierarchy(cfg)
    assert h.llc.policy.name == "t_hawkeye"


def test_atp_and_tempo_attached():
    h = build(EnhancementConfig.full())
    assert h.atp is not None
    assert h.l2c.on_leaf_translation_hit is not None
    assert h.llc.on_leaf_translation_hit is not None
    assert h.tempo is not None
    assert h.dram.on_leaf_translation is not None


@pytest.mark.parametrize("keep,inclusion", [
    ("result", "non_inclusive"), ("summary", "non_inclusive"),
    ("summary", "inclusive")], ids=["result", "summary", "inclusive"])
def test_a_finished_run_is_freed_without_a_collection(keep, inclusion):
    """A forwarded ``pr``/full run -- its sampler, ATP and TEMPO attached,
    as in every service ``run`` job, and an inclusive LLC's
    back-invalidation targets -- forms no reference cycle: once its
    result goes, so do the hierarchy and its levels, with the cyclic
    collector off."""
    import gc
    import weakref

    from repro.experiments.parallel import RunSummary
    from repro.experiments.runner import run_benchmark
    from repro.obs.forward import ProgressForwarder

    cfg = default_config(16).with_(enhancements="full",
                                   llc_inclusion=inclusion)
    rows = []
    forwarder = ProgressForwarder(rows.append, total_instructions=3000,
                                  interval=1000)
    gc.collect()
    gc.disable()
    try:
        result = run_benchmark("pr", config=cfg, instructions=3000,
                               warmup=500, scale=16, seed=1,
                               progress=forwarder)
        summary = RunSummary.from_run(result)
        h = result.hierarchy
        assert h.sampler is not None and h.atp is not None \
            and h.tempo is not None
        assert (h.llc.back_invalidate_targets != []) \
            is (inclusion == "inclusive")
        alive = [weakref.ref(obj)
                 for obj in (h, h.l1d, h.l2c, h.llc, h.dram, h.mmu)]
        del h
        if keep == "summary":
            del result
        else:
            del summary
            assert all(ref() is not None for ref in alive)
            del result
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
    assert len(rows) == 3


def test_baseline_has_no_prefetchers():
    h = build()
    assert h.atp is None and h.tempo is None and h.ipcp is None
    assert h.l2c.prefetcher is None


def test_l2c_prefetcher_attached():
    h = build(None, l2c_prefetcher="spp")
    assert h.l2c.prefetcher is not None
    assert h.l2c.prefetcher.name == "spp"


def test_ipcp_runs_on_loads():
    h = build(None, l1d_prefetcher="ipcp")
    base = make_va([2, 2, 2, 2, 0])
    for i in range(12):
        h.load(base + i * 128, cycle=i * 100, ip=0x42)
    assert h.ipcp.issued > 0


def test_ideal_llc_modes_wire_through():
    cfg = default_config().with_(
        ideal=IdealConfig(llc_translations=True, llc_replays=True))
    h = MemoryHierarchy(cfg)
    assert h.llc.ideal_translations and h.llc.ideal_replays
    assert not h.l2c.ideal_translations


def test_shared_llc_between_hierarchies():
    from repro.vm.page_table import FrameAllocator
    cfg = default_config()
    alloc = FrameAllocator()
    first = MemoryHierarchy(cfg, alloc)
    second = MemoryHierarchy(cfg, alloc,
                             shared_llc=first.llc, shared_dram=first.dram)
    assert second.llc is first.llc
    assert second.dram is first.dram
    assert second.l2c is not first.l2c


def test_leaf_translation_hit_rate():
    h = build(EnhancementConfig(t_drrip=True, t_ship=True,
                                newsign=True))
    base = make_va([3, 3, 3, 0, 0])
    for i in range(200):
        h.load(base + (i % 50) * 4096, cycle=i * 300)
    assert 0.0 <= h.leaf_translation_hit_rate() <= 1.0


def test_reset_stats_clears_everything():
    h = build(EnhancementConfig.full())
    h.load(VA, cycle=0)
    h.reset_stats()
    assert h.loads == 0
    assert h.dram.accesses == 0
    assert h.mmu.stlb.accesses == 0
    assert sum(h.l1d.stats.misses.values()) == 0
    assert sum(h.response_distribution.counts["replay"].values()) == 0


def test_a_run_skips_only_the_base_policy_no_op_hooks(monkeypatch):
    """At a run's start each level skips the policy hooks that are the
    base class's no-ops: on ``pr``/full the base ``on_evict`` and
    ``record_miss`` are never entered, while SHiP's ``on_evict`` runs on
    every LLC eviction, DRRIP's ``record_miss`` on every L2C demand miss,
    and a no-op hook patched on a policy instance before the run on every
    L1D eviction.  The counting wrappers sit on the classes, as
    perfbench's spans do."""
    from collections import Counter

    from repro.cache.replacement.base import ReplacementPolicy, RRIPBase
    from repro.cache.replacement.drrip import DRRIPPolicy
    from repro.cache.replacement.lru import LRUPolicy
    from repro.cache.replacement.ship import SHiPPolicy
    from repro.core.ooo_core import OOOCore
    from repro.workloads.registry import make_trace

    entered = Counter()
    for cls, name in ((ReplacementPolicy, "on_evict"),
                      (ReplacementPolicy, "record_miss"),
                      (SHiPPolicy, "on_evict"), (DRRIPPolicy, "record_miss"),
                      (RRIPBase, "victim"), (LRUPolicy, "victim")):
        def counted(self, *args, _fn=vars(cls)[name],
                    _key=f"{cls.__name__}.{name}"):
            entered[_key, self] += 1
            return _fn(self, *args)
        monkeypatch.setattr(cls, name, counted)

    cfg = default_config(16).with_(enhancements="full")
    hierarchy = MemoryHierarchy(cfg)
    l1d, l2c, llc = hierarchy.l1d, hierarchy.l2c, hierarchy.llc
    patched = []
    l1d.policy.on_evict = lambda set_idx, way: patched.append(set_idx)
    OOOCore(cfg, hierarchy).run(make_trace("pr", 6000, scale=16))

    def total(key):
        return sum(n for (k, _), n in entered.items() if k == key)
    assert total("ReplacementPolicy.on_evict") == 0
    assert total("ReplacementPolicy.record_miss") == 0
    llc_evictions = entered["RRIPBase.victim", llc.policy]
    assert llc_evictions > 0
    assert entered["SHiPPolicy.on_evict", llc.policy] == llc_evictions
    demand_misses = l2c.stats.misses["replay"] \
        + l2c.stats.misses["non_replay"]
    assert demand_misses > 0
    assert entered["DRRIPPolicy.record_miss", l2c.policy] == demand_misses
    l1d_evictions = entered["LRUPolicy.victim", l1d.policy]
    assert l1d_evictions > 0
    assert len(patched) == l1d_evictions
