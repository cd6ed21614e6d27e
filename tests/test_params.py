"""Tests for configuration (Table I) and scaling."""

import pytest

from repro.params import (CacheConfig, DEFAULT_SCALE, EnhancementConfig,
                          LINE_SIZE, PTES_PER_LINE, SimConfig, TLBConfig,
                          default_config, paper_config)


def test_paper_config_matches_table1():
    cfg = paper_config()
    assert cfg.core.rob_entries == 352
    assert cfg.core.dispatch_width == 6
    assert cfg.core.retire_width == 4
    assert cfg.dtlb.entries == 64 and cfg.dtlb.ways == 4
    assert cfg.stlb.entries == 2048 and cfg.stlb.ways == 16
    assert cfg.stlb.latency == 8
    assert cfg.l1d.size_bytes == 48 * 1024 and cfg.l1d.ways == 12
    assert cfg.l2c.size_bytes == 512 * 1024 and cfg.l2c.replacement == "drrip"
    assert cfg.llc.size_bytes == 2 * 1024 * 1024 and cfg.llc.replacement == "ship"
    assert cfg.psc.pscl5_entries == 2
    assert cfg.psc.pscl2_entries == 32


def test_cache_geometry():
    c = CacheConfig("X", 64 * 1024, 8, 10)
    assert c.num_sets == 64 * 1024 // (LINE_SIZE * 8)


def test_cache_scaling_preserves_ways():
    c = CacheConfig("X", 512 * 1024, 8, 10)
    s = c.scaled(16)
    assert s.size_bytes == 32 * 1024
    assert s.ways == 8
    assert s.latency == c.latency


def test_cache_scaling_floor():
    c = CacheConfig("X", 1024, 8, 10)
    s = c.scaled(1000)
    assert s.num_sets >= 1


def test_tlb_scaling():
    t = TLBConfig("STLB", 2048, 16, 8)
    s = t.scaled(16)
    assert s.entries == 128
    assert s.num_sets == 8


def test_default_config_scales_structures_under_study():
    cfg = default_config()
    paper = paper_config()
    assert cfg.stlb.entries == paper.stlb.entries // DEFAULT_SCALE
    assert cfg.l2c.size_bytes == paper.l2c.size_bytes // DEFAULT_SCALE
    assert cfg.llc.size_bytes == paper.llc.size_bytes // DEFAULT_SCALE
    # L1D scales gently (see the rationale in params.py).
    assert cfg.l1d.size_bytes == paper.l1d.size_bytes // (DEFAULT_SCALE // 4)


def test_simconfig_with_still_works():
    cfg = default_config()
    out = cfg.with_(llc_inclusion="inclusive")
    assert out.llc_inclusion == "inclusive"
    assert cfg.llc_inclusion == "non_inclusive"


def test_with_returns_new_config():
    cfg = default_config()
    cfg2 = cfg.with_(l2c_prefetcher="spp")
    assert cfg2.l2c_prefetcher == "spp"
    assert cfg.l2c_prefetcher == "none"


def test_enhancement_presets():
    assert not any(vars(EnhancementConfig.none()).values())
    full = EnhancementConfig.full()
    assert full.t_drrip and full.t_ship and full.newsign
    assert full.atp and full.tempo
    assert not full.replay_rrpv0  # the misconfiguration is never default


def test_ptes_per_line():
    assert PTES_PER_LINE == 8


# ----------------------------------------------------------------------
# Retired spellings are gone, not normalised
# ----------------------------------------------------------------------
def test_retired_name_shims_are_gone():
    import importlib

    from repro import api, params
    from repro.cache.replacement import make_policy

    for name in ("canonical_policy", "_POLICY_ALIASES", "_FLAG_ALIASES",
                 "reset_deprecation_warnings"):
        assert not hasattr(params, name), name
    assert "canonical_policy" not in api.__all__
    with pytest.raises(ValueError, match="T-DRRIP"):
        make_policy("T-DRRIP", num_sets=16, num_ways=4)
    for old in ("t_llc", "new_signatures"):
        with pytest.raises(TypeError, match=old):
            EnhancementConfig(**{old: True})
        assert not hasattr(EnhancementConfig(), old)
    assert not hasattr(default_config(), "replace")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.debug")


def test_enhancement_unknown_flag_rejected():
    with pytest.raises(TypeError, match="frobnicate"):
        EnhancementConfig(frobnicate=True)
