"""Drift test: the fallback vocabulary has three surfaces, one source.

:class:`repro.core.fallback.FallbackReason` is simultaneously the batch
engine's ``last_fallback_reason`` type, the ``reason=`` label set of the
service's ``repro_batch_fallback_total`` telemetry series, and the row
key of the fallback table in ``docs/performance.md``.  Each test here
pins one pair of surfaces against the enum so a member added (or a slug
renamed) in one place fails loudly everywhere it was forgotten.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.fallback import (COHORT_BUCKETS, REASON_DETAIL,
                                 FallbackReason)

DOCS = Path(__file__).resolve().parents[1] / "docs" / "performance.md"


def _service(tmp_path):
    from repro.service.core import SweepService
    from repro.service.store import JobStore
    return SweepService(store=JobStore(str(tmp_path / "store")),
                        workers=0)


def test_every_reason_has_detail():
    assert set(REASON_DETAIL) == set(FallbackReason)
    for reason, detail in REASON_DETAIL.items():
        assert detail, f"empty detail for {reason}"


def test_slugs_are_stable_machine_readable():
    for reason in FallbackReason:
        assert reason.value == reason.value.lower()
        assert " " not in reason.value
        # str() is the slug -- payload dicts and log lines rely on it.
        assert str(reason) == reason.value


def test_telemetry_label_set_matches_enum(tmp_path):
    svc = _service(tmp_path)
    assert set(svc._batch_fallbacks) == {r.value for r in FallbackReason}
    # The counters are pre-registered so /metrics shows the full label
    # set at zero; the rendered exposition must already name every slug.
    rendered = svc.telemetry.render_prometheus()
    for reason in FallbackReason:
        assert f'reason="{reason.value}"' in rendered


def test_cohort_histogram_buckets_shared(tmp_path):
    svc = _service(tmp_path)
    assert list(svc._cohort_hist.buckets) == [float(b)
                                              for b in COHORT_BUCKETS]


def test_docs_table_covers_every_reason():
    text = DOCS.read_text(encoding="utf-8")
    for reason in FallbackReason:
        assert f"`{reason.value}`" in text, (
            f"docs/performance.md fallback table is missing a row for "
            f"{reason.value!r}")
    for reason, detail in REASON_DETAIL.items():
        assert detail in text, (
            f"docs/performance.md detail text drifted from REASON_DETAIL "
            f"for {reason.value!r}")


def test_static_reasons_come_from_the_enum():
    from repro.core.batch_engine import vector_ineligibility
    from repro.params import default_config
    from repro.uncore.hierarchy import MemoryHierarchy

    cases = {
        None: default_config(64),
        FallbackReason.HUGE_PAGES: default_config(64).with_(
            huge_page_policy="gather_region"),
        FallbackReason.COMPARISON: default_config(64).with_(
            comparison="cbpred"),
        FallbackReason.L1D_PREFETCHER: default_config(64).with_(
            l1d_prefetcher="next_line"),
    }
    for expected, cfg in cases.items():
        got = vector_ineligibility(cfg, MemoryHierarchy(cfg))
        assert got is expected
        if got is not None:
            assert isinstance(got, FallbackReason)


def test_runtime_reason_comes_from_the_enum():
    from repro.core.engine import make_core
    from repro.params import default_config
    from repro.uncore.hierarchy import MemoryHierarchy

    cfg = default_config(64).with_(backend="numpy")
    hierarchy = MemoryHierarchy(cfg)
    core = make_core(cfg, hierarchy)
    # Shadow a hot method on the *instance* -- the engine must refuse
    # with the INSTANCE_PATCH member, not a bare string.
    hierarchy.load = hierarchy.load  # noqa: PLW0127 -- binds into __dict__
    assert core._runtime_reason() is FallbackReason.INSTANCE_PATCH


def test_fallback_payload_keys_round_trip(tmp_path):
    """BatchStats fallback dicts key by slug and merge into telemetry."""
    from repro.core.fallback import BatchStats

    stats = BatchStats()
    stats.record_fallback(FallbackReason.TRACER)
    payload = {"batch": stats.to_dict()}
    svc = _service(tmp_path)
    svc._record_batch_telemetry(payload)
    counter = svc._batch_fallbacks[FallbackReason.TRACER.value]
    assert counter.value == 1
