"""Deterministic fuzz validation: seeded mixed streams through the fully
checked hierarchy (tests/test_validation_fuzz.py is the pytest face of
``make fuzz``).

``REPRO_FUZZ_STREAMS`` overrides the stream count (default 200, the CI
floor); ``REPRO_FUZZ_FIRST_SEED`` shifts the seed window for soak runs.
"""

import os

import pytest

from repro.validate import fuzz

N_STREAMS = int(os.environ.get("REPRO_FUZZ_STREAMS", "200"))
FIRST_SEED = int(os.environ.get("REPRO_FUZZ_FIRST_SEED", "0"))

#: Seeds grouped into chunks so a failure pinpoints its neighbourhood
#: without paying 200 separate hierarchy-import fixtures.
CHUNK = 25
CHUNKS = [(FIRST_SEED + i, min(CHUNK, N_STREAMS - i))
          for i in range(0, N_STREAMS, CHUNK)]


def test_case_generation_is_deterministic():
    for seed in (0, 3, 17, 101):
        a, b = fuzz.make_case(seed), fuzz.make_case(seed)
        assert a == b
        assert a.variant == fuzz.VARIANTS[seed % len(fuzz.VARIANTS)]
        assert len(a.ops) >= 1


def test_every_variant_is_exercised():
    variants = {fuzz.make_case(s).variant
                for s in range(FIRST_SEED, FIRST_SEED + len(fuzz.VARIANTS))}
    assert variants == set(fuzz.VARIANTS)


@pytest.mark.parametrize("first,count", CHUNKS,
                         ids=[f"seeds{f}-{f + c - 1}" for f, c in CHUNKS])
def test_fuzz_streams_clean(first, count):
    reports = fuzz.fuzz_range(first, count)
    assert reports == [], (
        f"{len(reports)} stream(s) violated invariants; minimal "
        "reproducers follow:\n" + "\n".join(reports))


def test_the_fast_path_axis_runs_both_smt_threads(monkeypatch):
    """The ``smt`` variant's fast-path differential runs the machine
    ``run_case`` checks: two SMT threads on one core, each on the fast
    path, and the second thread's cycles are compared too."""
    from repro.core.ooo_core import BatchStats, OOOCore

    case = next(fuzz.make_case(s) for s in range(FIRST_SEED, FIRST_SEED + 8)
                if fuzz.make_case(s).variant == "smt")
    exercised = BatchStats()
    assert fuzz.compare_backends(case, exercised) == {}
    assert exercised.fallbacks == {}
    assert exercised.windows == 2
    assert exercised.instructions == len(case.ops)

    # One cycle more on the fast-path side's second thread diverges.
    fast_results = []
    result = OOOCore.result

    def skewed(core):
        out = result(core)
        if core.fast_path:
            fast_results.append(out)
            if len(fast_results) == 2:
                out.cycles += 1
        return out
    monkeypatch.setattr(OOOCore, "result", skewed)
    assert list(fuzz.compare_backends(case)) == ["thread1.core.cycles"]


def test_run_case_records_checker_activity():
    checker = fuzz.run_case(fuzz.make_case(FIRST_SEED))
    assert checker.events > 0
    assert checker.violations == []


def test_shrinker_reduces_failing_stream(monkeypatch):
    """Break MSHR conservation on purpose: the fuzzer must catch it, the
    shrinker must reduce the stream, and the formatted reproducer must be
    a paste-ready pytest test."""
    from repro.memsys.mshr import MSHR

    orig = MSHR.allocate

    def buggy_allocate(self, line_addr, fill_cycle, now):
        self.allocations += 1  # phantom double-count
        return orig(self, line_addr, fill_cycle, now)

    monkeypatch.setattr(MSHR, "allocate", buggy_allocate)
    case = fuzz.make_case(FIRST_SEED)
    checker = fuzz.run_case(case)
    assert checker.violations != []
    small = fuzz.shrink(case)
    assert 0 < len(small.ops) <= len(case.ops)
    assert fuzz.run_case(small).violations != []  # still reproduces
    report = fuzz.format_regression(small, checker.violations)
    assert f"def test_fuzz_regression_seed_{case.seed}(" in report
    assert "conservation" in report
    assert f"variant={case.variant!r}" in report


def test_shrink_returns_clean_case_untouched():
    case = fuzz.make_case(FIRST_SEED + 1)
    assert fuzz.shrink(case) == case
