"""Deterministic fuzz driver for the validation subsystem.

Generates seeded mixed streams (demand loads/stores, pointer-chase
dependency chains, huge-page regions, SMT interleavings -- translations,
replays and ATP/TEMPO prefetches arise naturally from the STLB misses the
streams provoke) across a matrix of configuration variants, runs each with
the full invariant-checker + oracle stack attached, and, when a stream
fails, shrinks it to a minimal reproducer and formats that as a
ready-to-paste regression test.

Everything is seeded: the same seed always produces the same stream,
variant and outcome, so CI failures replay locally with
``python -m repro.validate.fuzz <seed>`` or by pasting the generated test.

The core's fast path is a fuzzed dimension too: every stream
additionally runs on the machine :func:`run_case` builds, as the same
one or two core streams, with the core's fast path on and off (the
reference loop), checkers *off* so the fast path engages wherever the
variant allows it, and any counter divergence
(:func:`repro.validate.oracle.diff_counters`) shrinks through the same
ddmin reducer as an invariant violation.  The command line prints the
fast-path side's summed ``BatchStats`` (inline hits and excursions,
both SMT threads' included) and how many core streams it refused,
which compare the reference loop with itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.params import PAGE_SHIFT, PAGE_SIZE, EnhancementConfig, SimConfig, \
    default_config
from repro.validate.invariants import HierarchyChecker, ValidationError
from repro.vm.address import make_va
from repro.workloads.synthetic import RANDOM_BASE
from repro.workloads.trace import KIND_LOAD, KIND_NONMEM, KIND_STORE, Trace

if TYPE_CHECKING:
    from repro.core.ooo_core import BatchStats, CoreResult
    from repro.uncore.hierarchy import MemoryHierarchy

#: Configuration variants the fuzzer cycles through (seed % len picks one).
VARIANTS = ("baseline", "lru", "tstack", "full", "inclusive", "hugepage",
            "prefetch", "smt")

#: Capacity divisor for fuzz configs: tiny caches maximise eviction and
#: back-invalidation pressure per simulated instruction.
FUZZ_SCALE = 64

#: One op: (kind, region, page, word, ip, dep).
Op = Tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class FuzzCase:
    """One seeded stream plus the configuration variant it runs under."""

    seed: int
    variant: str
    ops: Tuple[Op, ...]


def build_config(variant: str) -> SimConfig:
    cfg = default_config(FUZZ_SCALE)
    if variant == "baseline":
        return cfg
    if variant == "lru":
        # All-LRU levels: the differential oracle shadows the whole depth.
        import dataclasses
        return cfg.with_(
            l2c=dataclasses.replace(cfg.l2c, replacement="lru"),
            llc=dataclasses.replace(cfg.llc, replacement="lru"))
    if variant == "tstack":
        return cfg.with_(enhancements=EnhancementConfig(
            t_drrip=True, t_ship=True, newsign=True))
    full = cfg.with_(enhancements=EnhancementConfig.full())
    if variant == "full" or variant == "smt":
        return full
    if variant == "inclusive":
        return full.with_(llc_inclusion="inclusive")
    if variant == "hugepage":
        return full.with_(huge_page_policy="gather_region")
    if variant == "prefetch":
        return full.with_(l2c_prefetcher="next_line")
    raise ValueError(f"unknown fuzz variant {variant!r}")


# ----------------------------------------------------------------------
def op_address(region: int, page: int, word: int) -> int:
    """VA for one op: two radix-tree regions plus the huge-page region
    (mapped with 2MB pages under the ``hugepage`` variant)."""
    offset = (word * 8) % PAGE_SIZE
    if region == 0:
        return make_va([1, 0, 0, 0, page % 512], offset)
    if region == 1:
        return make_va([1, 0, 0, 1 + page // 32, page % 32], offset)
    return RANDOM_BASE + (page << PAGE_SHIFT) + offset


def make_ops(rng: random.Random, n: int) -> List[Op]:
    ops: List[Op] = []
    for _ in range(n):
        r = rng.random()
        kind = 1 if r < 0.55 else (2 if r < 0.75 else 0)
        region = rng.choice((0, 0, 1, 1, 2))
        page = rng.randrange(64)
        word = rng.randrange(64)
        ip = rng.randrange(16)
        dep = 1 if kind == 1 and rng.random() < 0.2 else 0
        ops.append((kind, region, page, word, ip, dep))
    return ops


def make_case(seed: int) -> FuzzCase:
    """Deterministically derive one fuzz case from ``seed``."""
    rng = random.Random(seed)
    variant = VARIANTS[seed % len(VARIANTS)]
    n = rng.randint(24, 140)
    return FuzzCase(seed=seed, variant=variant, ops=tuple(make_ops(rng, n)))


def ops_to_trace(ops: Sequence[Op]) -> Trace:
    n = len(ops)
    ips = np.zeros(n, dtype=np.int64)
    kinds = np.zeros(n, dtype=np.int8)
    addrs = np.zeros(n, dtype=np.int64)
    deps = np.zeros(n, dtype=np.int8)
    for i, (kind, region, page, word, ip, dep) in enumerate(ops):
        kinds[i] = (KIND_NONMEM, KIND_LOAD, KIND_STORE)[kind]
        ips[i] = 0x400000 + ip * 4
        deps[i] = dep
        if kind:
            addrs[i] = op_address(region, page, word)
    return Trace(ips, kinds, addrs, name="fuzz", deps=deps)


# ----------------------------------------------------------------------
def build_machine(case: FuzzCase) -> Tuple[MemoryHierarchy, List[Trace]]:
    """The case's hierarchy and its core streams: the ``smt`` variant
    splits the ops into two SMT threads (even and odd ops, or the whole
    stream twice when a half is empty); every other variant runs them
    as one stream."""
    from repro.uncore.hierarchy import MemoryHierarchy

    traces = [ops_to_trace(case.ops)]
    if case.variant == "smt":
        halves = [ops_to_trace(case.ops[0::2]), ops_to_trace(case.ops[1::2])]
        traces = traces * 2 if min(map(len, halves)) == 0 else halves
    return MemoryHierarchy(build_config(case.variant)), traces


def run_streams(hierarchy: MemoryHierarchy, traces: Sequence[Trace],
                reference: bool = False) -> List[CoreResult]:
    """Run :func:`build_machine`'s streams on its hierarchy: two as the
    threads of an SMT core, one on a core.  ``reference`` keeps every
    stream on the core's reference loop, through the core's private
    ``_reference`` switch."""
    from repro.core.ooo_core import OOOCore
    from repro.core.smt import SMTCore

    config = hierarchy.config
    saved = OOOCore._reference
    OOOCore._reference = reference
    try:
        if len(traces) == 2:
            return SMTCore(config, hierarchy).run(traces)
        return [OOOCore(config, hierarchy).run(traces[0])]
    finally:
        OOOCore._reference = saved


def run_case(case: FuzzCase) -> HierarchyChecker:
    """Run one case with the full checker + oracle stack attached.

    Violations are recorded on the returned checker rather than raised,
    so the shrinker can probe sub-streams without try/except noise."""
    hierarchy, traces = build_machine(case)
    checker = hierarchy.checker or HierarchyChecker(hierarchy)
    hierarchy.checker = checker
    try:
        run_streams(hierarchy, traces)
        checker.final_check()
    except ValidationError:
        pass  # already recorded in checker.violations
    return checker


def compare_backends(case: FuzzCase,
                     exercised: Optional[BatchStats] = None) -> dict:
    """The fast-path axis: run the case's streams through the core's
    reference loop and with its fast path on, and return the counter
    divergence (empty dict == parity).  Each fast-path stream's
    ``BatchStats`` is added to ``exercised`` when one is given.

    Unlike :func:`run_case`, no checker stack is attached -- a checker
    refuses the fast path, which would reduce this comparison to off
    against off.  The comparison surface is the full flattened counter
    dict of :func:`repro.validate.oracle.hierarchy_counters` with
    stream 0's retired-instruction/cycle/stall accounting, plus every
    other SMT thread's under a ``thread<n>.`` prefix.
    """
    from repro.validate.oracle import diff_counters, hierarchy_counters

    counters = []
    for reference in (True, False):
        hierarchy, traces = build_machine(case)
        results = run_streams(hierarchy, traces, reference)
        out = hierarchy_counters(hierarchy, results[0])
        for tid, result in enumerate(results[1:], 1):
            out.update((f"thread{tid}.{key}", value) for key, value
                       in hierarchy_counters(hierarchy, result).items()
                       if key.startswith(("core.", "stall.")))
        counters.append(out)
    if exercised is not None:
        for result in results:
            _add_batch(exercised, result.batch)
    return diff_counters(*counters)


def shrink(case: FuzzCase, max_probes: int = 400,
           fails_predicate=None) -> FuzzCase:
    """ddmin-style reduction: drop chunks of the stream while the
    failure persists, halving the chunk size until single ops remain.

    ``fails_predicate`` (FuzzCase -> bool) selects what counts as a
    failure; the default is the invariant-checker stack.  The fast-path
    axis passes ``lambda sub: bool(compare_backends(sub))`` so the same
    reducer shrinks fast-path divergence."""
    ops = list(case.ops)
    probes = 0
    predicate = fails_predicate or \
        (lambda sub: bool(run_case(sub).violations))

    def fails(candidate: List[Op]) -> bool:
        nonlocal probes
        probes += 1
        sub = FuzzCase(seed=case.seed, variant=case.variant,
                       ops=tuple(candidate))
        return predicate(sub)

    if not fails(ops):
        return case  # not reproducible: return untouched for inspection
    chunk = max(1, len(ops) // 2)
    while True:
        i = 0
        while i < len(ops) and probes < max_probes:
            candidate = ops[:i] + ops[i + chunk:]
            if candidate and fails(candidate):
                ops = candidate
            else:
                i += chunk
        if chunk == 1 or probes >= max_probes:
            break
        chunk = max(1, chunk // 2)
    return FuzzCase(seed=case.seed, variant=case.variant, ops=tuple(ops))


def format_regression(case: FuzzCase, violations: Sequence[str]) -> str:
    """A ready-to-paste pytest regression test for a failing case."""
    ops_lines = "\n".join(f"        {op!r}," for op in case.ops)
    summary = "; ".join(violations[:3]) or "unreproduced"
    return f'''
# --- auto-generated minimal reproducer (paste into tests/) -------------
def test_fuzz_regression_seed_{case.seed}():
    """Shrunk from fuzz seed {case.seed} ({case.variant} variant).

    Original violation(s): {summary}
    """
    from repro.validate.fuzz import FuzzCase, run_case

    case = FuzzCase(seed={case.seed}, variant={case.variant!r}, ops=(
{ops_lines}
    ))
    checker = run_case(case)
    assert not checker.violations, checker.violations
# ----------------------------------------------------------------------
'''


def format_divergence(case: FuzzCase, diff: dict) -> str:
    """A ready-to-paste pytest regression test for a fast-path
    divergence."""
    ops_lines = "\n".join(f"        {op!r}," for op in case.ops)
    keys = "; ".join(f"{k}: reference={a} fast={b}"
                     for k, (a, b) in list(diff.items())[:3])
    return f'''
# --- auto-generated minimal reproducer (paste into tests/) -------------
def test_fuzz_fast_path_divergence_seed_{case.seed}():
    """Shrunk from fuzz seed {case.seed} ({case.variant} variant).

    Diverging counter(s): {keys}
    """
    from repro.validate.fuzz import FuzzCase, compare_backends

    case = FuzzCase(seed={case.seed}, variant={case.variant!r}, ops=(
{ops_lines}
    ))
    assert compare_backends(case) == {{}}
# ----------------------------------------------------------------------
'''


def fuzz_range(first_seed: int, count: int,
               shrink_failures: bool = True,
               exercised: Optional[BatchStats] = None) -> List[str]:
    """Run ``count`` seeded streams; returns formatted reproducers for
    every failure (empty list when all streams are clean).

    Each seed runs twice: once through the invariant-checker + oracle
    stack, and once as the fast-path-on-vs-off differential.  Each
    fast-path side's ``BatchStats`` is added to ``exercised`` when one
    is given; its ``fallbacks`` count the refused streams per slug."""
    reports: List[str] = []
    for seed in range(first_seed, first_seed + count):
        case = make_case(seed)
        checker = run_case(case)
        if checker.violations:
            violations = list(checker.violations)
            shrunk = shrink(case) if shrink_failures else case
            reports.append(format_regression(shrunk, violations))
        diff = compare_backends(case, exercised)
        if diff:
            shrunk = case
            if shrink_failures:
                shrunk = shrink(
                    case,
                    fails_predicate=lambda sub: bool(compare_backends(sub)))
            reports.append(format_divergence(shrunk, diff))
    return reports


def _add_batch(total: BatchStats, batch: BatchStats) -> None:
    total.windows += batch.windows
    total.instructions += batch.instructions
    total.fast_hits += batch.fast_hits
    total.fast_merges += batch.fast_merges
    total.scalar_excursions += batch.scalar_excursions
    for slug, runs in batch.fallbacks.items():
        total.fallbacks[slug] = total.fallbacks.get(slug, 0) + runs


def main(argv: Sequence[str] = None) -> int:  # pragma: no cover - CLI aid
    import sys
    args = list(sys.argv[1:] if argv is None else argv)
    seed = int(args[0]) if args else 0
    count = int(args[1]) if len(args) > 1 else 1
    from repro.core.ooo_core import BatchStats
    exercised = BatchStats()
    reports = fuzz_range(seed, count, exercised=exercised)
    for report in reports:
        print(report)
    # What the fast-path side ran: a refused core stream compares the
    # reference loop with itself.  An SMT case runs two.
    streams = sum(2 if make_case(s).variant == "smt" else 1
                  for s in range(seed, seed + count))
    refused = sum(exercised.fallbacks.values())
    print(f"fast-path side: {exercised.fast_hits} inline hit(s), "
          f"{exercised.scalar_excursions} excursion(s) over "
          f"{streams - refused} core stream(s); {refused} refused "
          f"{exercised.fallbacks}")
    print(f"{count} stream(s), {len(reports)} failure(s)")
    return 1 if reports else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
