"""Determinism audit of ``repro.workloads``.

The contract (see ``docs/scenarios.md``): trace generation is a pure
function of ``(name, seed, instructions, scale)`` -- byte-identical
across calls, across generation order, and across *processes* (no
module-level RNG state, no salted ``hash()``-derived seeds).  The mix
engine extends the contract to interleaved traces, and ``derive_seed``
is pinned so seed-splitting never silently changes.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.mix import (MixComponent, apportion, derive_seed,
                                 interleave_traces)
from repro.workloads.registry import benchmark_names, make_trace

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for arr in (trace.ips, trace.kinds, trace.addrs, trace.deps):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def assert_traces_identical(a, b):
    assert np.array_equal(a.ips, b.ips)
    assert np.array_equal(a.kinds, b.kinds)
    assert np.array_equal(a.addrs, b.addrs)
    assert np.array_equal(a.deps, b.deps)


# ----------------------------------------------------------------------
# Per-trace determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["pr", "mcf", "canneal", "compute"])
def test_trace_is_pure_function_of_inputs(name):
    a = make_trace(name, 3_000, scale=16, seed=7)
    b = make_trace(name, 3_000, scale=16, seed=7)
    assert_traces_identical(a, b)


def test_seed_and_geometry_change_the_trace():
    base = make_trace("pr", 3_000, scale=16, seed=1)
    assert trace_digest(make_trace("pr", 3_000, scale=16, seed=2)) \
        != trace_digest(base)
    assert trace_digest(make_trace("pr", 3_000, scale=8, seed=1)) \
        != trace_digest(base)


def test_generation_order_does_not_leak():
    """Generating other traces in between must not perturb a trace --
    the failure mode of hidden module-level RNG state."""
    before = make_trace("cc", 2_000, scale=16, seed=3)
    for other in ("pr", "mcf", "bf"):
        make_trace(other, 1_000, scale=16, seed=9)
    after = make_trace("cc", 2_000, scale=16, seed=3)
    assert_traces_identical(before, after)


def test_cross_generator_determinism():
    """Every registry benchmark regenerates identically, interleaved in
    forward and reverse order."""
    names = benchmark_names(include_controls=True)
    first = {n: trace_digest(make_trace(n, 1_000, scale=16, seed=5))
             for n in names}
    second = {n: trace_digest(make_trace(n, 1_000, scale=16, seed=5))
              for n in reversed(names)}
    assert first == second


def test_trace_identical_across_processes():
    """The digest must not depend on the process (catches anything
    derived from Python's salted ``hash()`` or ambient RNG state)."""
    child = (
        "import hashlib, numpy as np\n"
        "from repro.workloads.registry import make_trace\n"
        "t = make_trace('pr', 2000, scale=16, seed=11)\n"
        "h = hashlib.sha256()\n"
        "for a in (t.ips, t.kinds, t.addrs, t.deps):\n"
        "    h.update(np.ascontiguousarray(a).tobytes())\n"
        "print(h.hexdigest())\n")
    digests = set()
    for hashseed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT.parent),
                   PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True,
            check=True, env=env)
        digests.add(out.stdout.strip())
    local = trace_digest(make_trace("pr", 2_000, scale=16, seed=11))
    assert digests == {local}


# ----------------------------------------------------------------------
# Seed derivation and the mix engine
# ----------------------------------------------------------------------
def test_derive_seed_is_pinned():
    # SHA-256-based splitting: these values must never change (they are
    # baked into every multi-component scenario trace).
    assert derive_seed(1, "component", 0, "pr") == 2111310924706022401
    assert derive_seed(42, "arrival", "poisson") == 433997235086266203
    assert derive_seed(1) != derive_seed(2)
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_apportion_exact_and_deterministic():
    assert sum(apportion(10_000, [0.35, 0.25, 0.2, 0.2])) == 10_000
    assert apportion(10, [1, 1, 1]) == apportion(10, [1, 1, 1])
    # Every positive-weight component gets at least one instruction.
    assert min(apportion(5, [1000, 1, 1, 1, 1])) >= 1
    with pytest.raises(ValueError):
        apportion(0, [1.0])
    with pytest.raises(ValueError):
        apportion(10, [0.0, 0.0])


@pytest.mark.parametrize("arrival", ["uniform", "poisson", "bursty"])
def test_interleave_is_deterministic(arrival):
    comps = [MixComponent("pr", 0.6, benchmark="pr"),
             MixComponent("cc", 0.4, benchmark="cc")]
    a = interleave_traces(comps, 4_000, scale=16, seed=9, arrival=arrival)
    b = interleave_traces(comps, 4_000, scale=16, seed=9, arrival=arrival)
    assert len(a) == 4_000
    assert_traces_identical(a, b)


def test_interleave_single_component_is_identity():
    comp = [MixComponent("pr", 1.0, benchmark="pr")]
    mixed = interleave_traces(comp, 3_000, scale=16, seed=4)
    direct = make_trace("pr", 3_000, scale=16, seed=4)
    assert_traces_identical(mixed, direct)


def test_interleave_realises_the_weights():
    comps = [MixComponent("a", 0.75, pattern={"loads_per_kilo": 100}),
             MixComponent("b", 0.25, pattern={"loads_per_kilo": 100})]
    shares = apportion(8_000, [c.weight for c in comps])
    assert shares == [6_000, 2_000]
    mixed = interleave_traces(comps, 8_000, scale=16, seed=1,
                              arrival="poisson")
    assert len(mixed) == 8_000


# ----------------------------------------------------------------------
# Source audit: no global-RNG leaks
# ----------------------------------------------------------------------
def test_no_module_level_rng_in_src():
    """Every random draw must come from an explicitly seeded generator:
    ``np.random.default_rng(seed)`` or ``random.Random(seed)``.  The
    module-level ``np.random.*`` / ``random.*`` functions share hidden
    global state and break cross-process determinism."""
    np_global = re.compile(r"\bnp\.random\.(?!default_rng\b|Generator\b)")
    py_global = re.compile(
        r"(?<![\w.])random\.(?!Random\b)[a-z_]+\s*\(")
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if np_global.search(code) or py_global.search(code):
                offenders.append(f"{path.relative_to(SRC_ROOT)}:{lineno}: "
                                 f"{line.strip()}")
    assert not offenders, "global RNG usage:\n" + "\n".join(offenders)
