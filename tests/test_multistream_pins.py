"""Pinned outcomes of interleaved runs: 2-way SMT (Fig 17) and the
shared-LLC multicore study (Section V).

Each case pins, exactly, every thread's ROI instructions, cycles and
``StallAccounting.snapshot()`` plus ``hierarchy_counters`` of every
hierarchy the machine owns, and every stream must take the core's fast
path.  The values in ``tests/data/multistream_pins.json`` were produced
by the instruction-at-a-time interleaving scheduler that the sliced one
in :mod:`repro.core.engine` replaced, with the fast path off; the
interleaved fast path reproduces them.  A change that is *meant* to
move interleaved results (or the counter surface) regenerates them
with::

    PYTHONPATH=src python tests/test_multistream_pins.py \\
        > tests/data/multistream_pins.json
"""

import json
import pathlib

import pytest

from repro.core.multicore import MultiCore
from repro.core.smt import SMTCore
from repro.experiments.mixes import MULTICORE_MIXES, SMT_MIXES
from repro.params import EnhancementConfig, default_config
from repro.uncore.hierarchy import MemoryHierarchy
from repro.validate.oracle import hierarchy_counters
from repro.workloads.registry import make_trace

PINS = pathlib.Path(__file__).parent / "data" / "multistream_pins.json"

#: name -> (machine, mix, enhancements, ROI instructions, warmup).
CASES = {
    "smt-mcf-tc-full": ("smt", SMT_MIXES[2], "full", 4000, 1000),
    "smt-pr-cc-base-nowarmup": ("smt", SMT_MIXES[6], None, 4000, 0),
    "smt-radii-bf-full-longwarmup": ("smt", SMT_MIXES[5], "full", 1500,
                                     3000),
    "multicore-4core-full": ("multicore", MULTICORE_MIXES[3], "full",
                             3000, 1000),
    "multicore-8core-base-nowarmup": ("multicore", MULTICORE_MIXES[0],
                                      None, 1500, 0),
}


def simulate(machine, mix, enhancements, instructions, warmup):
    """Run one case: its per-stream results and its hierarchies."""
    cfg = default_config()
    if enhancements == "full":
        cfg = cfg.with_(enhancements=EnhancementConfig.full())
    # Trace seeds follow experiments/mixes.py (SMT 7+i, multicore 11+i).
    first_seed = 7 if machine == "smt" else 11
    traces = [make_trace(name, instructions + warmup, seed=first_seed + i)
              for i, name in enumerate(mix)]
    if machine == "smt":
        hierarchies = [MemoryHierarchy(cfg)]
        results = SMTCore(cfg, hierarchies[0]).run(traces, warmup=warmup)
    else:
        multicore = MultiCore(cfg, len(mix))
        hierarchies = multicore.hierarchies
        results = multicore.run(traces, warmup=warmup)
    return results, hierarchies


def outcome(results, hierarchies):
    return {
        "threads": [{"instructions": r.instructions, "cycles": r.cycles,
                     "stalls": r.stalls.snapshot()} for r in results],
        "hierarchies": [hierarchy_counters(h) for h in hierarchies],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_interleaved_outcome_is_pinned(name):
    pinned = json.loads(PINS.read_text())[name]
    results, hierarchies = simulate(*CASES[name])
    got = outcome(results, hierarchies)
    for tid, (g, p) in enumerate(zip(got["threads"], pinned["threads"])):
        assert g == p, f"{name}: thread {tid}"
    for hid, (g, p) in enumerate(zip(got["hierarchies"],
                                     pinned["hierarchies"])):
        assert g == p, f"{name}: hierarchy {hid}"
    assert len(got["threads"]) == len(pinned["threads"])
    assert len(got["hierarchies"]) == len(pinned["hierarchies"])
    for tid, result in enumerate(results):
        assert result.batch.fallbacks == {}, f"{name}: thread {tid}"
        assert result.batch.windows > 0, f"{name}: thread {tid}"


if __name__ == "__main__":
    print(json.dumps({name: outcome(*simulate(*case))
                      for name, case in CASES.items()},
                     indent=1, sort_keys=True))
