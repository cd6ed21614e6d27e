"""The store's code fingerprint covers exactly the code that can change a
stored payload.

The store directory embeds
:func:`~repro.experiments.parallel.code_fingerprint`, so an edit the
fingerprint covers invalidates every stored run.  Edits to the service,
the CLIs, progress/telemetry plumbing and the runtime checkers must not;
edits to the simulator, a figure harness, the figure/trace/sweep payload
builders, a prefetcher or anything new must.
"""

import importlib.util
import inspect
import shutil
from pathlib import Path

import pytest

import repro
from repro.experiments.parallel import hashed_sources, source_fingerprint
from tests.test_cold_start import loaded_modules

PKG = Path(repro.__file__).resolve().parent

UNHASHED = ["service/http.py", "service/core.py", "service/jobs.py",
            "service/__init__.py", "__main__.py", "cli.py", "scenarios/cli.py",
            "service/cli.py", "obs/trace/cli.py", "obs/stats_cli.py",
            "obs/telemetry.py", "obs/progress.py", "validate/invariants.py",
            "validate/oracle.py", "validate/fuzz.py"]
HASHED = ["core/ooo_core.py", "cache/cache.py", "vm/walker.py",
          "experiments/figures.py", "experiments/mixes.py",
          "prefetch/spp.py", "scenarios/compile.py", "obs/trace/export.py",
          "experiments/payloads.py", "api.py", "params.py"]

#: A fresh process's plain run, scenario run, prior-work (CbPred and
#: CSALT) runs, unbound figure and trace.
REFERENCE_CALLS = """
from repro import api
api.run("pr", instructions=2000, warmup=500)
api.run_scenario("SYN-01-STLB-THRASH", instructions=2000, warmup=500)
for mode in ("cbpred", "csalt"):
    api.run("pr", instructions=2000, warmup=500,
            config=api.build_config(comparison=mode))
api.figure("fig1", benchmarks=["pr"], instructions=2000, warmup=500)
api.trace("pr", instructions=2000, warmup=500)
"""


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(PKG, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def edit(path: Path) -> None:
    with open(path, "a") as f:
        f.write("\n# edited\n")


@pytest.mark.parametrize("rel", UNHASHED)
def test_edit_that_cannot_change_a_payload_keeps_fingerprint(tree, rel):
    before = source_fingerprint(tree)
    edit(tree / rel)
    assert source_fingerprint(tree) == before


@pytest.mark.parametrize("rel", HASHED)
def test_edit_to_payload_code_changes_fingerprint(tree, rel):
    before = source_fingerprint(tree)
    edit(tree / rel)
    assert source_fingerprint(tree) != before


def test_new_module_is_hashed_by_default(tree):
    before = source_fingerprint(tree)
    (tree / "core" / "new_stage.py").write_text("LATENCY = 3\n")
    assert source_fingerprint(tree) != before


def test_spec_digest_payloads_are_built_by_hashed_code():
    """Figure, trace and sweep payloads are stored under a digest of the
    spec alone, so the code the service calls to build them is hashed."""
    from repro.service import core, jobs
    hashed = set(hashed_sources(PKG))
    for fn in (core.figure_payload, core.trace_payload, jobs.sweep_runs,
               jobs.run_config):
        assert Path(inspect.getsourcefile(fn)).resolve() in hashed


def test_reference_calls_import_only_hashed_modules():
    hashed = set(hashed_sources(PKG))
    modules = sorted(m for m in loaded_modules(REFERENCE_CALLS)
                     if m == "repro" or m.startswith("repro."))
    assert "repro.experiments.figures" in modules  # the harness loaded
    unhashed = [m for m in modules
                if Path(importlib.util.find_spec(m).origin).resolve()
                not in hashed]
    assert unhashed == []
