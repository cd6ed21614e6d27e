"""A simulation imports the simulator and nothing else.

Fresh interpreters run a simulation through ``repro.api`` and through
``python -m repro run``; neither may import the service, scenario,
figure, parallel-runner or telemetry stacks, the invariant checkers, or
the stdlib stacks those pull in.  Every fresh process pays for what it
imports (see docs/performance.md, "Cold start").
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that a plain simulation must leave unimported.
OFF_PATH = ("repro.service", "repro.scenarios",
            "repro.experiments.parallel", "repro.experiments.figures",
            "repro.experiments.registry", "repro.obs.telemetry",
            "repro.validate.invariants", "asyncio", "multiprocessing",
            "concurrent.futures", "ssl", "logging")

API_RUNS = """
from repro import api
api.run("pr", instructions=4000, warmup=1000, enhancements="full")
api.run("compute", instructions=4000, warmup=1000)
"""

# ``python -m repro ...``, with the interpreter kept alive afterwards.
CLI_RUN = """
import runpy
sys.argv = ["repro", "run", "pr", "--instructions", "4000",
            "--warmup", "1000"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
"""


def loaded_modules(body: str) -> set:
    """``sys.modules`` of a fresh interpreter after it ran ``body``."""
    script = ("import json, sys\n" + body
              + "\nprint(json.dumps(sorted(sys.modules)))\n")
    # A plain interpreter: no invariant checkers, and no coverage hook
    # (pytest-cov starts coverage in subprocesses that inherit COV_CORE_*).
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_CHECK" and not k.startswith("COV_CORE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("body", [API_RUNS, CLI_RUN], ids=["api", "cli"])
def test_simulation_imports_only_the_simulator(body):
    modules = loaded_modules(body)
    assert "repro.experiments.runner" in modules  # the simulator loaded
    assert sorted(m for m in OFF_PATH if m in modules) == []


def test_top_level_names_resolve_to_their_defining_modules():
    for name in repro.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(repro._EXPORTS[name])
        value = getattr(repro, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__qualname__"):  # a class or a function
            assert value.__module__ == module.__name__, name
