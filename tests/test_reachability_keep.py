"""The reachability keep file stays in step with the code.

``tools/reachability_keep.txt`` lists the functions under ``src/repro``
that no entry point runs but that stay, each with a reason.  Every entry
must name a ``def`` that exists and carry a categorised reason, so a
later deletion cannot leave a stale entry behind.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


def _tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_keep_entries_name_existing_defs_with_reasons():
    tool = _tool()
    keep = tool.read_keep()
    assert keep, "the keep file lists no function"
    assert all(reason for reason in keep.values())
    assert tool.keep_problems(tool.all_defs(), keep) == []


def test_keep_problems_flags_stale_and_unreasoned_entries():
    tool = _tool()
    defs = tool.all_defs()
    real = defs[0].name
    problems = tool.keep_problems(defs, {
        real: "(a) validates input",
        "repro.nowhere:gone": "(a) deleted since",
        defs[1].name: "",
        defs[2].name: "(z) no such category",
    })
    assert len(problems) == 3
    assert not any(p.startswith(real + ":") for p in problems)
