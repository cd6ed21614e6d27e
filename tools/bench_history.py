#!/usr/bin/env python3
"""Print the tracked perfbench A/B history.

    python3 tools/bench_history.py

Reads every ``repro.perfbench-ab/v1`` record that
``tools/perfbench_ab.py`` wrote to ``bench-history/`` and prints, for
each workload and end-to-end metric, one row per record in
``created_utc`` order: when it ran, the base and change revisions, both
medians, the pairs the change won and the verdict.  A change revision
ending in ``+`` ran from a dirty tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from perfbench_ab import RECORD_SCHEMA, RECORDS


def load(directory: Path) -> List[Dict]:
    """Every A/B record in ``directory``, oldest first."""
    records = [json.loads(path.read_text())
               for path in directory.glob("BENCH_*.json")]
    return sorted((r for r in records if r.get("schema") == RECORD_SCHEMA),
                  key=lambda r: r["created_utc"])


def table(records: List[Dict]) -> List[str]:
    """The history's lines: a heading per workload and metric, then one
    row per record."""
    lines = []
    for workload in sorted({r["workload"] for r in records}):
        lines.append(workload)
        runs = [r for r in records if r["workload"] == workload]
        names = dict.fromkeys(name for r in runs for name in r["metrics"])
        for name in names:
            entries = [(r, r["metrics"][name]) for r in runs
                       if name in r["metrics"]]
            first = entries[0][1]
            lines.append(f"  {name} ({first['unit']}, {first['better']} "
                         "is better)")
            for rec, m in entries:
                change = rec["change"]["head"][:10] \
                    + ("+" if rec["change"]["dirty"] else "")
                lines.append(
                    f"    {rec['created_utc']}  "
                    f"{rec['base']['resolved'][:10]} -> {change:11} "
                    f"{m['base_quartiles'][1]:>10.4g} -> "
                    f"{m['change_quartiles'][1]:<10.4g} "
                    f"{m['wins']:>2}/{m['pairs']:<2}  {m['verdict']}")
    return lines


def main() -> int:
    lines = table(load(RECORDS))
    print("\n".join(lines) if lines else f"no records in {RECORDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
