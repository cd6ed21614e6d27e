#!/usr/bin/env python3
"""One ``setup_s`` sample, measured in this fresh process.

    python3 perfbench/setup_probe.py --workload walk_storm --seed 7 \
        --scratch .perfbench/probe

Prints ``{"setup_s": seconds}``, as measured.  ``run.py`` starts several
of these through its timed work, scales each sample (``hostspeed.py``)
and reports the median together with its own sample.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import run as bench
import sims
import sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="setup_probe")
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    scratch = Path(args.scratch)
    bench.prepare_env(scratch)
    if args.workload == "sweep_mix":
        setup = asyncio.run(sweep.first_result(scratch / "store", args.seed))
    else:
        wl = bench.SIM_WORKLOADS[args.workload]
        setup = sims.first_result(
            wl, sims.derive_seeds(wl.name, args.seed, 1)[0])
    print(json.dumps({"setup_s": setup}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
