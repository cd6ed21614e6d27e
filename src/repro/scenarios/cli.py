"""CLI body for ``python -m repro scenario run|list|validate``.

Kept out of ``repro.__main__`` (which imports nothing deeper than the
``repro.api`` facade at module level) and imported lazily by the
``scenario`` subcommand.
"""

from __future__ import annotations

import sys
from typing import List

from repro.cli import int_at_least
from repro.scenarios import (ScenarioError, library_paths, list_scenarios,
                             load_scenario, load_scenario_file,
                             run_scenario, validate_scenario, write_results)


def add_scenario_parser(sub) -> None:
    """Register the ``scenario`` subcommand tree on a subparsers object."""
    p = sub.add_parser(
        "scenario", help="run / list / validate traffic-mix scenarios")
    ssub = p.add_subparsers(dest="scenario_cmd", required=True)

    s_list = ssub.add_parser("list", help="checked-in scenario library")
    s_list.set_defaults(scenario_func=_cmd_list)

    s_val = ssub.add_parser(
        "validate", help="parse + compile-check scenario documents")
    s_val.add_argument("names", nargs="*", metavar="NAME|PATH",
                       help="library names or document paths "
                            "(default with --all: the whole library)")
    s_val.add_argument("--all", action="store_true",
                       help="validate every checked-in library document")
    s_val.set_defaults(scenario_func=_cmd_validate)

    s_run = ssub.add_parser(
        "run", help="compile and simulate scenarios, emit JSONL results")
    s_run.add_argument("names", nargs="+", metavar="NAME|PATH",
                       help="library names or document paths")
    s_run.add_argument("--instructions", type=int_at_least(1), default=None,
                       help="override the documents' ROI length")
    s_run.add_argument("--warmup", type=int_at_least(0), default=None,
                       help="override the documents' warmup length")
    s_run.add_argument("--scale", type=int_at_least(1), default=None,
                       help="override the documents' reduction scale")
    s_run.add_argument("--seed", type=int_at_least(0), default=None,
                       help="override the documents' trace seed")
    s_run.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result memo")
    s_run.add_argument("--out", metavar="PATH", default=None,
                       help="append repro.scenario-result/v1 JSONL "
                            "lines here")
    s_run.set_defaults(scenario_func=_cmd_run)


def cmd_scenario(args) -> int:
    try:
        return args.scenario_func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1


def _load(name: str):
    if name.endswith((".yaml", ".yml", ".json")) or "/" in name:
        return load_scenario_file(name)
    return load_scenario(name)


def _cmd_list(_args) -> int:
    paths = library_paths()
    if not paths:
        print("no checked-in scenarios")
        return 0
    for name in sorted(paths):
        doc = load_scenario(name)
        mix = ",".join(doc.mix_summary())
        print(f"{name:<28} {doc.family:<6} arrival={doc.arrival.kind:<8}"
              f" phases={len(doc.phases)} mix={mix}")
        if doc.description:
            print(f"{'':<28} {doc.description}")
    return 0


def _cmd_validate(args) -> int:
    names: List[str] = list(args.names)
    if args.all or not names:
        names += [n for n in list_scenarios() if n not in names]
    if not names:
        print("nothing to validate", file=sys.stderr)
        return 1
    problems = 0
    for name in names:
        try:
            doc = _load(name)
            validate_scenario(doc)
        except ScenarioError as exc:
            print(f"INVALID  {name}: {exc}", file=sys.stderr)
            problems += 1
            continue
        print(f"OK       {name} ({doc.family}, {len(doc.phases)} phase(s), "
              f"digest {doc.digest[:12]})")
    if problems:
        print(f"{problems}/{len(names)} document(s) invalid",
              file=sys.stderr)
        return 1
    print(f"{len(names)} scenario document(s) valid")
    return 0


def _cmd_run(args) -> int:
    # Inline service: each scenario is one stored job; ad-hoc docs resolve.
    from repro.service import serving
    from repro.service.store import temporary_store
    results = []
    with temporary_store(args.no_cache) as store, serving(store=store):
        for name in args.names:
            doc = _load(name)
            result = run_scenario(doc, instructions=args.instructions,
                                  warmup=args.warmup, scale=args.scale,
                                  seed=args.seed)
            results.append(result)
            s = result.summary
            print(f"{doc.name:<28} ipc={s.ipc:7.4f} "
                  f"cycles={s.cycles:>10} stlb_mpki={s.stlb_mpki:8.3f} "
                  f"run_key={result.key.digest[:12]}")
    if args.out:
        records = write_results(results, args.out)
        print(f"wrote {len(records)} result line(s) to {args.out}")
    return 0
