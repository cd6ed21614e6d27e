"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro run pr --enhancements full        # one simulation
    python -m repro run pr --metrics out.json         # ... observed
    python -m repro run pr --trace t.json             # ... span-traced
    python -m repro figure fig14                      # regenerate a figure
    python -m repro figure fig1 fig4 fig14 --jobs 8   # pool + memoised
    python -m repro stats out.json                    # render an export
    python -m repro stats a.json b.json               # diff two runs
    python -m repro trace summary t.json              # trace breakdowns
    python -m repro trace render t.json --perfetto p.json
    python -m repro trace diff base.json enh.json     # cycle attribution
    python -m repro scenario list                     # traffic-mix library
    python -m repro scenario validate --all           # lint the library
    python -m repro scenario run SYN-01-STLB-THRASH   # simulate a scenario
    python -m repro serve                             # HTTP sweep service
    python -m repro submit run pr --enhancements full --wait
    python -m repro status <job-id>                   # job status
    python -m repro result <job-id>                   # job payload
    python -m repro cancel <job-id>                   # cancel pending job
    python -m repro top                               # live dashboard
    python -m repro list                              # what's available

Figures come from the decorator registry
(:mod:`repro.experiments.registry`); ``figure`` runs every point as a
``run`` job of an in-process sweep service -- inline, or over a pool of
``--jobs`` worker processes -- memoised under ``~/.cache/repro-runs``
(``--no-cache`` for a throwaway store; the store auto-invalidates when
the simulator code changes).  ``--metrics`` exports machine-readable
``repro.obs/v2`` documents (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro import api

# ``repro.api`` is the only supported programmatic surface; the CLI is a
# thin shell over it and deliberately imports nothing deeper.


def _enable_checking() -> None:
    # Via the environment so pool worker processes inherit it.
    import os
    os.environ["REPRO_CHECK"] = "1"


def _cmd_run(args) -> int:
    if args.check:
        _enable_checking()
    cfg = api.build_config(args.scale, enhancements=args.enhancements)
    if args.l2c_prefetcher != "none":
        cfg = cfg.with_(l2c_prefetcher=args.l2c_prefetcher)
    result = api.run(args.benchmark, config=cfg,
                     instructions=args.instructions, warmup=args.warmup,
                     scale=args.scale, seed=args.seed,
                     metrics=args.metrics,
                     sample_interval=args.sample_interval,
                     trace=args.trace, trace_sample=args.trace_sample)
    print(f"benchmark      : {result.benchmark}")
    print(f"enhancements   : {args.enhancements}")
    print(f"instructions   : {result.instructions}")
    print(f"cycles         : {result.cycles}")
    print(f"IPC            : {result.ipc:.4f}")
    for key, value in result.summary().items():
        if key in ("ipc", "cycles"):
            continue
        print(f"{key:<15}: {value:.3f}")
    checker = result.hierarchy.checker
    if checker is not None:
        print(f"validation     : OK ({checker.events} events checked, "
              f"0 violations)")
    if args.metrics:
        print(f"metrics        : {args.metrics} "
              f"({len(result.intervals)} intervals, schema-validated)")
    if args.trace:
        t = result.tracer
        print(f"trace          : {args.trace} "
              f"({t.sampled_requests} requests / {t.span_count} spans, "
              f"1/{t.sample_every} sampling, schema-validated)")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.trace.cli import cmd_trace
    return cmd_trace(args)


def _progress(done, total, key, source, wall_time) -> None:
    tag = f"{wall_time:.1f}s" if source == "run" else source
    print(f"  [{done}/{total}] {key.benchmark} "
          f"cfg={key.config_hash[:8]} ({tag})", file=sys.stderr)


def _run_counters(service) -> dict:
    """The batch totals (a batch export's ``runner`` block)."""
    m = service.metrics
    return {"jobs_done": m.executed + m.store_hits + m.dedup_hits,
            "executed": m.executed, "cache_hits": m.store_hits,
            "retries": m.requeues, "failures": m.failures,
            "total_wall_time": service.telemetry.histogram(
                "repro_job_run_seconds").series()["sum"]}


def _cmd_figure(args) -> int:
    from repro.obs.export import batch_document, export_json, validate_strict
    from repro.obs.manifest import build_batch_manifest
    from repro.obs.progress import Heartbeat
    from repro.service import serving
    from repro.service.store import temporary_store

    if args.check:
        # Memoised results would skip simulation (and thus validation),
        # so --check runs every point against a throwaway store.
        _enable_checking()
        args.no_cache = True
    heartbeat = Heartbeat(args.heartbeat) \
        if (args.metrics or args.heartbeat) else None

    def on_point(**point) -> None:
        if heartbeat is not None:
            heartbeat.emit(**point)
        if args.verbose:
            _progress(**point)

    with temporary_store(args.no_cache) as store, serving(
            workers=args.jobs if args.jobs > 1 else 0, store=store,
            on_point=on_point if (args.verbose or heartbeat) else None
    ) as service:
        for name in args.names:
            spec = api.figure_spec(name)
            kwargs = {"instructions": args.instructions,
                      "warmup": args.warmup}
            if args.benchmarks and spec.takes_benchmarks:
                kwargs["benchmarks"] = args.benchmarks
            print(spec(**kwargs))
        runs = _run_counters(service)
    print(f"runs: {runs['executed']} executed, {runs['cache_hits']} from "
          f"cache, {runs['retries']} retried, "
          f"{runs['total_wall_time']:.1f}s simulated", file=sys.stderr)
    if args.check:
        print("validation: all runs passed invariant + oracle checks",
              file=sys.stderr)
    if heartbeat is not None:
        heartbeat.close(runs)
        if args.metrics:
            doc = validate_strict(batch_document(
                build_batch_manifest(args.names, runner=runs),
                heartbeat.events))
            export_json(args.metrics, doc)
            print(f"metrics: {args.metrics} ({len(heartbeat.events)} "
                  f"events, schema-validated)", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    from repro.obs.stats_cli import cmd_stats
    return cmd_stats(args)


def _cmd_scenario(args) -> int:
    from repro.scenarios.cli import cmd_scenario
    return cmd_scenario(args)


def _cmd_service(args) -> int:
    # The job-service subcommands (serve/submit/status/result/cancel)
    # carry their body in repro.service.cli, imported lazily like the
    # scenario tree.
    return args.service_func(args)


def _cmd_list(_args) -> int:
    print("benchmarks :", " ".join(api.list_benchmarks()))
    specs = api.figure_spec(None)
    paper = [s.name for s in specs if s.paper]
    extra = [s.name for s in specs if not s.paper]
    print("figures    :", " ".join(paper))
    print("studies    :", " ".join(extra))
    print("enhancement presets:", " ".join(api.ENHANCEMENT_PRESET_NAMES))
    return 0


def _check_choice(parser, argument: str, value: str, choices) -> None:
    """Reject ``value`` outside ``choices`` as argparse rejects a bad
    ``choices`` entry (usage error, exit status 2)."""
    if value not in choices:
        parser.error(f"argument {argument}: invalid choice: {value!r} "
                     f"(choose from {', '.join(map(repr, choices))})")


def main(argv=None) -> int:
    from repro.cli import int_at_least
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ISPASS'22 translation-conscious caching reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one benchmark or scenario")
    p_run.add_argument("benchmark", metavar="benchmark")
    p_run.add_argument("--enhancements", default="none",
                       choices=sorted(api.ENHANCEMENT_PRESET_NAMES))
    p_run.add_argument("--l2c-prefetcher", default="none",
                       choices=["none", "spp", "bingo", "isb", "next_line"])
    p_run.add_argument("--instructions", type=int,
                       default=api.DEFAULT_INSTRUCTIONS)
    p_run.add_argument("--warmup", type=int, default=api.DEFAULT_WARMUP)
    p_run.add_argument("--scale", type=int, default=api.DEFAULT_SCALE)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--metrics", metavar="PATH", default=None,
                       help="export manifest + interval time-series as "
                            "repro.obs/v2 JSON (see docs/observability.md)")
    p_run.add_argument("--sample-interval", type=int_at_least(1),
                       default=None, metavar="N",
                       help="sample the hierarchy every N retired "
                            "instructions (default with --metrics: "
                            f"{api.DEFAULT_SAMPLE_INTERVAL})")
    p_run.add_argument("--trace", metavar="PATH", default=None,
                       help="export the request span trace as "
                            "repro.obs/trace-v1 JSON (see "
                            "docs/observability.md)")
    p_run.add_argument("--trace-sample", type=int_at_least(1), default=None,
                       metavar="N",
                       help="trace 1 in N requests (default with "
                            "--trace: 1, i.e. every request)")
    p_run.add_argument("--check", action="store_true",
                       help="run with runtime invariant checkers and the "
                            "differential oracle attached (see "
                            "docs/validation.md)")
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figure", help="regenerate paper figures")
    p_fig.add_argument("names", nargs="+", metavar="name")
    p_fig.add_argument("--benchmarks", nargs="*", default=None)
    p_fig.add_argument("--instructions", type=int_at_least(1),
                       default=api.DEFAULT_INSTRUCTIONS)
    p_fig.add_argument("--warmup", type=int_at_least(0),
                       default=api.DEFAULT_WARMUP)
    p_fig.add_argument("--jobs", type=int_at_least(1), default=1,
                       help="worker processes for independent runs")
    p_fig.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result memo "
                            "(~/.cache/repro-runs)")
    p_fig.add_argument("--verbose", action="store_true",
                       help="per-run progress on stderr")
    p_fig.add_argument("--metrics", metavar="PATH", default=None,
                       help="export the batch manifest + per-run "
                            "heartbeat events as repro.obs/v2 JSON")
    p_fig.add_argument("--heartbeat", metavar="PATH", default=None,
                       help="stream one JSON line per completed run "
                            "(tail -f friendly)")
    p_fig.add_argument("--check", action="store_true",
                       help="validate every run (implies --no-cache: "
                            "memoised results would skip the checkers)")
    p_fig.set_defaults(func=_cmd_figure)

    p_stats = sub.add_parser(
        "stats", help="summarise / validate / diff metrics exports")
    p_stats.add_argument("paths", nargs="+",
                         help="one export renders it; two run exports "
                              "diff their summaries")
    p_stats.add_argument("--validate", action="store_true",
                         help="check documents against the repro.obs/v2 "
                              "schema and exit non-zero on problems")
    p_stats.add_argument("--csv", metavar="PATH", default=None,
                         help="also write a run export's interval "
                              "time-series as CSV")
    p_stats.set_defaults(func=_cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="render / summarise / diff span-trace exports")
    trace_sub = p_trace.add_subparsers(dest="trace_cmd", required=True)
    t_render = trace_sub.add_parser(
        "render", help="print the span tree of a trace export")
    t_render.add_argument("path")
    t_render.add_argument("--limit", type=int, default=None, metavar="N",
                          help="only the first N requests")
    t_render.add_argument("--perfetto", metavar="PATH", default=None,
                          help="also convert to Chrome Trace Event "
                               "Format JSON (loadable in Perfetto)")
    t_render.set_defaults(func=_cmd_trace)
    t_summary = trace_sub.add_parser(
        "summary", help="latency breakdowns, hotspots, walk matrix")
    t_summary.add_argument("path")
    t_summary.set_defaults(func=_cmd_trace)
    t_diff = trace_sub.add_parser(
        "diff", help="attribute the cycle delta between two traced runs")
    t_diff.add_argument("baseline")
    t_diff.add_argument("enhanced")
    t_diff.set_defaults(func=_cmd_trace)

    # The scenario and job-service argument trees live with their
    # implementations, so building them imports those stacks.  Skip
    # them only when the command line names a subcommand built here;
    # with none, --help or a typo, usage still lists every subcommand.
    if not argv or argv[0] not in ("run", "figure", "stats", "trace",
                                   "list"):
        from repro.scenarios.cli import add_scenario_parser
        add_scenario_parser(sub)
        sub.choices["scenario"].set_defaults(func=_cmd_scenario)

        # Job-service subcommands (docs/service.md).
        from repro.service.cli import add_service_parsers
        add_service_parsers(sub)
        for name in ("serve", "submit", "status", "result", "cancel",
                     "top"):
            sub.choices[name].set_defaults(func=_cmd_service)

    p_list = sub.add_parser("list", help="list benchmarks and figures")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    # Names are checked after parsing, so that building the parser loads
    # neither the scenario library nor the figure registry; scenarios
    # are consulted only for a name that is not a benchmark.
    if args.command == "run" and args.benchmark not in api.list_benchmarks():
        _check_choice(p_run, "benchmark", args.benchmark,
                      api.list_benchmarks() + api.list_scenarios())
    elif args.command == "figure":
        for name in args.names:
            _check_choice(p_fig, "name", name, api.list_figures())
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
