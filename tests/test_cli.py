"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import registry
from repro.obs.manifest import SCHEMA


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pr" in out
    assert "fig14" in out


def test_run_command(capsys):
    rc = main(["run", "tc", "--instructions", "2000", "--warmup", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "stlb_mpki" in out


def test_run_with_enhancements(capsys):
    rc = main(["run", "tc", "--enhancements", "full",
               "--instructions", "2000", "--warmup", "500"])
    assert rc == 0
    assert "full" in capsys.readouterr().out


def test_figure_command(capsys):
    rc = main(["figure", "fig3", "--benchmarks", "tc",
               "--instructions", "2000", "--warmup", "500"])
    assert rc == 0
    assert "[Fig 3]" in capsys.readouterr().out


def test_figure_registry_covers_all_data_figures():
    expected = {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                "fig8", "fig10", "fig12", "fig14", "fig15", "fig16",
                "fig17", "fig18", "fig19", "fig20", "fig21", "table2",
                "multicore"}
    assert expected <= set(registry.names())


def test_invalid_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["run", "gcc"])


def test_run_accepts_the_control_workload(capsys):
    """``compute`` is listed, and runs as ``api.run`` does."""
    assert main(["list"]) == 0
    assert "compute" in capsys.readouterr().out.split("\n")[0].split()
    rc = main(["run", "compute", "--instructions", "2000", "--warmup",
               "500"])
    assert rc == 0
    assert "IPC" in capsys.readouterr().out


def test_run_accepts_library_scenario_name(capsys):
    rc = main(["run", "SYN-01-STLB-THRASH",
               "--instructions", "2000", "--warmup", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SYN-01-STLB-THRASH" in out
    assert "IPC" in out


# ----------------------------------------------------------------------
# Observability: run --metrics, stats subcommand
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def metrics_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-obs") / "tc.json"
    rc = main(["run", "tc", "--instructions", "6000", "--warmup", "1000",
               "--metrics", str(path), "--sample-interval", "500"])
    assert rc == 0
    return path


def test_run_metrics_writes_export(metrics_export):
    assert metrics_export.exists()


def test_stats_renders_run_export(metrics_export, capsys):
    assert main(["stats", str(metrics_export)]) == 0
    out = capsys.readouterr().out
    assert "benchmark      : tc" in out
    assert "interval time-series" in out
    assert "end-of-run summary" in out


def test_stats_validate_ok(metrics_export, capsys):
    assert main(["stats", "--validate", str(metrics_export)]) == 0
    assert "OK (run export" in capsys.readouterr().out


def test_stats_validate_rejects_corrupt(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": SCHEMA, "kind": "run"}))
    assert main(["stats", "--validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_stats_missing_file(capsys):
    assert main(["stats", "/no/such/export.json"]) == 2


def test_stats_csv(metrics_export, tmp_path, capsys):
    out_csv = tmp_path / "series.csv"
    assert main(["stats", str(metrics_export), "--csv",
                 str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("index,")


def test_stats_diff_two_runs(metrics_export, tmp_path, capsys):
    other = tmp_path / "tc2.json"
    rc = main(["run", "tc", "--instructions", "6000", "--warmup", "1000",
               "--enhancements", "full", "--metrics", str(other),
               "--sample-interval", "500"])
    assert rc == 0
    capsys.readouterr()
    assert main(["stats", str(metrics_export), str(other)]) == 0
    out = capsys.readouterr().out
    assert "summary diff" in out
    assert "ipc" in out


# ----------------------------------------------------------------------
# Argument validation: zero/negative counts must die at the parser
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "tc", "--sample-interval", "0"],
    ["run", "tc", "--sample-interval", "-5"],
    ["run", "tc", "--trace-sample", "0"],
    ["run", "tc", "--trace-sample", "-1"],
    ["figure", "fig3", "--jobs", "0"],
    ["figure", "fig3", "--jobs", "-2"],
    ["scenario", "run", "SYN-01-STLB-THRASH", "--warmup", "-1"],
    ["scenario", "run", "SYN-01-STLB-THRASH", "--instructions", "-1"],
    ["scenario", "run", "SYN-01-STLB-THRASH", "--scale", "0"],
    ["scenario", "run", "SYN-01-STLB-THRASH", "--seed", "-1"],
    ["figure", "fig3", "--instructions", "0"],
    ["figure", "fig3", "--warmup", "-1"],
])
def test_nonpositive_counts_rejected_at_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # argparse usage error
    err = capsys.readouterr().err
    assert "invalid" in err or "must be" in err


def test_garbage_int_rejected_at_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "tc", "--sample-interval", "lots"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# Scenario subcommand
# ----------------------------------------------------------------------

def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "SYN-01-STLB-THRASH" in out
    assert "RL-01-GRAPH-SOUP" in out


def test_scenario_validate_library(capsys):
    assert main(["scenario", "validate", "--all"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "valid" in out


def test_scenario_validate_rejects_bad_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "repro.scenario/v1", "name": "x", '
                   '"mix": {"nope": 1.0}}')
    assert main(["scenario", "validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "INVALID" in err


def test_scenario_run_emits_results(tmp_path, capsys):
    out_path = tmp_path / "results.jsonl"
    rc = main(["scenario", "run", "SYN-01-STLB-THRASH",
               "--instructions", "4000", "--warmup", "500",
               "--no-cache", "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SYN-01-STLB-THRASH" in out and "ipc=" in out
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1
    import json
    record = json.loads(lines[0])
    assert record["schema"] == "repro.scenario-result/v1"
    assert record["scenario"] == "SYN-01-STLB-THRASH"
    assert record["cycles"] > 0


def test_scenario_run_unknown_name(capsys):
    assert main(["scenario", "run", "NO-SUCH-SCENARIO",
                 "--no-cache"]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_scenario_run_has_no_jobs_flag(capsys):
    # Each scenario is one run on an inline service: nothing to fan out.
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "run", "SYN-01-STLB-THRASH", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_zero_warmup_and_seed_run_through_the_service(capsys):
    # Warmup and seed may be 0 (the simulator and the scenario schema
    # allow it): the service path prints what the unbound path returns.
    from repro import api
    assert main(["scenario", "run", "SYN-01-STLB-THRASH", "--instructions",
                 "2000", "--warmup", "0", "--seed", "0", "--no-cache"]) == 0
    out = capsys.readouterr().out
    direct = api.run_scenario("SYN-01-STLB-THRASH", instructions=2000,
                              warmup=0, seed=0)
    assert (direct.key.warmup, direct.key.seed) == (0, 0)
    assert f"cycles={direct.summary.cycles:>10}" in out
    assert f"run_key={direct.key.digest[:12]}" in out
    assert main(["figure", "fig1", "--benchmarks", "pr", "--instructions",
                 "2000", "--warmup", "0", "--no-cache"]) == 0
    table = api.figure("fig1", benchmarks=["pr"], instructions=2000,
                       warmup=0)
    assert capsys.readouterr().out == f"{table}\n"


def test_scenario_run_adhoc_document_resolves_in_process(tmp_path, capsys,
                                                        monkeypatch):
    # A document outside the library resolves only in this process; the
    # inline service runs it here, then serves the rerun from its store.
    import json
    from repro import api
    from repro.scenarios import SCENARIO_SCHEMA
    path = tmp_path / "adhoc.json"
    path.write_text(json.dumps({"schema": SCENARIO_SCHEMA,
                                "name": "t-cli-adhoc",
                                "mix": {"pr": 0.5, "cc": 0.5}}))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    argv = ["scenario", "run", str(path), "--instructions", "3000",
            "--warmup", "500"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    direct = api.run_scenario(str(path), instructions=3000, warmup=500)
    assert f"cycles={direct.summary.cycles:>10}" in first
