# Convenience targets for the reproduction repo.

# Every target runs against the source tree; no install needed.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test perfbench-ab accuracy figures figures-fast \
	figures-check figures-observed scenarios serve-smoke fuzz calibrate \
	reachability all

install:
	pip install -e . --no-build-isolation

# The tier-1 suite, as CI runs it.
test:
	python -m pytest -x -q

# Same-machine interleaved A/B of the working tree against BASE on one
# perfbench workload: PAIRS pairs, each side's median and quartiles, and a
# gain / no change / worse verdict per end-to-end metric against the
# bounds in BENCHMARK.json, written as a tracked bench-history/BENCH_*.json
# record (docs/performance.md, "Regression gating").
BASE ?= HEAD
WORKLOAD ?= walk_storm
PAIRS ?= 10
perfbench-ab:
	python3 tools/perfbench_ab.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS)

# Paper-accuracy suite (pytest-benchmark figure comparisons).
accuracy:
	pytest benchmarks/ --benchmark-only -q -s

figures:
	python examples/regenerate_experiments.py EXPERIMENTS.md

# Figs 1/4/14 at test scale, each a figure job of an in-process sweep
# service with 4 pool workers and every point a memoised run job
# (smoke-tests the whole figure path in well under a minute).
figures-fast:
	python -m repro figure fig1 fig4 fig14 \
		--jobs 4 --instructions 20000 --warmup 4000 --verbose

# Same smoke suite with the runtime invariant checkers and differential
# oracle attached to every run (--check implies --no-cache), then every
# registered figure and study at 4000 + 1000 over 2 workers, then each
# library scenario through `repro run --check` at 6000 + 1000.
figures-check:
	python -m repro figure fig1 fig4 fig14 \
		--jobs 4 --instructions 20000 --warmup 4000 --check
	python -m repro figure $$(python -m repro list | \
		awk -F' *: ' '$$1 == "figures" || $$1 == "studies" {print $$2}') \
		--jobs 2 --instructions 4000 --warmup 1000 --check
	for name in $(basename $(notdir \
		$(wildcard src/repro/scenarios/library/*.yaml))); do \
		python -m repro run $$name --instructions 6000 --warmup 1000 \
			--check || exit 1; \
	done

# One checked figure with the observability subsystem attached: a batch
# export + heartbeat stream from the figure run, a run export from a
# single observed simulation, both schema-validated by `repro stats`,
# plus a traced baseline/enhanced pair -- span traces schema-validated
# by `repro trace summary`, converted to Perfetto JSON, and diffed for
# cycle attribution.  Artifacts land in obs-artifacts/ (CI uploads them).
figures-observed:
	mkdir -p obs-artifacts
	python -m repro figure fig14 \
		--jobs 4 --instructions 20000 --warmup 4000 --check \
		--metrics obs-artifacts/fig14-batch.json \
		--heartbeat obs-artifacts/fig14-heartbeat.ndjson
	python -m repro run pr --enhancements full \
		--instructions 20000 --warmup 4000 \
		--metrics obs-artifacts/pr-full-run.json \
		--trace obs-artifacts/pr-full-trace.json
	python -m repro stats --validate \
		obs-artifacts/fig14-batch.json obs-artifacts/pr-full-run.json
	python -m repro stats obs-artifacts/pr-full-run.json \
		--csv obs-artifacts/pr-full-intervals.csv
	python -m repro run pr \
		--instructions 20000 --warmup 4000 \
		--trace obs-artifacts/pr-base-trace.json
	python -m repro trace summary \
		obs-artifacts/pr-full-trace.json
	python -m repro trace render \
		obs-artifacts/pr-full-trace.json --limit 5 \
		--perfetto obs-artifacts/pr-full-perfetto.json
	python -m repro trace diff \
		obs-artifacts/pr-base-trace.json \
		obs-artifacts/pr-full-trace.json

# Scenario regression matrix (docs/scenarios.md): lint every checked-in
# repro.scenario/v1 document, then run the SYN-* stress scenarios and
# the RL-* mixes at smoke scale, appending schema-stable JSONL results
# to scenario-artifacts/ (CI uploads them).
scenarios:
	mkdir -p scenario-artifacts
	python -m repro scenario validate --all
	python -m repro scenario run \
		SYN-01-STLB-THRASH SYN-02-PTE-REUSE-CLIFF \
		SYN-03-REPLAY-DEAD-STREAMS RL-01-GRAPH-SOUP \
		RL-02-PHASED-PIPELINE \
		--instructions 12000 --warmup 2000 --no-cache \
		--out scenario-artifacts/scenario-results.jsonl

# End-to-end sweep-service smoke (docs/service.md): boot the HTTP
# service on an ephemeral port, submit a tiny run, one scenario and one
# figure, wait on their event streams, assert the identical
# resubmission and a run of the figure's point are store hits, and
# write the store manifest to service-artifacts/ (CI uploads it).
serve-smoke:
	python tools/serve_smoke.py

# 200 deterministic fuzz streams through the checked hierarchy
# (seed range 0..199; failures print ready-to-paste regression tests).
fuzz:
	python -m repro.validate.fuzz 0 200

calibrate:
	python tools/calibrate.py

# Run every entry point above (and the CLI verbs, perfbench and the
# examples) under a profiler, and fail if a function under src/repro is
# never entered and not listed with a reason in
# tools/reachability_keep.txt (a few minutes on 2 vCPUs).
reachability:
	python tools/reachability.py

all: test accuracy
