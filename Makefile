# Convenience targets for the SSD-Insider reproduction.
#
#   make tier1       — the gating check: release build, quick tests, and a
#                      zero-warning clippy pass over the whole workspace.
#   make ci          — the full offline CI gate (what .github/workflows/ci.yml
#                      runs): tier1, rustfmt check, clippy over all targets,
#                      bounded crash-sweep / latency / multitenant /
#                      steady-state / ROC smoke runs and a full GC bench
#                      (~20 s) (env bounds below; smoke JSON goes to
#                      target/ci/, never touching the committed artifacts),
#                      bench_check validating the schema and headline ratios
#                      of every committed BENCH_*.json and of the five fresh
#                      artifacts in target/ci/, then a build + self-test of the
#                      end-to-end benchmark in e2ebench/ (its own Cargo
#                      workspace, so nothing else compiles it). No network
#                      needed: deps are vendored.
#   make test        — full workspace test suite, including the differential
#                      interval-vs-naive counting-table tests.
#   make bench       — criterion micro-benchmarks (detector group includes
#                      the interval-vs-naive counting-table comparison).
#   make bench-json  — regenerate BENCH_detect.json (detector-ingest
#                      throughput, interval vs legacy table, three traces).
#   make bench-gc    — regenerate BENCH_gc.json (aged-drive GC victim
#                      selection, incremental index vs legacy scan, plus the
#                      trace-replay victim-sequence oracle with each replay's
#                      host pages written and NAND programs; bench_check
#                      gates the random-mixed replay's write amplification).
#   make crash-sweep — exhaustive stride-1 power-loss sweep: every
#                      program/erase boundary of three traces on both FTLs,
#                      plus the filesystem attack/crash/rollback scenario.
#                      (Tier 1 runs a strided fast version as a plain test.)
#   make bench-ab BASE=<rev> PAIRS=N SECONDS=s
#                    — same-host A/B of the end-to-end benchmark: exports
#                      BASE (default HEAD) with `git archive` into
#                      target/bench-ab/base, builds both checkouts'
#                      e2ebench, runs N (default 10) interleaved base/change
#                      pairs per workload, seeds 1..N, s (default 10) timed
#                      seconds each, and prints per end-to-end metric both
#                      medians and IQRs, the pairs won and a verdict against
#                      the metric's BENCHMARK.json bound. Fails when a
#                      metric is worse than its bound or a run is incorrect.
#   make bench-e2e   — run the end-to-end benchmark (BENCHMARK.json's
#                      command, e2ebench/) once per workload: aged-churn,
#                      read-scan, fs-ransom, at seed 1 for BENCHMARK.json's
#                      10 timed seconds (run_seconds).
#   make bench-multitenant — regenerate BENCH_multitenant.json (1→N-shard
#                      namespace scaling: wall and modeled-parallel req/s,
#                      per-shard p50/p99 dispatch latency; MT_SHARDS /
#                      MT_WORKERS / MT_REPEATS override the sweep).
#   make bench-steady — regenerate BENCH_steady.json (steady-state foreground
#                      p50/p95/p99 under sustained hot churn at ~90 %
#                      utilization: blocking GC (pinned off the drive's
#                      incremental + erase-suspend defaults) vs incremental
#                      GC with erase-suspend vs incremental + write pacing,
#                      identical streams, final contents differentially
#                      verified;
#                      STEADY_WRITES / STEADY_HOT_SPAN / STEADY_INTERARRIVAL_US
#                      / STEADY_WINDOW_MS override the trace. Tier 1 runs the
#                      bounded steady_smoke test instead; bench_check gates
#                      the committed artifact's p99 ratio).
#   make bench-roc   — regenerate BENCH_roc.json (run-level TPR/FPR/latency
#                      threshold sweeps for the baseline and evolved detector
#                      variants over the three paper ransomware classes, the
#                      four adversarial families, and the 15-app benign pool;
#                      ROC_TRACES / ROC_PAGES bound the sweep for smoke runs.
#                      Delete target/insider-tree-*.json or set
#                      INSIDER_RETRAIN=1 after changing generators/trainer.
#                      bench_check gates the committed artifact's TPR floors.)
#   make bench-latency — regenerate BENCH_latency.json (device replay of the
#                      three traces under {copy, zero-copy} payloads ×
#                      {in-order, out-of-order} NAND scheduling: wall-clock
#                      throughput, simulated p50/p95/p99 command latency,
#                      die/bus utilization; LAT_PASSES overrides the timed
#                      passes. Tier 1 runs a bounded latency smoke test with
#                      LAT_PAGES override instead.)
#
# Env knobs (all optional):
#   CRASH_SWEEP_STRIDE / CRASH_SWEEP_PAGES / CRASH_SWEEP_FS_POINTS
#                      — crash-sweep density: cut-point stride, per-trace
#                        write budget, filesystem-scenario cut points.
#   (Block buffer cache capacity is an API knob, not env:
#    FsBridge::cached(capacity) / BlockCache::new(dev, capacity).)
#   MT_SHARDS / MT_WORKERS / MT_REPEATS, LAT_PASSES, ROC_TRACES / ROC_PAGES
#                      — bench sweep bounds.

CARGO ?= cargo

# Bounds for the CI smoke runs: dense enough to cross every code path,
# small enough to finish in seconds.
CI_SWEEP_ENV = CRASH_SWEEP_STRIDE=41 CRASH_SWEEP_PAGES=160 CRASH_SWEEP_FS_POINTS=6
CI_LAT_ENV = LAT_PASSES=1
CI_MT_ENV = MT_SHARDS=1,2 MT_WORKERS=2 MT_REPEATS=2
CI_ROC_ENV = ROC_TRACES=1

# The end-to-end benchmark: the command BENCHMARK.json declares.
E2E = $(CARGO) run --release --quiet --offline --manifest-path e2ebench/Cargo.toml --

# `make bench-ab` inputs.
BASE ?= HEAD
PAIRS ?= 10
SECONDS ?= 10

.PHONY: tier1 ci test bench bench-json bench-gc crash-sweep bench-multitenant bench-latency bench-roc bench-steady bench-e2e bench-ab

tier1:
	$(CARGO) build --release
	$(CARGO) test -q
	$(CARGO) clippy --release --workspace -- -D warnings

ci: tier1
	$(CARGO) fmt --all -- --check
	$(CARGO) clippy --release --workspace --all-targets -- -D warnings
	mkdir -p target/ci
	$(CI_SWEEP_ENV) $(CARGO) run --release -p insider-bench --bin crash_sweep
	$(CI_LAT_ENV) $(CARGO) run --release -p insider-bench --bin bench_latency target/ci/BENCH_latency.json
	$(CI_MT_ENV) $(CARGO) run --release -p insider-bench --bin bench_multitenant target/ci/BENCH_multitenant.json
	$(CARGO) run --release -p insider-bench --bin bench_steady target/ci/BENCH_steady.json
	$(CI_ROC_ENV) $(CARGO) run --release -p insider-bench --bin bench_roc target/ci/BENCH_roc.json
	$(CARGO) run --release -p insider-bench --bin bench_gc target/ci/BENCH_gc.json
	$(CARGO) run --release -p insider-bench --bin bench_check
	$(CARGO) run --release -p insider-bench --bin bench_check -- \
		target/ci/BENCH_latency.json target/ci/BENCH_multitenant.json \
		target/ci/BENCH_steady.json target/ci/BENCH_roc.json \
		target/ci/BENCH_gc.json
	$(CARGO) test --release --offline --manifest-path e2ebench/Cargo.toml

test:
	$(CARGO) test --workspace -q

bench:
	$(CARGO) bench -p insider-bench

bench-json:
	$(CARGO) run --release -p insider-bench --bin bench_json

bench-gc:
	$(CARGO) run --release -p insider-bench --bin bench_gc

crash-sweep:
	$(CARGO) run --release -p insider-bench --bin crash_sweep

bench-multitenant:
	$(CARGO) run --release -p insider-bench --bin bench_multitenant

bench-latency:
	$(CARGO) run --release -p insider-bench --bin bench_latency

bench-roc:
	$(CARGO) run --release -p insider-bench --bin bench_roc

bench-steady:
	$(CARGO) run --release -p insider-bench --bin bench_steady

bench-e2e:
	for w in aged-churn read-scan fs-ransom; do \
		$(E2E) --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

bench-ab:
	rm -rf target/bench-ab/base
	mkdir -p target/bench-ab/base
	git archive --format=tar $(BASE) | tar -x -C target/bench-ab/base
	$(CARGO) run --release -p insider-bench --bin bench_ab -- \
		--base target/bench-ab/base --pairs $(PAIRS) --seconds $(SECONDS)
