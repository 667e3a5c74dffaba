#!/usr/bin/env bash
# Bench-trend pipeline: run the perf-critical benches in --quick smoke mode
# with machine-readable JSON output, then gate against the committed
# baseline (fail on any >2x regression; quick-mode noise sits well inside
# that). CI calls exactly this script; run it locally to reproduce a CI
# verdict bit-for-bit.
#
# The baseline is absolute wall-clock from the machine that last ran
# --update-baseline, so the gate implicitly assumes comparable hardware;
# if CI moves to a substantially slower/faster runner class, regenerate
# the baseline there (or widen the gate via bench_trend's --max-ratio)
# rather than chasing phantom regressions.
#
#   scripts/bench_trend.sh [out_dir]             # run + compare
#   scripts/bench_trend.sh --update-baseline     # regenerate BENCH_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
if [ "${1:-}" = "--update-baseline" ]; then
    update=1
    shift
fi
# Absolute output path: cargo runs bench binaries with the package
# directory (crates/bench) as cwd, so a relative --json would land there.
out="$(pwd)/${1:-target/bench-trend}"
mkdir -p "$out"

cargo bench -p tahoma-bench --bench nn_inference   -- --quick --json "$out/nn_inference.json"
cargo bench -p tahoma-bench --bench repr_transform -- --quick --json "$out/repr_transform.json"
# query_exec prints the interleaved reference-vs-vectorized speedup table
# and the real-NN per-stage breakdown alongside its criterion lines.
cargo bench -p tahoma-bench --bench query_exec     -- --quick --json "$out/query_exec.json" \
    2>&1 | tee "$out/query_exec.txt"
cargo bench -p tahoma-bench --bench kernel_policy  -- --quick --json "$out/kernel_policy.json" \
    | tee "$out/kernel_policy.txt"
# query_serve prints the plan-cache and coalescing interleaved ratios and
# the clients={1,4,16} QPS/latency table alongside its criterion lines.
cargo bench -p tahoma-bench --bench query_serve    -- --quick --json "$out/query_serve.json" \
    2>&1 | tee "$out/query_serve.txt"
# store_scale prints ingest/cold-open tables and asserts the
# persistent-vs-RAM warm-latency bar alongside its criterion lines.
cargo bench -p tahoma-bench --bench store_scale    -- --quick --json "$out/store_scale.json" \
    2>&1 | tee "$out/store_scale.txt"
# stream_query prints the per-tick frames/s table (two window sizes) and
# asserts the incremental-vs-rescan speedup (>= 2x at RANGE=8xSTEP) and
# incremental == rescan equivalence alongside its criterion lines.
cargo bench -p tahoma-bench --bench stream_query   -- --quick --json "$out/stream_query.json" \
    2>&1 | tee "$out/stream_query.txt"

if [ "$update" = 1 ]; then
    # Full regeneration: start from scratch so retired/renamed benchmark
    # ids are pruned (merge otherwise seeds from the existing baseline so
    # partial runs don't drop other benches' entries).
    rm -f BENCH_baseline.json
    cargo run --release -p tahoma-bench --bin bench_trend -- merge BENCH_baseline.json \
        "$out/nn_inference.json" "$out/repr_transform.json" "$out/query_exec.json" \
        "$out/kernel_policy.json" "$out/query_serve.json" "$out/store_scale.json" \
        "$out/stream_query.json"
else
    cargo run --release -p tahoma-bench --bin bench_trend -- compare BENCH_baseline.json \
        "$out/nn_inference.json" "$out/repr_transform.json" "$out/query_exec.json" \
        "$out/kernel_policy.json" "$out/query_serve.json" "$out/store_scale.json" \
        "$out/stream_query.json" | tee "$out/trend.txt"
fi
