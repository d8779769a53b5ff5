#!/usr/bin/env bash
# Pre-merge gate, in dependency order:
#   1. cargo fmt --check
#   2. hyperline-lint        — workspace static analyzer (line rules
#      HL001-HL006 and HL010 unsafe-safety-note adjacency, plus the
#      interprocedural HL007 panic-reachability, HL008 lock-order, and
#      HL009 release/acquire-pairing rules; suppressions in
#      scripts/lint_allow.txt; see README "Correctness tooling")
#   3. sched suite           — the model-checked concurrency units and
#      the scheduler's own engine tests, built under
#      RUSTFLAGS="--cfg hyperline_sched" into target/sched so the
#      shim-world artifacts never collide with the std-world cache
#   4. cargo clippy --workspace --all-targets -D warnings (also
#      --fast) — every package's lib, bins, tests, benches and
#      examples, the analyzer and the server suites included
#   5. cargo check of hlbench/ (also --fast) — the repo benchmark is a
#      separate Cargo workspace with path dependencies on crates/, so a
#      public-API change it calls fails here, not first in a bench run
#   6. cargo build --release
#   7. cargo test -q --workspace — every package's unit, integration
#      and doc tests, the counting oracles and the server suites
#      included, among them the /metrics JSON key-set check against
#      scripts/metrics_schema.txt and the cross-format check that every
#      metric-table row reads the same in the JSON body and the
#      Prometheus exposition (metrics_json_and_prometheus_agree_on_every_row)
#      (also --fast) — then the chaos suite
#      by name (deadline/cancel, slow-client, fault-injection, and
#      drain invariants — also --fast)
#   8. the repo benchmark's output oracles (also --fast): 2 s runs of
#      hlbench's cold, export and queries workloads, which exit 1 when
#      any request failed or answered wrong (cold checks every session
#      body, each sweep count included, against direct library calls)
#   9. the two smoke benchmarks (skipped with --fast) — server (cold vs
#      warm cache latencies + server-side p50/p99 from the /metrics
#      histograms + streamed edge-list wire bytes, identity vs gzip +
#      concurrent-connection tiers against the evented core, reported
#      as a trailing max-sustained summary line) and
#      kernels (pipeline stage timings with the counting-vs-tail
#      breakdown plus the Stage-5 frontier-engine section). Both are
#      warn-only compared (>20%) against their previous BENCH_*.json
#      (server_smoke --update-schema rewrites scripts/metrics_schema.txt
#      to accept a deliberate /metrics change). Kernel runs are
#      appended to BENCH_history.jsonl for the per-commit trajectory.
# Trailing summary lines report the analyzer's per-rule finding counts
# and wall time, which BENCH_*.json snapshots changed, and whether any
# warn-only regression fired.
# Usage: scripts/check.sh [--fast]
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> hyperline-lint"
LINT_LOG="$(mktemp)"
cargo run -q -p hyperline-lint | tee "$LINT_LOG"
LINT_SUMMARY="$(grep '^lint-summary:' "$LINT_LOG" || true)"
rm -f "$LINT_LOG"

echo "==> sched suite (exhaustive interleavings under --cfg hyperline_sched)"
# Separate target dir: these artifacts are compiled against the model-
# checker shims and must never be reused by std-world builds.
RUSTFLAGS="--cfg hyperline_sched" CARGO_TARGET_DIR=target/sched \
  cargo test -q -p hyperline-sched --test engine \
    -p hyperline-util --test sched_histogram --test sched_cancel \
    -p hyperline-graph --test sched_frontier \
    -p hyperline-server --test sched_models

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo check hlbench/ (repo benchmark, its own workspace)"
cargo check --offline --manifest-path hlbench/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The chaos suite is part of the workspace tests above, but it is the
# gate for the request-lifecycle invariants (no request outlives its
# deadline, no truncated 200s, drain within bound, every injected fault
# counted), so it runs by name — in --fast mode too — and can never be
# scoped away.
echo "==> chaos suite (deadlines, slow clients, fault injection, drain)"
cargo test -q -p hyperline-server --test chaos

# The evented-core integration tests likewise run by name (also in
# --fast mode): split-head reassembly, pipelining, EAGAIN backpressure
# without truncation, and seeded epoll/accept fault degradation.
echo "==> evented core suite (readiness loop, backpressure, epoll faults)"
cargo test -q -p hyperline-server --test chaos evented_

# Short runs for correctness, not timing: the numbers they print are
# too short-lived to compare against BENCHMARK.json's bounds.
echo "==> hlbench output oracles (cold, export, queries; 2 s each)"
for workload in cold export queries; do
  bash hlbench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0
done

BENCH_LOG=""
if [ "$FAST" = "1" ]; then
  echo "==> smoke benchmarks skipped (--fast)"
else
  BENCH_LOG="$(mktemp)"
  trap 'rm -f "$BENCH_LOG"' EXIT

  echo "==> server smoke benchmark (cold vs warm -> BENCH_server.json)"
  cargo run --release -q -p hyperline-bench --bin server_smoke | tee -a "$BENCH_LOG"

  echo "==> kernel smoke benchmark (counting vs tail + stage5 -> BENCH_kernels.json, history -> BENCH_history.jsonl)"
  cargo run --release -q -p hyperline-bench --bin kernel_smoke | tee -a "$BENCH_LOG"
fi

# ---- trailing summary ------------------------------------------------
[ -n "$LINT_SUMMARY" ] && echo "summary: ${LINT_SUMMARY}"
if [ "$FAST" = "1" ]; then
  echo "summary: benches skipped (--fast); BENCH_*.json untouched"
else
  changed="$(git diff --name-only -- 'BENCH_*.json' | tr '\n' ' ' | sed 's/ $//')"
  [ -n "$changed" ] || changed="none"
  warns="$(grep -c '^  WARN' "$BENCH_LOG" || true)"
  if [ "${warns:-0}" -gt 0 ]; then
    echo "summary: changed snapshots: $changed; $warns warn-only regression(s) fired (see WARN lines above)"
  else
    echo "summary: changed snapshots: $changed; no warn-only regressions"
  fi
  sustained="$(grep -o '^concurrency: sustained [0-9]* connections' "$BENCH_LOG" | tail -1 || true)"
  [ -n "$sustained" ] && echo "summary: max ${sustained#concurrency: }"
fi

echo "All checks passed."
