#!/usr/bin/env bash
# CI gate: release build, full workspace test suite, lint wall, bench
# smoke, then the measured gates and the repo benchmark's self-check.
#
# `cargo test --workspace` is the whole differential harness in one
# run: the sharded-pipeline suites (tests/shard_equivalence.rs,
# tests/shard_batching.rs, the crates/core property tests), rule
# dispatch vs full scan (tests/rule_dispatch_equivalence.rs), the
# protocol registry with the MGCP fifth protocol at 1/2/4 shards
# (tests/proto_registry_equivalence.rs), the hot-reload barrier suite
# (tests/ruleset_swap.rs), the 48 DSL golden diagnostics and DSL
# properties, the SWAR-vs-reference parser proptests, the leak-plateau
# test (tests/chaos.rs) and every crate's unit tests. A green run proves
# the parallel deployment is byte-identical to the single engine.
# The rate gates (DESIGN SS13, SS15) are in that run too. The identity
# plane's sketches keep their oracle properties (count-min's (eps,
# delta) bound, the sliding window's queue equality) and must alert
# byte-identically with exact_rate_state on vs off at 1/2/4 shards
# (tests/rate_equivalence.rs). Threshold clauses are decided by one
# exact per-key table in the engine and in the fold plane, and the
# gates prove what that structure promises: no key's count moves with
# another key's traffic, a key lives as long as its window, the merged
# alert stream is invariant at 1/2/4/7 shards on a 10,000-caller
# window and over random populations (the sharded verdicts equal the
# single engine's), and past the byte cap whole keys are evicted in a
# deterministic order, counted, never raising a false alert. The
# 100k-dialog release soak (tests/soak.rs) then holds the sketches
# byte-for-byte constant and the threshold table live, under its 2 MiB
# cap and eviction-free, and exp_capacity regenerates
# BENCH_capacity.json through the 4-shard deployment, failing the run
# unless rate state and the fold plane stay under the cap on every rung
# of the 10k -> 1M dialog ladder.
# Beside the suite: the allocation regression gate
# (crates/bench/tests/alloc_budget.rs) runs under the counting
# allocator feature; the bench smoke runs every criterion routine once
# so the benchmarks cannot silently rot; exp_observe_overhead fails the
# run if observation at default settings costs more than 5% of pipeline
# throughput (artifact: results/observability_overhead.txt); the
# rule_matching bench fails the run unless compiled dispatch beats the
# full scan by at least 5x at 128 padding rules (artifacts:
# BENCH_rules.json, results/rule_dispatch.txt); exp_pipeline
# regenerates BENCH_pipeline.json, failing the run unless the fast
# distiller beats the reference parser by at least 2x (artifact:
# results/pipeline_stages.txt); a structural check keeps protocol
# modules from importing siblings (DESIGN SS12); and the .scid compile
# gate (dsl_rules --check) denies warnings on every shipped rule file.
# Last, the repo benchmark (benchmark/, its own workspace) runs its
# generator/contract self-tests and its --quick pass, which exits
# non-zero if any workload reports failed > 0 (a missed or late
# detection, an unexplained Critical, a sharded/inline difference).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests (whole workspace) =="
cargo test -q --workspace

echo "== allocation budget (counting allocator) =="
cargo test -q -p scidive-bench --features count-allocs --test alloc_budget

echo "== clippy (deny warnings + alloc-discipline lints) =="
cargo clippy --workspace --all-targets -- \
  -D warnings \
  -D clippy::redundant_clone \
  -D clippy::inefficient_to_string \
  -D clippy::format_collect

echo "== bench smoke (one iteration per routine) =="
cargo bench -q -- --test

echo "== observability overhead gate (<= 5%) =="
cargo run --release -q -p scidive-bench --bin exp_observe_overhead -- --gate 5

echo "== rule dispatch regression gate (>= 5x at 128 rules) =="
cargo bench -q -p scidive-bench --bench rule_matching -- --gate 5

echo "== clippy: scidive-core standalone (deny warnings) =="
cargo clippy -p scidive-core -- -D warnings

echo "== protocol-module isolation (no sibling imports) =="
violations=0
for f in crates/core/src/proto/*.rs; do
  base=$(basename "$f" .rs)
  [ "$base" = mod ] && continue
  for sib in acct mgcp other rtcp rtp sip; do
    [ "$sib" = "$base" ] && continue
    if grep -nE "(proto::|super::|self::)${sib}\b" "$f"; then
      echo "sibling import: $f reaches into '$sib'" >&2
      violations=1
    fi
  done
done
[ "$violations" -eq 0 ] || { echo "protocol modules must not import siblings" >&2; exit 1; }

echo "== operator .scid compile gate (deny warnings) =="
cargo run -q --example dsl_rules -- --check

echo "== million-session soak, short profile (100k dialogs, release) =="
SCIDIVE_SOAK_DIALOGS=100000 cargo test --release -q --test soak

echo "== capacity ladder gate (BENCH_capacity.json regeneration, 4-shard fold plane) =="
cargo run --release -q -p scidive-bench --bin exp_capacity -- --gate --shards 4
git diff --stat -- BENCH_capacity.json || true

echo "== distiller speedup gate (fast parse >= 2x reference) =="
cargo run --release -q -p scidive-bench --bin exp_pipeline -- --gate 2.0
git diff --stat -- BENCH_pipeline.json || true

echo "== repo benchmark: generator and contract self-tests =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== repo benchmark: quick pass (non-zero exit on failed > 0) =="
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick

echo "CI green."
