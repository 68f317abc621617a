#!/usr/bin/env bash
# CI gate: release build, full workspace test suite, lint wall, bench
# smoke, the remaining measured gates and the repo benchmark.
#
# `cargo test --workspace` is the whole differential harness in one
# run, and a green run proves the parallel deployment is byte-identical
# to the single engine:
#   - the sharded pipeline at 1/2/4 shards, batching and backpressure
#     (tests/shard_equivalence.rs, tests/shard_batching.rs,
#     tests/online_mode.rs, the crates/core property tests);
#   - rule dispatch against the full scan
#     (tests/rule_dispatch_equivalence.rs), the protocol registry with
#     the MGCP fifth protocol (tests/proto_registry_equivalence.rs) and
#     hot reload (tests/ruleset_swap.rs);
#   - the DSL golden diagnostics and properties, the SWAR-vs-reference
#     SIP parser and sniffer proptests, the leak plateau (tests/chaos.rs)
#     and every crate's unit tests;
#   - idle expiry: every session store (trails, media index and key
#     memos, session plane, RTP flow history, identity bindings, rule
#     state) is one IdleMap (crates/core/src/idle.rs), whose deadline
#     queue leaves, after every insert/get/remove, exactly the entries,
#     values and expired/evicted counts of a naive map that retains on
#     every access (the map oracle among idle.rs's unit tests: at most
#     8 keys, timestamps stepping back, idle timeouts of 0, 1 us and
#     random, caps of 1 to 5); the trail store still matches its own
#     retain-every-insert model, and an SSRC-minting flood beside a real
#     call keeps the RTP flow history within twice rate x timeout, at
#     one engine and at 4 shards, while the forged BYE is still caught
#     (tests/chaos.rs);
#   - the rate gates (DESIGN SS13, SS15): every rate clause is decided
#     by one exact, capped per-key table -- the identity plane's REGISTER
#     flood and password guessing (equal to a naive per-key oracle in
#     the core property tests; silent on 1,024 once-authenticating
#     sources and one alert per flooder in a churning crowd, at 1/2/4
#     shards, in tests/rate_equivalence.rs) and the threshold clauses in
#     the engine and in the fold plane -- so no key's count moves with
#     another key's traffic, the merged stream is invariant at 1/2/4/7
#     shards on a 10,000-caller window, and past the byte cap
#     observations are evicted in a deterministic, counted order (an
#     outsized key is trimmed, keeping its latch, before whole keys go).
# Beside the suite:
#   - the paper's numbers: the seven experiment binaries rewrite
#     results/exp_*.json (Table 1, false and missed alarms, delay,
#     cooperative detection and the two ablations), and the step fails
#     unless every file is byte-identical to the committed one; Table 1
#     runs with --trace and its stdout must equal
#     results/exp_table1_figures.txt, the one artefact holding full alert
#     text (the other .txt renderings and the timing artefacts are not
#     gated);
#   - the allocation regression gate (crates/bench/tests/alloc_budget.rs)
#     under the counting allocator feature: RTP-heavy testbed captures
#     and a signalling-only synthetic load;
#   - the bench smoke runs every criterion routine once, so the
#     benchmarks cannot silently rot;
#   - exp_observe_overhead fails the run if observation at default
#     settings costs more than 5% of pipeline throughput;
#   - the rule_matching bench fails the run unless compiled dispatch
#     beats the full scan by at least 5x at 128 padding rules;
#     with --gate both print their tables and write nothing, so their
#     artifacts (results/observability_overhead.txt, BENCH_rules.json,
#     results/rule_dispatch.txt) are regenerated only by a manual run
#     without --gate;
#   - a structural check keeps protocol modules from importing siblings
#     (DESIGN SS12), another keeps hand-rolled expiry sweeps out of
#     crates/core/src (idle expiry lives only in the IdleMap), a third
#     keeps footprint retention out of it (a trail is a session summary;
#     no `Arc<Footprint>` may hold a footprint past its frame), a fourth
#     keeps hand-built synchronisation out of it (no `Condvar`, no
#     atomic fence: queues and parking come from std's channels), and
#     the .scid compile gate (dsl_rules --check) denies warnings on
#     every shipped rule file;
#   - the 100k-dialog release soak (tests/soak.rs) holds the identity
#     plane's tables and the threshold table of one engine and of the
#     4-shard fold plane live, under their 2 MiB cap and eviction-free,
#     with every session gauge on a plateau and no trail evicted at the
#     live-trail cap.
# Last, the repo benchmark (benchmark/, its own workspace) runs its
# generator/contract self-tests and its --quick pass, which exits
# non-zero if any workload reports failed > 0 (a missed or late
# detection, an unexplained Critical, a sharded/inline difference). It
# is the one performance instrument: end to end and per layer (distill,
# trail, event, rules, rate, shard) on the same input.
# A green run leaves the working tree as it found it: the script records
# `git status --porcelain` (and a checksum of `git diff`, so a further
# edit to an already-modified file counts too) first, and fails at the
# end if either changed.
set -euo pipefail
cd "$(dirname "$0")/.."

tree_state() { git status --porcelain; git diff | cksum; }
tree_before=$(tree_state)

echo "== build (release) =="
cargo build --release

echo "== tests (whole workspace) =="
cargo test -q --workspace

echo "== paper results regenerate byte-identically (results/exp_*.json, Table 1 figures) =="
cargo run --release -q -p scidive-bench --bin exp_table1 -- --trace \
  | diff - results/exp_table1_figures.txt
for exp in exp_false_alarm exp_missed_alarm exp_delay exp_cooperative \
           exp_crossproto_ablation exp_stateful_ablation; do
  cargo run --release -q -p scidive-bench --bin "$exp" > /dev/null
done
git diff --exit-code -- 'results/*.json'

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

echo "== one expiry implementation (no hand-rolled sweeps) =="
if grep -rn 'last_sweep\|maybe_sweep' crates/core/src; then
  echo "idle expiry belongs to crates/core/src/idle.rs, not to a private sweep" >&2
  exit 1
fi

echo "== trails are summaries (no retained footprints) =="
if grep -rnE '(Arc|Rc)<[[:space:]]*([a-z_]+::)*Footprint[[:space:]]*>' crates/core/src; then
  echo "a footprint lives for its own frame only: trails count footprints, they do not retain them" >&2
  exit 1
fi

echo "== synchronisation comes from std (no hand-built queues or parking) =="
if grep -rnE 'Condvar|atomic::fence|fence\(' crates/core/src; then
  echo "shard queues are std::sync::mpsc channels: no Condvar or atomic fence in crates/core/src" >&2
  exit 1
fi

echo "== operator .scid compile gate (deny warnings) =="
cargo run -q --example dsl_rules -- --check

echo "== soak, short profile (100k dialogs, release; single engine and 4-shard fold plane) =="
SCIDIVE_SOAK_DIALOGS=100000 cargo test --release -q --test soak

echo "== repo benchmark: generator and contract self-tests =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== repo benchmark: quick pass (non-zero exit on failed > 0) =="
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick

echo "== the run left the working tree as it found it =="
if [ "$(tree_state)" != "$tree_before" ]; then
  echo "ci.sh changed the working tree (before, then after):" >&2
  diff <(echo "$tree_before") <(tree_state) >&2 || true
  exit 1
fi

echo "CI green."
