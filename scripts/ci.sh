#!/usr/bin/env bash
# Repo CI gate. Offline-friendly: every dependency is a workspace path dep
# (see crates/shims/), so no network access is needed. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pass --offline everywhere so a machine without registry access (the normal
# case for this repo) never stalls on an index update.
CARGO_FLAGS=(--offline)

echo "== fmt =="
cargo fmt --all -- --check

echo "== analyze =="
# Workspace analyzer (crates/analyze): per-line rules R1, R2, R4-R6
# (wall-clock, unwrap, SAFETY comments, metric-name style, raw std::sync
# locks) plus the interprocedural checks L1-L4 (static lock-order over
# the call graph, blocking-while-commit-lock-held, failpoint coverage of
# WAL/blob mutation sites, metric registry <-> DESIGN.md sync). One line
# per finding, JSON copy in target/lint.json, nonzero exit on any;
# `cargo run -p s2-lint -- --explain <ID>` documents each rule.
cargo run -q -p s2-lint "${CARGO_FLAGS[@]}" -- --json target/lint.json

echo "== clippy =="
cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

echo "== tier-1: release build + root tests =="
cargo build --release "${CARGO_FLAGS[@]}"
cargo test -q "${CARGO_FLAGS[@]}"

echo "== workspace tests =="
# s2-sim's own suite runs in the `== sim ==` stage below.
cargo test -q --workspace --exclude s2-sim "${CARGO_FLAGS[@]}"

echo "== parallel scan: tier-1 at 1 and 8 scan threads =="
# The morsel executor must be invisible to correctness: the whole tier-1
# suite runs pinned serial and heavily oversubscribed, and the s2-exec
# tests additionally race each other across 8 test threads.
S2_SCAN_THREADS=1 cargo test -q "${CARGO_FLAGS[@]}"
S2_SCAN_THREADS=8 cargo test -q "${CARGO_FLAGS[@]}"
cargo test -q -p s2-exec "${CARGO_FLAGS[@]}" -- --test-threads=8

echo "== sim =="
# Every drill of the s2-sim table, seeded: crash (kill points over the
# commit/upload/restore path, replica failover, PITR), group (the same with
# the wal.group.* kill points boosted 4x), outage (transient bursts, a
# sustained 100% blob outage, a latency spike, full backlog drain),
# workspace (fleet churn with kill points, a blob outage, convergence to
# the primary) and sql (generated queries vs a plain-Rust oracle). A
# failure prints `--scenario NAME --seed N --scenarios 1`, which replays the
# same trace — record it in EXPERIMENTS.md ("Sim failure seeds") with the
# commit hash before fixing.
cargo test -q -p s2-sim "${CARGO_FLAGS[@]}"
for drill in crash:200 group:30 outage:25 workspace:25 sql:12; do
    cargo run -p s2-sim --release "${CARGO_FLAGS[@]}" -- \
        --scenario "${drill%:*}" --seed 42 --scenarios "${drill#*:}"
done

echo "== workspace: elastic fleets + crash recovery =="
# Workspace provisioning, detach and fleet catch-up against a live cluster.
cargo test -q -p s2-cluster --test workspace "${CARGO_FLAGS[@]}"
# Crash recovery must be byte-identical to streaming the same log through
# the replica tail-apply path; its index build (from the segments' inverted
# indexes, no row decoded) must probe like the row-based reference builder;
# replay must read each surviving data file once and a dropped one never;
# and a reader parked against a flush, merge or replica apply at the
# `core.publish` site must see every acked row exactly once.
cargo test -q -p s2-core --test recovery_parallel --test index_build --test recovery_files \
    --test publish "${CARGO_FLAGS[@]}"

echo "== tpcc: group-commit pipeline (contended smoke) =="
# Contended TPC-C over a sync-replicated cluster: TPC-C consistency under
# 8 racing terminals plus the fsyncs-strictly-under-commits batching check.
cargo test -q --release --test tpcc_contended "${CARGO_FLAGS[@]}"
# Randomized committer interleavings: acked ⇒ durable, monotonic commit
# timestamps, recovered state == model with one Commit frame per commit.
cargo test -q --release -p s2-core --test group_commit "${CARGO_FLAGS[@]}"

echo "== sql: planner suites + bench equivalence =="
# The SQL front end's contract: parser total + round-trip (proptests),
# planner pushdown/pruning/cost tests, and every TPC-H/CH bench query's SQL
# form byte-identical to its hand-built plan.
cargo test -q -p s2-sql "${CARGO_FLAGS[@]}"
cargo test -q -p s2-workloads --test sql_equivalence "${CARGO_FLAGS[@]}"

echo "== encoded: domain-execution equivalence =="
# Encoded-domain execution's contract: over randomized multi-segment tables
# (every encoding x NULLs x deletes) a filtered scan equals an unfiltered
# scan + scalar filter, the fused scan+aggregate equals scan +
# hash_aggregate, and flushing the rowstore tail changes no outcome.
cargo test -q -p s2-exec --test encoded_equivalence "${CARGO_FLAGS[@]}"

echo "== operators =="
# The typed join / aggregate / sort / filter / project operators against the
# row-at-a-time Value reference model kept in the test (byte-identical rows,
# row and group order included), and threads=1 vs 8 equality of join,
# aggregate and sort plans — also raced across 8 test threads and with the
# process-wide scan pool pinned serial and oversubscribed.
cargo test -q -p s2-exec --test operator_equivalence --test parallel_scan "${CARGO_FLAGS[@]}"
cargo test -q -p s2-exec --test operator_equivalence --test parallel_scan "${CARGO_FLAGS[@]}" \
    -- --test-threads=8
for threads in 1 8; do
    S2_SCAN_THREADS=$threads cargo test -q -p s2-exec --test operator_equivalence \
        --test parallel_scan "${CARGO_FLAGS[@]}"
done

echo "== ledger =="
# ledger/ is its own workspace, so `cargo test --workspace` never compiles
# it: this is the check that the perf driver still builds and passes against
# the engine's public API. `ledger compare` is the perf comparator.
cargo test "${CARGO_FLAGS[@]}" --manifest-path ledger/Cargo.toml

echo "CI green."
