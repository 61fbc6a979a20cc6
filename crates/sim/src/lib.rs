//! s2-sim: deterministic crash-recovery and fault-injection harness for the
//! commit / upload / restore path.
//!
//! The paper's durability contract (§3, §3.1): a commit is durable once in
//! the local replicated WAL; blob uploads happen asynchronously and only
//! below the fully-durable-and-replicated position; the blob store doubles
//! as a continuous backup enabling point-in-time restore (§3.2). This crate
//! stress-tests those claims under adversity:
//!
//! - [`plan::FaultPlan`] drives the engine's named injection sites
//!   (`wal.append`, `wal.sync`, `core.commit.log`, `core.flush.*`,
//!   `core.merge.*`, `blob.put`, `blob.get`, `blob.uploader.attempt`,
//!   `storage.snapshot.put`, `pitr.restore`) from a seed: torn writes,
//!   dropped fsyncs, blob failures, and hard kill points.
//! - [`scenario::run_scenario`] executes a randomized workload (inserts,
//!   updates, deletes, unique-key reads) interleaved with crashes, reopens
//!   the engine over the surviving bytes, and checks invariants against a
//!   `BTreeMap` oracle — including replica failover convergence and PITR to
//!   every captured position.
//! - [`runner::run_many`] sweeps seed ranges; every failure prints the seed
//!   and kill-point trace, and the same seed replays the identical trace.
//! - [`outage::run_outage_scenario`] drills the blob-resilience layer:
//!   transient error bursts, a sustained 100% outage, and a latency spike,
//!   checking that commits keep acknowledging, cold reads fail fast within
//!   their budget, and the upload backlog fully drains (blob/local
//!   convergence) after recovery.
//!
//! Run it: `cargo run -p s2-sim -- --seed 42 --scenarios 200`, or
//! `cargo run -p s2-sim -- --scenario outage --seed 7 --scenarios 10`.

pub mod oracle;
pub mod outage;
pub mod plan;
pub mod runner;
pub mod scenario;
pub mod sqlgen;
pub mod storage;
pub mod workspace;

pub use oracle::{Model, Oracle};
pub use outage::{
    run_outage_many, run_outage_scenario, OutageReport, OutageSummary, OUTAGE_PARTITION,
};
pub use plan::{FaultPlan, SiteConfig};
pub use runner::{run_group_many, run_many, RunSummary};
pub use scenario::{
    harness_lock, install_quiet_panic_hook, run_group_scenario, run_scenario, ScenarioReport,
    Violation, PARTITION,
};
pub use sqlgen::{run_sql_many, SqlSummary};
pub use storage::{BlobReadFileStore, SimFileStore};
pub use workspace::{
    run_workspace_many, run_workspace_scenario, WorkspaceReport, WorkspaceSummary, WORKSPACE_DB,
};
