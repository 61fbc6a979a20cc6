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
//! - [`drill`] is the one framework every scenario runs on: a drill is a
//!   seeded setup, then phases that each scope their own fault plan, then
//!   checks against an oracle; [`sweep`] runs one over a seed range, and
//!   every failure prints the seed and a trace the same seed replays.
//! - [`DRILLS`] is the table `--scenario` picks from. `crash` runs a
//!   randomized workload (inserts, updates, deletes, unique-key reads)
//!   interleaved with crashes, reopens the engine over the surviving bytes
//!   and checks it against a `BTreeMap` [`Oracle`] — including replica
//!   failover convergence and PITR to every captured position; `group` is
//!   the same with the group-commit kill points boosted; `outage` drills
//!   the blob-resilience layer (transient bursts, a sustained 100% outage,
//!   a latency spike, full backlog drain); `workspace` drills elastic
//!   workspace fleets under kill points and a blob outage; `sql` checks
//!   generated queries cell by cell against a plain-Rust oracle.
//!
//! Run it: `cargo run -p s2-sim -- --seed 42 --scenarios 200`, or
//! `cargo run -p s2-sim -- --scenario outage --seed 7 --scenarios 10`.

mod crash;
pub mod drill;
mod kv;
pub mod oracle;
mod outage;
pub mod plan;
mod sql;
pub mod storage;
mod workspace;

pub use drill::{
    drill, harness_lock, install_quiet_panic_hook, sweep, Agg, Counter, Drill, Harness, Report,
    Summary, Violation, DRILLS,
};
pub use oracle::{Model, Oracle};
pub use plan::{FaultPlan, SiteConfig};
pub use storage::{BlobReadFileStore, SimFileStore};
