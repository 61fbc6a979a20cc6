//! The crash and group drills: a seed-driven randomized workload over a
//! full engine stack (partition + WAL + replica + blob storage service),
//! interleaved with injected faults and crashes, checked after every
//! recovery against the [`Oracle`] model. `group` is the same drill with the
//! `wal.group.*` kill points firing at 4x their usual rate.
//!
//! A drill is a pure function of its seed. Workload choices, fault
//! decisions, torn-tail shapes — everything draws from seeded PRNG streams,
//! and every fault site is armed for the drill's own thread only, so the
//! trace (the fault plan's kill-point decisions) replays byte for byte.
//!
//! Invariants checked (after every crash recovery, and again at the end):
//! - every acknowledged commit survives (acked_lp ≤ surviving log prefix);
//! - no unacknowledged/aborted write is visible (state == model at the
//!   surviving position);
//! - the unique index, delete bit-vectors, and live row counts agree with
//!   the table contents;
//! - blob history never runs ahead of the surviving timeline (uploaded ≤
//!   survivor position);
//! - a fresh replica fed the whole stream converges to master state;
//! - PITR to every captured position reproduces the model state of record.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_blob::{FaultyStore, MemoryStore, ObjectStore};
use s2_cluster::{
    empty_replica_partition, find_snapshot, max_uploaded_lp, restore_from_blob, StorageConfig,
    StorageService, StreamApplier,
};
use s2_common::fault::CrashPoint;
use s2_common::{LogPosition, Value};
use s2_core::{DataFileStore, Partition};
use s2_wal::{valid_prefix_len, Log, LogChunk};

use crate::drill::{Agg::Sum, Harness, Report};
use crate::kv::{self, engine_state, with_plan, TableTxn};
use crate::oracle::{Model, Oracle};
use crate::plan::FaultPlan;
use crate::storage::{BlobReadFileStore, SimFileStore};

/// Partition name used by every crash drill.
const PARTITION: &str = "sim_p0";

/// A synchronously-driven replica: the harness pumps its stream explicitly
/// (no background thread), so crash/ack interleavings are deterministic.
struct SyncReplica {
    partition: Arc<Partition>,
    applier: StreamApplier,
    rx: Receiver<LogChunk>,
}

struct Engine {
    master: Arc<Partition>,
    files: Arc<SimFileStore>,
    blob: Arc<dyn ObjectStore>,
    table: u32,
    key_space: i64,
    replica: Option<SyncReplica>,
    last_snap: Arc<AtomicU64>,
    cfg: StorageConfig,
    /// `(log position, model)` states that were fully uploaded to blob —
    /// the PITR targets.
    captures: Vec<(LogPosition, Model)>,
    temp_dir: PathBuf,
    restarts: u32,
    /// Segments reclaimed by vacuum so far (file deletions may have
    /// happened only if this is non-zero).
    vacuumed: usize,
    commits: u64,
}

enum RecErr {
    /// Transient (injected) failure during recovery: restart the restart.
    Retry(String),
    /// Invariant violation.
    Violation(String),
}

/// The crash drill.
pub fn crash(seed: u64, h: &mut Harness) -> Result<Report, String> {
    run(seed, h, 1.0)
}

/// The group-commit crash drill: the `wal.group.*` crash sites fire at 4x
/// their usual rate.
pub fn group(seed: u64, h: &mut Harness) -> Result<Report, String> {
    run(seed, h, 4.0)
}

fn run(seed: u64, h: &mut Harness, group_boost: f64) -> Result<Report, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_5353_494d_5531);
    let replica_mode = rng.random_bool(0.5);
    let steps = rng.random_range(40..90_usize);
    let key_space: i64 = rng.random_range(8..48);
    let cfg = StorageConfig {
        require_replicated: replica_mode,
        ..kv::storage_config(&mut rng, 200..2000)
    };

    // Engine setup runs un-instrumented: the CreateTable record and its sync
    // are the fixed starting point of every timeline.
    let blob: Arc<dyn ObjectStore> =
        Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    let files = Arc::new(SimFileStore::new());
    let master = Partition::new(
        PARTITION,
        Arc::new(Log::in_memory()),
        Arc::clone(&files) as Arc<dyn DataFileStore>,
    );
    let (schema, options) = kv::table(&mut rng, 4..16, 4..24)?;
    let table =
        master.create_table("t", schema, options).map_err(|e| format!("create_table: {e}"))?;
    master.log.sync().map_err(|e| format!("setup sync: {e}"))?;

    let mut engine = Engine {
        master,
        files,
        blob,
        table,
        key_space,
        replica: None,
        last_snap: Arc::new(AtomicU64::new(0)),
        cfg,
        captures: Vec::new(),
        temp_dir: std::env::temp_dir().join(format!("s2sim-{}-{seed:016x}", std::process::id())),
        restarts: 0,
        vacuumed: 0,
        commits: 0,
    };
    if replica_mode {
        engine.replica = Some(new_sync_replica(&engine.master, &engine.files)?);
    }

    let mut oracle = Oracle::new();
    oracle.ack_up_to(engine.master.log.durable_lp());
    with_plan(build_plan(seed, &mut rng, group_boost), |plan| {
        let outcome = drive(&mut engine, &mut oracle, &mut rng, plan, steps);
        h.trace = plan.trace();
        let (crashes, recoveries, pitr_checks) = outcome?;
        let _ = std::fs::remove_dir_all(&engine.temp_dir);
        Ok(h.report(vec![
            ("replicated", Sum, u64::from(replica_mode)),
            ("commits", Sum, engine.commits),
            ("crashes", Sum, crashes),
            ("recoveries", Sum, recoveries),
            ("injected_errors", Sum, plan.error_count()),
            ("pitr_checks", Sum, pitr_checks),
        ]))
    })
}

/// The seeded steps, each caught at its boundary so a kill point becomes a
/// crash + recovery, then the quiet finale. Returns the crashes, recoveries
/// and PITR restores verified.
fn drive(
    e: &mut Engine,
    o: &mut Oracle,
    rng: &mut StdRng,
    plan: &FaultPlan,
    steps: usize,
) -> Result<(u64, u64, u64), String> {
    let (mut crashes, mut recoveries, mut pitr_checks) = (0, 0, 0);
    for _ in 0..steps {
        match catch_unwind(AssertUnwindSafe(|| do_step(e, o, rng, plan))) {
            Ok(checks) => pitr_checks += checks?,
            Err(payload) if payload.downcast_ref::<CrashPoint>().is_some() => {
                crashes += 1;
                recover_after_crash(e, o, rng, plan)?;
                recoveries += 1;
            }
            Err(payload) => return Err(format!("unexpected panic: {}", panic_message(&payload))),
        }
    }
    plan.set_quiet(true);
    Ok((crashes, recoveries, pitr_checks + finale(e, o)?))
}

fn build_plan(seed: u64, rng: &mut StdRng, group_boost: f64) -> FaultPlan {
    let mut p = FaultPlan::new(seed);
    let s: f64 = rng.random_range(0.5..1.5);
    // Group-commit pipeline kill points: leader about to append the drained
    // batch, batch appended but not yet synced, and batch durable but
    // leadership not yet handed off. Crash-only — the sites sit on a path
    // where an error return would wedge parked followers.
    p.site("wal.group.append", 0.0, 0.012 * s * group_boost);
    p.site("wal.group.sync", 0.0, 0.012 * s * group_boost);
    p.site("wal.group.handoff", 0.0, 0.012 * s * group_boost);
    p.site("wal.append", 0.0, 0.012 * s);
    p.site("wal.sync", 0.04 * s, 0.012 * s);
    p.site("core.commit.log", 0.0, 0.012 * s);
    p.site("core.flush.write_files", 0.0, 0.04 * s);
    p.site("core.flush.log", 0.0, 0.04 * s);
    p.site("core.merge.write_files", 0.04 * s, 0.03 * s);
    p.site("core.merge.log", 0.0, 0.03 * s);
    p.site("blob.put", 0.08 * s, 0.015 * s);
    p.site("blob.get", 0.05 * s, 0.0);
    p.site("storage.snapshot.put", 0.0, 0.08 * s);
    p.site("pitr.restore", 0.10 * s, 0.0);
    p
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn injected(e: &s2_common::Error) -> bool {
    matches!(e, s2_common::Error::Unavailable(_))
}

// ---------------------------------------------------------------- workload

/// One workload step. Returns the number of PITR checks performed (probe
/// steps verify restores inline).
fn do_step(
    e: &mut Engine,
    o: &mut Oracle,
    rng: &mut StdRng,
    plan: &FaultPlan,
) -> Result<u64, String> {
    let roll: u32 = rng.random_range(0..100);
    match roll {
        0..=44 => {
            let commit = rng.random_bool(0.9);
            step_txn(e, o, rng, commit)?;
        }
        45..=51 => step_txn(e, o, rng, false)?,
        52..=61 => {
            let force = rng.random_bool(0.5);
            e.master.flush_table(e.table, force).map_err(|er| format!("flush failed: {er}"))?;
        }
        62..=68 => match e.master.merge_table(e.table) {
            Ok(_) => {}
            Err(er) if injected(&er) => {}
            Err(er) => return Err(format!("merge failed: {er}")),
        },
        69..=73 => {
            if e.replica.is_none() {
                // Replica drills retain all files: a new replica streams
                // the log from position 0, so file GC (snapshot-provisioned
                // replicas) is out of scope there.
                let (segs, _) = e.master.vacuum().map_err(|er| format!("vacuum failed: {er}"))?;
                e.vacuumed += segs;
            } else {
                step_upload(e)?;
            }
        }
        74..=83 => step_upload(e)?,
        84..=89 => {
            if e.replica.is_some() {
                let applied = drain_replica(e)?;
                o.ack_up_to(applied);
            } else {
                match e.master.log.sync() {
                    Ok(durable) => o.ack_up_to(durable),
                    Err(er) if injected(&er) => {}
                    Err(er) => return Err(format!("sync failed: {er}")),
                }
            }
        }
        90..=94 => {
            if e.captures.len() < 3 {
                plan.set_quiet(true);
                let res = step_capture(e, o);
                plan.set_quiet(false);
                res?;
            } else {
                step_txn(e, o, rng, true)?;
            }
        }
        _ => return step_pitr_probe(e, rng),
    }
    Ok(0)
}

fn step_txn(e: &mut Engine, o: &mut Oracle, rng: &mut StdRng, commit: bool) -> Result<(), String> {
    let mut txn = e.master.begin();
    let scratch = kv::gen_txn(rng, e.key_space, &o.model, &mut TableTxn(&mut txn, e.table))?;
    if !commit {
        txn.rollback();
        return Ok(());
    }
    // Stash the would-be post-commit state before calling into the engine:
    // a kill point can fire after the group-commit leader made the record
    // durable but before `commit()` returns, so the record may survive
    // recovery even though this call never completes. Recovery reconciles
    // against the stash (durable-but-unacknowledged is legal).
    o.pending = Some(scratch.clone());
    let (_ts, end_lp) = match txn.commit() {
        Ok(v) => v,
        Err(er) => {
            o.pending = None;
            return Err(format!("commit failed: {er}"));
        }
    };
    o.pending = None;
    o.record_commit(end_lp, scratch);
    e.commits += 1;
    // Only acknowledged commits are required to survive a crash.
    if e.replica.is_some() {
        // Replica-mode acks only come from replica application: the failover
        // survivor is the replica's applied prefix, so local durability
        // (which group commit provides on every return) never acks here.
        if rng.random_bool(0.6) {
            let applied = drain_replica(e)?;
            o.ack_up_to(applied);
        }
    } else {
        // `commit()` returned ⇒ the leader's fsync covered this record: the
        // commit is acknowledged-durable the moment it returns. Any crash
        // after this point that loses the record is a violation.
        o.ack_up_to(end_lp);
    }
    Ok(())
}

fn step_upload(e: &mut Engine) -> Result<(), String> {
    match StorageService::pass(&e.master, &e.blob, &e.cfg, &e.last_snap) {
        Ok(()) => {}
        Err(er) if injected(&er) => {}
        Err(er) => return Err(format!("storage pass failed: {er}")),
    }
    match e.files.upload_pending(&e.blob) {
        Ok(_) => {}
        Err(er) if injected(&er) => {}
        Err(er) => return Err(format!("file upload failed: {er}")),
    }
    Ok(())
}

/// Pump the replica stream dry and acknowledge the applied position back to
/// the master (the replica "acks" what it has applied).
fn drain_replica(e: &mut Engine) -> Result<LogPosition, String> {
    let Some(sr) = e.replica.as_mut() else { return Ok(0) };
    while let Ok(chunk) = sr.rx.try_recv() {
        sr.applier
            .feed(&sr.partition, &chunk)
            .map_err(|er| format!("replica apply failed: {er}"))?;
    }
    let applied = sr.applier.applied_lp();
    e.master.log.set_replicated_lp(applied);
    Ok(applied)
}

fn new_sync_replica(
    master: &Arc<Partition>,
    files: &Arc<SimFileStore>,
) -> Result<SyncReplica, String> {
    let (backlog, rx, _) = master.log.subscribe(0).map_err(|er| format!("subscribe: {er}"))?;
    let partition =
        empty_replica_partition(PARTITION, Arc::clone(files) as Arc<dyn DataFileStore>, 0);
    let mut applier = StreamApplier::new(0);
    if !backlog.bytes.is_empty() {
        applier
            .feed(&partition, &backlog)
            .map_err(|er| format!("replica backlog apply failed: {er}"))?;
    }
    master.log.set_replicated_lp(applier.applied_lp());
    Ok(SyncReplica { partition, applier, rx })
}

/// Fully upload log + files + (eventually) a snapshot, then record the
/// current state as a PITR target. Runs quiet (caller's responsibility).
fn step_capture(e: &mut Engine, o: &mut Oracle) -> Result<(), String> {
    full_upload(e)?;
    let end = e.master.log.end_lp();
    o.ack_up_to(end);
    if e.captures.last().map(|(lp, _)| *lp) != Some(end) {
        e.captures.push((end, o.model.clone()));
    }
    Ok(())
}

/// Drive uploads until blob storage covers the entire log and every data
/// file. Must run with injection quiet.
fn full_upload(e: &mut Engine) -> Result<(), String> {
    for _ in 0..10 {
        if e.replica.is_some() {
            drain_replica(e)?;
        }
        StorageService::pass(&e.master, &e.blob, &e.cfg, &e.last_snap)
            .map_err(|er| format!("storage pass (quiet) failed: {er}"))?;
        e.files
            .upload_pending(&e.blob)
            .map_err(|er| format!("file upload (quiet) failed: {er}"))?;
        if e.master.log.uploaded_lp() == e.master.log.end_lp() && e.files.pending_uploads() == 0 {
            return Ok(());
        }
    }
    Err("full upload did not converge with injection quiet".to_string())
}

/// Restore to a random captured position mid-run and diff against the
/// captured model. Injected blob faults are retried a few times.
fn step_pitr_probe(e: &Engine, rng: &mut StdRng) -> Result<u64, String> {
    if e.captures.is_empty() {
        return Ok(0);
    }
    let idx: usize = rng.random_range(0..e.captures.len());
    let (lp, model) = &e.captures[idx];
    for _ in 0..6 {
        let fs: Arc<dyn DataFileStore> = Arc::new(BlobReadFileStore::new(Arc::clone(&e.blob)));
        match restore_from_blob(&e.blob, PARTITION, fs, Some(*lp)) {
            Ok(rp) => {
                let (state, _) = engine_state(&rp, e.table)?;
                if &state != model {
                    return Err(format!(
                        "PITR divergence at lp {lp}: restored {} keys, expected {}",
                        state.len(),
                        model.len()
                    ));
                }
                return Ok(1);
            }
            Err(er) if er.is_retryable() => continue,
            Err(er) => return Err(format!("PITR restore to {lp} failed: {er}")),
        }
    }
    Ok(0) // persistently unavailable (injected) — tolerated
}

// ---------------------------------------------------------------- recovery

fn recover_after_crash(
    e: &mut Engine,
    o: &mut Oracle,
    rng: &mut StdRng,
    plan: &FaultPlan,
) -> Result<(), String> {
    if e.replica.is_some() {
        // Failover machinery is the environment, not the system under test:
        // run it quiet so promotion always completes.
        plan.set_quiet(true);
        let res = promote(e, o);
        plan.set_quiet(false);
        res?;
        reconcile_pending(e, o)?;
        return check_invariants(e, o);
    }
    // A single node restarts over its surviving bytes. Faults can strike
    // again *during* recovery; each attempt redraws, the last runs quiet.
    let mut last_retry = String::new();
    for attempt in 0..8 {
        let quiet = attempt == 7;
        if quiet {
            plan.set_quiet(true);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| local_restart(e, o, rng, quiet)));
        if quiet {
            plan.set_quiet(false);
        }
        match outcome {
            Ok(Ok(())) => {
                reconcile_pending(e, o)?;
                return check_invariants(e, o);
            }
            Ok(Err(RecErr::Violation(m))) => return Err(m),
            Ok(Err(RecErr::Retry(reason))) => {
                last_retry = reason;
                continue;
            }
            Err(payload) if payload.downcast_ref::<CrashPoint>().is_some() => continue,
            Err(payload) => {
                return Err(format!(
                    "unexpected panic during recovery: {}",
                    panic_message(&payload)
                ))
            }
        }
    }
    Err(format!("recovery did not complete within its attempt budget (last: {last_retry})"))
}

/// Simulated node restart: surviving bytes are the durable prefix plus an
/// arbitrary (possibly corrupted) fragment of the unsynced tail — exactly
/// what a torn write leaves on disk. Mutates the engine/oracle only on
/// success.
fn local_restart(
    e: &mut Engine,
    o: &mut Oracle,
    rng: &mut StdRng,
    force_snapshot: bool,
) -> Result<(), RecErr> {
    let old_log = &e.master.log;
    let durable = old_log.durable_lp();
    let end = old_log.end_lp();
    let mut bytes = old_log
        .read_range(0, durable)
        .map_err(|er| RecErr::Violation(format!("reading durable prefix: {er}")))?;
    if end > durable && rng.random_bool(0.7) {
        let extra: u64 = rng.random_range(0..=(end - durable));
        if extra > 0 {
            let mut frag = old_log
                .read_range(durable, durable + extra)
                .map_err(|er| RecErr::Violation(format!("reading unsynced tail: {er}")))?;
            if rng.random_bool(0.25) {
                let i: usize = rng.random_range(0..frag.len());
                let bit: u32 = rng.random_range(0..8);
                frag[i] ^= 1u8 << bit;
            }
            bytes.extend_from_slice(&frag);
        }
    }
    let vp = valid_prefix_len(&bytes) as u64;
    if o.acked_lp > vp {
        return Err(RecErr::Violation(format!(
            "acknowledged commit lost: acked_lp {} > surviving prefix {vp}",
            o.acked_lp
        )));
    }

    // Rebuild the log over the survivors — half the time through a real
    // file and `Log::open` (exercising its torn-tail truncation), half
    // in-memory over the already-validated prefix.
    let log: Arc<Log> = if rng.random_bool(0.4) {
        std::fs::create_dir_all(&e.temp_dir)
            .map_err(|er| RecErr::Retry(format!("temp dir: {er}")))?;
        let path = e.temp_dir.join(format!("restart-{}.log", e.restarts));
        std::fs::write(&path, &bytes).map_err(|er| RecErr::Retry(format!("temp write: {er}")))?;
        let l = Log::open(&path)
            .map_err(|er| RecErr::Violation(format!("Log::open over torn file: {er}")))?;
        if l.end_lp() != vp {
            return Err(RecErr::Violation(format!(
                "Log::open recovered to {}, expected valid prefix {vp}",
                l.end_lp()
            )));
        }
        Arc::new(l)
    } else {
        let l = Log::in_memory();
        l.append_raw(&bytes[..vp as usize]);
        Arc::new(l)
    };
    match log.sync() {
        Ok(_) => {}
        Err(er) if er.is_retryable() => return Err(RecErr::Retry(format!("restart sync: {er}"))),
        Err(er) => return Err(RecErr::Violation(format!("restart sync: {er}"))),
    }

    let use_snapshot = force_snapshot || rng.random_bool(0.5);
    let snapshot = if use_snapshot {
        match find_snapshot(&e.blob, PARTITION, Some(vp)) {
            Ok(s) => s,
            Err(er) if er.is_retryable() => None, // blob fault: fall back to log-only replay
            Err(er) => return Err(RecErr::Violation(format!("find_snapshot: {er}"))),
        }
    } else {
        None
    };
    let fs: Arc<dyn DataFileStore> = Arc::clone(&e.files) as Arc<dyn DataFileStore>;
    let recovered =
        match Partition::recover(PARTITION, Arc::clone(&log), fs, snapshot.as_ref(), None) {
            Ok(p) => p,
            Err(s2_common::Error::NotFound(m)) if snapshot.is_none() && e.vacuumed > 0 => {
                // Vacuum deleted files only replay-from-snapshot can skip;
                // log-only replay legitimately needs the snapshot. Retry (the
                // final quiet attempt always takes the snapshot path).
                return Err(RecErr::Retry(format!("log-only replay needs snapshot: {m}")));
            }
            Err(er) => return Err(RecErr::Violation(format!("recovery failed: {er}"))),
        };

    match max_uploaded_lp(&e.blob, PARTITION) {
        Ok(up) => {
            if up > vp {
                return Err(RecErr::Violation(format!(
                    "blob log ({up}) ahead of surviving bytes ({vp}): unsafe upload"
                )));
            }
            log.mark_uploaded(up);
        }
        Err(er) if er.is_retryable() => {} // unknown watermark: chunks re-upload later
        Err(er) => return Err(RecErr::Violation(format!("max_uploaded_lp: {er}"))),
    }

    e.master = recovered;
    e.restarts += 1;
    o.rewind_to(vp);
    Ok(())
}

/// Replica failover: the surviving replica finishes applying its stream and
/// becomes the new master; a fresh replica re-attaches from position 0.
fn promote(e: &mut Engine, o: &mut Oracle) -> Result<(), String> {
    let SyncReplica { partition, mut applier, rx } =
        e.replica.take().expect("promote requires replica mode");
    while let Ok(chunk) = rx.try_recv() {
        applier
            .feed(&partition, &chunk)
            .map_err(|er| format!("replica apply during failover: {er}"))?;
    }
    drop(rx);
    let applied = applier.applied_lp();
    if o.acked_lp > applied {
        return Err(format!(
            "failover lost acknowledged commit: acked_lp {} > replica applied {applied}",
            o.acked_lp
        ));
    }
    partition.log.sync().map_err(|er| format!("sync on promoted log: {er}"))?;
    match max_uploaded_lp(&e.blob, PARTITION) {
        Ok(up) => {
            if up > applied {
                return Err(format!(
                    "blob log ({up}) ahead of replica applied ({applied}): unsafe upload"
                ));
            }
            partition.log.mark_uploaded(up);
        }
        Err(er) => return Err(format!("max_uploaded_lp during failover: {er}")),
    }
    e.master = partition;
    e.restarts += 1;
    o.rewind_to(applied);
    e.replica = Some(new_sync_replica(&e.master, &e.files)?);
    Ok(())
}

// -------------------------------------------------------------- invariants

fn diff_summary(engine: &Model, model: &Model) -> String {
    let only_engine: Vec<i64> =
        engine.keys().filter(|k| !model.contains_key(k)).copied().take(8).collect();
    let only_model: Vec<i64> =
        model.keys().filter(|k| !engine.contains_key(k)).copied().take(8).collect();
    let wrong: Vec<i64> = engine
        .iter()
        .filter(|(k, v)| model.get(k).is_some_and(|mv| mv != *v))
        .map(|(k, _)| *k)
        .take(8)
        .collect();
    format!(
        "engine-only keys {only_engine:?}, model-only keys {only_model:?}, wrong values {wrong:?}"
    )
}

/// Resolve a commit that was in flight when the crash struck. Its record
/// may have been made durable by the group leader (or shipped to the
/// replica) before `commit()` unwound — durable-but-unacknowledged, the
/// classic group-commit outcome. If the recovered state matches the
/// in-flight model, adopt it as a real commit at the survivor position so
/// later acks/rewinds see a consistent history; if the record was lost,
/// the rewound model already matches and there is nothing to do. Either
/// way the pending slot is consumed: at most one commit is ever in flight.
fn reconcile_pending(e: &Engine, o: &mut Oracle) -> Result<(), String> {
    let Some(pending) = o.pending.take() else { return Ok(()) };
    if pending == o.model {
        return Ok(()); // read-only or redundant in-flight txn: indistinguishable
    }
    let (state, _) = engine_state(&e.master, e.table)?;
    if state == pending {
        o.record_commit(e.master.log.end_lp(), pending);
    }
    Ok(())
}

/// Post-recovery checks: contents match the model, the unique index agrees
/// with the table, delete bit-vectors yield the right live count.
fn check_invariants(e: &Engine, o: &Oracle) -> Result<(), String> {
    let (state, live) = engine_state(&e.master, e.table)?;
    if state != o.model {
        return Err(format!(
            "post-recovery state mismatch ({} engine keys vs {} model): {}",
            state.len(),
            o.model.len(),
            diff_summary(&state, &o.model)
        ));
    }
    if live != o.model.len() {
        return Err(format!(
            "delete bit-vectors disagree with contents: {live} live rows for {} keys",
            o.model.len()
        ));
    }
    let snap = e.master.read_snapshot();
    let ts = snap.table(e.table).map_err(|er| format!("table snapshot: {er}"))?;
    if ts.live_row_count() != o.model.len() {
        return Err(format!(
            "live_row_count {} disagrees with model size {}",
            ts.live_row_count(),
            o.model.len()
        ));
    }
    // Probe the whole key space through the unique index.
    let txn = e.master.begin();
    for k in 0..e.key_space {
        let got = txn
            .get_unique(e.table, &[Value::Int(k)])
            .map_err(|er| format!("index probe for {k}: {er}"))?;
        let got_v = got.as_ref().and_then(|r| r.get(1).as_int().ok());
        if got_v != o.model.get(&k).copied() {
            return Err(format!(
                "unique index diverges at key {k}: engine {:?}, model {:?}",
                got_v,
                o.model.get(&k)
            ));
        }
    }
    txn.rollback();
    Ok(())
}

// ------------------------------------------------------------------ finale

/// End-of-drill verification (runs quiet): final upload, live-state
/// check, PITR to every capture, fresh-replica convergence, and a clean
/// restart. Returns the number of PITR restores verified.
fn finale(e: &mut Engine, o: &mut Oracle) -> Result<u64, String> {
    if e.replica.is_some() {
        let applied = drain_replica(e)?;
        o.ack_up_to(applied);
    } else {
        let durable = e.master.log.sync().map_err(|er| format!("final sync failed: {er}"))?;
        o.ack_up_to(durable);
    }
    full_upload(e)?;
    let end = e.master.log.end_lp();
    o.ack_up_to(end);
    check_invariants(e, o)?;
    if e.captures.last().map(|(lp, _)| *lp) != Some(end) {
        e.captures.push((end, o.model.clone()));
    }

    let mut checks = 0u64;
    for (lp, model) in &e.captures {
        let fs: Arc<dyn DataFileStore> = Arc::new(BlobReadFileStore::new(Arc::clone(&e.blob)));
        let rp = restore_from_blob(&e.blob, PARTITION, fs, Some(*lp))
            .map_err(|er| format!("final PITR to {lp} failed: {er}"))?;
        let (state, live) = engine_state(&rp, e.table)?;
        if &state != model {
            return Err(format!(
                "final PITR divergence at lp {lp}: {}",
                diff_summary(&state, model)
            ));
        }
        if live != model.len() {
            return Err(format!("final PITR to {lp} produced duplicate live rows"));
        }
        checks += 1;
    }

    if e.replica.is_some() {
        // A brand-new replica fed the whole stream must converge to master.
        let fresh = new_sync_replica(&e.master, &e.files)?;
        let applied = fresh.applier.applied_lp();
        if applied != end {
            return Err(format!("fresh replica applied {applied} of {end} log bytes"));
        }
        let (state, _) = engine_state(&fresh.partition, e.table)?;
        if state != o.model {
            return Err(format!(
                "fresh replica diverges from master: {}",
                diff_summary(&state, &o.model)
            ));
        }
    }

    // A clean restart over the live log (plus the latest snapshot) must
    // reproduce the final state.
    let snapshot =
        find_snapshot(&e.blob, PARTITION, None).map_err(|er| format!("find_snapshot: {er}"))?;
    let rp = Partition::recover(
        PARTITION,
        Arc::clone(&e.master.log),
        Arc::clone(&e.files) as Arc<dyn DataFileStore>,
        snapshot.as_ref(),
        None,
    )
    .map_err(|er| format!("clean restart recovery failed: {er}"))?;
    let (state, _) = engine_state(&rp, e.table)?;
    if state != o.model {
        return Err(format!("clean restart diverges: {}", diff_summary(&state, &o.model)));
    }
    Ok(checks)
}
