//! Blob-outage drill: a seed-driven scenario exercising the resilience
//! layer end to end — circuit breaker, retrying uploads, fail-fast cold
//! reads, shipping through the breaker — against the paper's availability contract
//! (§3, §3.1): the blob store is *off the commit path*, so commits must
//! keep acknowledging while it is down, and everything that does talk to it
//! must degrade within a bounded budget instead of hanging.
//!
//! Phases, each drawn from the seed:
//!
//! 1. **Warmup** (healthy): commits, flushes, shipping; a probe file is
//!    uploaded and its local copy dropped so later phases have a guaranteed
//!    cold-read target.
//! 2. **Transient burst**: `blob.put` / `blob.get` fail with seeded
//!    probability on every thread; commits must be untouched and uploads
//!    retry through.
//! 3. **Sustained outage**: the store rejects 100% of traffic. Checked:
//!    commits still acknowledge, the breaker reaches `Outage`, the upload
//!    backlog grows but stays pinned locally, cold reads fail fast within
//!    their deadline budget, and local reads (rowstore + cached segments)
//!    still serve the full, correct state.
//! 4. **Latency spike**: the store recovers but every op is slow; cold
//!    reads must come back as the breaker probes shut.
//! 5. **Recovery**: with nothing fed but the drill's own shipping passes,
//!    the liveness oracle holds — the backlog fully drains, the log ships
//!    to its durable position, pinned bytes drop to zero and health returns
//!    to `Healthy` — and blob and local state converge (verified by a full
//!    restore-from-blob diffed against the oracle).
//!
//! The trace records main-thread decisions only; worker-thread injection,
//! backlog depth and wall-clock waits are timing-dependent counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_blob::{BlobHealth, FaultyStore, MemoryStore, ObjectStore, ResilientStore, StoreHealth};
use s2_cluster::{restore_from_blob, BlobBackedFileStore, StorageConfig, StorageService};
use s2_common::{Error, RetryPolicy};
use s2_core::{DataFileStore, Partition};
use s2_wal::Log;

use crate::drill::{
    Agg::{Peak, Sum},
    Harness, Report,
};
use crate::kv::{self, engine_state, timed, wait_for, with_plan, TableTxn, MS};
use crate::oracle::Oracle;
use crate::storage::BlobReadFileStore;

/// Partition name used by every outage drill.
const PARTITION: &str = "sim_outage";

/// Cold-read probe object (never referenced by the engine's log).
const PROBE_KEY: &str = "probe/cold";

/// Engine handles shared by every phase.
struct Engine {
    master: Arc<Partition>,
    files: Arc<BlobBackedFileStore>,
    /// The raw store (outage / latency control happens here).
    faulty: Arc<FaultyStore<MemoryStore>>,
    /// Breaker-guarded view used for chunk/snapshot shipping.
    ship: Arc<dyn ObjectStore>,
    health: Arc<BlobHealth>,
    cfg: StorageConfig,
    last_snap: Arc<AtomicU64>,
    table: u32,
    key_space: i64,
    oracle: Oracle,
    commits: u64,
    backlog_peak: u64,
}

impl Engine {
    /// One shipping pass; `Unavailable` (outage / injected) is tolerated,
    /// anything else is a violation.
    fn pass_tolerant(&self) -> Result<(), String> {
        match StorageService::pass(&self.master, &self.ship, &self.cfg, &self.last_snap) {
            Ok(()) => Ok(()),
            Err(Error::Unavailable(_)) => Ok(()),
            Err(e) => Err(format!("storage pass failed: {e}")),
        }
    }

    fn note_backlog(&mut self) {
        self.backlog_peak = self.backlog_peak.max(self.files.pending_uploads());
    }

    /// One committed-and-acknowledged transaction. Commit *and* the
    /// durability ack must succeed in every phase — that is the contract
    /// under test.
    fn commit(&mut self, rng: &mut StdRng) -> Result<(), String> {
        let mut txn = self.master.begin();
        let model = &self.oracle.model;
        let scratch = kv::gen_txn(rng, self.key_space, model, &mut TableTxn(&mut txn, self.table))?;
        let (_ts, end_lp) = txn.commit().map_err(|e| format!("commit failed: {e}"))?;
        self.oracle.record_commit(end_lp, scratch);
        let durable = self.master.log.sync().map_err(|e| format!("durability ack failed: {e}"))?;
        self.oracle.ack_up_to(durable);
        self.commits += 1;
        Ok(())
    }
}

/// The outage drill.
pub fn outage(seed: u64, h: &mut Harness) -> Result<Report, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4f55_5441_4745_5631);
    let key_space: i64 = rng.random_range(8..32);
    let cfg = kv::storage_config(&mut rng, 200..500);
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    let blob: Arc<dyn ObjectStore> = Arc::clone(&faulty) as Arc<dyn ObjectStore>;
    let health = BlobHealth::with_config(format!("outage-drill#{seed:x}"), kv::FAST_BREAKER);
    let files = BlobBackedFileStore::with_tuning(
        Arc::clone(&blob),
        kv::CACHE_BYTES,
        kv::FAST_UPLOADER,
        Arc::clone(&health),
        kv::READ_BUDGET,
    );
    let ship: Arc<dyn ObjectStore> = Arc::new(ResilientStore::new(
        Arc::clone(&blob),
        Arc::clone(&health),
        RetryPolicy::blob_default(),
    ));
    let master = Partition::new(
        PARTITION,
        Arc::new(Log::in_memory()),
        Arc::clone(&files) as Arc<dyn DataFileStore>,
    );
    let (schema, options) = kv::table(&mut rng, 4..12, 4..16)?;
    let table =
        master.create_table("t", schema, options).map_err(|e| format!("create_table: {e}"))?;
    master.log.sync().map_err(|e| format!("setup sync: {e}"))?;
    let mut oracle = Oracle::new();
    oracle.ack_up_to(master.log.durable_lp());

    let mut d = Engine {
        master,
        files,
        faulty,
        ship,
        health,
        cfg,
        last_snap: Arc::new(AtomicU64::new(0)),
        table,
        key_space,
        oracle,
        commits: 0,
        backlog_peak: 0,
    };

    // ---------------------------------------------------- phase 1: warmup
    let n_warm: u32 = rng.random_range(8..14);
    for i in 0..n_warm {
        d.commit(&mut rng)?;
        if i % 3 == 2 {
            d.master.flush_table(d.table, true).map_err(|e| format!("warmup flush: {e}"))?;
        }
        d.pass_tolerant()?;
    }
    h.trace.push(format!("phase:warmup commits={n_warm}"));

    // Seed the cold-read probe: uploaded, then the local copy dropped so a
    // read must go to the blob store.
    d.files
        .write_file(PROBE_KEY, Arc::new(vec![0xAB; 64]))
        .map_err(|e| format!("probe write: {e}"))?;
    d.files.drain_uploads();
    if !d.files.uploaded_keys().iter().any(|k| k == PROBE_KEY) {
        return Err("probe file did not upload while healthy".to_string());
    }
    d.files.delete_file(PROBE_KEY).map_err(|e| format!("probe delete: {e}"))?;
    match d.files.read_file(PROBE_KEY) {
        Ok(b) if b.len() == 64 => h.trace.push("probe:cold-read-healthy ok".to_string()),
        Ok(b) => return Err(format!("healthy cold read returned {} bytes, expected 64", b.len())),
        Err(e) => return Err(format!("healthy cold read failed: {e}")),
    }

    // --------------------------------------- phase 2: transient burst
    let (plan, odds) = kv::burst_plan(seed, &mut rng);
    let n_burst: u32 = rng.random_range(6..12);
    with_plan(plan, |_| {
        for i in 0..n_burst {
            d.commit(&mut rng)?;
            if i % 3 == 1 {
                d.master.flush_table(d.table, true).map_err(|e| format!("burst flush: {e}"))?;
            }
            d.pass_tolerant()?;
            d.note_backlog();
        }
        Ok::<_, String>(())
    })?;
    h.trace.push(format!("phase:burst commits={n_burst} {odds}"));

    // --------------------------------------- phase 3: sustained outage
    d.faulty.set_unavailable(true);
    let n_outage: u32 = rng.random_range(8..14);
    for i in 0..n_outage {
        // The whole point: every commit acknowledges from the local WAL
        // while the blob store rejects 100% of traffic.
        d.commit(&mut rng).map_err(|e| format!("commit path touched the dead blob store: {e}"))?;
        if i % 2 == 1 {
            d.master.flush_table(d.table, true).map_err(|e| format!("outage flush: {e}"))?;
        }
        if i % 3 == 2 {
            d.pass_tolerant()?;
        }
        d.note_backlog();
    }

    // Ballast: one guaranteed insert + flush so the backlog provably holds
    // at least one file that cannot upload.
    {
        let mut txn = d.master.begin();
        let k = d.key_space + 1;
        txn.insert(d.table, kv::row(k, -1)).map_err(|e| format!("ballast insert: {e}"))?;
        let (_ts, end_lp) = txn.commit().map_err(|e| format!("ballast commit: {e}"))?;
        let mut model = d.oracle.model.clone();
        model.insert(k, -1);
        d.oracle.record_commit(end_lp, model);
        let durable = d.master.log.sync().map_err(|e| format!("ballast sync: {e}"))?;
        d.oracle.ack_up_to(durable);
        d.commits += 1;
        d.master.flush_table(d.table, true).map_err(|e| format!("ballast flush: {e}"))?;
    }
    d.note_backlog();
    if d.files.pending_uploads() == 0 {
        return Err("upload backlog empty during a total outage (uploads are landing?)".into());
    }

    // The breaker must observe the outage: keep feeding it failures (pass
    // attempts) until it reports one.
    wait_for("breaker never reached Outage during a 100% outage", 3000 * MS, 5 * MS, || {
        if d.health.health() == StoreHealth::Outage {
            return Ok(true);
        }
        d.pass_tolerant()?;
        Ok(false)
    })
    .map_err(|e| format!("{e}, health {:?}", d.health.health()))?;

    // Cold reads fail fast — bounded by the retry deadline, not the outage.
    let mut cold_read_fail_ms = 0u64;
    for _ in 0..2 {
        d.files.delete_file(PROBE_KEY).map_err(|e| format!("probe delete: {e}"))?;
        let (read, took) = timed(|| d.files.read_file(PROBE_KEY));
        match read {
            Ok(_) => return Err("cold read succeeded against a dead store".to_string()),
            Err(Error::Unavailable(_)) | Err(Error::Io(_)) => {}
            Err(e) => return Err(format!("cold read failed with unexpected class: {e}")),
        }
        let ms = took.as_millis() as u64;
        cold_read_fail_ms = cold_read_fail_ms.max(ms);
        if ms > 1500 {
            return Err(format!("cold read blocked {ms}ms during outage (budget ~800ms)"));
        }
        h.trace.push("probe:cold-read-outage fail-fast".to_string());
    }

    // Local reads still serve the full committed state: everything written
    // during the outage is pinned in the cache (the only copy).
    let (state, _) = engine_state(&d.master, d.table)?;
    if state != d.oracle.model {
        return Err(format!(
            "local reads diverged during outage: {} engine keys vs {} model",
            state.len(),
            d.oracle.model.len()
        ));
    }
    h.trace.push(format!("phase:outage commits={n_outage} local-reads ok"));

    // ---------------------------------------- phase 4: latency spike
    d.faulty.set_unavailable(false);
    d.faulty.set_extra_latency(Duration::from_millis(2));
    let n_spike: u32 = rng.random_range(3..6);
    for _ in 0..n_spike {
        d.commit(&mut rng)?;
        d.note_backlog();
    }
    // The store answers again (slowly): cold reads must come back as the
    // breaker probes shut. The first tries may still hit the open window.
    let mut last = None;
    wait_for("cold reads never recovered after outage", 3000 * MS, 10 * MS, || {
        d.files.delete_file(PROBE_KEY).map_err(|e| format!("probe delete: {e}"))?;
        last = d.files.read_file(PROBE_KEY).err();
        Ok(last.is_none())
    })
    .map_err(|e| format!("{e}, last error: {last:?}"))?;
    d.faulty.set_extra_latency(Duration::ZERO);
    h.trace.push(format!("phase:spike commits={n_spike}"));

    // -------------------------------------------- phase 5: recovery
    // Liveness: the drill's own shipping passes are the only traffic it
    // feeds; the backlogged uploads retry on their own.
    let snapshot_required = d.master.log.end_lp() >= d.cfg.snapshot_interval_bytes;
    let health = Arc::clone(&d.health);
    let sets = [(Arc::clone(&d.master), Arc::clone(&d.files))];
    let (live, drain) = timed(|| {
        kv::wait_live(10_000 * MS, &health, &sets, || {
            d.pass_tolerant()?;
            d.note_backlog();
            Ok(())
        })
    });
    live?;
    if snapshot_required && d.last_snap.load(Ordering::Acquire) == 0 {
        return Err("no snapshot shipped after recovery".to_string());
    }

    // Convergence: every uploaded object readable.
    for key in d.files.uploaded_keys() {
        blob.get(&key).map_err(|e| format!("uploaded key {key} unreadable in blob: {e}"))?;
    }

    // Blob and local state converge: a full restore from blob alone must
    // reproduce the oracle model.
    d.oracle.ack_up_to(d.master.log.end_lp());
    let fs: Arc<dyn DataFileStore> = Arc::new(BlobReadFileStore::new(Arc::clone(&blob)));
    let restored = restore_from_blob(&blob, PARTITION, fs, None)
        .map_err(|e| format!("restore after recovery failed: {e}"))?;
    let (restored_state, _) = engine_state(&restored, d.table)?;
    if restored_state != d.oracle.model {
        return Err(format!(
            "blob/local divergence after recovery: restored {} keys, model {}",
            restored_state.len(),
            d.oracle.model.len()
        ));
    }

    // A missing object is still answered within the deadline budget — the
    // NotFound retry window is bounded, not a hang.
    let (read, took) = timed(|| d.files.read_file("probe/never-existed"));
    match read {
        Err(Error::NotFound(_)) => {}
        Err(e) => return Err(format!("missing-object read failed oddly: {e}")),
        Ok(_) => return Err("read of a never-written object succeeded".to_string()),
    }
    if took > 2000 * MS {
        return Err(format!("missing-object read blocked {took:?} (budget 300ms)"));
    }
    h.trace.push("probe:missing-notfound bounded".to_string());

    // Final local state check.
    let (final_state, _) = engine_state(&d.master, d.table)?;
    if final_state != d.oracle.model {
        return Err("final local state diverges from model".to_string());
    }
    h.trace.push(format!("finale commits={} ok", d.commits));

    Ok(h.report(vec![
        ("commits", Sum, d.commits),
        ("commits_during_outage", Sum, u64::from(n_outage)),
        ("backlog_peak", Peak, d.backlog_peak),
        ("cold_read_fail_ms", Peak, cold_read_fail_ms),
        ("drain_ms", Peak, drain.as_millis() as u64),
    ]))
}
