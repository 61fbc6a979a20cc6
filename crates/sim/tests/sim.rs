//! Acceptance tests for the simulator: the seeded crash smoke sweep,
//! same-seed replay of every drill, and targeted kill-point checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use s2_blob::{
    BlobHealth, BreakerConfig, CircuitState, MemoryStore, ObjectStore, Uploader, UploaderConfig,
};
use s2_cluster::{StorageConfig, StorageService};
use s2_common::fault::{CrashPoint, FaultHook};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{DataFileStore, MemFileStore, Partition};
use s2_sim::{
    drill, harness_lock, install_quiet_panic_hook, sweep, Agg, FaultPlan, Report, DRILLS,
};
use s2_wal::Log;

/// The CI smoke: 200 randomized crash-recovery drills under a fixed seed
/// must uphold every invariant.
#[test]
fn smoke_200_scenarios_zero_violations() {
    let summary = sweep(drill("crash").expect("crash drill"), 42, 200, false);
    assert_eq!(summary.scenarios, 200);
    assert!(
        summary.failures.is_empty(),
        "invariant violations: {:?}",
        summary.failures.iter().map(|v| v.seed).collect::<Vec<_>>()
    );
    // The sweep must actually exercise the machinery, not vacuously pass.
    assert!(summary.get("crashes") > 50, "only {} crashes injected", summary.get("crashes"));
    assert!(summary.get("commits") > 1000, "only {} commits", summary.get("commits"));
    assert!(summary.get("pitr_checks") > 100, "only {} PITR checks", summary.get("pitr_checks"));
    assert!(summary.get("replicated") > 20, "only {} replica runs", summary.get("replicated"));
}

/// Same seed ⇒ identical trace and identical seed-determined counters, in
/// every drill of the table.
#[test]
fn same_seed_replays_identical_trace_in_every_drill() {
    let seeded = |r: &Report| -> Vec<(&str, u64)> {
        r.counters.iter().filter(|c| c.1 == Agg::Sum).map(|c| (c.0, c.2)).collect()
    };
    for d in DRILLS {
        for seed in [7u64, 1234, 0xDEAD] {
            let a = d.run(seed).unwrap_or_else(|v| panic!("{} drill: {v}", d.name));
            let b = d.run(seed).unwrap_or_else(|v| panic!("{} drill replay: {v}", d.name));
            assert!(!a.trace.is_empty(), "{} drill traced nothing for seed {seed}", d.name);
            assert_eq!(a.trace, b.trace, "{} trace diverged for seed {seed}", d.name);
            assert_eq!(seeded(&a), seeded(&b), "{} counters diverged for seed {seed}", d.name);
        }
    }
}

/// Different seeds explore different interleavings (not the same scripted
/// path every time).
#[test]
fn different_seeds_diverge() {
    let crash = drill("crash").expect("crash drill");
    let a = crash.run(1).expect("drill passes");
    let b = crash.run(2).expect("drill passes");
    assert_ne!(
        (a.trace, a.counters),
        (b.trace, b.counters),
        "seeds 1 and 2 produced identical runs"
    );
}

/// The uploader's per-attempt failpoint fires on its worker thread (error
/// injection only) inside the breaker guard: every injected failure counts
/// as a retry and against the breaker, the job keeps retrying instead of
/// failing, and it lands once the plan clears.
#[test]
fn uploader_cross_thread_error_injection() {
    let _guard = harness_lock();
    let mut plan = FaultPlan::new(99);
    plan.site_any_thread("blob.uploader.attempt", 1.0, 0.0);
    s2_common::fault::install(Arc::new(plan) as Arc<dyn FaultHook>);

    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let health = BlobHealth::with_config(
        "sim-inject",
        BreakerConfig {
            open_cooldown: Duration::from_millis(5),
            max_cooldown: Duration::from_millis(20),
            ..BreakerConfig::default()
        },
    );
    let up = Uploader::with_config(
        Arc::clone(&store),
        UploaderConfig {
            threads: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        },
        Arc::clone(&health),
    );
    let retries = || s2_obs::global().snapshot().counter("blob.upload.retries");
    let before = retries();
    let outcome: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
    let flag = Arc::clone(&outcome);
    up.enqueue("k/inject", Arc::new(vec![1]), move |r| {
        *flag.lock().unwrap() = Some(r.is_err());
    })
    .unwrap();
    let t0 = Instant::now();
    while retries() < before + 5 || health.state() == CircuitState::Closed {
        assert!(t0.elapsed() < Duration::from_secs(5), "injected failures not counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(*outcome.lock().unwrap(), None, "a transient failure must not complete the job");

    // Clear the plan: the same job lands.
    s2_common::fault::clear();
    up.drain();
    assert_eq!(*outcome.lock().unwrap(), Some(false));
    assert_eq!(store.get("k/inject").unwrap().as_slice(), &[1]);
}

/// Seeds at which the workspace drill's recovery used to stall: the shipping
/// loop paused while health read `Outage`, so when the store came back with
/// no upload left to probe the breaker, nothing ever closed it. 1042, 1149
/// and 1158 stalled while the drill's recovery still committed; 180 and 233
/// stall every run once it feeds nothing, as it now does — the cluster must
/// drain on its own.
#[test]
fn workspace_drill_recovers_at_formerly_stuck_seeds() {
    let workspace = drill("workspace").expect("workspace drill");
    for seed in [180u64, 233, 1042, 1149, 1158] {
        if let Err(v) = workspace.run(seed) {
            panic!("{v}");
        }
    }
}

fn small_partition() -> (Arc<Partition>, u32) {
    let p = Partition::new(
        "killpoint",
        Arc::new(Log::in_memory()),
        Arc::new(MemFileStore::new()) as Arc<dyn DataFileStore>,
    );
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("v", DataType::Int64),
    ])
    .unwrap();
    let t = p.create_table("t", schema, TableOptions::new().with_unique("pk", vec![0])).unwrap();
    for i in 0..20 {
        let mut txn = p.begin();
        txn.insert(t, Row::new(vec![Value::Int(i), Value::Int(i * 10)])).unwrap();
        txn.commit().unwrap();
    }
    (p, t)
}

/// A crash between writing a snapshot and uploading it must leave the blob
/// store without the snapshot (so vacuum's horizon never advances early) —
/// and the next pass must publish it cleanly.
#[test]
fn snapshot_put_crash_keeps_blob_consistent() {
    let _guard = harness_lock();
    install_quiet_panic_hook();
    let (p, _t) = small_partition();
    let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let cfg = StorageConfig {
        chunk_bytes: 1 << 20,
        snapshot_interval_bytes: 1,
        tick: Duration::from_millis(1),
        require_replicated: false,
    };
    let last_snap = Arc::new(AtomicU64::new(0));

    let mut plan = FaultPlan::new(5);
    plan.site("storage.snapshot.put", 0.0, 1.0);
    s2_common::fault::install(Arc::new(plan) as Arc<dyn FaultHook>);
    let outcome =
        catch_unwind(AssertUnwindSafe(|| StorageService::pass(&p, &blob, &cfg, &last_snap)));
    s2_common::fault::clear();

    let payload = outcome.expect_err("pass must crash at the kill point");
    let cp = payload.downcast_ref::<CrashPoint>().expect("CrashPoint payload");
    assert_eq!(cp.site, "storage.snapshot.put");
    // Log chunks uploaded before the kill point are fine; the snapshot must
    // not exist (its durability marker was never set).
    assert!(blob.list("killpoint/snapshots/").unwrap().is_empty());
    assert_eq!(last_snap.load(Ordering::Acquire), 0);

    // Uninstrumented retry publishes the snapshot.
    StorageService::pass(&p, &blob, &cfg, &last_snap).unwrap();
    assert_eq!(blob.list("killpoint/snapshots/").unwrap().len(), 1);
    assert!(last_snap.load(Ordering::Acquire) > 0);
}

/// The commit kill point fires before the redo record is appended: the log
/// never contains a record for the crashed commit.
#[test]
fn commit_crash_leaves_no_partial_record() {
    let _guard = harness_lock();
    install_quiet_panic_hook();
    let (p, t) = small_partition();
    let end_before = p.log.end_lp();

    let mut plan = FaultPlan::new(11);
    plan.site("core.commit.log", 0.0, 1.0);
    s2_common::fault::install(Arc::new(plan) as Arc<dyn FaultHook>);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut txn = p.begin();
        txn.insert(t, Row::new(vec![Value::Int(777), Value::Int(1)])).unwrap();
        txn.commit()
    }));
    s2_common::fault::clear();

    let payload = outcome.expect_err("commit must crash at the kill point");
    assert!(payload.downcast_ref::<CrashPoint>().is_some());
    assert_eq!(p.log.end_lp(), end_before, "crashed commit appended log bytes");
}
