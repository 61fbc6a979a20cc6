//! Unit-level tests of the separated-storage plumbing: pinned-until-uploaded
//! data files, read-through caching, log/snapshot shipping, and the
//! degraded modes the resilience layer guarantees during blob outages.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2_blob::{
    BlobHealth, BreakerConfig, CircuitState, FaultyStore, MemoryStore, ObjectStore, ResilientStore,
    UploaderConfig,
};
use s2_cluster::{log_chunk_key, BlobBackedFileStore, StorageConfig, StorageService};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Error, RetryPolicy, Row, Schema, TableOptions, Value};
use s2_core::{DataFileStore, Partition};
use s2_wal::{Log, Snapshot};

/// Breaker tuning fast enough for tests but with a cooldown long enough
/// that "fail fast while open" is observable.
fn fast_breaker() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 2,
        open_cooldown: Duration::from_millis(200),
        max_cooldown: Duration::from_secs(1),
        probe_successes: 1,
        degraded_window: Duration::from_millis(100),
    }
}

#[test]
fn files_stay_pinned_until_uploaded() {
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    faulty.set_unavailable(true);
    let store =
        BlobBackedFileStore::new(Arc::new(Shared(faulty.clone())) as Arc<dyn ObjectStore>, 1 << 20);
    store.write_file("p/files/0001", Arc::new(vec![7u8; 128])).unwrap();
    // Upload fails (outage): the only copy is local and must stay readable.
    std::thread::sleep(Duration::from_millis(100));
    assert!(store.pinned_bytes() >= 128, "file pinned while blob is down");
    assert_eq!(store.read_file("p/files/0001").unwrap().len(), 128);

    // Blob recovers: a new write uploads and unpins.
    faulty.set_unavailable(false);
    store.write_file("p/files/0002", Arc::new(vec![9u8; 64])).unwrap();
    store.drain_uploads();
    assert!(store.uploaded_count() >= 1);
    assert_eq!(store.read_file("p/files/0002").unwrap().len(), 64);
}

#[test]
fn reads_fall_back_to_blob_after_local_eviction() {
    let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    // Tiny cache: the second file evicts the first.
    let store = BlobBackedFileStore::new(Arc::clone(&blob), 200);
    store.write_file("a", Arc::new(vec![1u8; 150])).unwrap();
    store.drain_uploads();
    store.write_file("b", Arc::new(vec![2u8; 150])).unwrap();
    store.drain_uploads();
    // "a" is gone locally; the read must come from the blob store.
    let (_, misses_before) = store.cache_stats();
    assert_eq!(store.read_file("a").unwrap()[0], 1);
    let (_, misses_after) = store.cache_stats();
    assert!(misses_after > misses_before, "read went to the blob store");
}

#[test]
fn storage_service_ships_chunks_and_snapshots() {
    let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let p =
        Partition::new("sp0", Arc::new(Log::in_memory()), Arc::new(s2_core::MemFileStore::new()));
    let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int64)]).unwrap();
    let t = p.create_table("t", schema, TableOptions::new().with_unique("pk", vec![0])).unwrap();
    for i in 0..500i64 {
        let mut txn = p.begin();
        txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
        txn.commit().unwrap();
    }
    let cfg = StorageConfig {
        chunk_bytes: 1024,
        snapshot_interval_bytes: 0, // snapshot every pass
        require_replicated: false,
        ..Default::default()
    };
    let marker = Arc::new(std::sync::atomic::AtomicU64::new(0));
    StorageService::pass(&p, &blob, &cfg, &marker).unwrap();

    // Chunks are contiguous, zero-padded and cover the whole log.
    let chunks = blob.list("sp0/log/").unwrap();
    assert!(chunks.len() > 1, "multiple chunks at 1KiB: {}", chunks.len());
    assert_eq!(chunks[0], log_chunk_key("sp0", 0));
    let mut covered = 0u64;
    for key in &chunks {
        let bytes = blob.get(key).unwrap();
        assert!(key.ends_with(&format!("{covered:020}")), "contiguous: {key}");
        covered += bytes.len() as u64;
    }
    assert_eq!(covered, p.log.uploaded_lp());

    // A snapshot landed and decodes.
    let snaps = blob.list("sp0/snapshots/").unwrap();
    assert!(!snaps.is_empty());
    let snap = Snapshot::decode(&blob.get(snaps.last().unwrap()).unwrap()).unwrap();
    assert!(snap.lp <= p.log.end_lp());
}

#[test]
fn cold_reads_fail_fast_when_breaker_open() {
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    let blob = Arc::new(Shared(faulty.clone())) as Arc<dyn ObjectStore>;
    let health = BlobHealth::with_config("t-cold-fail-fast", fast_breaker());
    let store = BlobBackedFileStore::with_tuning(
        blob,
        1 << 20,
        UploaderConfig::default(),
        Arc::clone(&health),
        Duration::from_millis(400),
    );
    store.write_file("f/1", Arc::new(vec![1u8; 64])).unwrap();
    store.drain_uploads();
    store.delete_file("f/1").unwrap(); // cold-read target: blob-only copy

    faulty.set_unavailable(true);
    // The first cold read burns its bounded retries and trips the breaker.
    assert!(store.read_file("f/1").is_err());
    assert_eq!(health.state(), CircuitState::Open);

    // With the breaker open, the next read fails immediately — a query
    // never hangs for the duration of the outage.
    let t = Instant::now();
    assert!(matches!(store.read_file("f/1"), Err(Error::Unavailable(_))));
    assert!(t.elapsed() < Duration::from_millis(150), "not fail-fast: {:?}", t.elapsed());

    // Recovery: once the cooldown admits a probe, the same read succeeds.
    faulty.set_unavailable(false);
    let t0 = Instant::now();
    loop {
        match store.read_file("f/1") {
            Ok(b) => {
                assert_eq!(b.len(), 64);
                break;
            }
            Err(_) if t0.elapsed() < Duration::from_secs(3) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("cold read never recovered: {e}"),
        }
    }
}

/// Uploader tuning for the outage tests: one worker, millisecond backoff.
const FAST_UPLOADER: UploaderConfig = UploaderConfig {
    threads: 1,
    base_backoff: Duration::from_millis(1),
    max_backoff: Duration::from_millis(5),
};

#[test]
fn outage_cannot_evict_unuploaded_files() {
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    faulty.set_unavailable(true);
    let blob = Arc::new(Shared(faulty.clone())) as Arc<dyn ObjectStore>;
    // 256-byte cache budget, then 500 bytes of un-uploadable files: the pin
    // must win over the budget — these are the only copies in existence.
    let store = BlobBackedFileStore::with_tuning(
        blob,
        256,
        FAST_UPLOADER,
        BlobHealth::with_config("t-no-evict", fast_breaker()),
        Duration::from_millis(200),
    );
    for i in 0..5u8 {
        store.write_file(&format!("f/{i}"), Arc::new(vec![i; 100])).unwrap();
    }
    assert!(store.pinned_bytes() >= 500, "pinned {} of 500 bytes", store.pinned_bytes());
    for i in 0..5u8 {
        let b = store.read_file(&format!("f/{i}")).unwrap();
        assert_eq!((b.len(), b[0]), (100, i), "local copy must stay readable during outage");
    }

    // Recovery: the retrying uploads all land, nothing stays pinned, and
    // the blob store holds every file.
    faulty.set_unavailable(false);
    store.drain_uploads();
    assert_eq!(store.uploaded_count(), 5);
    assert_eq!(store.pinned_bytes(), 0);
    for i in 0..5u8 {
        assert_eq!(faulty.get(&format!("f/{i}")).unwrap()[0], i);
    }
}

#[test]
fn commit_path_never_blocks_on_full_backlog() {
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    faulty.set_unavailable(true);
    let blob = Arc::new(Shared(faulty.clone())) as Arc<dyn ObjectStore>;
    let store = BlobBackedFileStore::with_tuning(
        blob,
        1 << 20,
        FAST_UPLOADER,
        BlobHealth::with_config("t-commit-noblock", fast_breaker()),
        Duration::from_millis(200),
    );
    // Every write_file must return promptly during a sustained outage
    // however deep the backlog — the commit path never waits on the blob
    // store.
    let t0 = Instant::now();
    for i in 0..10u8 {
        store.write_file(&format!("f/{i}"), Arc::new(vec![i; 64])).unwrap();
    }
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "write_file blocked during an outage: {:?}",
        t0.elapsed()
    );
    // Backlogged files stay pinned and readable, not dropped.
    assert!(store.pinned_bytes() >= 10 * 64, "every file stays pinned");
    assert_eq!(store.pending_uploads(), 10);
    for i in 0..10u8 {
        assert_eq!(store.read_file(&format!("f/{i}")).unwrap()[0], i);
    }

    // Recovery: the backlog converges the store to local state.
    faulty.set_unavailable(false);
    store.drain_uploads();
    assert_eq!(store.uploaded_count(), 10);
    assert_eq!(store.pinned_bytes(), 0);
    for i in 0..10u8 {
        assert_eq!(faulty.get(&format!("f/{i}")).unwrap()[0], i);
    }
}

/// Liveness with nothing fed: the breaker is open when the service starts,
/// the store heals, and then nothing else happens — no commits, no uploads,
/// no manual probe. The shipping loop's own put after the cooldown must
/// probe the breaker shut and ship the whole log.
#[test]
fn shipping_probes_the_breaker_and_resumes_after_outage() {
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    let blob = Arc::new(Shared(faulty.clone())) as Arc<dyn ObjectStore>;
    let health = BlobHealth::with_config("t-ship-probe", fast_breaker());
    let ship = Arc::new(ResilientStore::new(
        Arc::clone(&blob),
        Arc::clone(&health),
        RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            deadline: Duration::from_millis(100),
        },
    )) as Arc<dyn ObjectStore>;

    let p = Partition::new(
        "probe0",
        Arc::new(Log::in_memory()),
        Arc::new(s2_core::MemFileStore::new()),
    );
    let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int64)]).unwrap();
    let t = p.create_table("t", schema, TableOptions::new().with_unique("pk", vec![0])).unwrap();
    for i in 0..100i64 {
        let mut txn = p.begin();
        txn.insert(t, Row::new(vec![Value::Int(i)])).unwrap();
        txn.commit().unwrap();
    }
    p.log.sync().unwrap();

    // Trip the breaker before the service starts.
    faulty.set_unavailable(true);
    for _ in 0..2 {
        let _ = ship.put("t-ship-probe/trip", Arc::new(vec![0]));
    }
    assert_eq!(health.state(), CircuitState::Open);
    let mut svc = StorageService::start(
        Arc::clone(&p),
        Arc::clone(&ship),
        StorageConfig {
            chunk_bytes: 256,
            snapshot_interval_bytes: 1 << 30, // no snapshots in this test
            tick: Duration::from_millis(2),
            require_replicated: false,
        },
    );
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(p.log.uploaded_lp(), 0, "nothing ships while the store is down");

    faulty.set_unavailable(false);
    let t0 = Instant::now();
    while p.log.uploaded_lp() < p.log.durable_lp() {
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "shipping stalled after recovery: {}/{} uploaded, health {:?}",
            p.log.uploaded_lp(),
            p.log.durable_lp(),
            health.health()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(health.state(), CircuitState::Closed);
    svc.stop();
    assert!(!faulty.list("probe0/log/").unwrap().is_empty());
}

/// Share a typed `FaultyStore` as `Arc<dyn ObjectStore>`.
struct Shared(Arc<FaultyStore<MemoryStore>>);

impl ObjectStore for Shared {
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> s2_common::Result<()> {
        self.0.put(key, bytes)
    }
    fn get(&self, key: &str) -> s2_common::Result<Arc<Vec<u8>>> {
        self.0.get(key)
    }
    fn list(&self, prefix: &str) -> s2_common::Result<Vec<String>> {
        self.0.list(prefix)
    }
    fn delete(&self, key: &str) -> s2_common::Result<()> {
        self.0.delete(key)
    }
}
