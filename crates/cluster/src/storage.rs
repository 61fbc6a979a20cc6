//! Separated storage orchestration (paper §3, §3.1): the blob-backed data
//! file store (local cache in front of the object store, asynchronous
//! uploads) and the per-partition storage service that ships sealed log
//! chunks and periodic snapshots to blob storage — all off the commit path.
//!
//! Neither decides on its own that the store is down. Uploads and cold
//! reads go through the breaker of a [`ResilientStore`], and callers hand
//! the shipping service one too: its loop passes on every tick, a put
//! against an open breaker fails in microseconds, and the first put after
//! the cooldown is the probe that closes it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use s2_blob::{BlobHealth, FileCache, ObjectStore, ResilientStore, Uploader, UploaderConfig};
use s2_common::sync::{rank, RwLock};
use s2_common::{DeadlineBudget, Error, LogPosition, Result, RetryPolicy};
use s2_core::{DataFileStore, Partition};
use s2_wal::Snapshot;

/// Data files backed by blob storage with a local cache:
/// - writes land locally and upload asynchronously ("uploaded ... as quickly
///   as possible after being committed"), each retried until it lands;
/// - files not yet uploaded are pinned *in the cache itself* (they are the
///   only copy) — eviction structurally cannot touch them until the upload
///   callback unpins;
/// - reads hit the cache (pinned entries included), then the blob store
///   (cold data pulled on demand, paper §3.1) under a deadline budget: a
///   replica can observe a log record slightly before the file upload lands
///   (bounded NotFound retry), and an open circuit breaker fails the read
///   fast with [`Error::Unavailable`] instead of hanging a query.
pub struct BlobBackedFileStore {
    /// Blob reads go through the breaker + bounded-retry wrapper.
    blob: ResilientStore,
    cache: Arc<FileCache>,
    uploader: Uploader,
    uploaded: Arc<RwLock<HashSet<String>>>,
    read_budget: Duration,
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl BlobBackedFileStore {
    /// Create a store with `cache_bytes` of local cache over `blob` and a
    /// private health tracker (tests, standalone use). Cluster wiring shares
    /// one health across every layer via
    /// [`BlobBackedFileStore::with_health`].
    pub fn new(blob: Arc<dyn ObjectStore>, cache_bytes: usize) -> Arc<BlobBackedFileStore> {
        let n = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        BlobBackedFileStore::with_health(
            blob,
            cache_bytes,
            BlobHealth::new(format!("filestore#{n}")),
        )
    }

    /// Create a store whose uploads and cold reads are guarded by a shared
    /// [`BlobHealth`].
    pub fn with_health(
        blob: Arc<dyn ObjectStore>,
        cache_bytes: usize,
        health: Arc<BlobHealth>,
    ) -> Arc<BlobBackedFileStore> {
        BlobBackedFileStore::with_tuning(
            blob,
            cache_bytes,
            UploaderConfig::default(),
            health,
            Duration::from_secs(2),
        )
    }

    /// Fully-tuned constructor: uploader shape and cold-read deadline budget
    /// are caller-chosen (the sim harness shrinks both so outage drills run
    /// in milliseconds, not wall-clock seconds).
    pub fn with_tuning(
        blob: Arc<dyn ObjectStore>,
        cache_bytes: usize,
        uploader_cfg: UploaderConfig,
        health: Arc<BlobHealth>,
        read_budget: Duration,
    ) -> Arc<BlobBackedFileStore> {
        Arc::new(BlobBackedFileStore {
            uploader: Uploader::with_config(Arc::clone(&blob), uploader_cfg, Arc::clone(&health)),
            blob: ResilientStore::new(blob, health, RetryPolicy::blob_default()),
            cache: Arc::new(FileCache::new(cache_bytes)),
            uploaded: Arc::new(RwLock::new(&rank::CLUSTER_STORAGE_SETS, HashSet::new())),
            read_budget,
        })
    }

    /// Bytes pinned locally awaiting upload.
    pub fn pinned_bytes(&self) -> usize {
        self.cache.pinned_bytes()
    }

    /// (cache hits, cache misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Block until all queued uploads finish (tests / clean shutdown).
    /// During an outage this waits for recovery: retrying uploads count.
    pub fn drain_uploads(&self) {
        self.uploader.drain();
    }

    /// Number of files known to be fully uploaded.
    pub fn uploaded_count(&self) -> usize {
        self.uploaded.read().len()
    }

    /// Keys known to be fully uploaded (test / convergence-audit aid).
    pub fn uploaded_keys(&self) -> Vec<String> {
        self.uploaded.read().iter().cloned().collect()
    }

    /// Uploads enqueued but not yet landed.
    pub fn pending_uploads(&self) -> u64 {
        self.uploader.pending()
    }
}

impl DataFileStore for BlobBackedFileStore {
    fn write_file(&self, name: &str, bytes: Arc<Vec<u8>>) -> Result<()> {
        // Local first: the commit path never waits on the blob store. The
        // pin makes "never evict before upload" structural — there is no
        // separate side table to fall out of sync with the cache.
        self.cache.insert_pinned(name, Arc::clone(&bytes));
        let (uploaded, cache, key) =
            (Arc::clone(&self.uploaded), Arc::clone(&self.cache), name.to_string());
        // The uploader retries until the file lands or shuts down; until then
        // the file stays pinned, so an `Err` leaves durability untouched.
        let res = self.uploader.enqueue(name, bytes, move |r| {
            if r.is_ok() {
                cache.unpin(&key);
                uploaded.write().insert(key);
            }
        });
        if let Err(e) = res {
            // Uploader already shut down (teardown race): the file stays
            // pinned locally.
            s2_obs::event("blob.upload_enqueue_failed", format!("{name}: {e}"));
        }
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Arc<Vec<u8>>> {
        let budget = DeadlineBudget::new(self.read_budget);
        loop {
            match self.cache.get_or_fetch(name, || self.blob.get(name)) {
                Ok(b) => return Ok(b),
                Err(Error::NotFound(_)) if !budget.expired() => {
                    // A replica can observe the log record referencing this
                    // file slightly before the async upload lands; retry
                    // inside the budget (the cache re-check on the next loop
                    // also catches a concurrent local write).
                    budget.sleep(Duration::from_millis(5));
                }
                // Unavailable surfaces here once the breaker/bounded retries
                // inside `ResilientStore` give up: fail the query fast
                // rather than hanging it for the whole outage.
                Err(e) => return Err(e),
            }
        }
    }

    fn delete_file(&self, name: &str) -> Result<()> {
        // Local copies go; the blob object is retained as history — the blob
        // store "acts as a continuous backup" (paper §3.2), so point-in-time
        // restores to before the deleting merge keep working. A retention
        // policy (not modeled) would garbage-collect old objects.
        self.cache.remove(name);
        Ok(())
    }
}

/// Canonical object key for a sealed log chunk.
pub fn log_chunk_key(partition: &str, start_lp: LogPosition) -> String {
    format!("{partition}/log/{start_lp:020}")
}

/// Parse the start position from a log-chunk key.
pub fn lp_from_chunk_key(key: &str) -> Option<LogPosition> {
    key.rsplit('/').next()?.parse().ok()
}

/// Tuning for the storage service.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Maximum sealed chunk size.
    pub chunk_bytes: usize,
    /// Take a snapshot after this much new log.
    pub snapshot_interval_bytes: u64,
    /// Service tick.
    pub tick: Duration,
    /// Whether commit durability requires replica acks — if true, only
    /// replicated positions may upload (paper §3.1).
    pub require_replicated: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            chunk_bytes: 256 * 1024,
            snapshot_interval_bytes: 4 * 1024 * 1024,
            tick: Duration::from_millis(20),
            require_replicated: false,
        }
    }
}

/// Background service shipping a partition's log chunks and snapshots to
/// blob storage.
pub struct StorageService {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    last_snapshot_lp: Arc<AtomicU64>,
}

impl StorageService {
    /// Start the service for `partition`, passing every tick. Callers that
    /// share a breaker hand in a [`ResilientStore`] reporting into it: while
    /// it is open a pass fails at its first put, and once the cooldown has
    /// passed that put is the probe.
    pub fn start(
        partition: Arc<Partition>,
        blob: Arc<dyn ObjectStore>,
        config: StorageConfig,
    ) -> StorageService {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let last_snapshot_lp = Arc::new(AtomicU64::new(0));
        let last_snap = Arc::clone(&last_snapshot_lp);
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                let _ = Self::pass(&partition, &blob, &config, &last_snap);
                std::thread::sleep(config.tick);
            }
            // Final drain so shutdown leaves a complete blob image (best
            // effort during an outage — the put fails fast, stays pending).
            let _ = Self::pass(&partition, &blob, &config, &last_snap);
        });
        StorageService { stop, thread: Some(thread), last_snapshot_lp }
    }

    /// One shipping pass (also used directly by tests/benches to force a
    /// deterministic full upload).
    pub fn pass(
        partition: &Arc<Partition>,
        blob: &Arc<dyn ObjectStore>,
        config: &StorageConfig,
        last_snapshot_lp: &Arc<AtomicU64>,
    ) -> Result<()> {
        // Seal and upload log chunks below the safe position. Only positions
        // that are locally durable — and replicated, when acks are required —
        // may be uploaded (paper §3.1: "only positions below fully durable
        // and replicated may be uploaded"). Uploading past the durable point
        // would let a crash leave blob history ahead of the surviving log,
        // and the restarted timeline would diverge from the uploaded chunks.
        let durable = partition.log.sync()?;
        let safe_lp = if config.require_replicated {
            durable.min(partition.log.replicated_lp())
        } else {
            durable
        };
        while let Some(chunk) = partition.log.seal_chunk(safe_lp, config.chunk_bytes) {
            let key = log_chunk_key(&partition.name, chunk.start_lp);
            blob.put(&key, Arc::clone(&chunk.bytes))?;
            partition.log.mark_uploaded(chunk.end_lp());
        }
        // Snapshot when enough new log accumulated. The vacuum horizon
        // (`mark_snapshot_durable`) advances only after the snapshot is in
        // blob storage and the log is synced past its position — never
        // before, or a failed put would let vacuum delete files recovery
        // still needs.
        let upto = partition.log.uploaded_lp();
        let since = upto.saturating_sub(last_snapshot_lp.load(Ordering::Acquire));
        if since >= config.snapshot_interval_bytes {
            let snap = partition.write_snapshot()?;
            let durable = partition.log.sync()?;
            // The safe-position rule applies to snapshots exactly as it does
            // to chunks: a snapshot is taken at the current log end, which may
            // not be replicated yet. Uploading it early would let a failover
            // to a replica that applied less leave blob history ahead of the
            // surviving timeline. Skip for now; a later pass retries once
            // replication catches up.
            let snap_safe = if config.require_replicated {
                durable.min(partition.log.replicated_lp())
            } else {
                durable
            };
            if snap.lp <= snap_safe {
                s2_common::fault::crash_point("storage.snapshot.put");
                let key = Snapshot::object_key(&partition.name, snap.lp);
                blob.put(&key, Arc::new(snap.encode()))?;
                partition.mark_snapshot_durable(snap.lp);
                last_snapshot_lp.store(snap.lp, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Log position of the last uploaded snapshot.
    pub fn last_snapshot_lp(&self) -> LogPosition {
        self.last_snapshot_lp.load(Ordering::Acquire)
    }

    /// Stop the service (drains one final pass).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StorageService {
    fn drop(&mut self) {
        self.stop();
    }
}
