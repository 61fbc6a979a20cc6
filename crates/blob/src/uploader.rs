//! Background uploader: ships data files to blob storage asynchronously,
//! off the commit path (paper §3.1: "newly committed columnstore data files
//! are uploaded asynchronously to blob storage as quickly as possible after
//! being committed"). Sealed log chunks and snapshots ship from the storage
//! service's own loop, through the same breaker.
//!
//! Resilience contract (paper §3: commits must tolerate an unreliable
//! object store):
//!
//! - [`Uploader::enqueue`] never blocks, so the commit path can call it. The
//!   queue needs no bound: a queued job holds the same `Arc` bytes the file
//!   cache pins until the upload lands;
//! - an attempt is one put through a [`ResilientStore`] on the shared
//!   [`BlobHealth`], with no in-call retries: the breaker alone decides the
//!   store is down, and an attempt it rejects costs microseconds;
//! - a transient failure, a breaker rejection included, **re-queues** the
//!   job instead of sleeping on the worker thread: until the breaker will
//!   admit a probe while it is open, otherwise for a capped jittered
//!   backoff. A job retries until it lands, so nothing is dropped because
//!   the store is down and one failing key cannot stall the others;
//! - a permanent error completes the job with `Err`, and so does a failed
//!   attempt after shutdown (the file stays pinned locally — durability is
//!   never the uploader's to lose); `enqueue` after shutdown returns
//!   [`Error::Unavailable`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use s2_common::retry::{jittered_backoff, salt_from_key};
use s2_common::sync::{rank, Condvar, Mutex};
use s2_common::{Error, Result, RetryClass, RetryPolicy};

use crate::health::{BlobHealth, ResilientStore};
use crate::store::ObjectStore;

/// One upload job: an object plus a completion callback (e.g. "advance
/// `uploaded_lp`", "mark data file evictable").
pub struct UploadJob {
    /// Destination object key.
    pub key: String,
    /// Object payload.
    pub bytes: Arc<Vec<u8>>,
    /// Invoked with the upload outcome on the uploader thread.
    pub on_done: Box<dyn FnOnce(Result<()>) + Send>,
    /// Transient failures met while the breaker was not open: the backoff
    /// exponent. An outage waits on the breaker instead and leaves it be.
    attempts: u32,
    /// Jitter salt (key hash) de-correlating concurrent retry schedules.
    salt: u64,
}

/// Uploader tuning.
#[derive(Debug, Clone, Copy)]
pub struct UploaderConfig {
    /// Worker threads.
    pub threads: usize,
    /// First retry delay (pre-jitter).
    pub base_backoff: Duration,
    /// Retry delay cap.
    pub max_backoff: Duration,
}

impl Default for UploaderConfig {
    fn default() -> Self {
        UploaderConfig {
            threads: 2,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

struct QueueState {
    /// Jobs ready to attempt now.
    ready: VecDeque<UploadJob>,
    /// Jobs waiting out a backoff or an open breaker: `(not_before, job)`,
    /// scanned linearly.
    deferred: Vec<(Instant, UploadJob)>,
    /// Monotonic totals; `pending = enqueued - completed` is read under
    /// this one lock so it can never transiently observe `completed >
    /// enqueued` (the old two-atomics underflow).
    enqueued: u64,
    completed: u64,
    shutdown: bool,
}

impl QueueState {
    /// Move due deferred jobs (all of them under shutdown) into `ready`;
    /// returns the earliest not-yet-due deadline, if any.
    fn promote_due(&mut self, now: Instant) -> Option<Instant> {
        let mut earliest = None;
        let mut i = 0;
        while i < self.deferred.len() {
            if self.shutdown || self.deferred[i].0 <= now {
                let (_, job) = self.deferred.swap_remove(i);
                self.ready.push_back(job);
            } else {
                let t = self.deferred[i].0;
                earliest = Some(earliest.map_or(t, |e: Instant| e.min(t)));
                i += 1;
            }
        }
        earliest
    }
}

struct Inner {
    /// The raw store behind the shared breaker, one attempt per call.
    store: ResilientStore,
    cfg: UploaderConfig,
    state: Mutex<QueueState>,
    /// Workers wait here for work (new jobs, due deferrals, shutdown).
    work_cv: Condvar,
    /// `drain` waits here for completions.
    done_cv: Condvar,
}

/// Asynchronous upload service with a worker-thread pool (see module docs
/// for the resilience contract).
pub struct Uploader {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

static ANON: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Uploader {
    /// Start `threads` workers uploading to `store` with default tuning and
    /// a private health tracker.
    pub fn new(store: Arc<dyn ObjectStore>, threads: usize) -> Uploader {
        let n = ANON.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Uploader::with_config(
            store,
            UploaderConfig { threads, ..UploaderConfig::default() },
            BlobHealth::new(format!("uploader#{n}")),
        )
    }

    /// Start an uploader with explicit tuning, its puts guarded by a
    /// (possibly shared) [`BlobHealth`].
    pub fn with_config(
        store: Arc<dyn ObjectStore>,
        cfg: UploaderConfig,
        health: Arc<BlobHealth>,
    ) -> Uploader {
        let inner = Arc::new(Inner {
            store: ResilientStore::new(store, health, RetryPolicy::no_retries()),
            cfg,
            state: Mutex::new(
                &rank::BLOB_UPLOADER,
                QueueState {
                    ready: VecDeque::new(),
                    deferred: Vec::new(),
                    enqueued: 0,
                    completed: 0,
                    shutdown: false,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..cfg.threads.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Uploader { inner, workers }
    }

    /// Queue an upload; `on_done` fires later on a worker thread. Never
    /// blocks. Returns [`Error::Unavailable`] after shutdown instead of
    /// panicking.
    pub fn enqueue(
        &self,
        key: impl Into<String>,
        bytes: Arc<Vec<u8>>,
        on_done: impl FnOnce(Result<()>) + Send + 'static,
    ) -> Result<()> {
        let key = key.into();
        let mut st = self.inner.state.lock();
        if st.shutdown {
            return Err(Error::Unavailable("uploader shut down".into()));
        }
        st.enqueued += 1;
        let salt = salt_from_key(&key);
        st.ready.push_back(UploadJob { key, bytes, on_done: Box::new(on_done), attempts: 0, salt });
        s2_obs::gauge!("blob.upload.queue_depth").inc();
        drop(st);
        self.inner.work_cv.notify_one();
        Ok(())
    }

    /// Jobs enqueued but not yet completed (one consistent read — both
    /// counters live under the queue lock).
    pub fn pending(&self) -> u64 {
        let st = self.inner.state.lock();
        st.enqueued - st.completed
    }

    /// Block until every queued job has completed (condvar wait, not a
    /// busy-spin). Under an outage this blocks until recovery or shutdown —
    /// deferred jobs count as pending.
    pub fn drain(&self) {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        while st.enqueued > st.completed {
            st = inner.done_cv.wait(st);
        }
    }
}

impl Drop for Uploader {
    fn drop(&mut self) {
        self.inner.state.lock().shutdown = true;
        // Workers finish the backlog: every deferred job gets a final
        // attempt, and a failed one completes with its error.
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.state.lock();
            loop {
                let earliest = st.promote_due(Instant::now());
                if let Some(job) = st.ready.pop_front() {
                    break job;
                }
                if st.shutdown {
                    // promote_due under shutdown moved everything to ready;
                    // both empty means this worker is done.
                    return;
                }
                st = match earliest {
                    Some(t) => {
                        let timeout = t.saturating_duration_since(Instant::now());
                        inner.work_cv.wait_timeout(st, timeout.max(Duration::from_millis(1))).0
                    }
                    None => inner.work_cv.wait(st),
                };
            }
        };
        attempt(inner, job);
    }
}

/// Re-queue `job` to run no earlier than `delay` from now. The job stays
/// pending.
fn defer(inner: &Inner, job: UploadJob, delay: Duration) {
    s2_obs::counter!("blob.upload.requeues").inc();
    inner.state.lock().deferred.push((Instant::now() + delay, job));
    // Deadlines changed: wake a waiter so it recomputes its timeout.
    inner.work_cv.notify_one();
}

/// Complete `job` with `outcome`: callback, counters, completion signal.
fn finish(inner: &Inner, job: UploadJob, outcome: Result<()>) {
    match &outcome {
        Ok(()) => {
            s2_obs::counter!("blob.upload.bytes").add(job.bytes.len() as u64);
        }
        Err(e) => {
            s2_obs::counter!("blob.upload.failures").inc();
            s2_obs::event("blob.upload_failed", format!("{}: {e}", job.key));
        }
    }
    (job.on_done)(outcome);
    inner.state.lock().completed += 1;
    s2_obs::gauge!("blob.upload.queue_depth").dec();
    inner.done_cv.notify_all();
}

/// One guarded attempt at `job`. Runs on a worker thread with no locks
/// held; never sleeps — waiting happens by re-queueing.
fn attempt(inner: &Inner, mut job: UploadJob) {
    let timer = s2_obs::histogram!("blob.upload.latency_us").start_timer();
    // Each attempt is separately injectable, inside the guard so injected
    // errors count against the breaker like real ones. Runs on the worker
    // thread: plans must opt sites into cross-thread (error-only) injection.
    let outcome = inner.store.guarded(&job.key, |store| {
        s2_common::fault::failpoint("blob.uploader.attempt")
            .and_then(|()| store.put(&job.key, Arc::clone(&job.bytes)))
    });
    timer.stop();
    match outcome {
        Err(e) if e.retry_class() == RetryClass::Transient && !inner.state.lock().shutdown => {
            s2_obs::counter!("blob.upload.retries").inc();
            let delay = inner.store.health().retry_in().unwrap_or_else(|| {
                job.attempts += 1;
                jittered_backoff(
                    inner.cfg.base_backoff,
                    inner.cfg.max_backoff,
                    job.attempts - 1,
                    job.salt,
                )
            });
            defer(inner, job, delay.max(Duration::from_millis(1)));
        }
        outcome => finish(inner, job, outcome),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn uploads_complete_asynchronously() {
        let store = Arc::new(MemoryStore::new());
        let up = Uploader::new(store.clone() as Arc<dyn ObjectStore>, 2);
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        up.enqueue("files/f1", Arc::new(b"data".to_vec()), move |r| {
            r.unwrap();
            flag.store(true, Ordering::SeqCst);
        })
        .unwrap();
        up.drain();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(store.get("files/f1").unwrap().as_slice(), b"data");
    }

    #[test]
    fn many_jobs_across_workers() {
        let store = Arc::new(MemoryStore::new());
        let up = Uploader::new(store.clone() as Arc<dyn ObjectStore>, 4);
        for i in 0..100 {
            up.enqueue(format!("k/{i}"), Arc::new(vec![i as u8]), |r| r.unwrap()).unwrap();
        }
        up.drain();
        assert_eq!(store.object_count(), 100);
        assert_eq!(up.pending(), 0);
    }

    #[test]
    fn outage_parks_jobs_and_shutdown_reports_failure() {
        use crate::fault::FaultyStore;
        let faulty = FaultyStore::new(
            MemoryStore::new(),
            std::time::Duration::ZERO,
            std::time::Duration::ZERO,
        );
        faulty.set_unavailable(true);
        let store: Arc<dyn ObjectStore> = Arc::new(faulty);
        let up = Uploader::new(store, 1);
        let failed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&failed);
        up.enqueue("k", Arc::new(vec![1]), move |r| flag.store(r.is_err(), Ordering::SeqCst))
            .unwrap();
        // The job keeps retrying instead of being dropped; it stays pending
        // until shutdown delivers the final error callback.
        drop(up);
        assert!(failed.load(Ordering::SeqCst), "shutdown must complete parked jobs with Err");
    }

    #[test]
    fn enqueue_after_shutdown_returns_unavailable() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let mut up = Uploader::new(store, 1);
        up.enqueue("a", Arc::new(vec![1]), |r| r.unwrap()).unwrap();
        up.drain();
        // Simulate shutdown without dropping the handle.
        up.inner.state.lock().shutdown = true;
        up.inner.work_cv.notify_all();
        for w in up.workers.drain(..) {
            let _ = w.join();
        }
        let r = up.enqueue("b", Arc::new(vec![2]), |_| {});
        assert!(matches!(r, Err(Error::Unavailable(_))));
    }

    #[test]
    fn one_failing_key_does_not_stall_other_uploads() {
        /// Fails every put of keys containing "bad" with a transient error.
        struct SelectiveStore {
            inner: MemoryStore,
            bad_puts: AtomicU64,
        }
        impl ObjectStore for SelectiveStore {
            fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> Result<()> {
                if key.contains("bad") {
                    self.bad_puts.fetch_add(1, Ordering::SeqCst);
                    return Err(Error::Unavailable("selective failure".into()));
                }
                self.inner.put(key, bytes)
            }
            fn get(&self, key: &str) -> Result<Arc<Vec<u8>>> {
                self.inner.get(key)
            }
            fn list(&self, prefix: &str) -> Result<Vec<String>> {
                self.inner.list(prefix)
            }
            fn delete(&self, key: &str) -> Result<()> {
                self.inner.delete(key)
            }
        }
        let store =
            Arc::new(SelectiveStore { inner: MemoryStore::new(), bad_puts: AtomicU64::new(0) });
        // One worker: with on-thread retry sleeps the bad key would serialize
        // in front of every good one for its whole backoff window.
        let up = Uploader::with_config(
            Arc::clone(&store) as Arc<dyn ObjectStore>,
            UploaderConfig {
                threads: 1,
                // Wide spacing between bad-key retries; good keys must slip
                // through the gaps instead of waiting them out.
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(100),
            },
            // High threshold: this test is about per-key retry scheduling,
            // not the breaker — the good keys' successes would reset the
            // failure streak anyway.
            crate::health::BlobHealth::with_config(
                "selective-test",
                crate::health::BreakerConfig { failure_threshold: 100, ..Default::default() },
            ),
        );
        let bad_outcome: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(&rank::TEST_A, None));
        let flag = Arc::clone(&bad_outcome);
        let t0 = Instant::now();
        up.enqueue("bad/key", Arc::new(vec![0]), move |r| *flag.lock() = Some(r.is_err())).unwrap();
        for i in 0..20 {
            up.enqueue(format!("good/{i}"), Arc::new(vec![i as u8]), |r| r.unwrap()).unwrap();
        }
        // All good keys land while the bad key is still early in its backoff
        // schedule (20 in-memory puts are orders of magnitude faster than
        // one 25-50ms retry gap).
        while store.inner.object_count() < 20 {
            assert!(t0.elapsed() < Duration::from_secs(5), "good uploads stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            store.bad_puts.load(Ordering::SeqCst) < 4,
            "good keys finished before the bad key's backoff schedule did"
        );
        // The bad key has no budget: it keeps retrying, at capped backoff.
        // Five gaps of at least half of 50, 100, 100, 100, 100 ms.
        while store.bad_puts.load(Ordering::SeqCst) < 6 {
            assert!(t0.elapsed() < Duration::from_secs(5), "bad key stopped retrying");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(t0.elapsed() >= Duration::from_millis(225), "retries not backed off");
        assert_eq!(*bad_outcome.lock(), None, "a transient failure must not complete the job");
        assert_eq!(up.pending(), 1);
        // Shutdown gives the bad key a last attempt and delivers its Err.
        drop(up);
        assert_eq!(*bad_outcome.lock(), Some(true), "drop must complete the bad key with Err");
    }

    #[test]
    fn enqueue_never_blocks_during_outage() {
        use crate::fault::FaultyStore;
        use crate::health::BreakerConfig;
        let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
        faulty.set_unavailable(true);
        let up = Uploader::with_config(
            Arc::clone(&faulty) as Arc<dyn ObjectStore>,
            UploaderConfig { threads: 1, ..UploaderConfig::default() },
            BlobHealth::with_config(
                "enqueue-outage-test",
                BreakerConfig {
                    open_cooldown: Duration::from_millis(10),
                    max_cooldown: Duration::from_millis(40),
                    ..BreakerConfig::default()
                },
            ),
        );
        // Every enqueue returns at once during a 100% outage, however deep
        // the backlog grows.
        let landed = Arc::new(AtomicU64::new(0));
        let mut slowest = Duration::ZERO;
        for i in 0..1000u32 {
            let landed = Arc::clone(&landed);
            let t = Instant::now();
            up.enqueue(format!("k/{i}"), Arc::new(i.to_le_bytes().to_vec()), move |r| {
                r.unwrap();
                landed.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            slowest = slowest.max(t.elapsed());
        }
        assert!(slowest < Duration::from_millis(100), "an enqueue blocked for {slowest:?}");
        assert_eq!(landed.load(Ordering::SeqCst), 0);
        // Recovery: the next attempt after the cooldown probes the breaker
        // shut and the whole backlog lands.
        faulty.set_unavailable(false);
        up.drain();
        assert_eq!(landed.load(Ordering::SeqCst), 1000);
        assert_eq!(faulty.list("k/").unwrap().len(), 1000);
        assert_eq!(up.pending(), 0);
    }
}
