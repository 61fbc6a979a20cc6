//! Log-stream replication (paper §2, §3).
//!
//! A replica is a full [`Partition`] kept in sync by applying the master's
//! log byte stream. Chunks arrive in append order (possibly split at
//! arbitrary byte boundaries, so the applier reassembles partial frames) and
//! are appended to the replica's own log before being applied — the replica
//! can therefore take over as master after a failover with its log intact.
//! HA replicas acknowledge applied positions; the master's commit path waits
//! for an ack before declaring a transaction durable (paper §3: "data is
//! considered committed when it is replicated in-memory to at least one
//! replica").

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use s2_common::sync::{rank, Condvar, Mutex};
use s2_common::{Error, LogPosition, Result};
use s2_core::{DataFileStore, EngineRecord, Partition};
use s2_wal::{Log, LogChunk, RecordIter};

/// Applied-watermark cell: the apply thread publishes each advance here and
/// wakes waiters, so `wait_applied` (and `Workspace::catch_up` above it)
/// parks on a condvar instead of spinning.
struct AppliedMark {
    lp: Mutex<LogPosition>,
    advanced: Condvar,
}

impl AppliedMark {
    fn new(from_lp: LogPosition) -> AppliedMark {
        AppliedMark {
            lp: Mutex::new(&rank::CLUSTER_REPLICA_MARK, from_lp),
            advanced: Condvar::new(),
        }
    }

    fn publish(&self, lp: LogPosition) {
        let mut g = self.lp.lock();
        if lp > *g {
            *g = lp;
            self.advanced.notify_all();
        }
    }

    /// Wait until the watermark reaches `lp` or `deadline` passes.
    fn wait(&self, lp: LogPosition, deadline: std::time::Instant) -> bool {
        let mut g = self.lp.lock();
        while *g < lp {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (g2, _timed_out) = self.advanced.wait_timeout(g, deadline - now);
            g = g2;
        }
        true
    }
}

/// A replica partition driven by a master's log stream.
pub struct Replica {
    /// The replica's partition state (queryable).
    pub partition: Arc<Partition>,
    applied_lp: Arc<AtomicU64>,
    mark: Arc<AppliedMark>,
    stop: Arc<AtomicBool>,
    /// The primary's log and this replica's subscription to it: ending the
    /// subscription is what wakes the apply thread to stop.
    source: Arc<Log>,
    subscription: u64,
    thread: Option<JoinHandle<()>>,
    /// Whether this replica acks (HA replica) or not (read-only workspace).
    pub acks: bool,
}

/// Whether a tail-apply failure is worth retrying: storage-side classes a
/// blob outage or an upload still in flight produce. Anything else (gap,
/// corruption, internal) is a permanently broken replica.
fn transient_apply_error(e: &Error) -> bool {
    matches!(e, Error::Unavailable(_) | Error::NotFound(_) | Error::Io(_))
}

impl Replica {
    /// Start a replica of `master` from log position `from_lp`, with its
    /// partition state pre-seeded by `partition` (empty for a fresh HA
    /// replica, snapshot-restored for a workspace replica).
    ///
    /// `ack_log` (the master's log) receives replicated-position updates
    /// when `acks` is true.
    pub fn start(
        master: &Arc<Partition>,
        partition: Arc<Partition>,
        from_lp: LogPosition,
        acks: bool,
    ) -> Result<Replica> {
        let (backlog, rx, subscription) = master.log.subscribe(from_lp)?;
        let applied_lp = Arc::new(AtomicU64::new(from_lp));
        let mark = Arc::new(AppliedMark::new(from_lp));
        let stop = Arc::new(AtomicBool::new(false));
        let ack_log = if acks { Some(Arc::clone(&master.log)) } else { None };
        let p = Arc::clone(&partition);
        let applied = Arc::clone(&applied_lp);
        let mark2 = Arc::clone(&mark);
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut applier = StreamApplier::new(from_lp);
            let mut degraded = false;
            let mut deliver = |chunk: LogChunk| {
                let mut pending = Some(chunk);
                loop {
                    // `feed` retains the applied prefix even on error, so a
                    // retry resumes at the failing record (no double apply).
                    let res = match pending.take() {
                        Some(c) => applier.feed(&p, &c),
                        None => applier.resume(&p),
                    };
                    let err = match res {
                        Ok(()) => break,
                        Err(e) => e,
                    };
                    if transient_apply_error(&err) {
                        // Degraded tail replication: the record needs a data
                        // file the blob store can't serve right now (outage,
                        // or the upload hasn't landed). Keep the replica
                        // alive — lag grows observably and drains once the
                        // store recovers — instead of breaking it for good.
                        s2_obs::counter!("cluster.replica.apply_retries").inc();
                        if !degraded {
                            degraded = true;
                            s2_obs::event(
                                "cluster.replica_degraded",
                                format!("tail apply retrying: {err}"),
                            );
                        }
                        if stop2.load(Ordering::Acquire) {
                            return false;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    // A replica that cannot apply is broken; stop applying so
                    // the failure is observable via lag.
                    s2_obs::counter!("cluster.replica.apply_errors").inc();
                    s2_obs::event("cluster.replica_error", format!("apply failed: {err}"));
                    eprintln!("replica apply error: {err}");
                    return false;
                }
                if degraded {
                    degraded = false;
                    s2_obs::event("cluster.replica_recovered", "tail apply caught up".to_string());
                }
                // Ack the master BEFORE publishing applied_lp: wait_applied()
                // observers must see the replicated watermark already advanced
                // once the applied position covers their commit.
                if let Some(log) = &ack_log {
                    log.set_replicated_lp(applier.applied_lp());
                }
                applied.store(applier.applied_lp(), Ordering::Release);
                mark2.publish(applier.applied_lp());
                true
            };
            if !backlog.bytes.is_empty() && !deliver(backlog) {
                return;
            }
            // `stop` ends the subscription, which disconnects `rx` and
            // wakes this receive at once.
            while let Ok(chunk) = rx.recv() {
                if stop2.load(Ordering::Acquire) || !deliver(chunk) {
                    return;
                }
            }
        });
        Ok(Replica {
            partition,
            applied_lp,
            mark,
            stop,
            source: Arc::clone(&master.log),
            subscription,
            thread: Some(thread),
            acks,
        })
    }

    /// Log position applied so far.
    pub fn applied_lp(&self) -> LogPosition {
        self.applied_lp.load(Ordering::Acquire)
    }

    /// Block until the replica has applied up to `lp` (with timeout). Parks
    /// on the applied-watermark condvar; no spinning.
    pub fn wait_applied(&self, lp: LogPosition, timeout: std::time::Duration) -> bool {
        if self.applied_lp() >= lp {
            return true;
        }
        self.mark.wait(lp, std::time::Instant::now() + timeout)
    }

    /// Stop the replication thread (e.g. before promoting to master).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.source.unsubscribe(self.subscription);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reassembles a record stream from arbitrarily-split chunks and applies
/// complete records to a partition.
pub struct StreamApplier {
    buf: Vec<u8>,
    /// Log position of `buf[0]`.
    buf_lp: LogPosition,
    /// Position up to which records have been applied.
    applied: LogPosition,
}

impl StreamApplier {
    /// Applier expecting the stream to start at `from_lp`.
    pub fn new(from_lp: LogPosition) -> StreamApplier {
        StreamApplier { buf: Vec::new(), buf_lp: from_lp, applied: from_lp }
    }

    /// Position applied so far.
    pub fn applied_lp(&self) -> LogPosition {
        self.applied
    }

    /// Feed one chunk; applies every complete record it completes. Also
    /// appends the bytes to the replica partition's own log (file retention
    /// for failover) — the replica's log positions mirror the master's.
    pub fn feed(&mut self, partition: &Arc<Partition>, chunk: &LogChunk) -> Result<()> {
        if chunk.start_lp != self.buf_lp + self.buf.len() as u64 {
            return Err(s2_common::Error::Internal(format!(
                "replication gap: expected {} got {}",
                self.buf_lp + self.buf.len() as u64,
                chunk.start_lp
            )));
        }
        self.buf.extend_from_slice(&chunk.bytes);
        self.resume(partition)
    }

    /// Apply the complete records currently buffered. On error, the prefix
    /// applied so far is consumed (mirrored to the log and drained) before
    /// the error returns — so after a *transient* failure (e.g. a segment
    /// file unreadable during a blob outage) a later `resume` continues at
    /// the failing record instead of re-applying the prefix.
    pub fn resume(&mut self, partition: &Arc<Partition>) -> Result<()> {
        let mut consumed = 0usize;
        let mut out = Ok(());
        {
            let mut iter = RecordIter::new(&self.buf, self.buf_lp);
            for rec in &mut iter {
                let step = (|| -> Result<u64> {
                    let rec = rec?;
                    let engine_rec = EngineRecord::decode(rec.kind, rec.payload)?;
                    partition.apply_record(engine_rec)?;
                    Ok(rec.end_lp)
                })();
                match step {
                    Ok(end_lp) => consumed = (end_lp - self.buf_lp) as usize,
                    Err(e) => {
                        out = Err(e);
                        break;
                    }
                }
            }
        }
        if consumed > 0 {
            // Mirror the complete-record bytes into the replica's own log so
            // a promoted replica continues the stream at the same positions.
            // (A partial trailing frame stays in `buf` until completed.)
            partition.log.append_raw(&self.buf[..consumed]);
            self.buf.drain(..consumed);
            self.buf_lp += consumed as u64;
            self.applied = self.buf_lp;
        }
        out
    }
}

/// Create an empty partition suitable for use as a replica of `name`,
/// sharing the master's data-file store (the paper replicates data files to
/// replicas as they are written; in-process, sharing the store models that
/// channel). The replica's log positions start at `from_lp`, mirroring the
/// master's stream.
pub fn empty_replica_partition(
    name: &str,
    file_store: Arc<dyn DataFileStore>,
    from_lp: LogPosition,
) -> Arc<Partition> {
    Partition::new(name, Arc::new(Log::in_memory_from(from_lp)), file_store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::schema::ColumnDef;
    use s2_common::{DataType, Row, Schema, TableOptions, Value};
    use s2_core::MemFileStore;

    fn table_setup(p: &Arc<Partition>) -> u32 {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int64),
            ColumnDef::new("v", DataType::Str),
        ])
        .unwrap();
        let opts = TableOptions::new().with_unique("pk", vec![0]).with_segment_rows(50);
        p.create_table("t", schema, opts).unwrap()
    }

    #[test]
    fn replica_follows_master_and_acks() {
        let files: Arc<MemFileStore> = Arc::new(MemFileStore::new());
        let master = Partition::new("p0", Arc::new(Log::in_memory()), files.clone());
        let t = table_setup(&master);

        let rp = empty_replica_partition("p0", files.clone(), 0);
        let replica = Replica::start(&master, rp, 0, true).unwrap();

        let mut txn = master.begin();
        for i in 0..100 {
            txn.insert(t, Row::new(vec![Value::Int(i), Value::str("x")])).unwrap();
        }
        let (_, end_lp) = txn.commit().unwrap();
        assert!(replica.wait_applied(end_lp, std::time::Duration::from_secs(5)));
        assert!(master.log.replicated_lp() >= end_lp, "ack advanced the watermark");

        // The replica answers reads.
        let t2 = replica.partition.table_by_name("t").unwrap().id;
        let snap = replica.partition.read_snapshot();
        assert_eq!(snap.table(t2).unwrap().live_row_count(), 100);
    }

    #[test]
    fn replica_applies_flush_and_merge() {
        let files: Arc<MemFileStore> = Arc::new(MemFileStore::new());
        let master = Partition::new("p0", Arc::new(Log::in_memory()), files.clone());
        let t = table_setup(&master);
        let replica =
            Replica::start(&master, empty_replica_partition("p0", files.clone(), 0), 0, true)
                .unwrap();

        for b in 0..6i64 {
            let mut txn = master.begin();
            for i in 0..50 {
                txn.insert(t, Row::new(vec![Value::Int(b * 50 + i), Value::str("x")])).unwrap();
            }
            txn.commit().unwrap();
            master.flush_table(t, true).unwrap();
        }
        while master.merge_table(t).unwrap() {}
        let end = master.log.end_lp();
        assert!(replica.wait_applied(end, std::time::Duration::from_secs(5)));

        let t2 = replica.partition.table_by_name("t").unwrap().id;
        let snap = replica.partition.read_snapshot();
        assert_eq!(snap.table(t2).unwrap().live_row_count(), 300);
        // Replica's segment state mirrors the merged structure.
        let m_segs = master.table(t).unwrap().version().segments().count();
        let r_segs = replica.partition.table(t2).unwrap().version().segments().count();
        assert_eq!(m_segs, r_segs);
    }

    /// Stopping wakes the apply thread out of its receive at once instead
    /// of waiting for a poll interval to pass.
    #[test]
    fn stop_of_an_idle_replica_is_prompt() {
        let files: Arc<MemFileStore> = Arc::new(MemFileStore::new());
        let master = Partition::new("p0", Arc::new(Log::in_memory()), files.clone());
        table_setup(&master);
        let mut stops: Vec<Duration> = (0..20)
            .map(|_| {
                let rp = empty_replica_partition("p0", files.clone(), 0);
                let mut replica = Replica::start(&master, rp, 0, false).unwrap();
                assert!(replica.wait_applied(master.log.end_lp(), Duration::from_secs(5)));
                let t = std::time::Instant::now();
                replica.stop();
                t.elapsed()
            })
            .collect();
        stops.sort_unstable();
        assert!(stops[stops.len() / 2] < Duration::from_millis(2), "stop times {stops:?}");
    }

    #[test]
    fn late_subscriber_gets_backlog() {
        let files: Arc<MemFileStore> = Arc::new(MemFileStore::new());
        let master = Partition::new("p0", Arc::new(Log::in_memory()), files.clone());
        let t = table_setup(&master);
        let mut txn = master.begin();
        txn.insert(t, Row::new(vec![Value::Int(1), Value::str("early")])).unwrap();
        txn.commit().unwrap();

        // Replica starts after the fact; must catch up from the backlog.
        let replica =
            Replica::start(&master, empty_replica_partition("p0", files.clone(), 0), 0, false)
                .unwrap();
        assert!(replica.wait_applied(master.log.end_lp(), std::time::Duration::from_secs(5)));
        let t2 = replica.partition.table_by_name("t").unwrap().id;
        let txn = replica.partition.begin();
        assert!(txn.get_unique(t2, &[Value::Int(1)]).unwrap().is_some());
        txn.rollback();
        assert_eq!(master.log.replicated_lp(), 0, "non-acking replica never acks");
    }
}
