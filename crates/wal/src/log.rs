//! The per-partition append-only log (paper §3, §3.1).
//!
//! "A log is created for each database partition, and it's persisted to disk
//! and replicated to guarantee the durability of writes." The log here is a
//! byte stream of framed records with three watermarks:
//!
//! - `durable_lp`   — synced to the local log file (async by default);
//! - `replicated_lp` — acknowledged in-memory by at least one replica (the
//!   default commit durability rule, paper §3);
//! - `uploaded_lp`  — sealed into chunks and shipped to blob storage. Only
//!   positions below "fully durable and replicated" may be uploaded
//!   (paper §3.1), and the caller supplies that safe position.
//!
//! Subscribers receive appended bytes immediately — *before* commit — which
//! is exactly the paper's "log pages can be replicated out-of-order and
//! replicated early without waiting for transaction commit" behaviour: a
//! commit is itself just a record, so shipping bytes eagerly never ships an
//! unredoable state.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use s2_common::sync::{rank, Condvar, Mutex};
use s2_common::{Error, LogPosition, Result};

use crate::record::encode_record;

/// A contiguous span of log bytes starting at `start_lp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogChunk {
    /// Log position of `bytes[0]`.
    pub start_lp: LogPosition,
    /// Raw framed-record bytes.
    pub bytes: Arc<Vec<u8>>,
}

impl LogChunk {
    /// Position just past this chunk.
    pub fn end_lp(&self) -> LogPosition {
        self.start_lp + self.bytes.len() as u64
    }
}

struct LogInner {
    /// In-memory bytes from `mem_start_lp` to `end_lp`.
    mem: Vec<u8>,
    /// Log position of `mem[0]` (advances when prefixes are truncated after upload).
    mem_start_lp: LogPosition,
    /// Position past the last appended byte.
    end_lp: LogPosition,
    durable_lp: LogPosition,
    replicated_lp: LogPosition,
    uploaded_lp: LogPosition,
    file: Option<File>,
    file_path: Option<PathBuf>,
    /// Live subscriptions: (id, sender).
    subscribers: Vec<(u64, Sender<LogChunk>)>,
    next_subscriber: u64,
}

/// A partition's write-ahead log.
pub struct Log {
    inner: Mutex<LogInner>,
    /// Signaled when `replicated_lp` advances; commit ack waits park here
    /// instead of spinning (one batched wait per group-commit batch).
    repl_cv: Condvar,
}

impl Log {
    /// Purely in-memory log (tests, replicas that reconstruct from streams).
    pub fn in_memory() -> Log {
        Log::in_memory_from(0)
    }

    /// In-memory log whose positions start at `start_lp` — used by replicas
    /// provisioned from a snapshot: their log tail mirrors the master's
    /// positions from the snapshot point onward.
    pub fn in_memory_from(start_lp: LogPosition) -> Log {
        Log {
            inner: Mutex::new(
                &rank::WAL_LOG,
                LogInner {
                    mem: Vec::new(),
                    mem_start_lp: start_lp,
                    end_lp: start_lp,
                    durable_lp: start_lp,
                    replicated_lp: 0,
                    uploaded_lp: start_lp,
                    file: None,
                    file_path: None,
                    subscribers: Vec::new(),
                    next_subscriber: 0,
                },
            ),
            repl_cv: Condvar::new(),
        }
    }

    /// Log backed by a local file. If the file exists its contents are loaded
    /// (recovery reads through [`Log::read_range`] + `RecordIter`).
    ///
    /// A torn final frame — a crash mid-append persisted only a prefix of the
    /// last record, or garbage past the last sync — is truncated away at the
    /// longest checksum-valid prefix rather than surfaced as corruption.
    /// Nothing past that prefix was ever acknowledged: `durable_lp` (the
    /// position commits ack against) only advances over fully synced frames.
    pub fn open(path: impl AsRef<Path>) -> Result<Log> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut mem = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut mem)?;
        let valid = crate::record::valid_prefix_len(&mem);
        if valid < mem.len() {
            s2_obs::counter!("wal.open.torn_tail_truncations").add(1);
            s2_obs::event(
                "wal.torn_tail",
                format!("dropped {} trailing bytes at lp {valid}", mem.len() - valid),
            );
            // Crash here models power loss mid-truncation: the next open
            // re-derives the same valid prefix and truncates again.
            s2_common::fault::crash_point("wal.open.truncate");
            file.set_len(valid as u64)?;
            mem.truncate(valid);
        }
        let end = mem.len() as u64;
        Ok(Log {
            inner: Mutex::new(
                &rank::WAL_LOG,
                LogInner {
                    mem,
                    mem_start_lp: 0,
                    end_lp: end,
                    durable_lp: end,
                    replicated_lp: 0,
                    uploaded_lp: 0,
                    file: Some(file),
                    file_path: Some(path),
                    subscribers: Vec::new(),
                    next_subscriber: 0,
                },
            ),
            repl_cv: Condvar::new(),
        })
    }

    /// Append one framed record; returns (record start, record end) positions.
    pub fn append(&self, kind: u8, payload: &[u8]) -> (LogPosition, LogPosition) {
        self.append_group(&[(kind, payload)])
    }

    /// Append several records contiguously (group commit); returns the span.
    pub fn append_group(&self, records: &[(u8, &[u8])]) -> (LogPosition, LogPosition) {
        // Crash here models power loss before the record reached the log
        // buffer: the whole group is atomically absent from the stream.
        s2_common::fault::crash_point("wal.append");
        let mut chunk = Vec::new();
        for (kind, payload) in records {
            encode_record(&mut chunk, *kind, payload);
        }
        s2_obs::counter!("wal.append.records").add(records.len() as u64);
        s2_obs::counter!("wal.append.bytes").add(chunk.len() as u64);
        let mut inner = self.inner.lock();
        let start = inner.end_lp;
        inner.mem.extend_from_slice(&chunk);
        inner.end_lp += chunk.len() as u64;
        let end = inner.end_lp;
        if !inner.subscribers.is_empty() {
            let chunk = LogChunk { start_lp: start, bytes: Arc::new(chunk) };
            inner.subscribers.retain(|(_, s)| s.send(chunk.clone()).is_ok());
        }
        (start, end)
    }

    /// Append pre-framed record bytes verbatim (replication apply path: the
    /// replica's log must mirror the master's bytes and positions so the
    /// replica can be promoted and continue the stream).
    pub fn append_raw(&self, bytes: &[u8]) -> (LogPosition, LogPosition) {
        // Crash here models a replica losing power before mirrored bytes
        // reach its log buffer — the stream resumes from the last applied lp.
        s2_common::fault::crash_point("wal.append_raw");
        s2_obs::counter!("wal.append.bytes").add(bytes.len() as u64);
        let mut inner = self.inner.lock();
        let start = inner.end_lp;
        inner.mem.extend_from_slice(bytes);
        inner.end_lp += bytes.len() as u64;
        let end = inner.end_lp;
        if !inner.subscribers.is_empty() {
            let chunk = LogChunk { start_lp: start, bytes: Arc::new(bytes.to_vec()) };
            inner.subscribers.retain(|(_, s)| s.send(chunk.clone()).is_ok());
        }
        (start, end)
    }

    /// Position past the last appended byte.
    pub fn end_lp(&self) -> LogPosition {
        self.inner.lock().end_lp
    }

    /// Position synced to the local log file.
    pub fn durable_lp(&self) -> LogPosition {
        self.inner.lock().durable_lp
    }

    /// Position acknowledged by at least one replica.
    pub fn replicated_lp(&self) -> LogPosition {
        self.inner.lock().replicated_lp
    }

    /// Position already sealed and uploaded to blob storage.
    pub fn uploaded_lp(&self) -> LogPosition {
        self.inner.lock().uploaded_lp
    }

    /// Record a replica acknowledgement (monotonic); wakes ack waiters.
    pub fn set_replicated_lp(&self, lp: LogPosition) {
        let mut inner = self.inner.lock();
        if lp > inner.replicated_lp {
            inner.replicated_lp = lp;
            drop(inner);
            self.repl_cv.notify_all();
        }
    }

    /// Block until `replicated_lp >= lp` or the timeout elapses; true on
    /// success. One call on the batch-end position acknowledges every commit
    /// in a group-commit batch.
    pub fn wait_replicated(&self, lp: LogPosition, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        while inner.replicated_lp < lp {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self.repl_cv.wait_timeout(inner, deadline - now);
            inner = g;
        }
        true
    }

    /// Sync buffered bytes to the local log file. With no file this still
    /// advances `durable_lp` (an in-memory log is "as durable as it gets";
    /// the replication layer provides the real guarantee, paper §3).
    pub fn sync(&self) -> Result<LogPosition> {
        // A dropped/failed fsync must not advance `durable_lp`: the caller
        // may not ack commits past a position that never reached disk.
        s2_common::fault::failpoint("wal.sync")?;
        let mut inner = self.inner.lock();
        let end = inner.end_lp;
        let from = inner.durable_lp;
        if from < end {
            // Counted only when bytes actually move: `wal.fsync.calls` vs
            // `core.txn.commits` is how the TPC-C battery proves batching
            // (fsyncs-per-commit < 1 under contention).
            s2_obs::counter!("wal.fsync.calls").add(1);
            // Lag observed by this sync: bytes appended since the last one.
            s2_obs::gauge!("wal.fsync.lag_bytes").set((end - from) as i64);
            let timer = s2_obs::histogram!("wal.fsync.latency_us").start_timer();
            let start = (from - inner.mem_start_lp) as usize;
            let stop = (end - inner.mem_start_lp) as usize;
            // Split the borrows so the write can read `mem` while holding
            // the file mutably.
            let LogInner { file, mem, .. } = &mut *inner;
            if let Some(file) = file.as_mut() {
                file.write_all(&mem[start..stop])?;
                file.flush()?;
            }
            timer.stop();
            inner.durable_lp = end;
        }
        Ok(end)
    }

    /// Subscribe to the byte stream from `from_lp` onward. Returns the
    /// backlog (bytes already appended past `from_lp`), a live receiver and
    /// the subscription's id for [`Log::unsubscribe`]. New appends are
    /// delivered immediately, pre-commit.
    pub fn subscribe(&self, from_lp: LogPosition) -> Result<(LogChunk, Receiver<LogChunk>, u64)> {
        let mut inner = self.inner.lock();
        if from_lp < inner.mem_start_lp {
            return Err(Error::NotFound(format!(
                "log bytes at {from_lp} already truncated (memory starts at {})",
                inner.mem_start_lp
            )));
        }
        let start = (from_lp - inner.mem_start_lp) as usize;
        let backlog = LogChunk { start_lp: from_lp, bytes: Arc::new(inner.mem[start..].to_vec()) };
        let (tx, rx) = unbounded();
        let id = inner.next_subscriber;
        inner.next_subscriber += 1;
        inner.subscribers.push((id, tx));
        Ok((backlog, rx, id))
    }

    /// End subscription `id`: its receiver disconnects once it has drained
    /// what was already sent, which wakes a receive blocked on it.
    pub fn unsubscribe(&self, id: u64) {
        self.inner.lock().subscribers.retain(|(sub, _)| *sub != id);
    }

    /// Read the byte range `[from_lp, to_lp)`, falling back to the log file
    /// for truncated prefixes.
    pub fn read_range(&self, from_lp: LogPosition, to_lp: LogPosition) -> Result<Vec<u8>> {
        let inner = self.inner.lock();
        if to_lp > inner.end_lp || from_lp > to_lp {
            return Err(Error::InvalidArgument(format!(
                "range [{from_lp}, {to_lp}) out of bounds (end {})",
                inner.end_lp
            )));
        }
        if from_lp >= inner.mem_start_lp {
            let s = (from_lp - inner.mem_start_lp) as usize;
            let e = (to_lp - inner.mem_start_lp) as usize;
            return Ok(inner.mem[s..e].to_vec());
        }
        match &inner.file_path {
            Some(path) => {
                let mut f = File::open(path)?;
                f.seek(SeekFrom::Start(from_lp))?;
                let mut buf = vec![0u8; (to_lp - from_lp) as usize];
                f.read_exact(&mut buf)?;
                Ok(buf)
            }
            None => Err(Error::NotFound(format!(
                "log bytes at {from_lp} truncated and no log file exists"
            ))),
        }
    }

    /// Seal the next chunk for blob upload: bytes in
    /// `[uploaded_lp, min(safe_lp, uploaded_lp + max_bytes))`.
    ///
    /// `safe_lp` must be a position known to contain only fully durable and
    /// replicated data (paper §3.1) — typically
    /// `min(durable_lp, replicated_lp)` when replicas exist. Returns `None`
    /// when there is nothing to seal. The caller marks success with
    /// [`Log::mark_uploaded`] after the blob put succeeds.
    pub fn seal_chunk(&self, safe_lp: LogPosition, max_bytes: usize) -> Option<LogChunk> {
        let inner = self.inner.lock();
        let from = inner.uploaded_lp;
        let to = safe_lp.min(inner.end_lp).min(from + max_bytes as u64);
        if to <= from {
            return None;
        }
        let s = (from - inner.mem_start_lp) as usize;
        let e = (to - inner.mem_start_lp) as usize;
        Some(LogChunk { start_lp: from, bytes: Arc::new(inner.mem[s..e].to_vec()) })
    }

    /// Record that all bytes below `lp` now live in blob storage.
    pub fn mark_uploaded(&self, lp: LogPosition) {
        let mut inner = self.inner.lock();
        inner.uploaded_lp = inner.uploaded_lp.max(lp);
    }

    /// Free in-memory bytes below `upto_lp`. Only allowed for uploaded
    /// prefixes (they remain readable from blob storage / the local file).
    pub fn truncate_prefix(&self, upto_lp: LogPosition) -> Result<()> {
        let mut inner = self.inner.lock();
        if upto_lp > inner.uploaded_lp {
            return Err(Error::InvalidArgument(format!(
                "cannot truncate to {upto_lp}: only uploaded up to {}",
                inner.uploaded_lp
            )));
        }
        if upto_lp <= inner.mem_start_lp {
            return Ok(());
        }
        let cut = (upto_lp - inner.mem_start_lp) as usize;
        inner.mem.drain(..cut);
        inner.mem_start_lp = upto_lp;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordIter;

    #[test]
    fn append_and_read_back() {
        let log = Log::in_memory();
        let (s1, e1) = log.append(1, b"one");
        let (s2, e2) = log.append(2, b"two");
        assert_eq!(s1, 0);
        assert_eq!(s2, e1);
        let bytes = log.read_range(0, e2).unwrap();
        let recs: Vec<_> = RecordIter::new(&bytes, 0).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, b"one");
        assert_eq!(recs[1].kind, 2);
    }

    #[test]
    fn group_append_is_contiguous() {
        let log = Log::in_memory();
        let (s, e) = log.append_group(&[(1, b"a".as_slice()), (2, b"bb")]);
        let bytes = log.read_range(s, e).unwrap();
        let recs: Vec<_> = RecordIter::new(&bytes, s).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn subscribers_get_backlog_and_live_stream() {
        let log = Log::in_memory();
        log.append(1, b"early");
        let (backlog, rx, id) = log.subscribe(0).unwrap();
        assert!(!backlog.bytes.is_empty());
        log.append(2, b"late");
        let live = rx.try_recv().unwrap();
        assert_eq!(live.start_lp, backlog.end_lp());
        let recs: Vec<_> =
            RecordIter::new(&live.bytes, live.start_lp).map(|r| r.unwrap()).collect();
        assert_eq!(recs[0].payload, b"late");
        // Unsubscribing disconnects the receiver after what was sent.
        log.append(3, b"last");
        log.unsubscribe(id);
        log.append(4, b"unseen");
        assert!(rx.recv().is_ok());
        assert!(rx.recv().is_err());
    }

    #[test]
    fn file_backed_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("s2wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p0.log");
        let _ = std::fs::remove_file(&path);
        let end = {
            let log = Log::open(&path).unwrap();
            log.append(7, b"persisted");
            log.sync().unwrap()
        };
        let log2 = Log::open(&path).unwrap();
        assert_eq!(log2.end_lp(), end);
        let bytes = log2.read_range(0, end).unwrap();
        let recs: Vec<_> = RecordIter::new(&bytes, 0).map(|r| r.unwrap()).collect();
        assert_eq!(recs[0].payload, b"persisted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_torn_final_frame() {
        let dir = std::env::temp_dir().join(format!("s2wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.log");
        let _ = std::fs::remove_file(&path);
        let good_end = {
            let log = Log::open(&path).unwrap();
            log.append(1, b"kept-record");
            let end = log.sync().unwrap();
            log.append(2, b"torn-record");
            log.sync().unwrap();
            end
        };
        // Simulate a crash that persisted only a prefix of the second frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..good_end as usize + 7]).unwrap();
        let log2 = Log::open(&path).unwrap();
        assert_eq!(log2.end_lp(), good_end, "torn tail truncated at last valid checksum");
        assert_eq!(log2.durable_lp(), good_end);
        let bytes = log2.read_range(0, good_end).unwrap();
        let recs: Vec<_> = RecordIter::new(&bytes, 0).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"kept-record");
        // Appends after recovery land at the truncated position on disk too.
        log2.append(3, b"after-recovery");
        let end2 = log2.sync().unwrap();
        drop(log2);
        let log3 = Log::open(&path).unwrap();
        assert_eq!(log3.end_lp(), end2);
        let bytes = log3.read_range(0, end2).unwrap();
        let recs: Vec<_> = RecordIter::new(&bytes, 0).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].payload, b"after-recovery");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seal_respects_safe_position() {
        let log = Log::in_memory();
        let (_, e1) = log.append(1, b"replicated-part");
        log.append(2, b"still-volatile");
        // Nothing replicated yet -> nothing to seal below safe position 0.
        assert!(log.seal_chunk(0, 1 << 20).is_none());
        let chunk = log.seal_chunk(e1, 1 << 20).unwrap();
        assert_eq!(chunk.start_lp, 0);
        assert_eq!(chunk.end_lp(), e1);
        log.mark_uploaded(chunk.end_lp());
        assert_eq!(log.uploaded_lp(), e1);
        // Next seal starts where the last ended.
        assert!(log.seal_chunk(e1, 1 << 20).is_none());
    }

    #[test]
    fn truncate_only_uploaded() {
        let log = Log::in_memory();
        let (_, e1) = log.append(1, b"aaa");
        let (_, e2) = log.append(1, b"bbb");
        assert!(log.truncate_prefix(e1).is_err(), "not uploaded yet");
        log.mark_uploaded(e1);
        log.truncate_prefix(e1).unwrap();
        // Truncated range unreadable in-memory, later range still fine.
        assert!(log.read_range(0, e1).is_err());
        assert!(log.read_range(e1, e2).is_ok());
        assert!(log.subscribe(0).is_err());
        assert!(log.subscribe(e1).is_ok());
    }

    #[test]
    fn replicated_watermark_monotonic() {
        let log = Log::in_memory();
        log.set_replicated_lp(100);
        log.set_replicated_lp(50);
        assert_eq!(log.replicated_lp(), 100);
    }

    #[test]
    fn wait_replicated_wakes_on_ack() {
        let log = Arc::new(Log::in_memory());
        let waiter = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.wait_replicated(10, std::time::Duration::from_secs(30)))
        };
        log.set_replicated_lp(10);
        assert!(waiter.join().unwrap(), "ack wakes the waiter");
        // Position never reached -> bounded wait times out with false.
        assert!(!log.wait_replicated(11, std::time::Duration::from_millis(5)));
    }
}
