//! Group commit: per-partition commit batching with leader/follower handoff
//! (paper §3). Every commit goes through this queue.
//!
//! Committers `submit` their redo record under the partition commit lock and
//! then park in [`GroupCommit::wait_durable`] *outside* it. The first parked
//! waiter elects itself leader, drains the whole queue into one contiguous
//! [`Log::append_group`], releases the queue lock, performs a single
//! `Log::sync` for the batch, publishes the batch-end durable position, and
//! abdicates — waking every follower in the batch plus the next leader. One
//! fsync (and, in the cluster layer, one replication-ack wait on the batch
//! end position) amortizes over the whole batch, and because the fsync runs
//! with the queue lock released, the *next* batch accumulates — and its
//! commits resolve timestamps — while this one is being made durable.
//!
//! Ticket accounting is by monotonic record counters, not positions:
//! `submitted` (records queued), `appended` (records in the log buffer) and
//! `durable` (records covered by a completed sync). A committer's ticket is
//! its `submitted` value; once `durable >= ticket` its record — and the whole
//! batch containing it — is on disk, and `durable_lp` (the last synced batch
//! end) is the position replication must ack for it.
//!
//! Crash discipline (exercised by the `wal.group.append` / `wal.group.sync` /
//! `wal.group.handoff` crash points and the s2-sim `--scenario group` drill):
//! a crash anywhere before the sync completes leaves `durable` untouched, so
//! no committer ever observes a successful `wait_durable` for bytes that
//! could still be lost; and the leader section runs under `catch_unwind` so a
//! leader killed mid-batch always clears leadership and wakes the parked
//! followers on its way out of the world — they re-elect and finish the job.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use s2_common::sync::{rank, Condvar, Mutex};
use s2_common::{LogPosition, Result};

use crate::log::Log;

struct GroupState {
    /// Redo records waiting for a leader, in submission order.
    queue: Vec<(u8, Vec<u8>)>,
    /// Records ever submitted (a committer's ticket is its submit count).
    submitted: u64,
    /// Records moved from the queue into the log buffer.
    appended: u64,
    /// Records covered by a completed sync.
    durable: u64,
    /// End position of the last synced batch (what replication must ack).
    durable_lp: LogPosition,
    /// Whether some committer currently holds leadership.
    leader: bool,
}

/// Per-partition group-commit queue. See the module docs for the protocol.
pub struct GroupCommit {
    state: Mutex<GroupState>,
    wakeup: Condvar,
    flush_window_us: AtomicU64,
}

impl Default for GroupCommit {
    fn default() -> GroupCommit {
        GroupCommit::new()
    }
}

impl GroupCommit {
    /// New, empty queue with a zero flush window.
    pub fn new() -> GroupCommit {
        GroupCommit {
            state: Mutex::new(
                &rank::WAL_GROUP,
                GroupState {
                    queue: Vec::new(),
                    submitted: 0,
                    appended: 0,
                    durable: 0,
                    durable_lp: 0,
                    leader: false,
                },
            ),
            wakeup: Condvar::new(),
            flush_window_us: AtomicU64::new(0),
        }
    }

    /// How long a leader waits for its batch to grow before appending.
    /// 0 (the default) means append immediately — batching then comes only
    /// from committers that queued while the previous batch was syncing.
    pub fn set_flush_window_us(&self, us: u64) {
        self.flush_window_us.store(us, Ordering::Release);
    }

    /// Queue one redo record; returns the caller's durability ticket.
    ///
    /// Must be called with the partition commit lock held — submission order
    /// is commit-timestamp order, which keeps the redo stream replayable.
    pub fn submit(&self, kind: u8, payload: Vec<u8>) -> u64 {
        let mut g = self.state.lock();
        g.queue.push((kind, payload));
        g.submitted += 1;
        g.submitted
    }

    /// Append any queued records to the log *without* syncing.
    ///
    /// Barrier for direct appenders (flush/merge/move/create-table/snapshot
    /// records): they hold the partition commit lock, so no new submissions
    /// can race, and draining here guarantees every already-queued commit
    /// record precedes theirs in the byte stream — replay order matches
    /// commit order even when a leader hasn't drained the queue yet.
    pub fn flush_queued(&self, log: &Log) {
        let mut g = self.state.lock();
        if g.queue.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut g.queue);
        let refs: Vec<(u8, &[u8])> = batch.iter().map(|(k, p)| (*k, p.as_slice())).collect();
        log.append_group(&refs);
        g.appended += batch.len() as u64;
    }

    /// Park until the record behind `ticket` is durable; returns the batch
    /// end position (>= the record's own end, monotonic per partition) that
    /// replication must acknowledge.
    ///
    /// Must NOT be called with the partition commit lock held — the whole
    /// point is that the fsync happens outside the commit critical section.
    pub fn wait_durable(&self, log: &Log, ticket: u64) -> Result<LogPosition> {
        let wait_timer = s2_obs::histogram!("wal.group.wait_us").start_timer();
        let mut g = self.state.lock();
        loop {
            if g.durable >= ticket {
                let lp = g.durable_lp;
                drop(g);
                wait_timer.stop();
                return Ok(lp);
            }
            if g.leader {
                g = self.wakeup.wait(g);
                continue;
            }
            g.leader = true;
            drop(g);
            let led = self.lead(log);
            g = self.state.lock();
            if let Err(e) = led {
                if g.durable >= ticket {
                    // A batch led by someone else already covered us; the
                    // error belongs to a later batch's leader turn.
                    let lp = g.durable_lp;
                    drop(g);
                    wait_timer.stop();
                    return Ok(lp);
                }
                drop(g);
                wait_timer.cancel();
                return Err(e);
            }
        }
    }

    /// One leader turn, with abdication guaranteed even across a panic: the
    /// crash points inside the turn unwind through here, and a leader killed
    /// mid-handoff must never strand parked followers — clear leadership,
    /// wake everyone, then resume the unwind.
    fn lead(&self, log: &Log) -> Result<()> {
        match catch_unwind(AssertUnwindSafe(|| self.lead_inner(log))) {
            Ok(res) => res,
            Err(payload) => {
                self.abdicate();
                resume_unwind(payload);
            }
        }
    }

    fn abdicate(&self) {
        let mut g = self.state.lock();
        g.leader = false;
        drop(g);
        self.wakeup.notify_all();
    }

    fn lead_inner(&self, log: &Log) -> Result<()> {
        let flush_timer = s2_obs::histogram!("wal.group.flush_us").start_timer();
        let mut g = self.state.lock();
        let window = self.flush_window_us.load(Ordering::Acquire);
        if window > 0 {
            // Give the batch a chance to grow. One bounded wait, never
            // re-armed: worst-case added latency is exactly one window.
            let (g2, _) = self.wakeup.wait_timeout(g, Duration::from_micros(window));
            g = g2;
        }
        if !g.queue.is_empty() {
            // Crash here models a leader dying after draining responsibility
            // for the batch but before any byte reached the log buffer.
            s2_common::fault::crash_point("wal.group.append");
            let batch = std::mem::take(&mut g.queue);
            let refs: Vec<(u8, &[u8])> = batch.iter().map(|(k, p)| (*k, p.as_slice())).collect();
            // Append while holding the queue lock: the queue-drain and the
            // log append are atomic, which is what lets `flush_queued`
            // guarantee queued commits precede direct records in the stream.
            log.append_group(&refs);
            g.appended += batch.len() as u64;
            s2_obs::histogram!("wal.group.batch_size").record(batch.len() as u64);
        }
        let target = g.appended;
        drop(g);
        // Sync with the queue lock released: the next batch accumulates (and
        // its committers resolve timestamps) while this one hits disk.
        let durable_lp = loop {
            // Crash here = appended but not yet synced: `durable` has not
            // moved, so none of these records was ever acknowledged.
            s2_common::fault::crash_point("wal.group.sync");
            match log.sync() {
                Ok(lp) => break lp,
                Err(e) if e.is_retryable() => continue,
                Err(e) => {
                    // Permanent sync failure: abdicate so followers can
                    // re-elect and retry; our committer surfaces the error.
                    self.abdicate();
                    flush_timer.cancel();
                    return Err(e);
                }
            }
        };
        let mut g = self.state.lock();
        g.durable = g.durable.max(target);
        g.durable_lp = g.durable_lp.max(durable_lp);
        // Crash here = batch durable but leadership never handed off; the
        // catch_unwind in `lead` clears leadership and wakes followers, who
        // observe `durable` already advanced and return success.
        s2_common::fault::crash_point("wal.group.handoff");
        g.leader = false;
        drop(g);
        self.wakeup.notify_all();
        flush_timer.stop();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn single_committer_roundtrip() {
        let log = Log::in_memory();
        let gc = GroupCommit::new();
        let t = gc.submit(1, b"rec".to_vec());
        let lp = gc.wait_durable(&log, t).unwrap();
        assert_eq!(lp, log.end_lp());
        assert_eq!(log.durable_lp(), lp);
    }

    #[test]
    fn batch_covers_all_tickets() {
        let log = Log::in_memory();
        let gc = GroupCommit::new();
        let t1 = gc.submit(1, b"a".to_vec());
        let t2 = gc.submit(1, b"b".to_vec());
        let t3 = gc.submit(1, b"c".to_vec());
        // One leader turn drains the whole queue; later tickets are already
        // durable when their owners arrive.
        let lp1 = gc.wait_durable(&log, t1).unwrap();
        let lp2 = gc.wait_durable(&log, t2).unwrap();
        let lp3 = gc.wait_durable(&log, t3).unwrap();
        assert_eq!(lp1, lp2);
        assert_eq!(lp2, lp3);
        assert_eq!(lp3, log.durable_lp());
    }

    #[test]
    fn concurrent_committers_all_become_durable() {
        let log = Arc::new(Log::in_memory());
        let gc = Arc::new(GroupCommit::new());
        let mut handles = Vec::new();
        for i in 0..8u8 {
            let (log, gc) = (Arc::clone(&log), Arc::clone(&gc));
            handles.push(std::thread::spawn(move || {
                let mut lps = Vec::new();
                for j in 0..50u8 {
                    let t = gc.submit(1, vec![i, j]);
                    lps.push(gc.wait_durable(&log, t).unwrap());
                }
                lps
            }));
        }
        let mut max_lp = 0;
        for h in handles {
            for lp in h.join().unwrap() {
                max_lp = max_lp.max(lp);
            }
        }
        assert_eq!(log.durable_lp(), log.end_lp());
        assert_eq!(max_lp, log.durable_lp());
        // 8 threads x 50 records, all framed into the stream.
        let bytes = log.read_range(0, log.end_lp()).unwrap();
        let n = crate::record::RecordIter::new(&bytes, 0).count();
        assert_eq!(n, 400);
    }

    #[test]
    fn flush_queued_appends_without_sync() {
        let log = Log::in_memory();
        let gc = GroupCommit::new();
        gc.submit(1, b"queued".to_vec());
        assert_eq!(log.end_lp(), 0);
        gc.flush_queued(&log);
        assert!(log.end_lp() > 0, "record appended");
        assert_eq!(log.durable_lp(), 0, "but not synced");
        gc.flush_queued(&log); // idempotent on an empty queue
    }

    /// Crashes one specific site, once, on one specific thread — other
    /// threads (and other tests sharing the global registry) pass through.
    struct CrashOnce {
        site: &'static str,
        thread: std::thread::ThreadId,
        fired: std::sync::atomic::AtomicBool,
    }

    impl s2_common::fault::FaultHook for CrashOnce {
        fn evaluate(&self, site: &str) -> s2_common::fault::FaultAction {
            if site == self.site
                && std::thread::current().id() == self.thread
                && !self.fired.swap(true, Ordering::SeqCst)
            {
                s2_common::fault::FaultAction::Crash
            } else {
                s2_common::fault::FaultAction::Continue
            }
        }
    }

    #[test]
    fn leader_panic_does_not_strand_followers() {
        // Simulate a leader killed mid-handoff: the unwind path must clear
        // leadership so a follower can re-elect and finish the batch.
        let log = Arc::new(Log::in_memory());
        let gc = Arc::new(GroupCommit::new());
        let t = gc.submit(1, b"survivor".to_vec());
        {
            let (log, gc) = (Arc::clone(&log), Arc::clone(&gc));
            let crashed = std::thread::spawn(move || {
                s2_common::fault::install(Arc::new(CrashOnce {
                    site: "wal.group.handoff",
                    thread: std::thread::current().id(),
                    fired: std::sync::atomic::AtomicBool::new(false),
                }));
                let res = catch_unwind(AssertUnwindSafe(|| gc.wait_durable(&log, 1)));
                s2_common::fault::clear();
                assert!(res.is_err(), "crash point fired");
            });
            crashed.join().unwrap();
        }
        // The batch synced before the crash point; a fresh waiter sees it.
        let lp = gc.wait_durable(&log, t).unwrap();
        assert_eq!(lp, log.durable_lp());
        assert!(lp > 0);
    }
}
