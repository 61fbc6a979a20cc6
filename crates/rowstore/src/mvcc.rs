//! Multi-version concurrency control primitives stored on each skiplist node
//! (paper §2.1.1: "each node stores a linked list of versions of the row...
//! writes use pessimistic concurrency control, implemented using row locks
//! stored on each skiplist node").

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use s2_common::{Error, Result, Row, Timestamp, TxnId, TS_ABORTED, TS_UNCOMMITTED};

/// One version of a row. `data == None` is a delete marker.
pub struct Version {
    /// Commit timestamp; starts at [`TS_UNCOMMITTED`], transitions exactly
    /// once to a commit timestamp or [`TS_ABORTED`].
    ts: AtomicU64,
    /// Writing transaction.
    pub txn: TxnId,
    /// Row payload; `None` marks deletion.
    pub data: Option<Row>,
    /// Older version (immutable after creation).
    next: *mut Version,
}

impl Version {
    /// Current timestamp state.
    pub fn timestamp(&self) -> Timestamp {
        self.ts.load(Ordering::Acquire)
    }
}

/// Newest-first chain of row versions. Readers walk it lock-free; writers
/// prepend while holding the node's [`RowLock`].
pub struct VersionChain {
    head: AtomicPtr<Version>,
}

impl Default for VersionChain {
    fn default() -> Self {
        VersionChain { head: AtomicPtr::new(ptr::null_mut()) }
    }
}

// SAFETY: versions are immutable except for the one-shot `ts` atomic, and are
// only freed under exclusive access (gc / Drop).
unsafe impl Send for VersionChain {}
// SAFETY: see the Send impl above — same argument.
unsafe impl Sync for VersionChain {}

impl VersionChain {
    /// Prepend an uncommitted version. Caller must hold the row lock, which
    /// serializes writers; the store ordering publishes to lock-free readers.
    pub fn push(&self, txn: TxnId, data: Option<Row>) {
        self.prepend(TS_UNCOMMITTED, txn, data);
    }

    /// Prepend a version that is already committed at `commit_ts` (log
    /// replay). The caller must be the chain's only writer.
    pub fn push_committed(&self, commit_ts: Timestamp, data: Option<Row>) {
        self.prepend(commit_ts, 0, data);
    }

    fn prepend(&self, ts: Timestamp, txn: TxnId, data: Option<Row>) {
        let head = self.head.load(Ordering::Relaxed);
        let v = Box::into_raw(Box::new(Version { ts: AtomicU64::new(ts), txn, data, next: head }));
        self.head.store(v, Ordering::Release);
    }

    /// Walk the chain and return the version visible at `read_ts` for
    /// `self_txn` (a transaction always sees its own uncommitted writes).
    pub fn visible(&self, read_ts: Timestamp, self_txn: Option<TxnId>) -> Option<&Version> {
        let mut curr = self.head.load(Ordering::Acquire);
        while !curr.is_null() {
            // SAFETY: curr was loaded from the live chain; versions are only
            // freed under exclusive access (gc / Drop), never under &self.
            let v = unsafe { &*curr };
            let ts = v.timestamp();
            let is_visible = if ts == TS_UNCOMMITTED {
                self_txn == Some(v.txn)
            } else {
                ts != TS_ABORTED && ts <= read_ts
            };
            if is_visible {
                return Some(v);
            }
            curr = v.next;
        }
        None
    }

    /// The newest committed version regardless of snapshot (used by unique
    /// checks, which must see the latest committed state, and by flush).
    pub fn latest_committed(&self) -> Option<&Version> {
        let mut curr = self.head.load(Ordering::Acquire);
        while !curr.is_null() {
            // SAFETY: curr was loaded from the live chain; versions are only
            // freed under exclusive access (gc / Drop), never under &self.
            let v = unsafe { &*curr };
            let ts = v.timestamp();
            if ts != TS_UNCOMMITTED && ts != TS_ABORTED {
                return Some(v);
            }
            curr = v.next;
        }
        None
    }

    /// Resolve all versions owned by `txn`: commit them at `commit_ts` or
    /// mark them aborted.
    pub fn resolve(&self, txn: TxnId, outcome: Option<Timestamp>) {
        let mut curr = self.head.load(Ordering::Acquire);
        while !curr.is_null() {
            // SAFETY: curr was loaded from the live chain; versions are only
            // freed under exclusive access (gc / Drop), never under &self.
            let v = unsafe { &*curr };
            if v.txn == txn && v.timestamp() == TS_UNCOMMITTED {
                v.ts.store(outcome.unwrap_or(TS_ABORTED), Ordering::Release);
            }
            curr = v.next;
        }
    }

    /// Drop versions that no reader at or after `horizon` can see: everything
    /// strictly older than the newest version with `ts <= horizon`, plus all
    /// aborted versions. Requires exclusive access. Returns (live, freed):
    /// whether any version remains and how many were freed.
    pub fn gc(&mut self, horizon: Timestamp) -> (bool, usize) {
        let mut freed = 0;
        // SAFETY: &mut self guarantees no concurrent readers, so unlinking
        // and freeing superseded versions is exclusive; every pointer walked
        // came from the chain and is freed at most once.
        unsafe {
            // Phase 1: unlink aborted versions anywhere in the chain.
            let mut link: *mut *mut Version = self.head.as_ptr();
            while !(*link).is_null() {
                let v = *link;
                if (*v).timestamp() == TS_ABORTED {
                    *link = (*v).next;
                    drop(Box::from_raw(v));
                    freed += 1;
                } else {
                    link = &mut (*v).next;
                }
            }
            // Phase 2: find the newest committed version <= horizon; free all after.
            let mut curr = *self.head.as_ptr();
            let mut anchor: *mut Version = ptr::null_mut();
            while !curr.is_null() {
                let ts = (*curr).timestamp();
                if ts != TS_UNCOMMITTED && ts <= horizon {
                    anchor = curr;
                    break;
                }
                curr = (*curr).next;
            }
            if !anchor.is_null() {
                let mut victim = (*anchor).next;
                (*anchor).next = ptr::null_mut();
                while !victim.is_null() {
                    let next = (*victim).next;
                    drop(Box::from_raw(victim));
                    freed += 1;
                    victim = next;
                }
            }
            ((!(*self.head.as_ptr()).is_null()), freed)
        }
    }

    /// True when the chain holds no versions at all.
    pub fn is_unused(&self) -> bool {
        self.head.load(Ordering::Acquire).is_null()
    }
}

impl Drop for VersionChain {
    fn drop(&mut self) {
        let mut curr = *self.head.get_mut();
        while !curr.is_null() {
            // SAFETY: Drop has exclusive access; each version was allocated
            // via Box::into_raw and is freed exactly once here.
            let next = unsafe { (*curr).next };
            // SAFETY: same exclusivity argument as the read above.
            drop(unsafe { Box::from_raw(curr) });
            curr = next;
        }
    }
}

/// A per-row pessimistic lock: the word holds the owning transaction id
/// (0 = free). Reentrant for the owner.
#[derive(Default)]
pub struct RowLock {
    owner: AtomicU64,
}

impl RowLock {
    /// Try to take the lock for `txn` without blocking.
    pub fn try_lock(&self, txn: TxnId) -> bool {
        debug_assert_ne!(txn, 0, "txn id 0 is reserved for 'unlocked'");
        match self.owner.compare_exchange(0, txn, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => true,
            Err(current) => current == txn,
        }
    }

    /// Take the lock for `txn`, spinning (with yields) up to `timeout`.
    pub fn lock(&self, txn: TxnId, timeout: Duration) -> Result<()> {
        if self.try_lock(txn) {
            return Ok(());
        }
        s2_obs::counter!("rowstore.lock.conflicts").inc();
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            if self.try_lock(txn) {
                return Ok(());
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                if Instant::now() >= deadline {
                    let owner = self.owner.load(Ordering::Relaxed);
                    s2_obs::counter!("rowstore.lock.timeouts").inc();
                    s2_obs::event(
                        "rowstore.lock_timeout",
                        format!("txn {txn} timed out waiting for txn {owner}"),
                    );
                    return Err(Error::LockConflict(format!("row locked by txn {owner}")));
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Release the lock if held by `txn`.
    pub fn unlock(&self, txn: TxnId) {
        let _ = self.owner.compare_exchange(txn, 0, Ordering::Release, Ordering::Relaxed);
    }

    /// Current owner (0 = unlocked). Diagnostic only.
    pub fn owner(&self) -> TxnId {
        self.owner.load(Ordering::Relaxed)
    }
}

/// Skiplist node payload: the row lock plus the version chain.
#[derive(Default)]
pub struct RowEntry {
    /// Pessimistic writer lock.
    pub lock: RowLock,
    /// MVCC version chain.
    pub chain: VersionChain,
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i)])
    }

    #[test]
    fn own_writes_visible_before_commit() {
        let c = VersionChain::default();
        c.push(7, Some(row(1)));
        assert!(c.visible(100, None).is_none());
        assert!(c.visible(0, Some(7)).is_some());
        c.resolve(7, Some(10));
        assert!(c.visible(9, None).is_none());
        assert!(c.visible(10, None).is_some());
    }

    #[test]
    fn snapshot_sees_right_version() {
        let c = VersionChain::default();
        c.push(1, Some(row(1)));
        c.resolve(1, Some(10));
        c.push(2, Some(row(2)));
        c.resolve(2, Some(20));
        c.push(3, None); // delete
        c.resolve(3, Some(30));
        assert_eq!(c.visible(15, None).unwrap().data.as_ref().unwrap().get(0), &Value::Int(1));
        assert_eq!(c.visible(25, None).unwrap().data.as_ref().unwrap().get(0), &Value::Int(2));
        assert!(c.visible(35, None).unwrap().data.is_none(), "sees the delete marker");
        assert!(c.visible(5, None).is_none());
    }

    #[test]
    fn aborted_versions_skipped() {
        let c = VersionChain::default();
        c.push(1, Some(row(1)));
        c.resolve(1, Some(10));
        c.push(2, Some(row(2)));
        c.resolve(2, None); // abort
        let v = c.visible(100, None).unwrap();
        assert_eq!(v.data.as_ref().unwrap().get(0), &Value::Int(1));
        assert_eq!(c.latest_committed().unwrap().timestamp(), 10);
    }

    #[test]
    fn gc_prunes_history_and_aborts() {
        let mut c = VersionChain::default();
        for i in 1..=5 {
            c.push(i, Some(row(i as i64)));
            c.resolve(i, Some(i * 10));
        }
        c.push(6, Some(row(6)));
        c.resolve(6, None); // aborted
        let (live, freed) = c.gc(35);
        assert!(live);
        // Versions at 10, 20 are behind the anchor at 30; aborted one also freed.
        assert_eq!(freed, 3);
        assert!(c.visible(30, None).is_some());
        assert!(c.visible(50, None).is_some());
    }

    #[test]
    fn row_lock_reentrant_and_exclusive() {
        let l = RowLock::default();
        assert!(l.try_lock(1));
        assert!(l.try_lock(1), "reentrant for owner");
        assert!(!l.try_lock(2));
        assert!(l.lock(2, Duration::from_millis(10)).is_err());
        l.unlock(1);
        assert!(l.try_lock(2));
    }

    #[test]
    fn unlock_by_non_owner_is_noop() {
        let l = RowLock::default();
        assert!(l.try_lock(1));
        l.unlock(2);
        assert_eq!(l.owner(), 1);
    }
}
