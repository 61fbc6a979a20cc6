//! The in-memory MVCC rowstore: a skiplist of row keys, each carrying a
//! version chain and a row lock (paper §2.1.1).
//!
//! In unified table storage this structure serves as the LSM level-0
//! write-optimized store ("MemTable" analogue, paper §2.1.2) *and* as the
//! lock manager for row-level locking ("the primary key of the in-memory
//! rowstore acts as the lock manager", paper §4.2).

use std::time::Duration;

use s2_common::{Result, Row, Timestamp, TxnId, Value};

use crate::mvcc::RowEntry;
use crate::skiplist::{cmp_keys, SkipList};

/// One committed row version as a log applier meets it: key, row (`None`
/// is a delete marker) and commit timestamp.
pub type CommittedVersion = (Vec<Value>, Option<Row>, Timestamp);

/// Default time writers wait on a row lock before reporting a conflict.
/// Deliberately short: there is no deadlock detector, so lock-order cycles
/// (e.g. two transactions locking the same rows in opposite orders) resolve
/// by timing out one side, which retries. OLTP drivers treat the resulting
/// [`s2_common::Error::LockConflict`] as retryable.
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_millis(200);

/// In-memory MVCC rowstore keyed by caller-chosen key tuples.
pub struct RowStore {
    list: SkipList<RowEntry>,
    lock_timeout: Duration,
}

impl Default for RowStore {
    fn default() -> Self {
        Self::new()
    }
}

impl RowStore {
    /// Empty store with the default lock timeout.
    pub fn new() -> RowStore {
        RowStore { list: SkipList::new(), lock_timeout: DEFAULT_LOCK_TIMEOUT }
    }

    /// Override the row-lock wait budget (tests use short timeouts).
    pub fn with_lock_timeout(timeout: Duration) -> RowStore {
        RowStore { list: SkipList::new(), lock_timeout: timeout }
    }

    /// The store that installing `versions` one by one with
    /// [`RowStore::install_committed`], in log order (so timestamps never
    /// decrease along a key), and then running [`RowStore::gc`] at their
    /// newest timestamp would leave — built in one pass (recovery's
    /// rowstore load). One stable sort by key keeps log order within a key;
    /// each key keeps its newest version under the key its oldest one
    /// carried, and a key whose newest version is a delete marker is left
    /// out. The skiplist is then linked bottom-up without a single descent.
    pub fn from_committed(mut versions: Vec<CommittedVersion>) -> Result<RowStore> {
        versions.sort_by(|a, b| cmp_keys(&a.0, &b.0));
        let mut versions = versions.into_iter().peekable();
        let newest = std::iter::from_fn(|| loop {
            let (key, mut data, mut ts) = versions.next()?;
            while let Some((_, d, t)) = versions.next_if(|(k, ..)| cmp_keys(k, &key).is_eq()) {
                (data, ts) = (d, t);
            }
            if let Some(row) = data {
                let entry = RowEntry::default();
                entry.chain.push_committed(ts, Some(row));
                return Some((key.into_boxed_slice(), entry));
            }
        });
        Ok(RowStore { list: SkipList::from_sorted(newest)?, lock_timeout: DEFAULT_LOCK_TIMEOUT })
    }

    /// Number of keys present (including logically deleted ones not yet GC'd).
    /// Used as the flush-threshold proxy by the unified table.
    pub fn key_count(&self) -> usize {
        self.list.len()
    }

    /// Write `data` (Some = upsert, None = delete marker) for `key` under
    /// `txn`. Takes the row lock, which is held until commit/rollback.
    pub fn write(&self, txn: TxnId, key: &[Value], data: Option<Row>) -> Result<()> {
        let (node, _) = self.list.insert_or_get(key, RowEntry::default);
        node.payload.lock.lock(txn, self.lock_timeout)?;
        node.payload.chain.push(txn, data);
        Ok(())
    }

    /// Install a version of `key` that is already committed at `commit_ts`:
    /// one skiplist traversal, no row lock, no resolve pass. For a replica
    /// applying its primary's log tail, which is the only writer of its
    /// tables and publishes the timestamp to readers only after the whole
    /// record is in. (Recovery builds the store with
    /// [`RowStore::from_committed`] instead.)
    pub fn install_committed(&self, key: &[Value], data: Option<Row>, commit_ts: Timestamp) {
        let (node, _) = self.list.insert_or_get(key, RowEntry::default);
        node.payload.chain.push_committed(commit_ts, data);
    }

    /// Take the row lock for `key` without writing (used by uniqueness
    /// enforcement, paper §4.1.2 step 1, and by move transactions).
    pub fn lock_key(&self, txn: TxnId, key: &[Value]) -> Result<()> {
        let (node, _) = self.list.insert_or_get(key, RowEntry::default);
        node.payload.lock.lock(txn, self.lock_timeout)
    }

    /// Release the row lock for `key` if `txn` holds it (without resolving
    /// versions; used when a lock was taken but no write happened).
    pub fn unlock_key(&self, txn: TxnId, key: &[Value]) {
        if let Some(node) = self.list.get(key) {
            node.payload.lock.unlock(txn);
        }
    }

    /// Non-blocking lock attempt (used by the flusher, which skips rows that
    /// are currently being written rather than waiting on them).
    pub fn try_lock_key(&self, txn: TxnId, key: &[Value]) -> bool {
        let (node, _) = self.list.insert_or_get(key, RowEntry::default);
        node.payload.lock.try_lock(txn)
    }

    /// Commit `txn`'s versions at `commit_ts` but *keep the row locks held*.
    /// Move transactions need this (paper §4.2): the moved row is committed
    /// immediately (content unchanged) while the lock remains with the user
    /// transaction that triggered the move.
    pub fn commit_keep_locked(&self, txn: TxnId, commit_ts: Timestamp, keys: &[Vec<Value>]) {
        for key in keys {
            if let Some(node) = self.list.get(key) {
                node.payload.chain.resolve(txn, Some(commit_ts));
            }
        }
    }

    /// Visit the latest *committed* live row of every key, with its lock
    /// state. The flusher uses this to pick convertible rows (lock-free keys
    /// whose newest committed version is live).
    pub fn for_each_latest_committed(
        &self,
        mut f: impl FnMut(&[Value], &Row, /* lock_owner: */ TxnId) -> bool,
    ) {
        for node in self.list.iter() {
            if let Some(v) = node.payload.chain.latest_committed() {
                if let Some(row) = &v.data {
                    if !f(&node.key, row, node.payload.lock.owner()) {
                        return;
                    }
                }
            }
        }
    }

    /// Row visible at `read_ts` for `key` (a transaction sees its own writes).
    /// Returns `Some(None)` when the visible version is a delete marker.
    pub fn get(
        &self,
        key: &[Value],
        read_ts: Timestamp,
        self_txn: Option<TxnId>,
    ) -> Option<Option<Row>> {
        let node = self.list.get(key)?;
        let v = node.payload.chain.visible(read_ts, self_txn)?;
        Some(v.data.clone())
    }

    /// The latest *committed* row for `key`, ignoring snapshots. Unique-key
    /// checks need this: they must observe the newest committed state, not
    /// the transaction's snapshot.
    pub fn get_latest_committed(&self, key: &[Value]) -> Option<Option<Row>> {
        let node = self.list.get(key)?;
        let v = node.payload.chain.latest_committed()?;
        Some(v.data.clone())
    }

    /// Visit every key with a visible row at `read_ts`, in key order.
    /// Delete markers are skipped (`f` sees only live rows).
    pub fn for_each_visible(
        &self,
        read_ts: Timestamp,
        self_txn: Option<TxnId>,
        mut f: impl FnMut(&[Value], &Row),
    ) {
        for node in self.list.iter() {
            if let Some(v) = node.payload.chain.visible(read_ts, self_txn) {
                if let Some(row) = &v.data {
                    f(&node.key, row);
                }
            }
        }
    }

    /// Commit `txn`'s versions on the given keys at `commit_ts` and release
    /// their row locks.
    pub fn commit(&self, txn: TxnId, commit_ts: Timestamp, keys: &[Vec<Value>]) {
        for key in keys {
            if let Some(node) = self.list.get(key) {
                node.payload.chain.resolve(txn, Some(commit_ts));
                node.payload.lock.unlock(txn);
            }
        }
    }

    /// Abort `txn`'s versions on the given keys and release their row locks.
    pub fn rollback(&self, txn: TxnId, keys: &[Vec<Value>]) {
        for key in keys {
            if let Some(node) = self.list.get(key) {
                node.payload.chain.resolve(txn, None);
                node.payload.lock.unlock(txn);
            }
        }
    }

    /// Garbage-collect versions no reader at or after `horizon` can see and
    /// unlink keys whose chains become empty. Exclusive access required.
    /// Returns (keys removed, versions freed).
    pub fn gc(&mut self, horizon: Timestamp) -> (usize, usize) {
        let mut versions_freed = 0usize;
        let removed = self.list.retain_mut(|node| {
            let (live, freed) = node.payload.chain.gc(horizon);
            versions_freed += freed;
            if node.payload.lock.owner() != 0 {
                return false; // a writer still holds the row
            }
            if !live {
                return true; // chain fully reclaimed
            }
            // Reclaim keys whose entire remaining history is "deleted":
            // the newest committed version is a delete marker at or before
            // the horizon, so no reader can ever see a live row again.
            node.payload
                .chain
                .visible(s2_common::TS_MAX_COMMITTED, None)
                .is_some_and(|v| v.data.is_none() && v.timestamp() <= horizon)
        });
        (removed, versions_freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn k(i: i64) -> Vec<Value> {
        vec![Value::Int(i)]
    }

    fn row(i: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(i), Value::str(s)])
    }

    #[test]
    fn write_commit_read() {
        let rs = RowStore::new();
        rs.write(1, &k(10), Some(row(10, "a"))).unwrap();
        assert!(rs.get(&k(10), 100, None).is_none(), "uncommitted invisible to others");
        assert!(rs.get(&k(10), 0, Some(1)).is_some(), "visible to self");
        rs.commit(1, 50, &[k(10)]);
        assert!(rs.get(&k(10), 49, None).is_none());
        let got = rs.get(&k(10), 50, None).unwrap().unwrap();
        assert_eq!(got.get(1), &Value::str("a"));
    }

    #[test]
    fn install_committed_equals_write_then_commit() {
        let (a, b) = (RowStore::new(), RowStore::new());
        for (txn, ts, data) in
            [(1, 10, Some(row(1, "x"))), (2, 20, None), (3, 30, Some(row(1, "z")))]
        {
            a.write(txn, &k(1), data.clone()).unwrap();
            a.commit(txn, ts, &[k(1)]);
            b.install_committed(&k(1), data, ts);
        }
        for ts in [5, 10, 15, 20, 25, 30, 99] {
            assert_eq!(a.get(&k(1), ts, None), b.get(&k(1), ts, None), "read at {ts}");
        }
        assert_eq!(a.get_latest_committed(&k(1)), b.get_latest_committed(&k(1)));
        // No lock is left behind: a later writer takes the row at once.
        b.write(9, &k(1), None).unwrap();
    }

    #[test]
    fn delete_marker_visible_as_none() {
        let rs = RowStore::new();
        rs.write(1, &k(1), Some(row(1, "x"))).unwrap();
        rs.commit(1, 10, &[k(1)]);
        rs.write(2, &k(1), None).unwrap();
        rs.commit(2, 20, &[k(1)]);
        assert!(rs.get(&k(1), 15, None).unwrap().is_some());
        assert!(rs.get(&k(1), 25, None).unwrap().is_none());
    }

    #[test]
    fn rollback_restores_previous() {
        let rs = RowStore::new();
        rs.write(1, &k(1), Some(row(1, "v1"))).unwrap();
        rs.commit(1, 10, &[k(1)]);
        rs.write(2, &k(1), Some(row(1, "v2"))).unwrap();
        rs.rollback(2, &[k(1)]);
        let got = rs.get(&k(1), 100, None).unwrap().unwrap();
        assert_eq!(got.get(1), &Value::str("v1"));
        assert_eq!(rs.get_latest_committed(&k(1)).unwrap().unwrap().get(1), &Value::str("v1"));
    }

    #[test]
    fn lock_conflict_between_writers() {
        let rs = RowStore::with_lock_timeout(Duration::from_millis(20));
        rs.write(1, &k(5), Some(row(5, "a"))).unwrap();
        let err = rs.write(2, &k(5), Some(row(5, "b"))).unwrap_err();
        assert!(err.is_retryable());
        rs.commit(1, 10, &[k(5)]);
        rs.write(2, &k(5), Some(row(5, "b"))).unwrap();
        rs.commit(2, 20, &[k(5)]);
        assert_eq!(rs.get(&k(5), 20, None).unwrap().unwrap().get(1), &Value::str("b"));
    }

    #[test]
    fn scan_in_key_order_skips_deleted() {
        let rs = RowStore::new();
        for i in [3i64, 1, 2] {
            rs.write(1, &k(i), Some(row(i, "v"))).unwrap();
        }
        rs.commit(1, 10, &[k(1), k(2), k(3)]);
        rs.write(2, &k(2), None).unwrap();
        rs.commit(2, 20, &[k(2)]);
        let mut seen = Vec::new();
        rs.for_each_visible(25, None, |key, _| seen.push(key[0].as_int().unwrap()));
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn gc_reclaims_deleted_keys() {
        let mut rs = RowStore::new();
        rs.write(1, &k(1), Some(row(1, "x"))).unwrap();
        rs.commit(1, 10, &[k(1)]);
        rs.write(2, &k(1), None).unwrap();
        rs.commit(2, 20, &[k(1)]);
        assert_eq!(rs.key_count(), 1);
        let (removed, _) = rs.gc(30);
        assert_eq!(removed, 1);
        assert_eq!(rs.key_count(), 0);
        assert!(rs.get(&k(1), 100, None).is_none());
    }

    #[test]
    fn gc_keeps_visible_history() {
        let mut rs = RowStore::new();
        for (txn, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            rs.write(txn, &k(1), Some(row(1, &format!("v{ts}")))).unwrap();
            rs.commit(txn, ts, &[k(1)]);
        }
        rs.gc(25);
        // Reader at 25 must still see v20.
        assert_eq!(rs.get(&k(1), 25, None).unwrap().unwrap().get(1), &Value::str("v20"));
        assert_eq!(rs.get(&k(1), 35, None).unwrap().unwrap().get(1), &Value::str("v30"));
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let rs = Arc::new(RowStore::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let rs = Arc::clone(&rs);
                std::thread::spawn(move || {
                    let txn = t + 1;
                    let keys: Vec<Vec<Value>> = (0..200).map(|i| k((i * 8 + t) as i64)).collect();
                    for key in &keys {
                        rs.write(txn, key, Some(row(key[0].as_int().unwrap(), "w"))).unwrap();
                    }
                    rs.commit(txn, 10 + t, &keys);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        rs.for_each_visible(100, None, |_, _| count += 1);
        assert_eq!(count, 1600);
    }

    #[test]
    fn lock_key_without_write() {
        let rs = RowStore::with_lock_timeout(Duration::from_millis(10));
        rs.lock_key(1, &k(9)).unwrap();
        assert!(rs.write(2, &k(9), Some(row(9, "x"))).is_err());
        rs.unlock_key(1, &k(9));
        assert!(rs.write(2, &k(9), Some(row(9, "x"))).is_ok());
    }
}
