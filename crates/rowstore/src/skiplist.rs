//! A concurrent skiplist with lock-free reads (paper §2.1.1: "each index in
//! an S2DB in-memory rowstore table uses a lockfree skiplist").
//!
//! Design notes:
//! - Nodes are **never physically removed** while the list is shared; logical
//!   deletion happens one level up, in the MVCC version chain. This removes
//!   the need for hazard pointers / epoch reclamation: any pointer a reader
//!   loads stays valid for the lifetime of the list borrow. Garbage
//!   collection of empty nodes runs under `&mut self` (exclusive access,
//!   e.g. after a flush), where unlinking and freeing are trivially safe.
//! - Inserts are lock-free: level-0 linkage is a CAS; upper levels are linked
//!   by CAS loops that re-search on contention.
//! - Each node owns its payload `T` (for the rowstore: the version chain and
//!   the row-lock word).

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use s2_common::{Error, Result, Value};

const MAX_HEIGHT: usize = 16;

/// Compare two multi-column keys lexicographically by value total order.
pub fn cmp_keys(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.total_cmp(y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

/// One skiplist node: key, payload and a tower of forward pointers.
pub struct Node<T> {
    /// The node's key (immutable after insert).
    pub key: Box<[Value]>,
    /// Caller payload (version chain + lock word for the rowstore).
    pub payload: T,
    tower: Box<[AtomicPtr<Node<T>>]>,
}

impl<T> Node<T> {
    fn height(&self) -> usize {
        self.tower.len()
    }
}

/// Concurrent skiplist keyed by `[Value]` tuples.
pub struct SkipList<T> {
    head: *mut Node<T>,
    len: AtomicUsize,
    rng: AtomicU64,
}

// SAFETY: all shared mutation is via atomics; nodes are only freed under
// exclusive access (&mut self or Drop). `T` must itself be shareable.
unsafe impl<T: Send + Sync> Send for SkipList<T> {}
// SAFETY: see the Send impl above — same argument.
unsafe impl<T: Send + Sync> Sync for SkipList<T> {}

impl<T: Default> Default for SkipList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SkipList<T> {
    /// Empty list. The head sentinel's payload is `T::default()` and is never
    /// observed by callers.
    pub fn new() -> SkipList<T>
    where
        T: Default,
    {
        let tower: Vec<AtomicPtr<Node<T>>> =
            (0..MAX_HEIGHT).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        let head = Box::into_raw(Box::new(Node {
            key: Vec::new().into_boxed_slice(),
            payload: T::default(),
            tower: tower.into_boxed_slice(),
        }));
        SkipList { head, len: AtomicUsize::new(0), rng: AtomicU64::new(0x853c_49e6_748f_ea9b) }
    }

    /// Build a list from `(key, payload)` pairs in strictly ascending key
    /// order, bottom-up in one pass (recovery's bulk load). Each node draws
    /// its height from [`SkipList::random_height`], as an insert would, and
    /// is appended behind the last node linked at each of its levels: no
    /// descent and no search. Keys move into the nodes. Returns
    /// [`Error::Corruption`] at the first key that is not greater than the
    /// one before it; the list is never built out of order.
    pub fn from_sorted(entries: impl IntoIterator<Item = (Box<[Value]>, T)>) -> Result<SkipList<T>>
    where
        T: Default,
    {
        let list = SkipList::new();
        // The last node linked at each level; the head until one is.
        let mut last = [list.head; MAX_HEIGHT];
        let mut len = 0usize;
        for (key, payload) in entries {
            // SAFETY: last[0] is the head or a node linked below, owned by
            // `list`, which no other thread can reach yet; nodes are only
            // freed by its Drop.
            let prev = unsafe { &*last[0] };
            if len > 0 && cmp_keys(&prev.key, &key) != std::cmp::Ordering::Less {
                // Dropping `list` frees every node linked so far.
                return Err(Error::Corruption(format!(
                    "bulk skiplist load: key {key:?} does not follow {:?}",
                    prev.key
                )));
            }
            let height = list.random_height();
            let tower: Vec<AtomicPtr<Node<T>>> =
                (0..height).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
            let node =
                Box::into_raw(Box::new(Node { key, payload, tower: tower.into_boxed_slice() }));
            for (lvl, pred) in last.iter_mut().enumerate().take(height) {
                // SAFETY: as for `prev` — every entry of `last` is the head
                // (whose tower has MAX_HEIGHT levels) or a node whose tower
                // reaches `lvl`, since a node is recorded only at the levels
                // it has. Relaxed suffices: the finished list reaches other
                // threads only through whatever publishes `list` itself.
                unsafe { (**pred).tower[lvl].store(node, Ordering::Relaxed) };
                *pred = node;
            }
            len += 1;
        }
        list.len.store(len, Ordering::Relaxed);
        Ok(list)
    }

    /// Number of nodes (including ones whose payload is logically dead).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when the list has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn random_height(&self) -> usize {
        // xorshift over a shared seed; contention here is harmless.
        let mut x = self.rng.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let bits = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        ((bits.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Find, at every level, the last node with key < `key`.
    /// Returns (preds, succs); `succs[0]` is the first node with key >= `key`.
    fn find(&self, key: &[Value]) -> ([*mut Node<T>; MAX_HEIGHT], [*mut Node<T>; MAX_HEIGHT]) {
        let mut preds = [self.head; MAX_HEIGHT];
        let mut succs = [ptr::null_mut(); MAX_HEIGHT];
        let mut pred = self.head;
        for lvl in (0..MAX_HEIGHT).rev() {
            // SAFETY: pred is head or a node reachable from head; never freed
            // while &self is alive.
            let mut curr = unsafe { (*pred).tower[lvl].load(Ordering::Acquire) };
            while !curr.is_null() {
                // SAFETY: curr was loaded from a live tower and is non-null;
                // nodes are never freed while &self is alive.
                let curr_ref = unsafe { &*curr };
                if cmp_keys(&curr_ref.key, key) == std::cmp::Ordering::Less {
                    pred = curr;
                    curr = curr_ref.tower[lvl].load(Ordering::Acquire);
                } else {
                    break;
                }
            }
            preds[lvl] = pred;
            succs[lvl] = curr;
        }
        (preds, succs)
    }

    /// Lock-free lookup.
    pub fn get(&self, key: &[Value]) -> Option<&Node<T>> {
        let (_, succs) = self.find(key);
        let cand = succs[0];
        if cand.is_null() {
            return None;
        }
        // SAFETY: cand is non-null and reachable from head; nodes are never
        // freed while &self is alive, so the reference lives as long as &self.
        let node = unsafe { &*cand };
        (cmp_keys(&node.key, key) == std::cmp::Ordering::Equal).then_some(node)
    }

    /// Insert a node with `key`, or return the existing one. `make` is called
    /// only when a new node is actually created (it may lose the race and be
    /// dropped, in which case the racing winner is returned).
    pub fn insert_or_get(&self, key: &[Value], make: impl FnOnce() -> T) -> (&Node<T>, bool) {
        let mut make = Some(make);
        let mut new_node: *mut Node<T> = ptr::null_mut();
        loop {
            let (preds, succs) = self.find(key);
            if !succs[0].is_null() {
                // SAFETY: non-null successor reachable from head; never
                // freed while &self is alive.
                let cand = unsafe { &*succs[0] };
                if cmp_keys(&cand.key, key) == std::cmp::Ordering::Equal {
                    // Lost the race (or key already present): free our draft node.
                    if !new_node.is_null() {
                        // SAFETY: new_node came from Box::into_raw below and
                        // was never published (the level-0 CAS did not
                        // succeed), so this thread still owns it exclusively.
                        drop(unsafe { Box::from_raw(new_node) });
                    }
                    return (cand, false);
                }
            }
            if new_node.is_null() {
                let height = self.random_height();
                let tower: Vec<AtomicPtr<Node<T>>> =
                    (0..height).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
                new_node = Box::into_raw(Box::new(Node {
                    key: key.to_vec().into_boxed_slice(),
                    // s2-lint: allow(unwrap, make is consumed exactly once: the CAS-retry loop reuses new_node instead of re-entering this arm)
                    payload: (make.take().expect("make called once"))(),
                    tower: tower.into_boxed_slice(),
                }));
            }
            // SAFETY: new_node is a valid allocation this thread owns until
            // the level-0 CAS publishes it; after that it stays live for the
            // list's lifetime.
            let node_ref = unsafe { &*new_node };
            let height = node_ref.height();
            node_ref.tower[0].store(succs[0], Ordering::Relaxed);
            // Level-0 CAS decides success.
            // SAFETY: preds[0] is head or a reachable node; never freed
            // while &self is alive.
            let pred0 = unsafe { &*preds[0] };
            if pred0.tower[0]
                .compare_exchange(succs[0], new_node, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue; // somebody changed the neighbourhood; re-search
            }
            self.len.fetch_add(1, Ordering::Relaxed);
            // Link upper levels best-effort (re-searching on contention).
            for lvl in 1..height {
                loop {
                    let (preds, succs) = self.find(key);
                    // Another inserter of the same key is impossible (level 0
                    // is linked), so preds/succs straddle our node or point at it.
                    if succs[lvl] == new_node {
                        break; // already linked at this level
                    }
                    node_ref.tower[lvl].store(succs[lvl], Ordering::Relaxed);
                    // SAFETY: as for pred0 — reachable, never freed under &self.
                    let pred = unsafe { &*preds[lvl] };
                    if pred.tower[lvl]
                        .compare_exchange(succs[lvl], new_node, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        break;
                    }
                }
            }
            // SAFETY: new_node was published by the level-0 CAS and is now
            // owned by the list, which outlives the returned reference.
            return (unsafe { &*new_node }, true);
        }
    }

    /// Iterate nodes in key order starting at the first key >= `from`
    /// (or from the beginning when `from` is `None`).
    pub fn iter_from(&self, from: Option<&[Value]>) -> Iter<'_, T> {
        let start = match from {
            // SAFETY: head is a valid allocation for the list's lifetime.
            None => unsafe { (*self.head).tower[0].load(Ordering::Acquire) },
            Some(key) => self.find(key).1[0],
        };
        Iter { curr: start, _list: self }
    }

    /// Iterate all nodes in key order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.iter_from(None)
    }

    /// Remove nodes for which `dead` returns true, giving the predicate
    /// mutable access to each node exactly once (so it can e.g. garbage
    /// collect a version chain while deciding). Exclusive access makes the
    /// unlink + free safe: no concurrent readers can exist behind `&mut`.
    pub fn retain_mut(&mut self, mut dead: impl FnMut(&mut Node<T>) -> bool) -> usize {
        // SAFETY: &mut self guarantees no concurrent readers or writers, so
        // raw traversal, mutable node access, unlinking and freeing are all
        // exclusive; every pointer walked is head or reachable from it.
        unsafe {
            // Pass 1: decide deaths walking level 0 (each node visited once).
            let mut victims: std::collections::HashSet<usize> = std::collections::HashSet::new();
            let mut curr = (*self.head).tower[0].load(Ordering::Relaxed);
            while !curr.is_null() {
                let next = (*curr).tower[0].load(Ordering::Relaxed);
                if dead(&mut *curr) {
                    victims.insert(curr as usize);
                }
                curr = next;
            }
            // Pass 2: unlink victims at every level.
            for lvl in 0..MAX_HEIGHT {
                let mut pred = self.head;
                let mut curr = (*pred).tower[lvl].load(Ordering::Relaxed);
                while !curr.is_null() {
                    let next = (*curr).tower[lvl].load(Ordering::Relaxed);
                    if victims.contains(&(curr as usize)) {
                        (*pred).tower[lvl].store(next, Ordering::Relaxed);
                    } else {
                        pred = curr;
                    }
                    curr = next;
                }
            }
            let removed = victims.len();
            for v in victims {
                drop(Box::from_raw(v as *mut Node<T>));
            }
            self.len.fetch_sub(removed, Ordering::Relaxed);
            removed
        }
    }
}

impl<T> Drop for SkipList<T> {
    fn drop(&mut self) {
        // SAFETY: Drop has exclusive access; every node (and head) was
        // allocated via Box::into_raw and is freed exactly once here.
        unsafe {
            let mut curr = (*self.head).tower[0].load(Ordering::Relaxed);
            while !curr.is_null() {
                let next = (*curr).tower[0].load(Ordering::Relaxed);
                drop(Box::from_raw(curr));
                curr = next;
            }
            drop(Box::from_raw(self.head));
        }
    }
}

/// Level-0 iterator over nodes in key order.
pub struct Iter<'a, T> {
    curr: *mut Node<T>,
    _list: &'a SkipList<T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a Node<T>;

    fn next(&mut self) -> Option<&'a Node<T>> {
        if self.curr.is_null() {
            return None;
        }
        // SAFETY: curr is non-null and reachable from head; nodes are never
        // freed while the iterator borrows the list.
        let node = unsafe { &*self.curr };
        self.curr = node.tower[0].load(Ordering::Acquire);
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn k(i: i64) -> Vec<Value> {
        vec![Value::Int(i)]
    }

    #[test]
    fn insert_get_ordered_iter() {
        let list: SkipList<i64> = SkipList::new();
        for i in [5i64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            let (_, created) = list.insert_or_get(&k(i), || i * 10);
            assert!(created);
        }
        assert_eq!(list.len(), 10);
        assert_eq!(list.get(&k(7)).unwrap().payload, 70);
        assert!(list.get(&k(42)).is_none());
        let keys: Vec<i64> = list.iter().map(|n| n.key[0].as_int().unwrap()).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn insert_duplicate_returns_existing() {
        let list: SkipList<i64> = SkipList::new();
        let (_, created) = list.insert_or_get(&k(1), || 100);
        assert!(created);
        let (node, created) = list.insert_or_get(&k(1), || 200);
        assert!(!created);
        assert_eq!(node.payload, 100);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn iter_from_seeks() {
        let list: SkipList<()> = SkipList::new();
        for i in (0..100).step_by(10) {
            list.insert_or_get(&k(i), || ());
        }
        let from = k(35);
        let got: Vec<i64> =
            list.iter_from(Some(&from)).map(|n| n.key[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![40, 50, 60, 70, 80, 90]);
    }

    #[test]
    fn multi_column_keys() {
        let list: SkipList<()> = SkipList::new();
        list.insert_or_get(&[Value::Int(1), Value::str("b")], || ());
        list.insert_or_get(&[Value::Int(1), Value::str("a")], || ());
        list.insert_or_get(&[Value::Int(0), Value::str("z")], || ());
        let keys: Vec<String> = list.iter().map(|n| format!("{}{}", n.key[0], n.key[1])).collect();
        assert_eq!(keys, vec!["0z", "1a", "1b"]);
    }

    #[test]
    fn retain_removes_and_frees() {
        let mut list: SkipList<i64> = SkipList::new();
        for i in 0..50 {
            list.insert_or_get(&k(i), || i);
        }
        let removed = list.retain_mut(|n| n.payload % 2 == 0);
        assert_eq!(removed, 25);
        assert_eq!(list.len(), 25);
        let keys: Vec<i64> = list.iter().map(|n| n.payload).collect();
        assert!(keys.iter().all(|v| v % 2 == 1));
        // Lookups still work after unlinking.
        assert!(list.get(&k(2)).is_none());
        assert!(list.get(&k(3)).is_some());
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let list: Arc<SkipList<u64>> = Arc::new(SkipList::new());
        let threads = 8;
        let per = 500;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for i in 0..per {
                        list.insert_or_get(&k((i * threads + t) as i64), || 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(list.len(), threads as usize * per as usize);
        let keys: Vec<i64> = list.iter().map(|n| n.key[0].as_int().unwrap()).collect();
        assert_eq!(keys.len(), threads as usize * per as usize);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "iteration must be sorted");
    }

    fn sorted(keys: &[i64]) -> Result<SkipList<i64>> {
        SkipList::from_sorted(keys.iter().map(|&i| (k(i).into_boxed_slice(), i * 10)))
    }

    #[test]
    fn from_sorted_rejects_unsorted_and_duplicate_keys() {
        for keys in [&[1i64, 3, 2][..], &[1, 2, 2, 3], &[5, 5], &[9, 0]] {
            match sorted(keys) {
                Err(Error::Corruption(_)) => {}
                other => panic!("{keys:?}: expected Corruption, got {:?}", other.map(|l| l.len())),
            }
        }
        assert!(sorted(&[]).unwrap().is_empty());
    }

    #[test]
    fn bulk_built_list_takes_concurrent_inserts() {
        // Even keys bulk-loaded, odd keys inserted afterwards by 4 threads.
        let evens: Vec<i64> = (0..2000).step_by(2).collect();
        let list = Arc::new(sorted(&evens).unwrap());
        assert_eq!(list.len(), evens.len());
        assert_eq!(list.get(&k(1234)).unwrap().payload, 12340);
        assert!(list.get(&k(1235)).is_none());
        let handles: Vec<_> = (0..4i64)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for i in (0..2000).filter(|i| i % 8 == 2 * t + 1) {
                        let (_, created) = list.insert_or_get(&k(i), || i * 10);
                        assert!(created, "odd key {i} is new");
                    }
                    // Bulk-loaded keys are found, not duplicated.
                    let (node, created) = list.insert_or_get(&k(2 * t), || -1);
                    assert!(!created);
                    assert_eq!(node.payload, 2 * t * 10);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(list.len(), 2000);
        let got: Vec<(i64, i64)> =
            list.iter().map(|n| (n.key[0].as_int().unwrap(), n.payload)).collect();
        assert_eq!(got, (0..2000).map(|i| (i, i * 10)).collect::<Vec<_>>());
        let from = k(1501);
        assert_eq!(list.iter_from(Some(&from)).next().unwrap().payload, 15010);
    }

    #[test]
    fn concurrent_same_key_single_winner() {
        let list: Arc<SkipList<u64>> = Arc::new(SkipList::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    let mut created = 0;
                    for i in 0..200 {
                        let (_, c) = list.insert_or_get(&k(i), || t);
                        if c {
                            created += 1;
                        }
                    }
                    created
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 200, "each key created exactly once");
        assert_eq!(list.len(), 200);
    }
}
