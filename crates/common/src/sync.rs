//! Lock-discipline wrappers: ranked `Mutex`/`RwLock`/`Condvar`.
//!
//! Every long-lived lock in the workspace is constructed with a
//! [`LockClass`] from the [`rank`] table, which declares where the lock
//! sits in the global acquisition hierarchy. Debug builds enforce the
//! hierarchy at runtime:
//!
//! - a thread-local **held-lock stack** records every guard the current
//!   thread holds, with the source location that acquired it;
//! - acquiring a lock whose rank is *lower* than the most recently
//!   acquired held lock panics immediately (a rank inversion is a
//!   potential deadlock even if the partner thread never materializes);
//! - acquisitions between **equal-rank** classes feed a process-global
//!   acquisition-order graph; adding an edge that closes a cycle panics,
//!   naming the acquisition sites on both sides of the inversion.
//!
//! Same-class nesting (two locks of one class held together, or RwLock
//! read-read overlap such as a registry snapshot) is deliberately not
//! flagged: ordering *within* a class is the class's own business, and
//! several legitimate patterns (per-slot mutex vectors, multi-map
//! registries) overlap guards of one class by design.
//!
//! Release builds compile all of this away: the wrappers are newtypes over
//! `std::sync` primitives with parking_lot-style panic-free guards (poison
//! recovered by taking the inner value), and the class argument is dropped
//! at construction. There is no per-acquisition bookkeeping outside
//! `debug_assertions`.

use std::fmt;
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};
use std::time::Duration;

/// A position in the global lock hierarchy. Locks must be acquired in
/// non-decreasing `order`; classes sharing an `order` are additionally
/// checked for cross-class acquisition cycles.
#[derive(Debug)]
pub struct LockClass {
    /// Hierarchy rank: outermost (acquired first) locks have the lowest
    /// order, leaf locks (safe to take while holding anything) the highest.
    pub order: u32,
    /// Stable human-readable class name (`subsystem.lock_name`).
    pub name: &'static str,
}

/// The workspace lock-hierarchy table. Ranks are spaced so new classes can
/// slot between existing ones; see DESIGN.md "Static analysis & concurrency
/// discipline" for the rationale behind each tier.
pub mod rank {
    use super::LockClass;

    /// Sim harness serialization (outermost: everything runs under it).
    pub static SIM_HARNESS: LockClass = LockClass { order: 100, name: "sim.harness" };
    /// Cluster topology: master/replica set, storage service, maintenance.
    pub static CLUSTER_TOPOLOGY: LockClass = LockClass { order: 200, name: "cluster.topology" };
    /// Cluster table catalog.
    pub static CLUSTER_TABLES: LockClass = LockClass { order: 210, name: "cluster.tables" };
    /// Workspace-manager registry (name -> attached workspace).
    pub static CLUSTER_WORKSPACES: LockClass = LockClass { order: 215, name: "cluster.workspaces" };
    /// Replica applied-watermark condvar cell (catch-up waits park here).
    pub static CLUSTER_REPLICA_MARK: LockClass =
        LockClass { order: 220, name: "cluster.replica_mark" };
    /// Partition commit lock (serializes commit/flush/merge decisions).
    pub static CORE_COMMIT: LockClass = LockClass { order: 300, name: "core.commit" };
    /// Partition table maps (id and name registries).
    pub static CORE_TABLES: LockClass = LockClass { order: 310, name: "core.tables" };
    /// Partition pinned-snapshot refcounts.
    pub static CORE_PINNED: LockClass = LockClass { order: 315, name: "core.pinned" };
    /// Partition list of retired data files awaiting deletion.
    pub static CORE_RETIRED: LockClass = LockClass { order: 316, name: "core.retired" };
    /// Per-table rowstore (held across flush while the version is published).
    pub static CORE_ROWSTORE: LockClass = LockClass { order: 318, name: "core.rowstore" };
    /// Per-table published columnstore version slot.
    pub static CORE_TABLE_VERSION: LockClass = LockClass { order: 320, name: "core.table_version" };
    /// Data-file store map.
    pub static CORE_SEGFILES: LockClass = LockClass { order: 330, name: "core.segfiles" };
    /// Group-commit queue state (taken under the commit lock by submitters;
    /// the leader takes the WAL interior lock beneath it while appending).
    pub static WAL_GROUP: LockClass = LockClass { order: 390, name: "wal.group" };
    /// WAL log interior (buffers + watermarks).
    pub static WAL_LOG: LockClass = LockClass { order: 400, name: "wal.log" };
    /// Blob-backed file store's uploaded-key set.
    pub static CLUSTER_STORAGE_SETS: LockClass =
        LockClass { order: 500, name: "cluster.storage_sets" };
    /// Object-store backend maps (MemoryStore et al).
    pub static BLOB_STORE: LockClass = LockClass { order: 510, name: "blob.store" };
    /// Local file cache (pin/evict bookkeeping).
    pub static BLOB_CACHE: LockClass = LockClass { order: 520, name: "blob.cache" };
    /// Uploader queue state (ready/deferred/inflight).
    pub static BLOB_UPLOADER: LockClass = LockClass { order: 530, name: "blob.uploader" };
    /// Circuit-breaker core state.
    pub static BLOB_BREAKER: LockClass = LockClass { order: 540, name: "blob.breaker" };
    /// Scan-pool job queue and worker count (the pool's only lock).
    pub static EXEC_POOL_QUEUE: LockClass = LockClass { order: 600, name: "exec.pool_queue" };
    /// Per-segment adaptive-decision cache.
    pub static EXEC_DECISION_CACHE: LockClass =
        LockClass { order: 620, name: "exec.decision_cache" };
    /// Encoded-column block-decode caches.
    pub static ENCODING_READER: LockClass = LockClass { order: 650, name: "encoding.reader" };
    /// Sim storage overlays (consulted from inside engine file ops).
    pub static SIM_STORAGE: LockClass = LockClass { order: 700, name: "sim.storage" };
    /// Sim fault-plan state (locked from fault-hook evaluation, which can
    /// run under almost any engine lock).
    pub static SIM_PLAN: LockClass = LockClass { order: 710, name: "sim.plan" };
    /// Fault-hook registry (read from deep inside commit/upload paths).
    pub static FAULT_REGISTRY: LockClass = LockClass { order: 800, name: "fault.registry" };
    /// Obs metric registries (leaf: metrics are recorded under any lock).
    pub static OBS_REGISTRY: LockClass = LockClass { order: 900, name: "obs.registry" };
    /// Obs event-ring slots (taken inside registry snapshots).
    pub static OBS_RING_SLOT: LockClass = LockClass { order: 910, name: "obs.ring_slot" };
    /// Test-only classes for the detector's own suite.
    pub static TEST_A: LockClass = LockClass { order: 10_000, name: "test.a" };
    /// Equal-rank partner of [`TEST_A`] (exercises the cycle graph).
    pub static TEST_B: LockClass = LockClass { order: 10_000, name: "test.b" };
    /// Strictly above [`TEST_A`]/[`TEST_B`] (exercises the rank check).
    pub static TEST_C: LockClass = LockClass { order: 10_010, name: "test.c" };

    /// Machine-readable export of the full hierarchy, keyed by the Rust
    /// identifier used at construction sites (`&rank::WAL_GROUP` → entry
    /// `("WAL_GROUP", ..)`). The static analyzer (s2-lint L1/L2) resolves
    /// lock constructions through this table; a `&rank::X` it cannot find
    /// here is itself reported, so the table cannot silently go stale.
    pub static TABLE: &[(&str, &LockClass)] = &[
        ("SIM_HARNESS", &SIM_HARNESS),
        ("CLUSTER_TOPOLOGY", &CLUSTER_TOPOLOGY),
        ("CLUSTER_TABLES", &CLUSTER_TABLES),
        ("CLUSTER_WORKSPACES", &CLUSTER_WORKSPACES),
        ("CLUSTER_REPLICA_MARK", &CLUSTER_REPLICA_MARK),
        ("CORE_COMMIT", &CORE_COMMIT),
        ("CORE_TABLES", &CORE_TABLES),
        ("CORE_PINNED", &CORE_PINNED),
        ("CORE_RETIRED", &CORE_RETIRED),
        ("CORE_ROWSTORE", &CORE_ROWSTORE),
        ("CORE_TABLE_VERSION", &CORE_TABLE_VERSION),
        ("CORE_SEGFILES", &CORE_SEGFILES),
        ("WAL_GROUP", &WAL_GROUP),
        ("WAL_LOG", &WAL_LOG),
        ("CLUSTER_STORAGE_SETS", &CLUSTER_STORAGE_SETS),
        ("BLOB_STORE", &BLOB_STORE),
        ("BLOB_CACHE", &BLOB_CACHE),
        ("BLOB_UPLOADER", &BLOB_UPLOADER),
        ("BLOB_BREAKER", &BLOB_BREAKER),
        ("EXEC_POOL_QUEUE", &EXEC_POOL_QUEUE),
        ("EXEC_DECISION_CACHE", &EXEC_DECISION_CACHE),
        ("ENCODING_READER", &ENCODING_READER),
        ("SIM_STORAGE", &SIM_STORAGE),
        ("SIM_PLAN", &SIM_PLAN),
        ("FAULT_REGISTRY", &FAULT_REGISTRY),
        ("OBS_REGISTRY", &OBS_REGISTRY),
        ("OBS_RING_SLOT", &OBS_RING_SLOT),
        ("TEST_A", &TEST_A),
        ("TEST_B", &TEST_B),
        ("TEST_C", &TEST_C),
    ];
}

#[cfg(debug_assertions)]
mod detect {
    use super::LockClass;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::{Mutex, OnceLock};

    struct Held {
        id: u64,
        class: &'static LockClass,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: RefCell<u64> = const { RefCell::new(0) };
    }

    /// One observed acquisition ordering: `holding <from>, acquired <to>`,
    /// with the first sites that exhibited it (for the panic message).
    struct Edge {
        from_site: &'static Location<'static>,
        to_site: &'static Location<'static>,
    }

    /// class name -> (class name -> first witnessing sites). The raw std
    /// mutex here is intentional: the graph itself is outside the hierarchy.
    type Graph = HashMap<&'static str, HashMap<&'static str, Edge>>;

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Find a path `from -> ... -> to` in the acquisition graph, returning
    /// the class names along it (inclusive) if one exists.
    fn find_path(g: &Graph, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![from]];
        let mut visited = std::collections::HashSet::new();
        visited.insert(from);
        while let Some(path) = stack.pop() {
            let last = *path.last().expect("paths are non-empty");
            if last == to {
                return Some(path);
            }
            if let Some(nexts) = g.get(last) {
                for &next in nexts.keys() {
                    if visited.insert(next) {
                        let mut p = path.clone();
                        p.push(next);
                        stack.push(p);
                    }
                }
            }
        }
        None
    }

    fn describe(held: &Held) -> String {
        format!("{} (rank {}) acquired at {}", held.class.name, held.class.order, held.site)
    }

    /// A held-stack entry; popping happens on guard drop (out-of-order drops
    /// are fine — entries are removed by id, not position).
    pub struct Token {
        id: u64,
    }

    impl Drop for Token {
        fn drop(&mut self) {
            let id = self.id;
            // Ignore access failures during thread teardown: the thread-local
            // may already be gone while statics' guards drop.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|h| h.id == id) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Record an acquisition of `class` at `site`, enforcing rank order and
    /// cycle-freedom against the currently held locks of this thread.
    pub fn acquire(class: &'static LockClass, site: &'static Location<'static>) -> Token {
        HELD.with(|held| {
            let held_ref = held.borrow();
            if let Some(top) = held_ref.iter().rfind(|h| h.class.name != class.name) {
                if class.order < top.class.order {
                    panic!(
                        "lock-order inversion: acquiring {} (rank {}) at {} while holding {}",
                        class.name,
                        class.order,
                        site,
                        describe(top),
                    );
                }
                if class.order == top.class.order {
                    // Equal rank: consult/extend the global acquisition graph.
                    let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(path) = find_path(&g, class.name, top.class.name) {
                        let witness = g
                            .get(path[0])
                            .and_then(|m| m.get(path[1]))
                            .map(|e| format!("{} then {}", e.from_site, e.to_site))
                            .unwrap_or_else(|| "<unknown>".into());
                        panic!(
                            "lock-order inversion: acquiring {} at {} while holding {} would \
                             close the cycle {:?} (first observed: held {} at {})",
                            class.name,
                            site,
                            describe(top),
                            path,
                            path[0],
                            witness,
                        );
                    }
                    g.entry(top.class.name)
                        .or_default()
                        .entry(class.name)
                        .or_insert(Edge { from_site: top.site, to_site: site });
                }
            }
            drop(held_ref);
            let id = NEXT_ID.with(|n| {
                let mut n = n.borrow_mut();
                *n += 1;
                *n
            });
            held.borrow_mut().push(Held { id, class, site });
            Token { id }
        })
    }

    /// Test support: forget every recorded ordering (the graph is global, so
    /// detector tests would otherwise interfere with each other).
    pub fn reset_order_graph_for_tests() {
        graph().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Test support (debug builds): clear the global acquisition-order graph.
#[cfg(debug_assertions)]
pub fn reset_order_graph_for_tests() {
    detect::reset_order_graph_for_tests();
}

/// A ranked mutual-exclusion lock. `lock()` returns the guard directly
/// (parking_lot style); poisoning is recovered, never surfaced.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
    inner: StdMutex<T>,
}

/// Guard for [`Mutex`]; releases the lock (and its held-stack entry) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    token: detect::Token,
    inner: StdMutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// New mutex belonging to `class` in the lock hierarchy.
    pub const fn new(class: &'static LockClass, value: T) -> Mutex<T> {
        let _ = class;
        Mutex {
            #[cfg(debug_assertions)]
            class,
            inner: StdMutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = detect::acquire(self.class, std::panic::Location::caller());
        MutexGuard {
            #[cfg(debug_assertions)]
            token,
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Try to acquire the lock without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            #[cfg(debug_assertions)]
            token: detect::acquire(self.class, std::panic::Location::caller()),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Mutex<T> {
    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            Err(_) => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A ranked reader-writer lock; guards returned directly, poison recovered.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
    inner: StdRwLock<T>,
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    _token: detect::Token,
    inner: StdRwLockReadGuard<'a, T>,
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    _token: detect::Token,
    inner: StdRwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// New rwlock belonging to `class` in the lock hierarchy.
    pub const fn new(class: &'static LockClass, value: T) -> RwLock<T> {
        let _ = class;
        RwLock {
            #[cfg(debug_assertions)]
            class,
            inner: StdRwLock::new(value),
        }
    }

    /// Consume the rwlock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = detect::acquire(self.class, std::panic::Location::caller());
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            _token: token,
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquire an exclusive write guard.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = detect::acquire(self.class, std::panic::Location::caller());
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            _token: token,
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable paired with [`Mutex`]. Waiting keeps the guard's
/// held-stack entry (the blocked thread acquires nothing while parked, so
/// the bookkeeping stays truthful about re-acquisition on wake).
#[derive(Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Condvar {
        Condvar { inner: StdCondvar::new() }
    }

    /// Release the guard's lock, wait for a notification, re-acquire.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        let token = guard.token;
        MutexGuard {
            #[cfg(debug_assertions)]
            token,
            inner: self.inner.wait(guard.inner).unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Like [`Condvar::wait`] with a timeout; the bool reports a timeout.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        #[cfg(debug_assertions)]
        let token = guard.token;
        let (inner, res) =
            self.inner.wait_timeout(guard.inner, timeout).unwrap_or_else(|e| e.into_inner());
        (
            MutexGuard {
                #[cfg(debug_assertions)]
                token,
                inner,
            },
            res.timed_out(),
        )
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_rwlock_basics() {
        let m = Mutex::new(&rank::TEST_A, 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
        let l = RwLock::new(&rank::TEST_A, vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(&rank::TEST_A, false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
        let (m, cv) = &*pair;
        let (g, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out);
        assert!(*g);
    }

    #[test]
    fn rank_table_is_consistent() {
        use std::collections::BTreeSet;
        let idents: BTreeSet<&str> = rank::TABLE.iter().map(|(i, _)| *i).collect();
        assert_eq!(idents.len(), rank::TABLE.len(), "duplicate identifier in rank::TABLE");
        let names: BTreeSet<&str> = rank::TABLE.iter().map(|(_, c)| c.name).collect();
        assert_eq!(names.len(), rank::TABLE.len(), "duplicate class name in rank::TABLE");
        // Entries stay listed in hierarchy order so the table doubles as
        // readable documentation (equal orders — the test.a/test.b pair —
        // are fine).
        for w in rank::TABLE.windows(2) {
            assert!(
                w[0].1.order <= w[1].1.order,
                "rank::TABLE out of order: {} ({}) then {} ({})",
                w[0].0,
                w[0].1.order,
                w[1].0,
                w[1].1.order
            );
        }
    }

    #[test]
    fn rank_respecting_order_is_silent() {
        let a = Mutex::new(&rank::TEST_A, ());
        let c = Mutex::new(&rank::TEST_C, ());
        let _ga = a.lock();
        let _gc = c.lock(); // ascending rank: fine
    }

    #[test]
    #[cfg(debug_assertions)]
    fn descending_rank_panics_with_both_sites() {
        let c = Mutex::new(&rank::TEST_C, ());
        let a = Mutex::new(&rank::TEST_A, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gc = c.lock();
            let _ga = a.lock(); // rank 10_000 under rank 10_010: inversion
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("lock-order inversion"), "got: {msg}");
        assert!(msg.contains("test.c") && msg.contains("test.a"), "got: {msg}");
        assert!(msg.contains("sync.rs"), "sites must be named: {msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn cross_thread_equal_rank_cycle_panics_naming_both_sites() {
        detect::reset_order_graph_for_tests();
        let ab = Arc::new((Mutex::new(&rank::TEST_A, ()), Mutex::new(&rank::TEST_B, ())));
        // Thread 1 teaches the graph the A -> B ordering and exits cleanly:
        // nothing deadlocks yet, the ordering is merely recorded.
        let teach = Arc::clone(&ab);
        std::thread::spawn(move || {
            let _a = teach.0.lock();
            let _b = teach.1.lock();
        })
        .join()
        .unwrap();
        // Thread 2 acquires B then A. With thread 1 gone there is no actual
        // deadlock — but the orderings combined admit one, so the detector
        // must panic when the B -> A edge would close the cycle.
        let invert = Arc::clone(&ab);
        let err = std::thread::spawn(move || {
            let _b = invert.1.lock();
            let _a = invert.0.lock();
        })
        .join()
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("close the cycle"), "got: {msg}");
        assert!(msg.contains("test.a") && msg.contains("test.b"), "got: {msg}");
        // The report names thread 2's acquisition site plus both sites of
        // thread 1's historical A -> B edge, localizing the inversion.
        assert!(msg.matches("sync.rs").count() >= 3, "got: {msg}");
    }
}
