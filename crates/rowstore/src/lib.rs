//! In-memory MVCC rowstore (paper §2.1.1).
//!
//! A concurrent skiplist with lock-free reads indexes row keys; each node
//! carries a version chain (multiversion concurrency control, so readers
//! never wait on writers) and a row lock (pessimistic concurrency control
//! for writers). In the unified table storage this crate is both the LSM
//! level-0 write buffer and the row-lock manager for move transactions
//! (paper §4.2).

pub mod mvcc;
pub mod skiplist;
pub mod store;

pub use mvcc::{RowEntry, RowLock, Version, VersionChain};
pub use skiplist::{cmp_keys, Node, SkipList};
pub use store::{CommittedVersion, RowStore, DEFAULT_LOCK_TIMEOUT};
