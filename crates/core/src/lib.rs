//! Unified HTAP table storage — the paper's primary contribution (§4).
//!
//! A table is a log-structured merge tree whose level 0 is an in-memory MVCC
//! rowstore (`s2-rowstore`) and whose lower levels are immutable, compressed
//! columnstore segments (`s2-columnstore`) with two-level secondary indexes
//! (`s2-index`). Key properties reproduced from the paper:
//!
//! - **No merge-based reconciliation during reads**: deletes are a bit
//!   vector in segment metadata, applied as a filter during scans, never a
//!   tombstone merge across LSM levels.
//! - **Row-level locking via move transactions** (§4.2): updates/deletes of
//!   segment-resident rows first relocate them into the rowstore in an
//!   autonomous, content-preserving transaction; the rowstore's primary key
//!   is the lock manager.
//! - **Uniqueness enforcement through the secondary index** (§4.1.2) with
//!   ERROR / SKIP / REPLACE / ON-DUPLICATE-UPDATE handling.
//! - **Redo-only WAL integration** (§3): every commit is one log record;
//!   flushes name their immutable data files after the log position that
//!   created them; recovery = snapshot + log replay, which is also the
//!   replica-apply and PITR path.

pub mod partition;
pub mod record;
pub mod segfile;
pub mod table;
pub mod txn;

pub use partition::{Partition, PartitionSnapshot};
pub use record::{
    EngineRecord, RowOp, REC_COMMIT, REC_CREATE_TABLE, REC_FLUSH, REC_MERGE, REC_MOVE,
};
pub use segfile::{file_name, DataFileStore, MemFileStore, SegmentFile};
pub use table::{IndexProbe, SegmentCore, SegmentSnap, Table, TableSnapshot};
pub use txn::{DuplicatePolicy, InsertReport, RowLocation, Txn};
