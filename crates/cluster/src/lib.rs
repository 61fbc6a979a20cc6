//! Cluster layer: hash-partitioned databases, master/replica replication
//! with commit acknowledgements, failover, separated storage (async blob
//! shipping of data files, log chunks and snapshots), point-in-time restore
//! and read-only workspaces (paper §2 and §3).

pub mod cluster;
pub mod manager;
pub mod pitr;
pub mod replica;
pub mod storage;
pub mod workspace;

pub use cluster::{Cluster, ClusterConfig, ClusterTxn, PartitionSet};
pub use manager::{WorkspaceManager, WorkspaceManagerConfig};
pub use pitr::{find_snapshot, max_uploaded_lp, restore_from_blob};
pub use replica::{empty_replica_partition, Replica, StreamApplier};
pub use storage::{log_chunk_key, BlobBackedFileStore, StorageConfig, StorageService};
pub use workspace::Workspace;
