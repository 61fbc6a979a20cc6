//! Simulated blob storage and the machinery S2DB wraps around it (paper §3):
//! an S3-like [`ObjectStore`] with in-memory and local-directory backends,
//! latency/outage injection for experiments, an LRU local file cache, a
//! background uploader that keeps blob writes off the commit path, and the
//! per-store health layer (circuit breaker + bounded retries) that keeps an
//! unreliable object store from wedging queries or dropping uploads.

pub mod cache;
pub mod fault;
pub mod health;
pub mod store;
pub mod uploader;

pub use cache::{CachedStore, FileCache};
pub use fault::{BlobStats, FaultyStore};
pub use health::{
    BlobHealth, BreakerConfig, BreakerCore, CircuitState, ResilientStore, StoreHealth,
};
pub use store::{LocalDirStore, MemoryStore, ObjectStore};
pub use uploader::{UploadJob, Uploader, UploaderConfig};
