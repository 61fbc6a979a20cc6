//! Two-level secondary indexes for LSM columnstore storage (paper §4.1).
//!
//! Level one: per-segment *inverted indexes* mapping each distinct value of
//! an indexed column to a postings list of row offsets, built once when a
//! segment is created. Level two: a *global index* — an LSM of immutable
//! hash tables mapping value hashes to `(segment, postings offset)` pairs —
//! so point lookups probe O(log N) tables instead of O(N) per-segment
//! structures. Postings lists support forward seeking so multi-index
//! intersections skip ahead efficiently.

pub mod global;
pub mod inverted;
pub mod postings;

pub use global::{GlobalIndex, HashLevel, LevelInput};
pub use inverted::{InvertedIndex, InvertedIndexBuilder, INVERTED_MAGIC};
pub use postings::{encode_postings, intersect, PostingsReader, BLOCK_SIZE};
