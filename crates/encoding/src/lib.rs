//! Seekable column encodings for columnstore segments (paper §2.1.2).
//!
//! Each column of a segment is encoded independently; the same column may use
//! a different encoding in every segment, chosen by an analyzer from the
//! actual data. All encodings are *seekable*: a single row offset can be
//! decoded without decompressing the whole column, which is what makes OLTP
//! point reads viable on columnstore data.
//!
//! Supported encodings mirror the paper: plain, bit packing, dictionary,
//! run-length and an LZ77-style generic byte compressor (standing in for the
//! paper's LZ4). Dictionary and run-length encodings additionally support
//! *encoded execution* (paper §5.2): filters are evaluated directly on the
//! compressed representation via [`reader::ColumnReader::encoded_filter`].

pub mod encode;
pub mod lz;
pub mod reader;
pub mod vector;

pub use encode::{choose_encoding, encode_column, EncodedColumn, Encoding};
pub use reader::{CodePredicate, ColumnReader};
pub use vector::{ColumnVector, VectorBuilder, NO_ROW};
