//! Restore from blob storage: the shared machinery behind point-in-time
//! restore (paper §3.2) and read-only workspace provisioning (§3.3).
//!
//! The blob store acts as a continuous backup: snapshots plus sealed log
//! chunks. A restore picks the latest snapshot at or before the target log
//! position, loads the log chunks covering `[snapshot.lp, target]`, and
//! replays — exactly the node-restart recovery path, pointed at remote
//! objects. Data files are pulled on demand through the restored partition's
//! file store.

use std::cell::OnceCell;
use std::sync::Arc;

use s2_blob::ObjectStore;
use s2_common::{Error, LogPosition, Result};
use s2_core::{DataFileStore, Partition};
use s2_wal::{Log, Snapshot};

use crate::storage::lp_from_chunk_key;

/// The latest snapshot of `partition` at or before `target_lp` (if any).
pub fn find_snapshot(
    blob: &Arc<dyn ObjectStore>,
    partition: &str,
    target_lp: Option<LogPosition>,
) -> Result<Option<Snapshot>> {
    let prefix = format!("{partition}/snapshots/");
    let keys = blob.list(&prefix)?;
    // Keys are zero-padded, so lexicographic order == lp order.
    let mut best: Option<&String> = None;
    for k in &keys {
        if let Some(lp) = Snapshot::lp_from_key(k) {
            if target_lp.is_none_or(|t| lp <= t) {
                best = Some(k);
            }
        }
    }
    match best {
        None => Ok(None),
        Some(k) => {
            let bytes = blob.get(k)?;
            Ok(Some(Snapshot::decode(&bytes)?))
        }
    }
}

/// The uploaded log chunks of one partition, from ONE listing. Chunks are
/// contiguous, so chunk *i* ends where chunk *i+1* starts; only the last
/// chunk's end needs its bytes, which are fetched at most once and shared
/// between the end-of-log question and the log load.
struct UploadedLog {
    /// `(start position, key)` in log order.
    chunks: Vec<(LogPosition, String)>,
    tail: OnceCell<Arc<Vec<u8>>>,
}

impl UploadedLog {
    fn list(blob: &Arc<dyn ObjectStore>, partition: &str) -> Result<UploadedLog> {
        // Keys are zero-padded, so lexicographic order == lp order.
        let chunks = blob
            .list(&format!("{partition}/log/"))?
            .into_iter()
            .map(|key| match lp_from_chunk_key(&key) {
                Some(start) => Ok((start, key)),
                None => Err(Error::Corruption(format!("bad log chunk key {key:?}"))),
            })
            .collect::<Result<_>>()?;
        Ok(UploadedLog { chunks, tail: OnceCell::new() })
    }

    /// Bytes of chunk `i`; the last chunk's are kept.
    fn chunk(&self, blob: &Arc<dyn ObjectStore>, i: usize) -> Result<Arc<Vec<u8>>> {
        let key = &self.chunks[i].1;
        if i + 1 < self.chunks.len() {
            return blob.get(key);
        }
        if self.tail.get().is_none() {
            let _ = self.tail.set(blob.get(key)?);
        }
        Ok(Arc::clone(self.tail.get().expect("just set")))
    }

    /// Highest log position covered by uploaded chunks.
    fn end_lp(&self, blob: &Arc<dyn ObjectStore>) -> Result<LogPosition> {
        match self.chunks.last() {
            None => Ok(0),
            Some((start, _)) => Ok(start + self.chunk(blob, self.chunks.len() - 1)?.len() as u64),
        }
    }

    /// `target` bounded by the end of the uploaded log (the end itself when
    /// `None`). A target at or before the last chunk's start is inside the
    /// uploaded range whatever that chunk's length, so it costs no GET.
    fn bound(
        &self,
        blob: &Arc<dyn ObjectStore>,
        target: Option<LogPosition>,
    ) -> Result<LogPosition> {
        match (target, self.chunks.last()) {
            (Some(t), Some((last_start, _))) if t <= *last_start => Ok(t),
            (Some(t), _) => Ok(t.min(self.end_lp(blob)?)),
            (None, _) => self.end_lp(blob),
        }
    }

    /// Reconstruct an in-memory log holding bytes `[from_lp, upto_lp)`,
    /// fetching only the chunks that overlap the window.
    fn load(
        &self,
        blob: &Arc<dyn ObjectStore>,
        from_lp: LogPosition,
        upto_lp: LogPosition,
    ) -> Result<Arc<Log>> {
        let log = Arc::new(Log::in_memory_from(from_lp));
        let mut buf = Vec::new();
        let mut cursor = from_lp;
        for (i, (start, _)) in self.chunks.iter().enumerate() {
            if *start >= upto_lp {
                break;
            }
            // Entirely before the window: the next chunk starts at or before
            // the cursor, and this one ends there.
            if self.chunks.get(i + 1).is_some_and(|(next, _)| *next <= cursor) {
                continue;
            }
            let bytes = self.chunk(blob, i)?;
            let end = start + bytes.len() as u64;
            if end <= cursor {
                continue;
            }
            if *start > cursor {
                return Err(Error::Corruption(format!(
                    "log chunk gap: have up to {cursor}, next chunk starts at {start}"
                )));
            }
            let skip = (cursor - start) as usize;
            let take_end = (upto_lp.min(end) - start) as usize;
            buf.extend_from_slice(&bytes[skip..take_end]);
            cursor = start + take_end as u64;
        }
        // Sealed chunks cut at a byte budget (`Log::seal_chunk` max_bytes), so
        // the uploaded stream can end mid-record. The restored log must end on
        // a record boundary: a workspace subscribes the primary's tail at
        // `end_lp()`, and a promoted PITR restore appends new records there —
        // either continuing from inside a torn frame corrupts the stream.
        log.append_raw(&buf[..s2_wal::valid_prefix_len(&buf)]);
        Ok(log)
    }
}

/// Highest log position covered by uploaded chunks.
pub fn max_uploaded_lp(blob: &Arc<dyn ObjectStore>, partition: &str) -> Result<LogPosition> {
    UploadedLog::list(blob, partition)?.end_lp(blob)
}

/// Restore a partition from blob storage up to `target_lp` (or everything
/// uploaded, when `None`). This is PITR (paper §3.2: "drops the existing
/// local state of the database and does a restore up until the log position
/// LP ... in the same fashion as when recovering from blob storage on a
/// process restart") and the first phase of workspace provisioning.
///
/// `target_lp` stands in for the paper's wall-clock target: S2DB maps a
/// target time to a transactionally consistent log position; our logs carry
/// no wall clock, so callers address positions directly.
pub fn restore_from_blob(
    blob: &Arc<dyn ObjectStore>,
    partition: &str,
    file_store: Arc<dyn DataFileStore>,
    target_lp: Option<LogPosition>,
) -> Result<Arc<Partition>> {
    // Restores are idempotent reads over immutable blob objects: a failure
    // or crash here is always safe to retry from scratch.
    s2_common::fault::failpoint("pitr.restore")?;
    let snapshot = find_snapshot(blob, partition, target_lp)?;
    let start_lp = snapshot.as_ref().map_or(0, |s| s.lp);
    let uploaded = UploadedLog::list(blob, partition)?;
    let upto = uploaded.bound(blob, target_lp)?.max(start_lp);
    let log = uploaded.load(blob, start_lp, upto)?;
    Partition::recover(partition, log, file_store, snapshot.as_ref(), Some(upto))
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use s2_blob::{BlobStats, FaultyStore, MemoryStore};

    use super::*;
    use crate::storage::log_chunk_key;

    /// First record boundary at or after `lp` (all records are one size).
    fn boundary(bytes: &[u8], lp: u64) -> u64 {
        let record = (bytes.len() / 40) as u64;
        lp.div_ceil(record) * record
    }

    /// 40 records of 100 payload bytes, uploaded as 10 chunks that cut
    /// mid-record. Returns the store, its traffic counters, the stream and
    /// the cuts.
    fn uploaded() -> (Arc<dyn ObjectStore>, Arc<BlobStats>, Vec<u8>, Vec<u64>) {
        let log = Log::in_memory();
        for i in 0..40u8 {
            log.append(2, &[i; 100]);
        }
        let bytes = log.read_range(0, log.end_lp()).unwrap();
        let store = FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO);
        let stats = Arc::clone(&store.stats);
        let chunk = bytes.len().div_ceil(10);
        let mut cuts = Vec::new();
        for (i, part) in bytes.chunks(chunk).enumerate() {
            let start = (i * chunk) as u64;
            cuts.push(start);
            store.put(&log_chunk_key("p", start), Arc::new(part.to_vec())).unwrap();
        }
        (Arc::new(store), stats, bytes, cuts)
    }

    #[test]
    fn load_fetches_only_the_chunks_of_the_window() {
        let (blob, stats, bytes, cuts) = uploaded();
        let up = UploadedLog::list(&blob, "p").unwrap();
        // A window inside chunks 4..=6, given by a mid-history target: the
        // bound costs no GET, the load three.
        let (from, target) = (boundary(&bytes, cuts[4] + 7), cuts[6] + 9);
        let upto = up.bound(&blob, Some(target)).unwrap();
        assert_eq!((upto, stats.snapshot().1), (target, 0));
        let log = up.load(&blob, from, upto).unwrap();
        assert_eq!(stats.snapshot().1, 3);
        let got = log.read_range(from, log.end_lp()).unwrap();
        let window = &bytes[from as usize..upto as usize];
        let whole = s2_wal::valid_prefix_len(window);
        assert!(whole > 0 && whole < window.len(), "the target cuts a record");
        assert_eq!(got, window[..whole]);
    }

    #[test]
    fn end_of_log_and_tail_load_share_one_get() {
        let (blob, stats, bytes, cuts) = uploaded();
        let up = UploadedLog::list(&blob, "p").unwrap();
        let end = up.bound(&blob, None).unwrap();
        assert_eq!(end, bytes.len() as u64);
        // Past-the-end targets clamp to the uploaded end.
        assert_eq!(up.bound(&blob, Some(end + 1000)).unwrap(), end);
        let log = up.load(&blob, boundary(&bytes, cuts[9] + 1), end).unwrap();
        assert_eq!(stats.snapshot().1, 1, "the last chunk, once");
        assert_eq!(log.end_lp(), end);
        assert_eq!(max_uploaded_lp(&blob, "p").unwrap(), end);
    }

    #[test]
    fn a_missing_chunk_inside_the_window_is_a_gap() {
        let (blob, _, _, cuts) = uploaded();
        blob.delete(&log_chunk_key("p", cuts[5])).unwrap();
        let up = UploadedLog::list(&blob, "p").unwrap();
        assert!(matches!(up.load(&blob, cuts[3], cuts[8]), Err(Error::Corruption(_))));
    }
}
