//! Deterministic file stores for the harness.
//!
//! [`SimFileStore`] replaces the background-threaded `BlobBackedFileStore`
//! with a synchronous equivalent: writes land locally, and the harness
//! explicitly pumps pending uploads to the blob store from the simulation
//! thread (so blob faults and crashes hit at deterministic points).
//! [`BlobReadFileStore`] serves restores: reads come from blob objects, with
//! a local overlay for anything the restored partition writes afterwards.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use s2_common::sync::{rank, Mutex};

use s2_blob::ObjectStore;
use s2_common::{Error, Result};
use s2_core::DataFileStore;

#[derive(Default)]
struct SimFiles {
    local: BTreeMap<String, Arc<Vec<u8>>>,
    uploaded: BTreeSet<String>,
}

/// Local file store with harness-pumped uploads (see module docs).
pub struct SimFileStore {
    inner: Mutex<SimFiles>,
}

impl Default for SimFileStore {
    fn default() -> SimFileStore {
        SimFileStore::new()
    }
}

impl SimFileStore {
    /// An empty store.
    pub fn new() -> SimFileStore {
        SimFileStore { inner: Mutex::new(&rank::SIM_STORAGE, SimFiles::default()) }
    }

    /// Upload every local file not yet in blob storage. Returns the number
    /// uploaded. Stops at the first failing put (injected faults included) —
    /// already-uploaded files stay marked, so a retry resumes where it left
    /// off.
    pub fn upload_pending(&self, blob: &Arc<dyn ObjectStore>) -> Result<usize> {
        let todo: Vec<(String, Arc<Vec<u8>>)> = {
            let inner = self.inner.lock();
            inner
                .local
                .iter()
                .filter(|(k, _)| !inner.uploaded.contains(*k))
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect()
        };
        let mut n = 0;
        for (key, bytes) in todo {
            blob.put(&key, bytes)?;
            self.inner.lock().uploaded.insert(key);
            n += 1;
        }
        Ok(n)
    }

    /// Files written but not yet uploaded.
    pub fn pending_uploads(&self) -> usize {
        let inner = self.inner.lock();
        inner.local.keys().filter(|k| !inner.uploaded.contains(*k)).count()
    }
}

impl DataFileStore for SimFileStore {
    fn write_file(&self, name: &str, bytes: Arc<Vec<u8>>) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.local.insert(name.to_string(), bytes);
        // A crash-recovered engine can reuse a file name with different
        // content; the stale blob object must not shadow the new bytes.
        inner.uploaded.remove(name);
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Arc<Vec<u8>>> {
        self.inner
            .lock()
            .local
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("sim file {name}")))
    }

    fn delete_file(&self, name: &str) -> Result<()> {
        // Local copy only — the blob object is history (continuous backup).
        self.inner.lock().local.remove(name);
        Ok(())
    }
}

/// Read-through-blob store for restored partitions: blob objects are the
/// source of truth, local writes overlay them.
pub struct BlobReadFileStore {
    blob: Arc<dyn ObjectStore>,
    overlay: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

impl BlobReadFileStore {
    /// A store reading through `blob`.
    pub fn new(blob: Arc<dyn ObjectStore>) -> BlobReadFileStore {
        BlobReadFileStore { blob, overlay: Mutex::new(&rank::SIM_STORAGE, HashMap::new()) }
    }
}

impl DataFileStore for BlobReadFileStore {
    fn write_file(&self, name: &str, bytes: Arc<Vec<u8>>) -> Result<()> {
        self.overlay.lock().insert(name.to_string(), bytes);
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Arc<Vec<u8>>> {
        if let Some(b) = self.overlay.lock().get(name) {
            return Ok(Arc::clone(b));
        }
        self.blob.get(name)
    }

    fn delete_file(&self, name: &str) -> Result<()> {
        self.overlay.lock().remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_blob::MemoryStore;

    #[test]
    fn rewrite_clears_uploaded_mark() {
        let fs = SimFileStore::new();
        let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        fs.write_file("p/files/a", Arc::new(vec![1])).unwrap();
        assert_eq!(fs.upload_pending(&blob).unwrap(), 1);
        assert_eq!(fs.pending_uploads(), 0);
        // Same name, new bytes (post-crash file-id reuse): must re-upload.
        fs.write_file("p/files/a", Arc::new(vec![2])).unwrap();
        assert_eq!(fs.pending_uploads(), 1);
        assert_eq!(fs.upload_pending(&blob).unwrap(), 1);
        assert_eq!(blob.get("p/files/a").unwrap().as_slice(), &[2]);
    }

    #[test]
    fn delete_keeps_blob_history() {
        let fs = SimFileStore::new();
        let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        fs.write_file("p/files/a", Arc::new(vec![7])).unwrap();
        fs.upload_pending(&blob).unwrap();
        fs.delete_file("p/files/a").unwrap();
        assert!(fs.read_file("p/files/a").is_err());
        assert_eq!(blob.get("p/files/a").unwrap().as_slice(), &[7]);
    }
}
