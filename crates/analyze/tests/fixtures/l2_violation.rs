//! L2 fixture: an fsync issued while a commit-section (`wal.*`) lock is
//! held — directly and through a callee — and a sleep under the same lock.
//! The upload enqueue under it is not blocking and must not fire.

use std::fs::File;

use s2_common::sync::{rank, Mutex};

struct Wal {
    state: Mutex<u64>,
    file: File,
}

impl Wal {
    fn open(file: File) -> Wal {
        Wal { state: Mutex::new(&rank::WAL_LOG, 0), file }
    }

    /// Direct: the state guard is alive across the sync_all call, so every
    /// committer stalls behind this thread's disk latency.
    fn append_sync(&self) {
        s2_common::fault::crash_point("wal.fixture.append");
        let mut g = self.state.lock();
        *g += 1;
        self.file.sync_all().unwrap();
        drop(g);
    }

    /// Interprocedural: the fsync hides one call away.
    fn commit(&self) {
        s2_common::fault::crash_point("wal.fixture.commit");
        let mut g = self.state.lock();
        *g += 1;
        self.flush_disk();
        drop(g);
    }

    fn flush_disk(&self) {
        self.file.sync_all().unwrap();
    }

    /// A retry backoff taken without releasing the guard.
    fn backoff(&self) {
        let g = self.state.lock();
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(g);
    }

    /// An upload enqueue never blocks, so it may run under the guard (flush's
    /// `write_file` does, under `core.commit`).
    fn ship(&self, uploader: &Uploader) {
        let g = self.state.lock();
        uploader.enqueue("k", vec![*g as u8]);
        drop(g);
    }
}
