//! Morsel-driven parallelism: a process-wide scoped worker pool shared by
//! the query executor (`s2-exec`, which re-exports this crate as
//! `s2_exec::pool`) and parallel crash recovery (`s2-core`).
//!
//! The executor parallelizes work the way HyPer's morsel-driven model does:
//! a query breaks into small self-contained tasks ("morsels" — here one
//! columnstore segment, or one partition's rowstore tail, from every
//! partition of the table at once), and every task goes into one FIFO
//! queue. Workers pop the oldest job. The calling thread participates too:
//! while it waits it pops the newest job, which is its own unless another
//! `run` queued since. So a `run` called from inside a job drains its own
//! jobs first and cannot deadlock, and a 1-thread configuration stays
//! strictly serial (no pool involvement).
//!
//! `run` is scoped: its closure and items may borrow from the caller's
//! stack, because `run` neither returns nor unwinds before every job it
//! queued has finished.
//!
//! The pool is lazily initialized and sized by `S2_SCAN_THREADS` (env),
//! falling back to `std::thread::available_parallelism`. Workers are
//! spawned on demand up to the requested size and live for the process;
//! they sleep on a condvar when no work is queued.
//!
//! Determinism: `run` returns results **in input order** regardless of
//! which thread executed what, so scan output is byte-identical across
//! thread counts.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::OnceLock;

use s2_common::sync::{rank, Condvar, Mutex};

/// Hard ceiling on pool threads.
pub const MAX_THREADS: usize = 32;

/// A queued job, its borrow lifetime erased (see [`ScanPool::run`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    /// Workers spawned so far.
    workers: usize,
}

/// The shared scan worker pool. Use [`ScanPool::global`].
pub struct ScanPool {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl ScanPool {
    /// The process-wide pool.
    pub fn global() -> &'static ScanPool {
        static POOL: OnceLock<ScanPool> = OnceLock::new();
        POOL.get_or_init(|| ScanPool {
            queue: Mutex::new(&rank::EXEC_POOL_QUEUE, Queue { jobs: VecDeque::new(), workers: 0 }),
            ready: Condvar::new(),
        })
    }

    /// Workers currently spawned (excluding participating callers).
    pub fn workers(&self) -> usize {
        self.queue.lock().workers
    }

    /// Execute `f` over `items` with up to `threads` executing threads (the
    /// caller counts as one), returning results in input order. `threads <=
    /// 1` or a single item short-circuits to a serial loop with no pool
    /// involvement at all.
    ///
    /// `f` and the items may borrow from the caller. A panic in `f` is
    /// re-raised on the caller, with its original payload, once every other
    /// item has finished.
    pub fn run<I, T, F>(&'static self, threads: usize, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        if threads <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        s2_obs::counter!("exec.pool.runs").inc();
        let mut results: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        let f = &f;
        let jobs: Vec<Job> = items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| {
                let tx = tx.clone();
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(item)));
                    s2_obs::counter!("exec.pool.morsels").inc();
                    let _ = tx.send((idx, out));
                });
                // SAFETY: only the lifetime changes (same fat-pointer layout).
                // `run` neither returns nor unwinds until every job it queued
                // has finished: all of them are queued under one lock
                // acquisition below, no job can unwind (it catches its item's
                // panic), and `run` collects one result per job before it
                // returns or re-raises a panic. So nothing a job borrows
                // (`f`, `item`, `T`) is touched after `run` returns. After its
                // send a job drops only its `Sender`, which drops no message:
                // every one has been received by then.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
            .collect();
        drop(tx);
        {
            let mut q = self.queue.lock();
            while q.workers < (threads - 1).min(MAX_THREADS) {
                std::thread::Builder::new()
                    .name(format!("s2-scan-{}", q.workers))
                    .spawn(move || self.worker_loop())
                    .expect("spawn scan worker");
                q.workers += 1;
                s2_obs::gauge!("exec.pool.workers").inc();
            }
            q.jobs.extend(jobs);
        }
        self.ready.notify_all();
        // Participate: pop the newest job (our own unless another run queued
        // since) instead of blocking; block only when the queue is empty.
        for _ in 0..n {
            let (idx, r) = loop {
                if let Ok(done) = rx.try_recv() {
                    break done;
                }
                let job = self.queue.lock().jobs.pop_back();
                match job {
                    Some(job) => {
                        s2_obs::counter!("exec.pool.caller_morsels").inc();
                        job();
                    }
                    None => break rx.recv().expect("a queued job sends before it drops"),
                }
            };
            results[idx] = Some(r);
        }
        results
            .into_iter()
            .map(|r| match r.expect("all results collected") {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }

    fn worker_loop(&self) {
        let mut q = self.queue.lock();
        loop {
            match q.jobs.pop_front() {
                Some(job) => {
                    drop(q);
                    job();
                    q = self.queue.lock();
                }
                None => q = self.ready.wait(q),
            }
        }
    }
}

/// Resolve a thread-count request: an explicit `requested > 0` wins,
/// otherwise `S2_SCAN_THREADS`, otherwise the host's available parallelism.
/// Always at least 1, at most [`MAX_THREADS`].
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested.clamp(1, MAX_THREADS);
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("S2_SCAN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .clamp(1, MAX_THREADS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn serial_when_one_thread() {
        let out = ScanPool::global().run(1, vec![1, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(ScanPool::global().run(8, vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let out = ScanPool::global().run(8, items.clone(), |x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert!(ScanPool::global().workers() >= 1);
    }

    #[test]
    fn borrows_caller_stack() {
        let words: Vec<String> = (0..100).map(|i| format!("w{i}")).collect();
        let weights: Vec<usize> = (0..100).map(|i| i % 7).collect();
        let out = ScanPool::global()
            .run(8, words.iter().enumerate().collect(), |(i, w)| w.len() * weights[i]);
        let expect: Vec<usize> = words.iter().zip(&weights).map(|(w, k)| w.len() * k).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panic_reaches_caller_after_every_other_item() {
        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let n = 16;
        let done = AtomicUsize::new(0);
        let unwinding = AtomicBool::new(false);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // The caller runs the newest item, the panicking one, first. The
            // others start only once it unwinds, and then take a while, so a
            // `run` that re-raised the panic early would return before them.
            ScanPool::global().run(4, (0..n).collect(), |x: usize| {
                if x == n - 1 {
                    let _guard = SetOnDrop(&unwinding);
                    panic!("boom at {x}");
                }
                while !unwinding.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = res.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom at 15"));
        assert_eq!(done.load(Ordering::SeqCst), n - 1);
        assert_eq!(ScanPool::global().run(4, vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn nested_runs_from_concurrent_callers() {
        let expect: Vec<u64> = (0..8).map(|x| (0..8).map(|y| x * 8 + y).sum()).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let out = ScanPool::global().run(8, (0u64..8).collect(), |x| {
                        ScanPool::global()
                            .run(8, (0u64..8).collect(), |y| x * 8 + y)
                            .iter()
                            .sum::<u64>()
                    });
                    assert_eq!(out, expect);
                });
            }
        });
    }

    #[test]
    fn effective_thread_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert_eq!(effective_threads(10_000), MAX_THREADS);
        assert!(effective_threads(0) >= 1);
    }
}
