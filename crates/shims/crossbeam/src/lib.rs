//! Offline stand-in for the `crossbeam` crate.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! the slice of crossbeam it uses: `crossbeam::channel`'s unbounded MPMC
//! channel with cloneable senders *and* receivers, `recv`, `recv_timeout`
//! and `try_recv`. Implemented over a mutex-protected queue plus a condvar —
//! not as fast as crossbeam's lock-free design, but semantically equivalent
//! for the log-subscriber and uploader-pool workloads here.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Like crossbeam: don't require T: Debug.
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is closed empty.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders disconnected and the queue is empty.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty.
        Empty,
        /// All senders disconnected and the queue is empty.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half of a channel (cloneable: MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Enqueue a message. Fails when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(msg));
            }
            self.0.queue.lock().unwrap_or_else(|e| e.into_inner()).push_back(msg);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::AcqRel);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe closure.
                // Taking the queue lock first means a receiver between its
                // sender check and its wait cannot miss the wakeup.
                let _queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue a message, blocking until one arrives or the channel closes.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self.0.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Dequeue with a timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (q, _) = self
                    .0
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
            }
        }

        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(msg) = queue.pop_front() {
                return Ok(msg);
            }
            if self.0.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_and_recv_across_threads() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv().unwrap());
            tx.send(42).unwrap();
            assert_eq!(h.join().unwrap(), 42);
        }

        #[test]
        fn multi_consumer_each_message_once() {
            let (tx, rx) = unbounded();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            drop(rx);
            let mut all: Vec<i32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn disconnects_are_observable() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx2, rx2) = unbounded();
            drop(rx2);
            assert_eq!(tx2.send(1), Err(SendError(1)));
        }
    }
}
