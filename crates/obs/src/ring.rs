//! Bounded ring buffer for rare structured events (failovers, outages,
//! retry storms). Writers claim a slot with one atomic increment, so the
//! ring never blocks the hot path it is reporting on; old events are
//! overwritten once the ring wraps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use s2_common::sync::{rank, Mutex};

/// Event timestamp source: milliseconds since some epoch. The default wall
/// clock uses the Unix epoch; deterministic harnesses (s2-sim) install a
/// logical clock so event traces are identical for identical seeds.
pub type ClockFn = dyn Fn() -> u64 + Send + Sync;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (monotone; survives ring wrap).
    pub seq: u64,
    /// Milliseconds since the clock's epoch at record time (Unix epoch for
    /// the default wall clock).
    pub unix_ms: u64,
    /// Event name, `subsystem.noun` style (e.g. `cluster.failover`).
    pub name: String,
    /// Free-form detail payload.
    pub detail: String,
}

/// Fixed-capacity MPMC event ring. The write cursor is lock-free; each slot
/// has a tiny mutex so a slow writer can't tear an event a reader sees.
/// Events are rare by contract (state changes, not per-op records), so slot
/// contention is effectively nil.
pub struct EventRing {
    slots: Vec<Mutex<Option<Event>>>,
    cursor: AtomicU64,
    /// Set at most once, before concurrent use; `None` means wall clock.
    clock: OnceLock<Box<ClockFn>>,
}

fn wall_clock_ms() -> u64 {
    // A pre-1970 system clock is a host misconfiguration worth surfacing,
    // not something to silently report as 0.
    match SystemTime::now().duration_since(UNIX_EPOCH) {
        Ok(d) => d.as_millis() as u64,
        Err(e) => panic!("system clock is before the Unix epoch: {e}"),
    }
}

impl EventRing {
    /// Ring holding the most recent `capacity` events.
    pub fn new(capacity: usize) -> EventRing {
        assert!(capacity > 0, "event ring needs capacity");
        EventRing {
            slots: (0..capacity).map(|_| Mutex::new(&rank::OBS_RING_SLOT, None)).collect(),
            cursor: AtomicU64::new(0),
            clock: OnceLock::new(),
        }
    }

    /// Install a deterministic timestamp source. May be called at most once
    /// per ring, before events that must carry logical time are recorded;
    /// later calls are ignored (first installer wins). Used by s2-sim so
    /// event traces are byte-identical across runs of the same seed.
    pub fn set_clock(&self, clock: Box<ClockFn>) {
        let _ = self.clock.set(clock);
    }

    fn now_ms(&self) -> u64 {
        match self.clock.get() {
            Some(clock) => clock(),
            None => wall_clock_ms(),
        }
    }

    /// Record an event, overwriting the oldest once full.
    pub fn record(&self, name: impl Into<String>, detail: impl Into<String>) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let unix_ms = self.now_ms();
        let event = Event { seq, unix_ms, name: name.into(), detail: detail.into() };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock();
        // A racing writer that lapped the ring may already have stored a
        // newer event in this slot; keep the newest.
        if guard.as_ref().is_none_or(|old| old.seq < seq) {
            *guard = Some(event);
        }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Drop all retained events (test/bench support).
    pub fn reset(&self) {
        for s in &self.slots {
            *s.lock() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_most_recent_events() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.record("test.event", format!("e{i}"));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(ring.recorded(), 10);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(events[3].detail, "e9");
    }

    #[test]
    fn concurrent_writers_never_lose_the_newest() {
        let ring = std::sync::Arc::new(EventRing::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        ring.record("race", format!("{t}:{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.recorded(), 4000);
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        // Every retained event is from the last full wrap.
        assert!(events.iter().all(|e| e.seq >= 4000 - 8 * 2));
    }

    #[test]
    fn injected_clock_drives_event_timestamps() {
        let ring = EventRing::new(4);
        let ticks = std::sync::Arc::new(AtomicU64::new(100));
        let t = std::sync::Arc::clone(&ticks);
        ring.set_clock(Box::new(move || t.fetch_add(10, Ordering::Relaxed)));
        ring.record("sim.step", "a");
        ring.record("sim.step", "b");
        let events = ring.snapshot();
        assert_eq!(events.iter().map(|e| e.unix_ms).collect::<Vec<_>>(), vec![100, 110]);
        // First installer wins: a second clock is ignored.
        ring.set_clock(Box::new(|| 0));
        ring.record("sim.step", "c");
        assert_eq!(ring.snapshot().last().unwrap().unix_ms, 120);
    }
}
