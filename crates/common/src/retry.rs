//! Retry policies for operations against unreliable backends (the blob
//! store above all — paper §3: blob storage is *off the commit path*, so
//! everything that talks to it must tolerate transient failure without
//! wedging a worker or a query).
//!
//! Two pieces:
//!
//! - [`jittered_backoff`]: deterministic exponential backoff with
//!   multiplicative jitter. The jitter draw is a pure function of
//!   `(salt, attempt)` — no RNG state, no wall clock — so retry schedules
//!   are replayable under the sim harness while still de-correlating
//!   concurrent retriers (each passes a different salt, e.g. a key hash).
//! - [`RetryPolicy`]: per-operation budget — max attempts, backoff shape,
//!   and a hard deadline. The deadline is the "no query ever blocks longer
//!   than its budget" half of the resilience contract.
//!
//! The one loop that drives a policy is the blob store's
//! `ResilientStore::guarded`, which consults `Error::retry_class` so
//! permanent errors fail immediately instead of burning the budget.
//!
//! The module keeps zero dependencies (std only), like the rest of this
//! crate, so every workspace layer can share one retry vocabulary.

use std::time::{Duration, Instant};

/// FNV-1a — cheap stable salt from a string key (e.g. an object key), so
/// two uploaders retrying different keys jitter differently.
pub fn salt_from_key(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: one well-mixed 64-bit value per input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exponential backoff with deterministic jitter: `base << attempt`, capped
/// at `max`, then scaled into `[50%, 100%]` by a jitter factor drawn from
/// `(salt, attempt)`. Attempt numbering starts at 0 (first *retry* delay).
///
/// The half-to-full band (rather than full jitter from zero) keeps a lower
/// bound on spacing so a hot retry loop cannot collapse into a busy spin,
/// while still spreading concurrent retriers across the window.
pub fn jittered_backoff(base: Duration, max: Duration, attempt: u32, salt: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16)).min(max);
    let bits = mix(salt ^ u64::from(attempt).wrapping_mul(0x2545_f491_4f6c_dd1d));
    // Jitter factor in [0.5, 1.0): 2^-1 + uniform * 2^-1.
    let frac = 0.5 + ((bits >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
    exp.mul_f64(frac)
}

/// A bounded retry budget for one logical operation.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts (including the first). 1 = no retries.
    pub max_attempts: u32,
    /// First retry delay (before jitter).
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Hard wall-clock budget for the whole operation, sleeps included. No
    /// retry is begun once the deadline has passed.
    pub deadline: Duration,
}

impl RetryPolicy {
    /// Policy tuned for blob-store round trips: a few quick attempts inside
    /// a sub-second budget. Callers on latency-sensitive paths shrink
    /// `deadline`; background shippers stretch it.
    pub fn blob_default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            deadline: Duration::from_millis(800),
        }
    }

    /// No retries at all: one attempt, zero added latency. Used where an
    /// outer layer (the uploader's requeue loop) owns the retry schedule
    /// and an inner retry would compound with it.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            deadline: Duration::from_secs(3600),
        }
    }

    /// The delay before retry number `attempt` (0-based), jittered by `salt`.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        jittered_backoff(self.base_delay, self.max_delay, attempt, salt)
    }
}

/// A deadline helper for loops that poll rather than retry (e.g.
/// the not-found-yet window on replica cold reads). Tracks one budget and
/// answers "may I sleep `d` more?".
#[derive(Debug, Clone, Copy)]
pub struct DeadlineBudget {
    started: Instant,
    budget: Duration,
}

impl DeadlineBudget {
    /// Start a budget of `budget` from now.
    pub fn new(budget: Duration) -> DeadlineBudget {
        DeadlineBudget { started: Instant::now(), budget }
    }

    /// Budget remaining (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.started.elapsed())
    }

    /// True once the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }

    /// Sleep for `d` capped to the remaining budget; returns false (without
    /// sleeping) when the budget is already spent.
    pub fn sleep(&self, d: Duration) -> bool {
        let r = self.remaining();
        if r.is_zero() {
            return false;
        }
        std::thread::sleep(d.min(r));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(100);
        let d0 = jittered_backoff(base, max, 0, 1);
        let d3 = jittered_backoff(base, max, 3, 1);
        let d9 = jittered_backoff(base, max, 9, 1);
        assert!(d0 >= base / 2 && d0 <= base, "{d0:?}");
        assert!(d3 >= Duration::from_millis(40) && d3 <= Duration::from_millis(80), "{d3:?}");
        assert!(d9 >= max / 2 && d9 <= max, "{d9:?}");
    }

    #[test]
    fn jitter_is_deterministic_but_salt_sensitive() {
        let base = Duration::from_millis(8);
        let max = Duration::from_secs(1);
        assert_eq!(jittered_backoff(base, max, 2, 42), jittered_backoff(base, max, 2, 42));
        // Over a few salts at least one pair must differ (jitter is real).
        let d: Vec<Duration> = (0..8).map(|s| jittered_backoff(base, max, 2, s)).collect();
        assert!(d.iter().any(|x| *x != d[0]), "no jitter across salts: {d:?}");
    }

    #[test]
    fn deadline_budget_helper() {
        let b = DeadlineBudget::new(Duration::from_millis(30));
        assert!(!b.expired());
        assert!(b.sleep(Duration::from_millis(10)));
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.expired());
        assert!(!b.sleep(Duration::from_millis(10)));
        assert_eq!(b.remaining(), Duration::ZERO);
    }
}
