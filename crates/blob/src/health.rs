//! Blob-store health tracking: a circuit breaker per store and the
//! [`ResilientStore`] wrapper every blob request goes through.
//!
//! The paper's availability claim (§3) is that blob storage is off the
//! commit path: commits stay durable from the local replicated WAL while
//! uploads and cold reads *tolerate* an unreliable object store. Tolerating
//! means distinguishing a transient blip (retry with backoff) from a
//! sustained outage (stop hammering the store, fail requests fast, and
//! probe for recovery). That distinction is this module's job, and only
//! this module makes it: callers never poll health to skip or park their
//! own traffic — a request against an open breaker fails in microseconds,
//! and the first request after the cooldown is the probe.
//!
//! - [`BreakerCore`] is the pure Closed → Open → HalfOpen state machine,
//!   driven by a logical millisecond clock so tests (including the proptest
//!   suite) can exercise every transition deterministically.
//! - [`BlobHealth`] wraps a core with a real clock and exports state through
//!   s2-obs: gauge `blob.health.state` (0 healthy / 1 degraded / 2 outage),
//!   event `blob.breaker` on every transition. A cluster shares one across
//!   its uploads, cold reads and log/snapshot shipping.
//! - [`ResilientStore`] wraps any [`ObjectStore`] with the breaker plus a
//!   bounded [`RetryPolicy`]: fail-fast when open, jittered bounded retries
//!   when closed, outcomes recorded into the shared health.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2_common::retry::salt_from_key;
use s2_common::sync::{rank, Mutex};
use s2_common::{Error, Result, RetryClass, RetryPolicy};

use crate::store::ObjectStore;

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// How long Open rejects everything before allowing a HalfOpen probe.
    pub open_cooldown: Duration,
    /// Cooldown escalation cap (doubles on every failed probe).
    pub max_cooldown: Duration,
    /// Probe successes required to close from HalfOpen.
    pub probe_successes: u32,
    /// A failure within this window keeps health at Degraded even while the
    /// breaker stays Closed.
    pub degraded_window: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_secs(2),
            probe_successes: 1,
            degraded_window: Duration::from_secs(2),
        }
    }
}

/// Breaker states (the classic three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Normal operation; failures are counted.
    Closed,
    /// Sustained failure: reject immediately until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request at a time tests for recovery.
    HalfOpen,
}

/// Coarse store health derived from breaker state and recent outcomes —
/// what dashboards and degraded-mode decisions consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// No recent failures.
    Healthy,
    /// Breaker closed but failures seen recently (transient blips, or
    /// recovery still being confirmed).
    Degraded,
    /// Breaker open or probing: the store is treated as down.
    Outage,
}

impl StoreHealth {
    /// Gauge encoding (0/1/2) for `blob.health.state`.
    pub fn as_gauge(self) -> i64 {
        match self {
            StoreHealth::Healthy => 0,
            StoreHealth::Degraded => 1,
            StoreHealth::Outage => 2,
        }
    }
}

/// The pure breaker state machine, on a logical millisecond clock. All
/// transitions happen inside [`BreakerCore::allow`], [`BreakerCore::on_success`]
/// and [`BreakerCore::on_failure`]; the caller supplies `now_ms` monotonic
/// non-decreasing.
#[derive(Debug)]
pub struct BreakerCore {
    cfg: BreakerConfig,
    state: CircuitState,
    consecutive_failures: u32,
    /// When the current Open period started.
    opened_at_ms: u64,
    /// Current (escalating) cooldown, ms.
    cooldown_ms: u64,
    /// A HalfOpen probe is in flight; further requests are rejected until
    /// it reports — or until the probe timeout (the current cooldown)
    /// passes, after which the token is presumed lost and reissued.
    probe_inflight: bool,
    /// When the in-flight probe token was granted.
    probe_started_ms: u64,
    probe_successes: u32,
    last_failure_ms: Option<u64>,
}

impl BreakerCore {
    /// A closed breaker with `cfg`.
    pub fn new(cfg: BreakerConfig) -> BreakerCore {
        BreakerCore {
            cooldown_ms: cfg.open_cooldown.as_millis() as u64,
            cfg,
            state: CircuitState::Closed,
            consecutive_failures: 0,
            opened_at_ms: 0,
            probe_inflight: false,
            probe_started_ms: 0,
            probe_successes: 0,
            last_failure_ms: None,
        }
    }

    /// Current state (transitions lazily on `allow`).
    pub fn state(&self) -> CircuitState {
        self.state
    }

    /// May a request proceed at `now_ms`? Open transitions to HalfOpen once
    /// the cooldown has elapsed; HalfOpen admits a single probe at a time.
    ///
    /// A probe token that is never reported back (its holder died, or the
    /// outcome was swallowed) expires after the current cooldown: the next
    /// `allow` reissues it, so a lost token degrades into one extra probe
    /// instead of wedging the breaker in HalfOpen forever.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        match self.state {
            CircuitState::Closed => true,
            CircuitState::Open => {
                if now_ms.saturating_sub(self.opened_at_ms) >= self.cooldown_ms {
                    self.state = CircuitState::HalfOpen;
                    self.probe_inflight = true;
                    self.probe_started_ms = now_ms;
                    self.probe_successes = 0;
                    true
                } else {
                    false
                }
            }
            CircuitState::HalfOpen => {
                let probe_timeout = self.cooldown_ms.max(1);
                if self.probe_inflight
                    && now_ms.saturating_sub(self.probe_started_ms) < probe_timeout
                {
                    false
                } else {
                    self.probe_inflight = true;
                    self.probe_started_ms = now_ms;
                    true
                }
            }
        }
    }

    /// Record a successful request.
    pub fn on_success(&mut self, _now_ms: u64) {
        match self.state {
            CircuitState::Closed => self.consecutive_failures = 0,
            CircuitState::HalfOpen => {
                self.probe_inflight = false;
                self.probe_successes += 1;
                if self.probe_successes >= self.cfg.probe_successes {
                    self.state = CircuitState::Closed;
                    self.consecutive_failures = 0;
                    self.cooldown_ms = self.cfg.open_cooldown.as_millis() as u64;
                }
            }
            // A straggler that got its token before the breaker opened:
            // evidence of life, but recovery is only believed via a probe.
            CircuitState::Open => {}
        }
    }

    /// Record a failed (transient-class) request.
    pub fn on_failure(&mut self, now_ms: u64) {
        self.last_failure_ms = Some(now_ms);
        match self.state {
            CircuitState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = CircuitState::Open;
                    self.opened_at_ms = now_ms;
                }
            }
            CircuitState::HalfOpen => {
                // Failed probe: back to Open with an escalated cooldown.
                self.probe_inflight = false;
                self.probe_successes = 0;
                self.state = CircuitState::Open;
                self.opened_at_ms = now_ms;
                self.cooldown_ms =
                    (self.cooldown_ms * 2).min(self.cfg.max_cooldown.as_millis() as u64).max(1);
            }
            // Stragglers while Open don't extend the cooldown (nothing new
            // is being attempted; extending would fight the probe timer).
            CircuitState::Open => {}
        }
    }

    /// Coarse health at `now_ms` (see [`StoreHealth`]).
    pub fn health(&self, now_ms: u64) -> StoreHealth {
        match self.state {
            CircuitState::Open | CircuitState::HalfOpen => StoreHealth::Outage,
            CircuitState::Closed => {
                let recent = self.last_failure_ms.is_some_and(|t| {
                    now_ms.saturating_sub(t) < self.cfg.degraded_window.as_millis() as u64
                });
                if self.consecutive_failures > 0 || recent {
                    StoreHealth::Degraded
                } else {
                    StoreHealth::Healthy
                }
            }
        }
    }

    /// While Open: ms until a probe will be admitted (0 = now). `None` when
    /// not Open.
    pub fn retry_in_ms(&self, now_ms: u64) -> Option<u64> {
        match self.state {
            CircuitState::Open => {
                Some((self.opened_at_ms + self.cooldown_ms).saturating_sub(now_ms))
            }
            _ => None,
        }
    }
}

/// Shared health for one blob store: [`BreakerCore`] + real clock + obs.
pub struct BlobHealth {
    label: String,
    core: Mutex<BreakerCore>,
    epoch: Instant,
}

impl BlobHealth {
    /// Health tracker with default tuning.
    pub fn new(label: impl Into<String>) -> Arc<BlobHealth> {
        BlobHealth::with_config(label, BreakerConfig::default())
    }

    /// Health tracker with explicit breaker tuning.
    pub fn with_config(label: impl Into<String>, cfg: BreakerConfig) -> Arc<BlobHealth> {
        Arc::new(BlobHealth {
            label: label.into(),
            core: Mutex::new(&rank::BLOB_BREAKER, BreakerCore::new(cfg)),
            // s2-lint: allow(wall-clock, BlobHealth is the real-clock adapter over the pure BreakerCore)
            epoch: Instant::now(),
        })
    }

    /// The store label (event prefix).
    pub fn label(&self) -> &str {
        &self.label
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn observe<R>(&self, f: impl FnOnce(&mut BreakerCore, u64) -> R) -> R {
        let now = self.now_ms();
        let mut core = self.core.lock();
        let before = (core.state(), core.health(now));
        let out = f(&mut core, now);
        let after = (core.state(), core.health(now));
        if before != after {
            s2_obs::gauge!("blob.health.state").set(after.1.as_gauge());
            if before.0 != after.0 {
                s2_obs::counter!("blob.breaker.transitions").inc();
                s2_obs::event(
                    "blob.breaker",
                    format!("{}: {:?} -> {:?}", self.label, before.0, after.0),
                );
            }
        }
        out
    }

    /// May a request proceed right now? (May grant a HalfOpen probe token —
    /// callers that take `true` must report the outcome via
    /// [`BlobHealth::on_success`] / [`BlobHealth::on_failure`].)
    pub fn allow(&self) -> bool {
        self.observe(|c, now| c.allow(now))
    }

    /// Record a success.
    pub fn on_success(&self) {
        self.observe(|c, now| c.on_success(now));
    }

    /// Record a transient-class failure.
    pub fn on_failure(&self) {
        self.observe(|c, now| c.on_failure(now));
    }

    /// Record the outcome of an attempt. Only transient errors count
    /// against the breaker. A permanent-class error (NotFound, bad key) is
    /// a *completed round trip*: the store answered, which is positive
    /// evidence of reachability — so it counts as a success. This matters
    /// most in HalfOpen: the probe token must be released on every
    /// completed attempt, or a NotFound probe (e.g. the first cold read
    /// after an outage racing a waiting upload) would leak the token and
    /// wedge the breaker in HalfOpen forever.
    pub fn on_outcome<T>(&self, r: &Result<T>) {
        match r {
            Err(e) if e.retry_class() == RetryClass::Transient => self.on_failure(),
            Ok(_) | Err(_) => self.on_success(),
        }
    }

    /// Current breaker state.
    pub fn state(&self) -> CircuitState {
        self.core.lock().state()
    }

    /// Coarse health now.
    pub fn health(&self) -> StoreHealth {
        let now = self.now_ms();
        self.core.lock().health(now)
    }

    /// While Open: how long until a probe will be admitted. `None` when the
    /// breaker is not Open (requests may proceed, or a probe is running).
    pub fn retry_in(&self) -> Option<Duration> {
        let now = self.now_ms();
        self.core.lock().retry_in_ms(now).map(Duration::from_millis)
    }
}

/// An [`ObjectStore`] wrapper enforcing the resilience contract on every
/// operation: fail fast with [`Error::Unavailable`] while the breaker is
/// open, bounded jittered retries while it is closed, outcomes recorded
/// into the shared [`BlobHealth`].
pub struct ResilientStore {
    inner: Arc<dyn ObjectStore>,
    health: Arc<BlobHealth>,
    policy: RetryPolicy,
}

impl ResilientStore {
    /// Wrap `inner`, guarding it with `health` under `policy`.
    pub fn new(
        inner: Arc<dyn ObjectStore>,
        health: Arc<BlobHealth>,
        policy: RetryPolicy,
    ) -> ResilientStore {
        ResilientStore { inner, health, policy }
    }

    /// The shared health this wrapper reports into.
    pub fn health(&self) -> &Arc<BlobHealth> {
        &self.health
    }

    /// Run `attempt` against the wrapped store under the breaker and the
    /// retry policy. The uploader calls this directly so its per-attempt
    /// failpoint sits inside the guarded attempt.
    pub(crate) fn guarded<T>(
        &self,
        key: &str,
        mut attempt: impl FnMut(&dyn ObjectStore) -> Result<T>,
    ) -> Result<T> {
        // The one retry loop. A breaker rejection is synthesized here, not a
        // real store attempt, so it returns immediately — an open breaker
        // must cost microseconds, not a retry schedule's worth of backoff
        // sleeps.
        let salt = salt_from_key(key);
        // s2-lint: allow(wall-clock, retry deadlines are real elapsed time; sim covers this via FaultyStore)
        let started = Instant::now();
        let mut attempt_no = 0u32;
        loop {
            if !self.health.allow() {
                s2_obs::counter!("blob.breaker.fail_fast").inc();
                return Err(Error::Unavailable(format!(
                    "blob store {:?} circuit open",
                    self.health.label()
                )));
            }
            let r = attempt(self.inner.as_ref());
            self.health.on_outcome(&r);
            let e = match r {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let class = e.retry_class();
            if class == RetryClass::Permanent || attempt_no + 1 >= self.policy.max_attempts {
                return Err(e);
            }
            let sleep = match class {
                // Contended errors retry on a short fixed tick.
                RetryClass::Contended => self.policy.base_delay,
                _ => self.policy.delay(attempt_no, salt),
            };
            if started.elapsed() + sleep > self.policy.deadline {
                return Err(e);
            }
            std::thread::sleep(sleep);
            attempt_no += 1;
        }
    }
}

impl ObjectStore for ResilientStore {
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> Result<()> {
        self.guarded(key, |s| s.put(key, Arc::clone(&bytes)))
    }

    fn get(&self, key: &str) -> Result<Arc<Vec<u8>>> {
        self.guarded(key, |s| s.get(key))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.guarded(prefix, |s| s.list(prefix))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.guarded(key, |s| s.delete(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyStore;
    use crate::store::MemoryStore;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_millis(400),
            probe_successes: 1,
            degraded_window: Duration::from_millis(500),
        }
    }

    #[test]
    fn closed_to_open_on_consecutive_failures() {
        let mut b = BreakerCore::new(cfg());
        assert!(b.allow(0));
        b.on_failure(0);
        b.on_success(1); // success resets the streak
        b.on_failure(2);
        b.on_failure(3);
        assert_eq!(b.state(), CircuitState::Closed);
        b.on_failure(4);
        assert_eq!(b.state(), CircuitState::Open);
        assert!(!b.allow(5), "open rejects immediately");
        assert_eq!(b.retry_in_ms(5), Some(99));
    }

    #[test]
    fn open_half_open_probe_cycle() {
        let mut b = BreakerCore::new(cfg());
        for t in 0..3 {
            b.on_failure(t);
        }
        assert_eq!(b.state(), CircuitState::Open);
        assert!(!b.allow(50));
        // Cooldown elapses: exactly one probe admitted.
        assert!(b.allow(102));
        assert_eq!(b.state(), CircuitState::HalfOpen);
        assert!(!b.allow(103), "second request while probe in flight");
        // Failed probe: back to Open, cooldown doubled.
        b.on_failure(104);
        assert_eq!(b.state(), CircuitState::Open);
        assert!(!b.allow(204), "escalated cooldown (200ms) not elapsed");
        assert!(b.allow(305));
        b.on_success(306);
        assert_eq!(b.state(), CircuitState::Closed);
        // Cooldown resets after closing.
        for t in 310..313 {
            b.on_failure(t);
        }
        assert_eq!(b.retry_in_ms(313), Some(99));
    }

    #[test]
    fn health_tracks_degraded_and_outage() {
        let mut b = BreakerCore::new(cfg());
        assert_eq!(b.health(0), StoreHealth::Healthy);
        b.on_failure(10);
        assert_eq!(b.health(11), StoreHealth::Degraded);
        b.on_failure(12);
        b.on_failure(13);
        assert_eq!(b.health(14), StoreHealth::Outage);
        // Recover via probe.
        assert!(b.allow(150));
        b.on_success(151);
        // Closed, but a failure is still inside the degraded window.
        assert_eq!(b.health(152), StoreHealth::Degraded);
        assert_eq!(b.health(13 + 501), StoreHealth::Healthy);
    }

    #[test]
    fn resilient_store_fails_fast_when_open_and_recovers() {
        let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
        faulty.put("k", Arc::new(vec![1])).unwrap();
        // Generous cooldown so the "still open" probe below cannot race it.
        let health = BlobHealth::with_config(
            "test-store",
            BreakerConfig { open_cooldown: Duration::from_millis(300), ..cfg() },
        );
        let policy = RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            deadline: Duration::from_millis(200),
        };
        let rs = ResilientStore::new(
            Arc::clone(&faulty) as Arc<dyn ObjectStore>,
            Arc::clone(&health),
            policy,
        );
        assert_eq!(rs.get("k").unwrap().as_slice(), &[1]);
        assert_eq!(health.health(), StoreHealth::Healthy);

        faulty.set_unavailable(true);
        // Enough failed ops to trip the breaker (2 attempts each).
        assert!(rs.get("k").is_err());
        assert!(rs.get("k").is_err());
        assert_eq!(health.state(), CircuitState::Open);
        assert_eq!(health.health(), StoreHealth::Outage);
        // Heal the store but not the breaker: the next read must still fail
        // fast without touching the store — proof the rejection is the
        // breaker's, not the store's.
        faulty.set_unavailable(false);
        let (_, gets_before, _, _) = faulty.stats.snapshot();
        let t0 = Instant::now();
        assert!(matches!(rs.get("k"), Err(Error::Unavailable(_))));
        let (_, gets_after, _, _) = faulty.stats.snapshot();
        assert_eq!(gets_before, gets_after, "open breaker must not touch the store");
        assert!(t0.elapsed() < Duration::from_millis(250), "fail-fast, not cooldown-blocked");

        // Recovery: after the cooldown a probe closes the breaker.
        std::thread::sleep(Duration::from_millis(330));
        assert_eq!(rs.get("k").unwrap().as_slice(), &[1]);
        assert_eq!(health.state(), CircuitState::Closed);
    }

    #[test]
    fn not_found_is_not_a_health_signal() {
        let health = BlobHealth::with_config("nf-store", cfg());
        let rs = ResilientStore::new(
            Arc::new(MemoryStore::new()) as Arc<dyn ObjectStore>,
            Arc::clone(&health),
            RetryPolicy::no_retries(),
        );
        for _ in 0..10 {
            assert!(matches!(rs.get("missing"), Err(Error::NotFound(_))));
        }
        assert_eq!(health.state(), CircuitState::Closed);
        assert_eq!(health.health(), StoreHealth::Healthy);
    }

    #[test]
    fn not_found_probe_releases_token_and_closes() {
        // The wedge this guards: during an outage uploads wait, so the
        // first cold read after the cooldown probes a not-yet-uploaded key
        // and gets NotFound. That completed round trip must release the
        // probe token (and close the breaker — the store answered), not
        // leak it and reject everything forever.
        let mut b = BreakerCore::new(cfg());
        for t in 0..3 {
            b.on_failure(t);
        }
        assert!(b.allow(150), "probe admitted after cooldown");
        assert_eq!(b.state(), CircuitState::HalfOpen);
        // Probe outcome is NotFound: BlobHealth maps it to on_success.
        b.on_success(151);
        assert_eq!(b.state(), CircuitState::Closed, "reachable store closes the breaker");
        assert!(b.allow(152), "breaker must not stay wedged");

        // And end to end through on_outcome: a NotFound during HalfOpen.
        let health = BlobHealth::with_config("nf-probe", cfg());
        for _ in 0..3 {
            health.on_failure();
        }
        assert_eq!(health.state(), CircuitState::Open);
        std::thread::sleep(Duration::from_millis(120));
        assert!(health.allow(), "probe after cooldown");
        health.on_outcome::<()>(&Err(Error::NotFound("missing".into())));
        assert_eq!(health.state(), CircuitState::Closed);
        assert!(health.allow());
    }

    #[test]
    fn lost_probe_token_self_heals() {
        let mut b = BreakerCore::new(cfg());
        for t in 0..3 {
            b.on_failure(t);
        }
        assert!(b.allow(150), "probe admitted after cooldown");
        assert!(!b.allow(151), "token out, second request rejected");
        // The probe holder dies without reporting. After the probe timeout
        // (= current cooldown, 100ms) a replacement token is issued.
        assert!(!b.allow(249), "still inside the probe timeout");
        assert!(b.allow(250), "lost token reissued after the probe timeout");
        b.on_success(251);
        assert_eq!(b.state(), CircuitState::Closed);
    }

    /// A `ResilientStore` over a breaker that never opens, so only the
    /// retry policy decides.
    fn retrying(max_attempts: u32, delay_ms: u64, deadline: Duration) -> ResilientStore {
        ResilientStore::new(
            Arc::new(MemoryStore::new()) as Arc<dyn ObjectStore>,
            BlobHealth::with_config(
                "retry",
                BreakerConfig { failure_threshold: u32::MAX, ..cfg() },
            ),
            RetryPolicy {
                max_attempts,
                base_delay: Duration::from_millis(delay_ms),
                max_delay: Duration::from_millis(delay_ms),
                deadline,
            },
        )
    }

    #[test]
    fn transient_failures_are_retried() {
        let rs = retrying(5, 1, Duration::from_secs(1));
        let mut calls = 0;
        let got = rs.guarded("k", |_| {
            calls += 1;
            if calls <= 2 {
                Err(Error::Unavailable("blip".into()))
            } else {
                Ok(99)
            }
        });
        assert_eq!(got.unwrap(), 99);
        assert_eq!(calls, 3);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let rs = retrying(5, 1, Duration::from_secs(1));
        let mut calls = 0;
        let got: Result<()> = rs.guarded("k", |_| {
            calls += 1;
            Err(Error::Corruption("bad magic".into()))
        });
        assert!(matches!(got, Err(Error::Corruption(_))));
        assert_eq!(calls, 1, "a permanent error must not be retried");
    }

    #[test]
    fn attempt_budget_holds() {
        let rs = retrying(3, 1, Duration::from_secs(1));
        let mut calls = 0;
        let got: Result<()> = rs.guarded("k", |_| {
            calls += 1;
            Err(Error::Unavailable("down".into()))
        });
        assert!(got.is_err());
        assert_eq!(calls, 3);
    }

    #[test]
    fn deadline_stops_the_retry_schedule() {
        let rs = retrying(1000, 20, Duration::from_millis(60));
        let t0 = Instant::now();
        let mut calls = 0;
        let got: Result<()> = rs.guarded("k", |_| {
            calls += 1;
            Err(Error::Unavailable("down".into()))
        });
        assert!(got.is_err());
        assert!(calls < 10, "{calls} attempts inside a 60 ms deadline");
        assert!(t0.elapsed() < Duration::from_millis(500), "deadline ignored");
    }

    #[test]
    fn open_breaker_rejection_skips_retry_sleeps() {
        let health = BlobHealth::with_config("fast-reject", cfg());
        for _ in 0..3 {
            health.on_failure();
        }
        assert_eq!(health.state(), CircuitState::Open);
        // Long backoffs: if the synthesized rejection went through the
        // retry loop, this call would sleep ~hundreds of ms.
        let rs = ResilientStore::new(
            Arc::new(MemoryStore::new()) as Arc<dyn ObjectStore>,
            Arc::clone(&health),
            RetryPolicy {
                max_attempts: 5,
                base_delay: Duration::from_millis(200),
                max_delay: Duration::from_millis(400),
                deadline: Duration::from_secs(5),
            },
        );
        let t0 = Instant::now();
        assert!(matches!(rs.get("k"), Err(Error::Unavailable(_))));
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "breaker-open rejection slept through the retry schedule: {:?}",
            t0.elapsed()
        );
    }
}
