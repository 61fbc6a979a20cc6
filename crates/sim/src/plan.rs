//! Seed-driven fault plans.
//!
//! A [`FaultPlan`] implements [`s2_common::fault::FaultHook`]: every time the
//! engine passes a named injection site, the plan draws a deterministic
//! pseudo-random decision from `(seed, site, hit#)` and answers Continue,
//! Error, or Crash. Because the decision depends only on the seed and the
//! per-site hit counter — never on wall clock, thread timing, or memory
//! addresses — the same seed over the same workload reproduces the exact
//! same injection trace, byte for byte.

use s2_common::sync::{rank, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ThreadId;

use s2_common::fault::{FaultAction, FaultHook};
use s2_common::Error;

/// Per-site injection probabilities.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteConfig {
    /// Probability of answering `Error(Unavailable)` at each hit.
    pub error_p: f64,
    /// Probability of answering `Crash` (panic-the-engine) at each hit.
    pub crash_p: f64,
    /// Sites on background threads (e.g. the blob uploader worker) must opt
    /// in; they receive error injection only — crashing a foreign thread
    /// would abort the process instead of unwinding into the harness.
    pub any_thread: bool,
}

#[derive(Default)]
struct PlanState {
    /// Monotonic per-site hit counters. These, not wall-clock retries, index
    /// the random stream — so a retry loop sees *fresh* draws each attempt
    /// and cannot livelock on a permanently-failing site.
    hits: HashMap<String, u64>,
    /// Every non-Continue decision, in order: `"site#hit:crash"` / `":error"`.
    trace: Vec<String>,
}

/// A deterministic fault-injection plan (see module docs).
pub struct FaultPlan {
    seed: u64,
    armed_thread: ThreadId,
    sites: HashMap<String, SiteConfig>,
    state: Mutex<PlanState>,
    /// While set, every site answers Continue and counters freeze. The
    /// harness uses this for phases that must make progress (final
    /// upload/verification) so they stay deterministic too.
    quiet: AtomicBool,
}

impl FaultPlan {
    /// A plan with no sites configured, armed for the calling thread.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            armed_thread: std::thread::current().id(),
            sites: HashMap::new(),
            state: Mutex::new(&rank::SIM_PLAN, PlanState::default()),
            quiet: AtomicBool::new(false),
        }
    }

    /// Configure a site with error/crash probabilities (same-thread only).
    pub fn site(&mut self, name: &str, error_p: f64, crash_p: f64) -> &mut Self {
        self.sites.insert(name.to_string(), SiteConfig { error_p, crash_p, any_thread: false });
        self
    }

    /// Configure a site that also fires on foreign threads (error-only there).
    pub fn site_any_thread(&mut self, name: &str, error_p: f64, crash_p: f64) -> &mut Self {
        self.sites.insert(name.to_string(), SiteConfig { error_p, crash_p, any_thread: true });
        self
    }

    /// Suspend (`true`) or resume (`false`) all injection.
    pub fn set_quiet(&self, quiet: bool) {
        self.quiet.store(quiet, Ordering::SeqCst);
    }

    /// The injection trace so far (cloned).
    pub fn trace(&self) -> Vec<String> {
        self.state.lock().trace.clone()
    }

    /// Number of Error decisions issued.
    pub fn error_count(&self) -> u64 {
        self.state.lock().trace.iter().filter(|t| t.ends_with(":error")).count() as u64
    }
}

/// FNV-1a, used to fold the site name into the decision stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: one well-mixed draw per (seed, site, hit).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` for this (seed, site, hit) triple.
fn unit_draw(seed: u64, site: &str, hit: u64) -> f64 {
    let bits = mix(seed ^ fnv1a(site).rotate_left(17) ^ hit.wrapping_mul(0x2545_f491_4f6c_dd1d));
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultHook for FaultPlan {
    fn evaluate(&self, site: &str) -> FaultAction {
        if self.quiet.load(Ordering::SeqCst) {
            return FaultAction::Continue;
        }
        let Some(cfg) = self.sites.get(site) else { return FaultAction::Continue };
        let foreign = std::thread::current().id() != self.armed_thread;
        if foreign && !cfg.any_thread {
            return FaultAction::Continue;
        }
        let mut st = self.state.lock();
        let hit = st.hits.entry(site.to_string()).or_insert(0);
        let n = *hit;
        *hit += 1;
        let r = unit_draw(self.seed, site, n);
        if r < cfg.crash_p {
            if foreign {
                // Crash decisions never fire off the armed thread (an
                // unwinding worker would abort, not hand control back).
                return FaultAction::Continue;
            }
            st.trace.push(format!("{site}#{n}:crash"));
            s2_obs::counter!("sim.injected.crashes").inc();
            FaultAction::Crash
        } else if r < cfg.crash_p + cfg.error_p {
            st.trace.push(format!("{site}#{n}:error"));
            s2_obs::counter!("sim.injected.errors").inc();
            FaultAction::Error(Error::Unavailable(format!("injected fault at {site}")))
        } else {
            FaultAction::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let mk = || {
            let mut p = FaultPlan::new(7);
            p.site("a", 0.3, 0.1).site("b", 0.0, 0.5);
            p
        };
        let (p1, p2) = (mk(), mk());
        for _ in 0..200 {
            for s in ["a", "b"] {
                let a1 = matches!(p1.evaluate(s), FaultAction::Continue);
                let a2 = matches!(p2.evaluate(s), FaultAction::Continue);
                assert_eq!(a1, a2);
            }
        }
        assert_eq!(p1.trace(), p2.trace());
        assert!(!p1.trace().is_empty());
    }

    #[test]
    fn quiet_freezes_everything() {
        let mut p = FaultPlan::new(1);
        p.site("x", 1.0, 0.0);
        p.set_quiet(true);
        for _ in 0..10 {
            assert!(matches!(p.evaluate("x"), FaultAction::Continue));
        }
        assert!(p.trace().is_empty());
        p.set_quiet(false);
        assert!(matches!(p.evaluate("x"), FaultAction::Error(_)));
    }

    #[test]
    fn foreign_threads_never_crash() {
        let mut p = FaultPlan::new(3);
        p.site_any_thread("up", 0.0, 1.0); // crash-certain, but cross-thread
        let p = std::sync::Arc::new(p);
        let p2 = std::sync::Arc::clone(&p);
        std::thread::spawn(move || {
            for _ in 0..20 {
                // crash_p downgrades to Continue off-thread (error_p is 0).
                assert!(matches!(p2.evaluate("up"), FaultAction::Continue));
            }
        })
        .join()
        .unwrap();
        // On the armed thread the same site crashes.
        assert!(matches!(p.evaluate("up"), FaultAction::Crash));
    }

    #[test]
    fn unconfigured_sites_continue() {
        let p = FaultPlan::new(9);
        assert!(matches!(p.evaluate("nope"), FaultAction::Continue));
        assert!(p.trace().is_empty());
    }
}
