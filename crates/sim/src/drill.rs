//! The drill framework every `s2-sim` scenario runs on.
//!
//! A drill is a seeded setup, then phases that each scope their own
//! [`FaultPlan`](crate::plan::FaultPlan), then checks against an oracle. Its
//! body is a plain `fn(seed, &mut Harness) -> Result<Report, String>` and one
//! entry of [`DRILLS`]. [`Drill::run`] serializes drills on the
//! process-global fault hook, clears the hook whatever the body does, and
//! turns an `Err` into a [`Violation`] carrying the trace so far; [`sweep`]
//! runs one drill over a seed range into a [`Summary`].
//!
//! The trace holds only seed-determined decisions, so the same seed replays
//! the same trace. Anything that depends on thread timing (backlog depth,
//! wall-clock waits, work done while polling a breaker) is a counter marked
//! [`Agg::TimedSum`] or [`Agg::Peak`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use s2_common::fault::CrashPoint;
use s2_common::sync::{rank, Mutex, MutexGuard};

/// How a counter aggregates over a sweep, and whether a replay of the same
/// seed must reproduce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Summed; a function of the seed alone.
    Sum,
    /// Summed; depends on thread timing.
    TimedSum,
    /// Maximum; depends on thread timing.
    Peak,
}

/// A named counter of a [`Report`] or [`Summary`].
pub type Counter = (&'static str, Agg, u64);

/// Outcome of a clean (violation-free) drill.
#[derive(Debug)]
pub struct Report {
    /// Seed that produced this drill.
    pub seed: u64,
    /// Seed-determined decisions, in order (same seed, same trace).
    pub trace: Vec<String>,
    /// What the drill exercised.
    pub counters: Vec<Counter>,
}

/// An invariant violation: the seed reproduces it exactly.
#[derive(Debug)]
pub struct Violation {
    /// Seed to replay.
    pub seed: u64,
    /// What went wrong.
    pub message: String,
    /// Trace up to the failure.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "seed {}: {}", self.seed, self.message)?;
        write!(f, "  trace ({} events): {}", self.trace.len(), self.trace.join(" "))
    }
}

/// What a drill body sees of the runner.
pub struct Harness {
    seed: u64,
    /// Seed-determined decisions so far; a violation carries them.
    pub trace: Vec<String>,
}

impl Harness {
    /// Close a clean drill: its trace plus `counters`.
    pub fn report(&mut self, counters: Vec<Counter>) -> Report {
        Report { seed: self.seed, trace: std::mem::take(&mut self.trace), counters }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        // A violation or panic mid-phase must not leak injection into the
        // next drill.
        s2_common::fault::clear();
    }
}

/// One entry of the drill table.
pub struct Drill {
    /// The `--scenario` name.
    pub name: &'static str,
    /// The drill itself.
    pub body: fn(u64, &mut Harness) -> Result<Report, String>,
}

/// Every drill `s2-sim --scenario` runs.
pub const DRILLS: &[Drill] = &[
    Drill { name: "crash", body: crate::crash::crash },
    Drill { name: "group", body: crate::crash::group },
    Drill { name: "outage", body: crate::outage::outage },
    Drill { name: "workspace", body: crate::workspace::workspace },
    Drill { name: "sql", body: crate::sql::sql },
];

/// The drill named `name`.
pub fn drill(name: &str) -> Option<&'static Drill> {
    DRILLS.iter().find(|d| d.name == name)
}

impl Drill {
    /// Run the drill on one seed.
    pub fn run(&self, seed: u64) -> Result<Report, Violation> {
        let _lock = harness_lock();
        install_quiet_panic_hook();
        install_logical_event_clock();
        let mut h = Harness { seed, trace: Vec::new() };
        (self.body)(seed, &mut h).map_err(|message| Violation {
            seed,
            message,
            trace: std::mem::take(&mut h.trace),
        })
    }
}

/// Aggregate of a seed sweep.
#[derive(Debug, Default)]
pub struct Summary {
    /// The drill swept.
    pub drill: &'static str,
    /// Seeds run.
    pub scenarios: usize,
    /// Every counter of the clean reports, in report order: [`Agg::Peak`]
    /// counters maxed, the rest summed.
    pub counters: Vec<Counter>,
    /// Violations, with their replayable seeds and traces.
    pub failures: Vec<Violation>,
}

impl Summary {
    /// The aggregate of counter `name` (0 if no report had it).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.0 == name).map_or(0, |c| c.2)
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{} {} drills: {}, {} violations",
            self.scenarios,
            self.drill,
            render(&self.counters),
            self.failures.len()
        )
    }

    fn add(&mut self, counters: &[Counter]) {
        for &(name, agg, v) in counters {
            match self.counters.iter_mut().find(|c| c.0 == name) {
                Some(c) if agg == Agg::Peak => c.2 = c.2.max(v),
                Some(c) => c.2 += v,
                None => self.counters.push((name, agg, v)),
            }
        }
    }
}

fn render(counters: &[Counter]) -> String {
    let cells: Vec<String> = counters
        .iter()
        .map(|(name, agg, v)| match agg {
            Agg::Sum => format!("{name}={v}"),
            Agg::TimedSum => format!("{name}={v} (timed)"),
            Agg::Peak => format!("{name}={v} (max)"),
        })
        .collect();
    cells.join(", ")
}

/// Run `drill` on seeds `base_seed..base_seed+count`. Each violation prints
/// to stderr as it happens; `verbose` also prints every clean seed's
/// counters.
pub fn sweep(drill: &Drill, base_seed: u64, count: usize, verbose: bool) -> Summary {
    let mut sum = Summary { drill: drill.name, scenarios: count, ..Summary::default() };
    for i in 0..count {
        let seed = base_seed.wrapping_add(i as u64);
        match drill.run(seed) {
            Ok(r) => {
                if verbose {
                    eprintln!("seed {seed}: ok ({})", render(&r.counters));
                }
                sum.add(&r.counters);
            }
            Err(v) => {
                eprintln!("VIOLATION: {v}");
                sum.failures.push(v);
            }
        }
    }
    sum
}

static SIM_LOCK: Mutex<()> = Mutex::new(&rank::SIM_HARNESS, ());

/// Serialize access to the process-global fault hook. Every test that
/// installs a plan must hold this for its duration; [`Drill::run`] takes it.
pub fn harness_lock() -> MutexGuard<'static, ()> {
    SIM_LOCK.lock()
}

static HOOK_INIT: Once = Once::new();

/// Silence the default panic printer for injected `CrashPoint` panics (they
/// are simulated power losses, not bugs); forward everything else.
pub fn install_quiet_panic_hook() {
    HOOK_INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPoint>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Replace the global event ring's wall clock with a logical tick counter.
/// Event timestamps then depend only on the order events are recorded, so a
/// drill's event trace is byte-identical for identical seeds. First
/// installer wins process-wide; idempotent across drills.
fn install_logical_event_clock() {
    static TICKS: AtomicU64 = AtomicU64::new(0);
    s2_obs::global().events().set_clock(Box::new(|| TICKS.fetch_add(1, Ordering::Relaxed)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use std::sync::Arc;

    /// Even seeds pass with `commits = seed`; odd seeds fail with a fault
    /// plan still installed.
    fn parity(seed: u64, h: &mut Harness) -> Result<Report, String> {
        h.trace.push(format!("seed {seed}"));
        if seed % 2 == 1 {
            let mut plan = FaultPlan::new(seed);
            plan.site("x", 1.0, 0.0);
            s2_common::fault::install(Arc::new(plan));
            return Err("odd seed".to_string());
        }
        Ok(h.report(vec![
            ("commits", Agg::Sum, seed),
            ("backlog", Agg::Peak, seed),
            ("waits", Agg::TimedSum, 1),
        ]))
    }

    #[test]
    fn sweep_sums_counters_maxes_peaks_and_collects_failures() {
        let s = sweep(&Drill { name: "parity", body: parity }, 10, 5, false);
        assert_eq!(s.scenarios, 5);
        assert_eq!((s.get("commits"), s.get("backlog"), s.get("waits")), (10 + 12 + 14, 14, 3));
        assert_eq!(s.failures.iter().map(|v| v.seed).collect::<Vec<_>>(), [11, 13]);
        assert_eq!(s.failures[0].message, "odd seed");
        assert_eq!(s.failures[0].trace, ["seed 11"]);
        assert_eq!(
            s.summary_line(),
            "5 parity drills: commits=36, backlog=14 (max), waits=3 (timed), 2 violations"
        );
        // The failing body left its plan installed; the harness cleared it.
        let _lock = harness_lock();
        assert!(!s2_common::fault::armed());
    }
}
