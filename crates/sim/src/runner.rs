//! Batch scenario runner: sweep a seed range, aggregate, report failures.

use crate::scenario::{run_group_scenario, run_scenario, ScenarioReport, Violation};

/// Aggregate results of a seed sweep.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Scenarios that ran with a synchronous replica (failover mode).
    pub replica_scenarios: usize,
    /// Committed transactions across all scenarios.
    pub commits: u64,
    /// Injected crashes survived.
    pub crashes: u64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Injected (non-crash) errors observed.
    pub injected_errors: u64,
    /// PITR restores verified against the oracle.
    pub pitr_checks: u64,
    /// Invariant violations, with their replayable seeds and traces.
    pub failures: Vec<Violation>,
}

impl RunSummary {
    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{} scenarios ({} replicated): {} commits, {} crashes, \
             {} recoveries, {} injected errors, {} PITR checks, {} violations",
            self.scenarios,
            self.replica_scenarios,
            self.commits,
            self.crashes,
            self.recoveries,
            self.injected_errors,
            self.pitr_checks,
            self.failures.len()
        )
    }
}

/// Run `count` scenarios on seeds `base_seed..base_seed+count`.
pub fn run_many(base_seed: u64, count: usize, verbose: bool) -> RunSummary {
    sweep(base_seed, count, verbose, run_scenario)
}

/// Run `count` group-commit crash drills (`wal.group.*` kill points boosted)
/// on seeds `base_seed..base_seed+count`.
pub fn run_group_many(base_seed: u64, count: usize, verbose: bool) -> RunSummary {
    sweep(base_seed, count, verbose, run_group_scenario)
}

fn sweep(
    base_seed: u64,
    count: usize,
    verbose: bool,
    run: fn(u64) -> Result<ScenarioReport, Violation>,
) -> RunSummary {
    let mut sum = RunSummary::default();
    for i in 0..count {
        let seed = base_seed.wrapping_add(i as u64);
        sum.scenarios += 1;
        match run(seed) {
            Ok(r) => {
                sum.replica_scenarios += r.replica_mode as usize;
                sum.commits += r.commits;
                sum.crashes += r.crashes;
                sum.recoveries += r.recoveries;
                sum.injected_errors += r.injected_errors;
                sum.pitr_checks += r.pitr_checks;
                if verbose {
                    eprintln!(
                        "seed {seed}: ok ({} steps, {} commits, {} crashes, {} pitr, replica={})",
                        r.steps, r.commits, r.crashes, r.pitr_checks, r.replica_mode
                    );
                }
            }
            Err(v) => {
                eprintln!("VIOLATION: {v}");
                sum.failures.push(v);
            }
        }
    }
    sum
}
