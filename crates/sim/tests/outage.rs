//! Integration test for the blob-outage drill: the seeded drill upholds its
//! invariants across a seed sweep and exercises a genuine outage window.

use s2_sim::{drill, sweep};

#[test]
fn outage_drills_uphold_invariants() {
    let summary = sweep(drill("outage").expect("outage drill"), 0xB10B, 4, false);
    for v in &summary.failures {
        eprintln!("{v}");
    }
    assert!(summary.failures.is_empty(), "{} drill(s) violated invariants", summary.failures.len());
    // The drill is only meaningful if commits actually landed while the
    // store rejected 100% of traffic and a backlog built up.
    assert!(summary.get("commits_during_outage") > 0, "no commits acked during outage");
    assert!(summary.get("backlog_peak") > 0, "no upload backlog ever accumulated");
}
