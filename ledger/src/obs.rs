//! Deltas of the engine's existing `s2-obs` registry taken around a traced
//! phase. Only sums and counts are used (the log-bucketed percentiles are
//! too coarse for the ledger); nothing here adds a metric to the engine.

use std::collections::BTreeMap;

/// What the registry accumulated between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct ObsDelta {
    counters: BTreeMap<String, u64>,
    /// Histogram name -> (sum, count).
    hists: BTreeMap<String, (u64, u64)>,
}

/// A point-in-time copy of the registry's counters and histogram totals.
pub struct ObsMark(ObsDelta);

/// Snapshot the global registry.
pub fn mark() -> ObsMark {
    let snap = s2_obs::global().snapshot();
    ObsMark(ObsDelta {
        counters: snap.counters.into_iter().collect(),
        hists: snap.histograms.into_iter().map(|(n, h)| (n, (h.sum, h.count))).collect(),
    })
}

impl ObsMark {
    /// Everything recorded since this mark.
    pub fn since(&self) -> ObsDelta {
        let now = mark().0;
        let base = &self.0;
        ObsDelta {
            counters: now
                .counters
                .into_iter()
                .map(|(n, v)| {
                    let before = base.counters.get(&n).copied().unwrap_or(0);
                    (n, v.saturating_sub(before))
                })
                .collect(),
            hists: now
                .hists
                .into_iter()
                .map(|(n, (sum, count))| {
                    let (s0, c0) = base.hists.get(&n).copied().unwrap_or((0, 0));
                    (n, (sum.saturating_sub(s0), count.saturating_sub(c0)))
                })
                .collect(),
        }
    }
}

impl ObsDelta {
    /// Fold another delta into this one.
    pub fn add(&mut self, other: &ObsDelta) {
        for (n, v) in &other.counters {
            *self.counters.entry(n.clone()).or_default() += v;
        }
        for (n, (s, c)) in &other.hists {
            let e = self.hists.entry(n.clone()).or_default();
            e.0 += s;
            e.1 += c;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.0 as f64)
    }

    pub fn hist_count(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1 as f64)
    }

    /// Mean recorded value of a histogram (0 when it recorded nothing).
    pub fn hist_mean(&self, name: &str) -> f64 {
        ratio(self.hist_sum(name), self.hist_count(name))
    }
}

/// `a / b`, 0 when `b` is 0 (a layer that did no work reports 0, not NaN).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_counts_only_what_happened_since_the_mark() {
        s2_obs::global().counter("ledger.test.c").add(5);
        s2_obs::global().histogram("ledger.test.h").record(10);
        let m = mark();
        s2_obs::global().counter("ledger.test.c").add(3);
        s2_obs::global().histogram("ledger.test.h").record(30);
        s2_obs::global().histogram("ledger.test.h").record(50);
        let mut d = m.since();
        assert_eq!(d.counter("ledger.test.c"), 3.0);
        assert_eq!((d.hist_sum("ledger.test.h"), d.hist_count("ledger.test.h")), (80.0, 2.0));
        assert_eq!(d.hist_mean("ledger.test.h"), 40.0);
        assert_eq!(d.counter("ledger.test.absent"), 0.0);
        let again = d.clone();
        d.add(&again);
        assert_eq!(d.counter("ledger.test.c"), 6.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
