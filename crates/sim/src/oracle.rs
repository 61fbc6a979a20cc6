//! The oracle: a `BTreeMap` model of table contents, versioned by log
//! position.
//!
//! Every committed transaction records the model state as of its commit
//! record's end position. After a crash truncates the log at some surviving
//! prefix, the oracle rewinds to the latest recorded state at or below the
//! truncation point — that is exactly what a correct engine must recover to.
//! `acked_lp` tracks the highest commit the harness has *acknowledged as
//! durable* (synced locally, or applied by the replica): losing anything at
//! or below it is an invariant violation, never acceptable data loss.

use std::collections::BTreeMap;

use s2_common::LogPosition;

/// Model state keyed by primary key.
pub type Model = BTreeMap<i64, i64>;

/// Versioned model of the table (see module docs).
pub struct Oracle {
    /// Current expected table contents.
    pub model: Model,
    /// `(commit end_lp, model as of that commit)`, ascending. Starts with
    /// `(0, empty)` so truncation to any position has a floor entry.
    history: Vec<(LogPosition, Model)>,
    /// Highest commit position acknowledged as durable to the "client".
    pub acked_lp: LogPosition,
    /// Model state of a commit that is *in flight*: `commit()` was called
    /// but has not returned. A crash can strike after the group-commit
    /// leader made the batch durable but before the committer woke — the
    /// record legally survives recovery even though the client was never
    /// acknowledged. Recovery reconciles against this (see
    /// `crash::reconcile_pending`) and always clears it.
    pub pending: Option<Model>,
}

impl Oracle {
    /// An empty oracle: no rows, nothing acknowledged.
    pub fn new() -> Oracle {
        Oracle { model: Model::new(), history: vec![(0, Model::new())], acked_lp: 0, pending: None }
    }

    /// Record a successful commit whose record ends at `end_lp`.
    pub fn record_commit(&mut self, end_lp: LogPosition, model: Model) {
        debug_assert!(self.history.last().is_none_or(|(lp, _)| *lp <= end_lp));
        self.model = model.clone();
        self.history.push((end_lp, model));
    }

    /// Acknowledge every commit at or below `pos` as durable.
    pub fn ack_up_to(&mut self, pos: LogPosition) {
        let acked =
            self.history.iter().rev().find(|(lp, _)| *lp <= pos).map(|(lp, _)| *lp).unwrap_or(0);
        self.acked_lp = self.acked_lp.max(acked);
    }

    /// Rewind to the survivor state after a crash truncated the log at
    /// `survivor_lp`: commits above it are forgotten (they were never
    /// acknowledged — callers check `acked_lp <= survivor_lp` first).
    pub fn rewind_to(&mut self, survivor_lp: LogPosition) {
        while self.history.last().is_some_and(|(lp, _)| *lp > survivor_lp) {
            self.history.pop();
        }
        self.model = self.history.last().expect("floor entry").1.clone();
    }
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(i64, i64)]) -> Model {
        pairs.iter().copied().collect()
    }

    #[test]
    fn rewind_restores_historical_state() {
        let mut o = Oracle::new();
        o.record_commit(100, m(&[(1, 1)]));
        o.record_commit(200, m(&[(1, 1), (2, 2)]));
        o.record_commit(300, m(&[(2, 2)]));
        o.rewind_to(210);
        assert_eq!(o.model, m(&[(1, 1), (2, 2)]));
        // The commit at 300 is forgotten: a new one at 250 records cleanly.
        o.record_commit(250, m(&[(1, 1)]));
        o.rewind_to(50);
        assert_eq!(o.model, m(&[]));
    }

    #[test]
    fn ack_tracks_largest_covered_commit() {
        let mut o = Oracle::new();
        o.record_commit(100, m(&[(1, 1)]));
        o.record_commit(200, m(&[(2, 2)]));
        o.ack_up_to(150);
        assert_eq!(o.acked_lp, 100);
        o.ack_up_to(90); // monotonic: never regresses
        assert_eq!(o.acked_lp, 100);
        o.ack_up_to(500);
        assert_eq!(o.acked_lp, 200);
    }
}
