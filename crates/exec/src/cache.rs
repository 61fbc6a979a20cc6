//! Per-segment adaptive-decision cache (paper §5.2, amortized).
//!
//! The adaptive scan prices every residual clause on a per-segment sample
//! each time it runs — the sampling pass is what buys the paper's "no query
//! optimizer statistics" claim, but for a repeated query it is pure
//! overhead: the segment is immutable, so the measured selectivities and
//! the chosen clause order cannot change. This cache remembers the outcome
//! of the §5.2 planning pass keyed by *(table instance, segment id, filter
//! fingerprint)* and replays it on the next scan of the same segment with
//! the same residual filter, skipping the sampling entirely.
//!
//! Invalidation:
//! - **Merges** rewrite data into *new* segment ids (ids are never reused),
//!   so a merged segment's entries can no longer be hit; they age out via
//!   the capacity sweep below.
//! - **Deletes** flip a segment's delete bits, which shifts selectivities.
//!   Each entry records the deleted-row count it was planned under and is
//!   treated as a miss (and replaced) when the count moved.
//! - **Capacity**: the cache holds at most [`CAPACITY`] entries; on
//!   overflow the oldest half (by insertion epoch) is evicted.
//!
//! A cached decision is a pure heuristic — replaying a stale one can only
//! cost time, never correctness, because every strategy evaluates the same
//! predicate exactly.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use s2_common::sync::{rank, Mutex};
use s2_common::Value;

use crate::expr::Expr;

/// Maximum cached decisions before an eviction sweep.
pub const CAPACITY: usize = 8192;

/// How one residual clause is evaluated against a segment (paper §5.2's
/// filter strategies, minus index filters which are consumed before
/// planning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseStrategy {
    /// Decode the clause's columns for the current selection, then
    /// evaluate the predicate on the decoded values.
    Regular,
    /// Evaluate the predicate once over the column's code domain into a
    /// per-dictionary-entry accept bitmap, then answer every row with a
    /// code lookup — no `Value` is ever built.
    EncodedBitmap,
}

/// One planned residual clause: which conjunct, the chosen strategy, and
/// the sampled pass rate that drives group-filter formation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedClause {
    /// Index into the residual conjunct list.
    pub idx: usize,
    /// Chosen evaluation strategy.
    pub strategy: ClauseStrategy,
    /// Sampled fraction of rows passing this clause.
    pub selectivity: f64,
}

/// Cache key: the table's live `Arc` address disambiguates equal segment
/// ids across tables/partitions; a recycled address after a table drop can
/// at worst replay a valid-looking heuristic.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct Key {
    table: usize,
    segment: u64,
    fingerprint: u64,
}

struct Entry {
    plan: Vec<PlannedClause>,
    /// Deleted-row count the plan was sampled under.
    deleted: usize,
    /// Insertion order, for the eviction sweep.
    epoch: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    epoch: u64,
}

/// The process-wide decision cache.
pub struct DecisionCache {
    inner: Mutex<Inner>,
}

impl Default for DecisionCache {
    fn default() -> DecisionCache {
        DecisionCache { inner: Mutex::new(&rank::EXEC_DECISION_CACHE, Inner::default()) }
    }
}

/// The global cache used by [`crate::scan`].
pub fn global() -> &'static DecisionCache {
    static GLOBAL: std::sync::OnceLock<DecisionCache> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(DecisionCache::default)
}

/// Fingerprint a residual filter plus the planning-relevant option: a
/// structural hash of each clause's tree (a join key filter contributes the
/// content hash it computed at build), so no clause is formatted or its
/// key set walked.
pub fn fingerprint(residual: &[Expr], use_encoded: bool) -> u64 {
    let mut h = DefaultHasher::new();
    for clause in residual {
        hash_expr(clause, &mut h);
    }
    use_encoded.hash(&mut h);
    h.finish()
}

fn hash_expr(e: &Expr, h: &mut DefaultHasher) {
    std::mem::discriminant(e).hash(h);
    match e {
        Expr::Column(c) => c.hash(h),
        Expr::Literal(v) => hash_value(v, h),
        Expr::Cmp(op, a, b) => {
            std::mem::discriminant(op).hash(h);
            hash_expr(a, h);
            hash_expr(b, h);
        }
        Expr::Arith(op, a, b) => {
            std::mem::discriminant(op).hash(h);
            hash_expr(a, h);
            hash_expr(b, h);
        }
        Expr::And(parts) | Expr::Or(parts) => {
            parts.len().hash(h);
            parts.iter().for_each(|p| hash_expr(p, h));
        }
        Expr::Not(x) | Expr::IsNull(x) | Expr::Year(x) => hash_expr(x, h),
        Expr::InList(x, list) => {
            hash_expr(x, h);
            list.len().hash(h);
            list.iter().for_each(|v| hash_value(v, h));
        }
        Expr::Like(x, pattern) => {
            hash_expr(x, h);
            pattern.hash(h);
        }
        Expr::Case { when, else_ } => {
            when.len().hash(h);
            for (c, r) in when {
                hash_expr(c, h);
                hash_expr(r, h);
            }
            hash_expr(else_, h);
        }
        Expr::Substr(x, start, len) => {
            hash_expr(x, h);
            (start, len).hash(h);
        }
        Expr::KeyFilter(x, kf) => {
            hash_expr(x, h);
            kf.content_hash().hash(h);
        }
    }
}

/// A literal by type and bits (`Int(1)` and `Double(1.0)` differ).
fn hash_value(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Int(i) => (1u8, i).hash(h),
        Value::Double(d) => (2u8, d.to_bits()).hash(h),
        Value::Str(s) => (3u8, s.as_ref() as &str).hash(h),
    }
}

impl DecisionCache {
    /// Look up the cached plan for `(table, segment, fingerprint)`. A hit
    /// requires the segment's deleted-row count to match what the plan was
    /// sampled under; entries that mismatch are dropped (the caller will
    /// re-plan and re-insert).
    pub fn get(
        &self,
        table: usize,
        segment: u64,
        fingerprint: u64,
        deleted: usize,
    ) -> Option<Vec<PlannedClause>> {
        let key = Key { table, segment, fingerprint };
        let mut inner = self.inner.lock();
        match inner.map.get(&key) {
            Some(e) if e.deleted == deleted => {
                s2_obs::counter!("exec.scan.decision_cache_hits").inc();
                Some(e.plan.clone())
            }
            Some(_) => {
                inner.map.remove(&key);
                s2_obs::counter!("exec.scan.decision_cache_invalidations").inc();
                s2_obs::counter!("exec.scan.decision_cache_misses").inc();
                None
            }
            None => {
                s2_obs::counter!("exec.scan.decision_cache_misses").inc();
                None
            }
        }
    }

    /// Insert a freshly sampled plan.
    pub fn put(
        &self,
        table: usize,
        segment: u64,
        fingerprint: u64,
        deleted: usize,
        plan: Vec<PlannedClause>,
    ) {
        let key = Key { table, segment, fingerprint };
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        let epoch = inner.epoch;
        inner.map.insert(key, Entry { plan, deleted, epoch });
        if inner.map.len() > CAPACITY {
            // Evict the older half so merged-away segments age out.
            let mut epochs: Vec<u64> = inner.map.values().map(|e| e.epoch).collect();
            epochs.sort_unstable();
            let cutoff = epochs[epochs.len() / 2];
            let before = inner.map.len();
            inner.map.retain(|_, e| e.epoch > cutoff);
            let evicted = (before - inner.map.len()) as u64;
            s2_obs::counter!("exec.scan.decision_cache_evictions").add(evicted);
        }
        s2_obs::gauge!("exec.scan.decision_cache_entries").set(inner.map.len() as i64);
    }

    /// Entry count (tests, metrics).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_matching_delete_count() {
        let c = DecisionCache::default();
        let plan =
            vec![PlannedClause { idx: 0, strategy: ClauseStrategy::Regular, selectivity: 0.5 }];
        c.put(1, 10, 99, 0, plan.clone());
        assert_eq!(c.get(1, 10, 99, 0), Some(plan));
        assert_eq!(c.get(1, 10, 99, 3), None, "delete-count change invalidates");
        assert_eq!(c.get(1, 10, 99, 0), None, "invalidation removed the entry");
    }

    #[test]
    fn keys_distinguish_table_segment_filter() {
        let c = DecisionCache::default();
        let plan = vec![PlannedClause {
            idx: 1,
            strategy: ClauseStrategy::EncodedBitmap,
            selectivity: 0.1,
        }];
        c.put(1, 10, 99, 0, plan.clone());
        assert!(c.get(2, 10, 99, 0).is_none());
        assert!(c.get(1, 11, 99, 0).is_none());
        assert!(c.get(1, 10, 98, 0).is_none());
        assert_eq!(c.get(1, 10, 99, 0), Some(plan));
    }

    #[test]
    fn capacity_sweep_evicts_oldest() {
        let c = DecisionCache::default();
        for i in 0..(CAPACITY as u64 + 1) {
            c.put(1, i, 0, 0, Vec::new());
        }
        assert!(c.len() <= CAPACITY / 2 + 1);
        // The newest entry survives the sweep.
        assert!(c.get(1, CAPACITY as u64, 0, 0).is_some());
    }

    #[test]
    fn fingerprint_distinguishes_filters() {
        let a = fingerprint(&[Expr::eq(0, 1i64)], true);
        let b = fingerprint(&[Expr::eq(0, 2i64)], true);
        let c = fingerprint(&[Expr::eq(0, 1i64)], false);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fingerprint(&[Expr::eq(0, 1i64)], true));
        assert_ne!(a, fingerprint(&[Expr::eq(0, 1.0)], true), "literal type counts");
    }

    #[test]
    fn fingerprint_is_structural() {
        use crate::keyfilter::KeyFilter;
        use s2_encoding::ColumnVector;
        use std::sync::Arc;
        let in_list = |members: &[i64]| {
            let vals = members.iter().map(|&m| Value::Int(m)).collect();
            vec![Expr::InList(Box::new(Expr::Column(2)), vals), Expr::eq(0, "x")]
        };
        let key_set = |keys: &[i64]| {
            let lane = ColumnVector::Int { values: keys.to_vec(), nulls: None };
            vec![Expr::KeyFilter(Box::new(Expr::Column(1)), Arc::new(KeyFilter::build(&lane)))]
        };
        let fp = |clauses: Vec<Expr>| fingerprint(&clauses, true);
        assert_eq!(fp(in_list(&[1, 2, 3])), fp(in_list(&[1, 2, 3])));
        assert_ne!(fp(in_list(&[1, 2, 3])), fp(in_list(&[1, 2, 4])), "one IN member");
        assert_ne!(fp(in_list(&[1, 2, 3])), fp(in_list(&[1, 2])));
        assert_eq!(fp(key_set(&[5, 9, 7])), fp(key_set(&[9, 7, 5])), "equal key sets");
        assert_ne!(fp(key_set(&[5, 9, 7])), fp(key_set(&[5, 9, 8])), "one key");
        let like = |p: &str| vec![Expr::Like(Box::new(Expr::Column(0)), p.into())];
        assert_ne!(fp(like("%a")), fp(like("%b")));
        let and = |x: i64| vec![Expr::And(vec![Expr::eq(0, 1i64), Expr::eq(1, x)])];
        assert_ne!(fp(and(1)), fp(and(2)), "a literal deep in the tree");
    }
}
