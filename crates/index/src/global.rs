//! The global secondary-index structure: an LSM of immutable hash tables
//! (paper §4.1).
//!
//! Each level is an open-addressing hash table mapping a 64-bit *value hash*
//! (values themselves are never stored here — they live in the per-segment
//! inverted indexes, which keeps global-index write amplification low for
//! wide columns) to the list of `(segment id, entry offsets...)` pairs for
//! segments containing that value. When a segment is created its hash table
//! becomes a new level; levels are merged size-tiered so lookups probe
//! O(log N) tables instead of O(N) per-segment structures.
//!
//! Deletions are lazy (paper §4.1): lookups skip pairs whose segment is no
//! longer live, and maintenance rewrites a level once at least half of the
//! segments it covers are dead.

use std::collections::HashSet;
use std::sync::Arc;

use s2_common::SegmentId;

/// Flat `(hash, segment, entry offsets)` tuples: the input of one level
/// build. One allocation per field instead of one per tuple, so a whole
/// table's segments can be gathered and built into a level in one pass.
pub struct LevelInput {
    arity: usize,
    hashes: Vec<u64>,
    segments: Vec<SegmentId>,
    /// `arity` offsets per tuple.
    offsets: Vec<u32>,
}

impl LevelInput {
    /// Empty input for tuples of `arity` entry offsets.
    pub fn new(arity: usize) -> LevelInput {
        LevelInput { arity, hashes: Vec::new(), segments: Vec::new(), offsets: Vec::new() }
    }

    /// Add one tuple. `offsets.len()` must equal the arity.
    pub fn push(&mut self, hash: u64, segment: SegmentId, offsets: &[u32]) {
        assert_eq!(offsets.len(), self.arity, "entry offsets per tuple");
        self.hashes.push(hash);
        self.segments.push(segment);
        self.offsets.extend_from_slice(offsets);
    }

    /// Tuples gathered so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no tuple was gathered.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    fn tuple(&self, i: usize) -> (SegmentId, &[u32]) {
        (self.segments[i], &self.offsets[i * self.arity..(i + 1) * self.arity])
    }
}

/// One immutable hash-table level.
pub struct HashLevel {
    /// Probe table: slot -> entry ordinal + 1 (0 = empty).
    slots: Vec<u32>,
    /// Distinct hashes in this level.
    entries: Vec<LevelEntry>,
    /// Flattened pairs: for entry `e`, pairs `pairs[e.start .. e.start+e.len]`.
    pair_segments: Vec<SegmentId>,
    /// Flattened entry offsets: `arity` u32s per pair.
    pair_offsets: Vec<u32>,
    /// Offsets stored per pair.
    arity: usize,
    /// All segments covered by this level (for lazy-deletion accounting).
    covered: HashSet<SegmentId>,
}

struct LevelEntry {
    hash: u64,
    start: u32,
    len: u32,
}

impl HashLevel {
    /// Build a level in O(tuples) without sorting: hash every tuple into the
    /// probe table to find its entry, then lay the pairs out entry by entry.
    /// The level is a *set* — a tuple repeated in the input (one per row of
    /// a non-unique key) is stored once — and two different tuples under
    /// one hash (a collision) are both kept: lookups return both and the
    /// caller verifies values at the inverted index.
    fn build(input: &LevelInput) -> HashLevel {
        let n = input.len();
        assert!(n < u32::MAX as usize, "level of {n} tuples");
        // Open addressing at 50% max load (distinct hashes <= tuples).
        let cap = (n * 2).next_power_of_two().max(8);
        let mask = cap - 1;
        let mut slots = vec![0u32; cap];
        let mut entries: Vec<LevelEntry> = Vec::new();
        // Per entry the most recent tuple kept, per tuple the one kept before
        // it under the same entry (`NONE` ends the chain). A new tuple is
        // compared against its entry's chain to drop repeats, and the chains
        // are what the layout below walks.
        const NONE: u32 = u32::MAX;
        let mut newest: Vec<u32> = Vec::new();
        let mut older = vec![NONE; n];
        let mut kept = 0usize;
        let mut covered = HashSet::new();
        let mut last_seg = None;
        for i in 0..n {
            let hash = input.hashes[i];
            let mut slot = (hash as usize) & mask;
            let e = loop {
                match slots[slot] {
                    0 => {
                        entries.push(LevelEntry { hash, start: 0, len: 0 });
                        newest.push(NONE);
                        slots[slot] = entries.len() as u32;
                        break entries.len() - 1;
                    }
                    tag if entries[(tag - 1) as usize].hash == hash => break (tag - 1) as usize,
                    _ => slot = (slot + 1) & mask,
                }
            };
            let mut prev = newest[e];
            while prev != NONE && input.tuple(prev as usize) != input.tuple(i) {
                prev = older[prev as usize];
            }
            if prev == NONE {
                older[i] = newest[e];
                newest[e] = i as u32;
                entries[e].len += 1;
                kept += 1;
            }
            // Inputs arrive segment by segment, so this rarely hashes.
            if last_seg != Some(input.segments[i]) {
                last_seg = Some(input.segments[i]);
                covered.insert(input.segments[i]);
            }
        }
        // Lay each entry's pairs out contiguously, in input order (its chain
        // runs newest to oldest, so fill from the back).
        let mut pair_segments = vec![0; kept];
        let mut pair_offsets = vec![0u32; kept * input.arity];
        let mut next = 0u32;
        for (entry, &newest) in entries.iter_mut().zip(&newest) {
            entry.start = next;
            next += entry.len;
            let mut at = next as usize;
            let mut i = newest;
            while i != NONE {
                at -= 1;
                let (seg, offs) = input.tuple(i as usize);
                pair_segments[at] = seg;
                pair_offsets[at * input.arity..(at + 1) * input.arity].copy_from_slice(offs);
                i = older[i as usize];
            }
        }
        HashLevel { slots, entries, pair_segments, pair_offsets, arity: input.arity, covered }
    }

    /// Probe for `hash`, appending live pairs to `out`.
    fn lookup_into(
        &self,
        hash: u64,
        is_live: &dyn Fn(SegmentId) -> bool,
        out: &mut Vec<(SegmentId, Vec<u32>)>,
    ) {
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let tag = self.slots[slot];
            if tag == 0 {
                return;
            }
            let e = &self.entries[(tag - 1) as usize];
            if e.hash == hash {
                for p in e.start..e.start + e.len {
                    let seg = self.pair_segments[p as usize];
                    if is_live(seg) {
                        let o = p as usize * self.arity;
                        out.push((seg, self.pair_offsets[o..o + self.arity].to_vec()));
                    }
                }
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Append this level's tuples (for merging) to `out`, dropping dead
    /// segments.
    fn drain_into(&self, is_live: &dyn Fn(SegmentId) -> bool, out: &mut LevelInput) {
        for e in &self.entries {
            for p in e.start..e.start + e.len {
                let seg = self.pair_segments[p as usize];
                if is_live(seg) {
                    let o = p as usize * self.arity;
                    out.push(e.hash, seg, &self.pair_offsets[o..o + self.arity]);
                }
            }
        }
    }

    /// Distinct hashes in this level.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Segments covered by this level.
    pub fn covered_segments(&self) -> usize {
        self.covered.len()
    }

    fn dead_fraction(&self, is_live: &dyn Fn(SegmentId) -> bool) -> f64 {
        if self.covered.is_empty() {
            return 0.0;
        }
        let dead = self.covered.iter().filter(|&&s| !is_live(s)).count();
        dead as f64 / self.covered.len() as f64
    }
}

/// The global index: newest-first list of immutable hash-table levels.
/// Levels are shared, so a clone costs one `Arc` bump per level.
#[derive(Clone)]
pub struct GlobalIndex {
    levels: Vec<Arc<HashLevel>>,
    arity: usize,
    /// Merge when more levels than this accumulate.
    max_levels: usize,
}

impl GlobalIndex {
    /// New index storing `arity` entry offsets per (hash, segment) pair —
    /// 1 for a single-column index, N for the tuple index of an N-column
    /// index (paper §4.1.1).
    pub fn new(arity: usize) -> GlobalIndex {
        GlobalIndex { levels: Vec::new(), arity, max_levels: 6 }
    }

    /// Override the merge trigger (tests and ablation benches).
    pub fn with_max_levels(arity: usize, max_levels: usize) -> GlobalIndex {
        GlobalIndex { levels: Vec::new(), arity, max_levels: max_levels.max(1) }
    }

    /// Offsets stored per pair.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of levels (lookup cost is one probe per level — the paper's
    /// O(log N) vs O(N) argument).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Register one segment's hash table: `entries` maps each distinct value
    /// hash to the entry offsets in the segment's inverted index(es).
    pub fn add_segment(&mut self, segment: SegmentId, entries: Vec<(u64, Vec<u32>)>) {
        let mut input = LevelInput::new(self.arity);
        for (hash, offsets) in &entries {
            input.push(*hash, segment, offsets);
        }
        self.add_level(input);
    }

    /// Register the gathered tuples of any number of segments as ONE new
    /// level: a flushed or merged run at install time, every live segment of
    /// the table when recovery rebuilds the index (the index is derivable
    /// from the per-segment inverted indexes, so it is never persisted).
    pub fn add_level(&mut self, input: LevelInput) {
        assert_eq!(input.arity, self.arity, "level arity");
        if input.is_empty() {
            return;
        }
        self.levels.insert(0, Arc::new(HashLevel::build(&input)));
        if self.levels.len() > self.max_levels {
            self.merge_smallest(&|_| true);
        }
    }

    /// Merge the two smallest levels ("over time, the hash tables for
    /// different segments get merged together using the LSM tree merging
    /// algorithm", paper §4.1).
    fn merge_smallest(&mut self, is_live: &dyn Fn(SegmentId) -> bool) {
        if self.levels.len() < 2 {
            return;
        }
        let mut order: Vec<usize> = (0..self.levels.len()).collect();
        order.sort_by_key(|&i| self.levels[i].entry_count());
        let (a, b) = (order[0].min(order[1]), order[0].max(order[1]));
        let lb = self.levels.remove(b);
        let la = self.levels.remove(a);
        let mut tuples = LevelInput::new(self.arity);
        la.drain_into(is_live, &mut tuples);
        lb.drain_into(is_live, &mut tuples);
        self.levels.push(Arc::new(HashLevel::build(&tuples)));
    }

    /// Look up every live `(segment, offsets)` pair for `hash`.
    pub fn lookup(
        &self,
        hash: u64,
        is_live: &dyn Fn(SegmentId) -> bool,
    ) -> Vec<(SegmentId, Vec<u32>)> {
        let mut out = Vec::new();
        for level in &self.levels {
            level.lookup_into(hash, is_live, &mut out);
        }
        out
    }

    /// Lazy-deletion maintenance: rewrite any level where at least half of
    /// the covered segments are dead (paper §4.1). Returns rewritten count.
    pub fn maintain(&mut self, is_live: &dyn Fn(SegmentId) -> bool) -> usize {
        let mut rewritten = 0;
        for level in &mut self.levels {
            if level.dead_fraction(is_live) >= 0.5 {
                let mut tuples = LevelInput::new(self.arity);
                level.drain_into(is_live, &mut tuples);
                *level = Arc::new(HashLevel::build(&tuples));
                rewritten += 1;
            }
        }
        // Drop empty levels entirely.
        self.levels.retain(|l| l.entry_count() > 0);
        rewritten
    }

    /// Total pairs across all levels (diagnostics / write-amplification benches).
    pub fn total_pairs(&self) -> usize {
        self.levels.iter().map(|l| l.pair_segments.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_all(_: SegmentId) -> bool {
        true
    }

    #[test]
    fn lookup_across_levels() {
        let mut g = GlobalIndex::with_max_levels(1, 10);
        g.add_segment(1, vec![(100, vec![10]), (200, vec![20])]);
        g.add_segment(2, vec![(100, vec![30])]);
        let hits = g.lookup(100, &live_all);
        let segs: HashSet<SegmentId> = hits.iter().map(|(s, _)| *s).collect();
        assert_eq!(segs, HashSet::from([1, 2]));
        let offs: Vec<u32> = hits.iter().flat_map(|(_, o)| o.clone()).collect();
        assert!(offs.contains(&10) && offs.contains(&30));
        assert!(g.lookup(999, &live_all).is_empty());
    }

    #[test]
    fn levels_merge_to_stay_logarithmic() {
        let mut g = GlobalIndex::with_max_levels(1, 3);
        for seg in 0..10u64 {
            g.add_segment(seg, vec![(1000 + seg, vec![1]), (42, vec![2])]);
        }
        assert!(g.level_count() <= 3 + 1, "levels: {}", g.level_count());
        // Value 42 appears in every segment and must survive merging.
        let hits = g.lookup(42, &live_all);
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn lazy_deletion_skips_dead_segments() {
        let mut g = GlobalIndex::with_max_levels(1, 10);
        g.add_segment(1, vec![(5, vec![0])]);
        g.add_segment(2, vec![(5, vec![0])]);
        let live = |s: SegmentId| s != 1;
        let hits = g.lookup(5, &live);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
        assert_eq!(g.total_pairs(), 2, "dead pair still physically present");
    }

    #[test]
    fn maintenance_rewrites_half_dead_levels() {
        let mut g = GlobalIndex::with_max_levels(1, 10);
        // One level covering two segments, one of which dies -> 50% dead.
        let tuples: Vec<(u64, Vec<u32>)> = vec![(1, vec![0]), (2, vec![0])];
        g.add_segment(1, tuples.clone());
        g.add_segment(2, tuples);
        let live = |s: SegmentId| s != 1;
        let rewritten = g.maintain(&live);
        assert_eq!(rewritten, 1, "level covering only segment 1 rewritten away");
        assert_eq!(g.total_pairs(), 2);
        assert!(g.lookup(1, &live).iter().all(|(s, _)| *s == 2));
    }

    #[test]
    fn multi_offset_arity() {
        let mut g = GlobalIndex::new(3);
        g.add_segment(7, vec![(99, vec![11, 22, 33])]);
        let hits = g.lookup(99, &live_all);
        assert_eq!(hits, vec![(7, vec![11, 22, 33])]);
    }

    #[test]
    fn one_bulk_level_matches_incremental() {
        let entries = |seed: u64| vec![(seed, vec![1u32]), (seed + 1, vec![2])];
        let mut inc = GlobalIndex::with_max_levels(1, 2);
        let mut all = LevelInput::new(1);
        for s in 0..5u64 {
            inc.add_segment(s, entries(s * 10));
            for (h, offs) in entries(s * 10) {
                all.push(h, s, &offs);
            }
        }
        let mut bulk = GlobalIndex::new(1);
        bulk.add_level(all);
        assert_eq!(bulk.level_count(), 1);
        for h in [0u64, 1, 10, 11, 40, 41, 999] {
            let mut a = inc.lookup(h, &live_all);
            let mut b = bulk.lookup(h, &live_all);
            a.sort();
            b.sort();
            assert_eq!(a, b, "hash {h}");
        }
    }

    #[test]
    fn a_level_is_a_set_and_keeps_collisions() {
        // One tuple per row of a non-unique key repeats (hash, segment,
        // offsets): stored once. Two *different* keys of one segment whose
        // hashes collide differ in their entry offsets: both stored.
        let mut input = LevelInput::new(2);
        for _ in 0..3 {
            input.push(7, 1, &[10, 20]);
        }
        input.push(7, 1, &[10, 24]);
        input.push(7, 2, &[10, 20]);
        let mut g = GlobalIndex::new(2);
        g.add_level(input);
        assert_eq!(g.total_pairs(), 3);
        let mut hits = g.lookup(7, &live_all);
        hits.sort();
        assert_eq!(hits, vec![(1, vec![10, 20]), (1, vec![10, 24]), (2, vec![10, 20])]);
    }

    #[test]
    fn hash_collisions_return_both_pairs() {
        // Two different segments register the same hash; both come back and
        // the caller disambiguates at the inverted index (paper: hashes only).
        let mut g = GlobalIndex::new(1);
        g.add_segment(1, vec![(777, vec![5])]);
        g.add_segment(2, vec![(777, vec![9])]);
        assert_eq!(g.lookup(777, &live_all).len(), 2);
    }
}
