//! The global secondary indexes are built from each segment's inverted
//! indexes alone — no row is decoded (paper §4.1: a data file carries its
//! inverted indexes so a segment pulled from blob storage is probe-able as
//! it is). This suite holds that build to the row-based builder it
//! replaced, which lives on here as the reference: it decodes every row of
//! every live segment, registers per-column entries from the inverted
//! directory and one tuple entry per distinct key tuple, and answers probes
//! the way the engine does (global lookup, postings at the stored entry
//! offsets, intersection, deleted bits). Over random schemas, NULLs,
//! duplicate keys, single- and multi-column indexes and deleted rows, every
//! key probed through `Table::index_probe_latest` must hit exactly the rows
//! the reference hits — and exactly the rows a plain scan finds — both on
//! the live partition (levels added run by run at flush and merge) and on
//! one recovered from its log (one bulk level per index).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_common::hash::hash_values;
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, SegmentId, TableId, TableOptions, Value};
use s2_core::{DataFileStore, MemFileStore, Partition, SegmentSnap, Table};
use s2_index::{intersect, GlobalIndex, InvertedIndex};
use s2_wal::Log;

/// `(segment, row offset)` hits.
type Hits = BTreeSet<(SegmentId, u32)>;

// ---------------------------------------------------------------- reference

/// The row-based index builder, as it was before the encoded-domain build
/// replaced it (de-duplicating tuple entries on the key tuple itself).
struct RefIndexes {
    column: HashMap<usize, GlobalIndex>,
    tuple: Vec<(Vec<usize>, GlobalIndex)>,
}

/// Entry offset of `v` in `ix`: the one entry whose stored value matches.
fn entry_offset_of(ix: &InvertedIndex, v: &Value) -> Option<u32> {
    ix.iter_entries().map(|(_, off)| off).find(|&off| ix.postings_at(off, v).unwrap().is_some())
}

impl RefIndexes {
    fn build(defs: &[Vec<usize>], segments: &[SegmentSnap]) -> RefIndexes {
        let mut ix = RefIndexes { column: HashMap::new(), tuple: Vec::new() };
        for cols in defs {
            for &c in cols {
                ix.column.entry(c).or_insert_with(|| GlobalIndex::new(1));
            }
            if cols.len() > 1 && !ix.tuple.iter().any(|(have, _)| have == cols) {
                ix.tuple.push((cols.clone(), GlobalIndex::new(cols.len())));
            }
        }
        for core in segments.iter().map(|s| &s.core) {
            let rows: Vec<Row> =
                (0..core.meta.row_count).map(|ri| core.reader.row(ri).unwrap()).collect();
            for (col, inverted) in &core.inverted {
                if let Some(global) = ix.column.get_mut(col) {
                    let entries = inverted.iter_entries().map(|(h, off)| (h, vec![off])).collect();
                    global.add_segment(core.meta.id, entries);
                }
            }
            for (cols, global) in &mut ix.tuple {
                let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
                let mut entries: Vec<(u64, Vec<u32>)> = Vec::new();
                for row in &rows {
                    let vals = row.project(cols);
                    if vals.iter().any(Value::is_null) || !seen.insert(vals.clone()) {
                        continue; // NULLs are not indexed; one entry per tuple
                    }
                    let offs = cols
                        .iter()
                        .zip(&vals)
                        .map(|(c, v)| entry_offset_of(&core.inverted[c], v).unwrap())
                        .collect();
                    entries.push((hash_values(vals.iter()), offs));
                }
                global.add_segment(core.meta.id, entries);
            }
        }
        ix
    }

    /// Rows of the live segments matching `cols = key`, deleted rows left out.
    fn probe(&self, cols: &[usize], key: &[Value], segments: &[SegmentSnap]) -> Hits {
        let mut out = Hits::new();
        if key.iter().any(Value::is_null) {
            return out;
        }
        for SegmentSnap { core, deleted } in segments {
            let only = |s: SegmentId| s == core.meta.id;
            // Entry offsets per key column, through the tuple index when one
            // covers exactly these columns, else one column index each.
            let offsets: Vec<Vec<u32>> = match self.tuple.iter().find(|(have, _)| have == cols) {
                Some((_, g)) => {
                    g.lookup(hash_values(key.iter()), &only).into_iter().map(|(_, o)| o).collect()
                }
                None => {
                    let per_col: Vec<Option<u32>> = cols
                        .iter()
                        .zip(key)
                        .map(|(c, v)| {
                            self.column[c].lookup(v.hash64(), &only).first().map(|(_, o)| o[0])
                        })
                        .collect();
                    per_col.into_iter().collect::<Option<Vec<u32>>>().into_iter().collect()
                }
            };
            for offs in offsets {
                let postings: Option<Vec<_>> = cols
                    .iter()
                    .zip(key)
                    .zip(&offs)
                    .map(|((c, v), &off)| core.inverted[c].postings_at(off, v).unwrap())
                    .collect();
                let Some(postings) = postings else { continue }; // hash collision
                for row in intersect(postings).unwrap() {
                    if !deleted.get(row as usize) {
                        out.insert((core.meta.id, row));
                    }
                }
            }
        }
        out
    }
}

/// What a scan finds: live rows whose projection equals the key.
fn scan(cols: &[usize], key: &[Value], segments: &[SegmentSnap]) -> Hits {
    let mut out = Hits::new();
    if key.iter().any(Value::is_null) {
        return out;
    }
    for SegmentSnap { core, deleted } in segments {
        for ri in (0..core.meta.row_count).filter(|&ri| !deleted.get(ri)) {
            if core.reader.row(ri).unwrap().project(cols) == key {
                out.insert((core.meta.id, ri as u32));
            }
        }
    }
    out
}

// ----------------------------------------------------------------- workload

struct Case {
    schema: Schema,
    options: TableOptions,
    /// Unique-key columns.
    pk: Vec<usize>,
    /// Every column set probed: each index def plus each indexed column.
    probes: Vec<Vec<usize>>,
    defs: Vec<Vec<usize>>,
}

fn random_case(rng: &mut StdRng) -> Case {
    let n_cols = rng.random_range(3..=5usize);
    let pk: Vec<usize> = if rng.random_bool(0.5) { vec![0] } else { vec![0, 1] };
    let mut columns = vec![ColumnDef::new("id", DataType::Int64)];
    for c in 1..n_cols {
        let ty = [DataType::Int64, DataType::Str, DataType::Double][rng.random_range(0..3)];
        columns.push(if pk.contains(&c) {
            ColumnDef::new(format!("c{c}"), ty)
        } else {
            ColumnDef::nullable(format!("c{c}"), ty)
        });
    }
    let mut options = TableOptions::new()
        .with_unique("pk", pk.clone())
        .with_flush_threshold(1 << 20)
        .with_segment_rows(rng.random_range(6..24));
    if rng.random_bool(0.5) {
        options = options.with_sort_key(vec![0]);
    }
    let mut defs = vec![pk.clone()];
    for i in 0..rng.random_range(1..=3usize) {
        let mut cols: Vec<usize> = Vec::new();
        for _ in 0..rng.random_range(1..=3usize) {
            let c = rng.random_range(1..n_cols);
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        options = options.with_index(format!("ix{i}"), cols.clone());
        defs.push(cols);
    }
    let mut probes = defs.clone();
    for c in defs.iter().flatten() {
        if !probes.contains(&vec![*c]) {
            probes.push(vec![*c]);
        }
    }
    Case { schema: Schema::new(columns).unwrap(), options, pk, probes, defs }
}

/// A value of `ty` from a domain of six, so keys repeat; NULL one time in
/// five where the column allows it.
fn random_value(rng: &mut StdRng, def: &ColumnDef) -> Value {
    if def.nullable && rng.random_range(0..5) == 0 {
        return Value::Null;
    }
    let k = rng.random_range(0..6i64);
    match def.data_type {
        DataType::Int64 => Value::Int(k),
        DataType::Str => Value::str(format!("s{k}")),
        _ => Value::Double(k as f64 / 2.0),
    }
}

fn random_row(rng: &mut StdRng, schema: &Schema, id: i64) -> Row {
    let mut values = vec![Value::Int(id)];
    values.extend(schema.columns()[1..].iter().map(|def| random_value(rng, def)));
    Row::new(values)
}

/// Insert in batches, flushing each into its own run; delete a share of the
/// flushed rows (move transactions set their deleted bits); merge once
/// enough runs exist; delete some more. Returns the partition, its files,
/// the table and the case.
fn run_case(seed: u64) -> (Arc<Partition>, Arc<MemFileStore>, TableId, Case) {
    let mut rng = StdRng::seed_from_u64(seed);
    let case = random_case(&mut rng);
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new(
        "ib_p0",
        Arc::new(Log::in_memory()),
        Arc::clone(&files) as Arc<dyn DataFileStore>,
    );
    let t = p.create_table("t", case.schema.clone(), case.options.clone()).unwrap();
    let mut live: Vec<Vec<Value>> = Vec::new();
    let mut next_id = 0i64;
    let delete_some = |rng: &mut StdRng, live: &mut Vec<Vec<Value>>| {
        let mut txn = p.begin();
        for _ in 0..live.len() / 4 {
            let key = live.swap_remove(rng.random_range(0..live.len()));
            assert!(txn.delete_unique(t, &key).unwrap());
        }
        txn.commit().unwrap();
    };
    for _ in 0..rng.random_range(3..=6usize) {
        let mut txn = p.begin();
        for _ in 0..rng.random_range(8..40usize) {
            let row = random_row(&mut rng, &case.schema, next_id);
            next_id += 1;
            live.push(row.project(&case.pk));
            txn.insert(t, row).unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
        if rng.random_bool(0.5) {
            delete_some(&mut rng, &mut live);
        }
    }
    p.merge_table(t).unwrap();
    delete_some(&mut rng, &mut live);
    p.log.sync().unwrap();
    (p, files, t, case)
}

/// Probe every key of every probed column set three ways.
fn check(table: &Table, case: &Case, what: &str) {
    let segments: Vec<SegmentSnap> = table.version().segments().cloned().collect();
    let reference = RefIndexes::build(&case.defs, &segments);
    let rows: Vec<Row> = segments
        .iter()
        .flat_map(|s| (0..s.core.meta.row_count).map(|ri| s.core.reader.row(ri).unwrap()))
        .collect();
    for cols in &case.probes {
        // Every key present (NULL-bearing and deleted ones too) and one absent.
        let mut keys: BTreeSet<Vec<Value>> = rows.iter().map(|r| r.project(cols)).collect();
        keys.insert(vec![Value::Int(-1); cols.len()]);
        for key in keys {
            let engine: Hits = table
                .index_probe_latest(cols, &key)
                .unwrap()
                .into_iter()
                .flat_map(|(core, rows)| rows.into_iter().map(move |r| (core.meta.id, r)))
                .collect();
            assert_eq!(engine, reference.probe(cols, &key, &segments), "{what} {cols:?}={key:?}");
            assert_eq!(engine, scan(cols, &key, &segments), "{what} scan {cols:?}={key:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn encoded_index_build_matches_row_based_reference(seed in any::<u64>()) {
        let (p, files, t, case) = run_case(seed);
        let table = p.table(t).unwrap();
        prop_assert!(table.version().segments().any(|s| s.live_rows() < s.core.meta.row_count));
        check(&table, &case, "live");

        let log = Log::in_memory();
        log.append_raw(&p.log.read_range(0, p.log.end_lp()).unwrap());
        let recovered = Partition::recover(
            "ib_p0",
            Arc::new(log),
            Arc::clone(&files) as Arc<dyn DataFileStore>,
            None,
            None,
        )
        .unwrap();
        check(&recovered.table(t).unwrap(), &case, "recovered");
    }
}
