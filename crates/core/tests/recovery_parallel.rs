//! Crash recovery (§3.1 restart path: two-phase parallel replay + one index
//! rebuild) must be observationally identical to the replica tail path —
//! restore the snapshot (or start empty), then stream the remaining records
//! one at a time through `Partition::apply_record`. Over randomized
//! workloads — inserts, updates and deletes across several tables (one of
//! them under a two-column unique key, so its lookups go through the tuple
//! index), forced flushes and merges — both must produce byte-identical
//! engine snapshots, equal index probe results, and must stop at exactly the
//! same torn-tail prefix.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableId, TableOptions, Value};
use s2_core::{EngineRecord, MemFileStore, Partition};
use s2_wal::{Log, RecordIter, Snapshot};

fn kv_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("v", DataType::Int64),
        ColumnDef::new("tag", DataType::Str),
    ])
    .unwrap()
}

/// Unique-key columns of table `ti`: the last table of every workload is
/// keyed on `(k, tag)`, the others on `k`.
fn pk_cols(ti: usize, ntables: usize) -> Vec<usize> {
    if ti + 1 == ntables {
        vec![0, 2]
    } else {
        vec![0]
    }
}

fn kv_options(rng: &mut StdRng, pk: Vec<usize>) -> TableOptions {
    TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", pk)
        .with_index("by_tag", vec![2])
        .with_flush_threshold(rng.random_range(8..24))
        .with_segment_rows(rng.random_range(16..48))
}

fn row(k: i64, v: i64) -> Row {
    Row::new(vec![Value::Int(k), Value::Int(v), Value::str(format!("g{}", k % 7))])
}

struct Workload {
    p: Arc<Partition>,
    files: Arc<MemFileStore>,
    /// `end_lp` of every committed transaction, in commit order.
    boundaries: Vec<u64>,
    /// Mid-workload snapshot, if `snap_round` was given.
    snap: Option<Snapshot>,
    tables: Vec<TableId>,
    max_key: i64,
}

/// Drive a randomized multi-table workload against a fresh partition:
/// inserts, updates and deletes of unique keys, periodic forced flushes
/// (which turn later updates/deletes into §4.2 move transactions) and
/// merges. Optionally takes an engine snapshot after `snap_round` rounds.
fn run_workload(seed: u64, snap_round: Option<usize>) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new(
        "rp_p0",
        Arc::new(Log::in_memory()),
        Arc::clone(&files) as Arc<dyn s2_core::DataFileStore>,
    );
    let ntables = rng.random_range(2..=4usize);
    let tables: Vec<TableId> = (0..ntables)
        .map(|i| {
            let options = kv_options(&mut rng, pk_cols(i, ntables));
            p.create_table(format!("t{i}"), kv_schema(), options).unwrap()
        })
        .collect();
    let mut live: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); ntables];
    let mut next_key: i64 = 0;
    let mut boundaries = Vec::new();
    let mut snap = None;

    let rounds = rng.random_range(8..=16usize);
    for round in 0..rounds {
        let mut txn = p.begin();
        let nops = rng.random_range(1..=6usize);
        for _ in 0..nops {
            let ti = rng.random_range(0..ntables);
            let t = tables[ti];
            let choice = rng.random_range(0..10u32);
            if choice < 5 || live[ti].is_empty() {
                let k = next_key;
                next_key += 1;
                txn.insert(t, row(k, rng.random_range(0..1000))).unwrap();
                live[ti].insert(k);
            } else {
                let idx = rng.random_range(0..live[ti].len());
                let k = *live[ti].iter().nth(idx).unwrap();
                let key = row(k, 0).project(&pk_cols(ti, ntables));
                if choice < 8 {
                    txn.update_unique(t, &key, row(k, rng.random_range(0..1000))).unwrap();
                } else {
                    txn.delete_unique(t, &key).unwrap();
                    live[ti].remove(&k);
                }
            }
        }
        let (_ts, end) = txn.commit().unwrap();
        boundaries.push(end);
        if round % 3 == 2 {
            for &t in &tables {
                p.flush_table(t, true).unwrap();
            }
        }
        if round % 5 == 4 {
            let t = tables[rng.random_range(0..ntables)];
            p.merge_table(t).unwrap();
        }
        if snap_round == Some(round) {
            snap = Some(p.write_snapshot().unwrap());
        }
    }
    p.log.sync().unwrap();
    Workload { p, files, boundaries, snap, tables, max_key: next_key }
}

fn log_bytes(p: &Arc<Partition>) -> Vec<u8> {
    p.log.read_range(0, p.log.end_lp()).unwrap()
}

fn recover(
    bytes: &[u8],
    files: &Arc<MemFileStore>,
    snap: Option<&Snapshot>,
    upto: Option<u64>,
) -> Arc<Partition> {
    let log = Log::in_memory();
    log.append_raw(bytes);
    // Same name as the workload partition: data-file keys embed it.
    Partition::recover(
        "rp_p0",
        Arc::new(log),
        Arc::clone(files) as Arc<dyn s2_core::DataFileStore>,
        snap,
        upto,
    )
    .unwrap()
}

/// The reference: a partition restored to the snapshot position (empty
/// without one) that then applies the rest of the log record by record, the
/// way a replica or workspace follows its primary's tail. Stops silently at
/// the first frame that fails its checksum.
fn tail_apply(
    bytes: &[u8],
    files: &Arc<MemFileStore>,
    snap: Option<&Snapshot>,
    upto: Option<u64>,
) -> Arc<Partition> {
    let start = snap.map_or(0, |s| s.lp);
    let p = recover(bytes, files, snap, Some(start));
    let end = upto.map_or(bytes.len(), |u| (u as usize).min(bytes.len()));
    for rec in RecordIter::new(&bytes[start as usize..end], start) {
        let Ok(rec) = rec else { break };
        p.apply_record(EngineRecord::decode(rec.kind, rec.payload).unwrap()).unwrap();
    }
    p
}

fn fingerprint(p: &Arc<Partition>) -> Vec<u8> {
    p.write_snapshot().unwrap().data
}

/// Deep observational equality: per-table live row counts, rowstore sizes,
/// unique-key lookups (exercising the rebuilt unique index) and secondary
/// index probe hit counts (exercising the rebuilt column index).
fn assert_same_state(a: &Arc<Partition>, b: &Arc<Partition>, tables: &[TableId], max_key: i64) {
    let sa = a.read_snapshot();
    let sb = b.read_snapshot();
    assert_eq!(sa.table_ids(), sb.table_ids());
    for &t in tables {
        let ta = sa.table(t).unwrap();
        let tb = sb.table(t).unwrap();
        assert_eq!(ta.live_row_count(), tb.live_row_count(), "table {t} live rows");
        assert_eq!(ta.rowstore_rows().len(), tb.rowstore_rows().len(), "table {t} rowstore");
    }
    let txa = a.begin();
    let txb = b.begin();
    for (ti, &t) in tables.iter().enumerate() {
        for k in 0..max_key {
            let key = row(k, 0).project(&pk_cols(ti, tables.len()));
            assert_eq!(
                txa.get_unique(t, &key).unwrap(),
                txb.get_unique(t, &key).unwrap(),
                "table {t} key {k}"
            );
        }
    }
    drop(txa);
    drop(txb);
    for &t in tables {
        let ta = a.table(t).unwrap();
        let tb = b.table(t).unwrap();
        for g in 0..7 {
            let tag = [Value::str(format!("g{g}"))];
            let hits_a: usize =
                ta.index_probe_latest(&[2], &tag).unwrap().iter().map(|(_, r)| r.len()).sum();
            let hits_b: usize =
                tb.index_probe_latest(&[2], &tag).unwrap().iter().map(|(_, r)| r.len()).sum();
            assert_eq!(hits_a, hits_b, "table {t} tag g{g}");
        }
    }
}

fn torn_tail_counter() -> u64 {
    s2_obs::global().snapshot().counter("core.recover.torn_tail_stops")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full-log recovery produces the same engine snapshot, byte for byte,
    /// as tail-applying the log, and both match the live primary.
    #[test]
    fn recover_matches_tail_apply(seed in any::<u64>()) {
        let w = run_workload(seed, None);
        let bytes = log_bytes(&w.p);
        let reference = tail_apply(&bytes, &w.files, None, None);
        let rec = recover(&bytes, &w.files, None, None);
        prop_assert_eq!(fingerprint(&reference), fingerprint(&rec));
        assert_same_state(&reference, &rec, &w.tables, w.max_key);
        assert_same_state(&w.p, &rec, &w.tables, w.max_key);
    }

    /// Recovery from a mid-history snapshot plus the log suffix agrees with
    /// the reference byte-for-byte, with and without a PITR `upto_lp` bound.
    #[test]
    fn recover_from_snapshot_and_pitr(seed in any::<u64>()) {
        let w = run_workload(seed, Some(4));
        let bytes = log_bytes(&w.p);
        let snap = w.snap.as_ref().unwrap();

        // Snapshot + full suffix.
        let reference = tail_apply(&bytes, &w.files, Some(snap), None);
        let rec = recover(&bytes, &w.files, Some(snap), None);
        prop_assert_eq!(fingerprint(&reference), fingerprint(&rec));
        assert_same_state(&w.p, &rec, &w.tables, w.max_key);

        // PITR: replay bounded at a committed-transaction boundary.
        let upto = w.boundaries[w.boundaries.len() / 2];
        let reference = tail_apply(&bytes, &w.files, None, Some(upto));
        let rec = recover(&bytes, &w.files, None, Some(upto));
        prop_assert_eq!(fingerprint(&reference), fingerprint(&rec));
        assert_same_state(&reference, &rec, &w.tables, w.max_key);

        // Snapshot + PITR bound past the snapshot position.
        if let Some(&upto) = w.boundaries.iter().find(|&&b| b > snap.lp) {
            let reference = tail_apply(&bytes, &w.files, Some(snap), Some(upto));
            let rec = recover(&bytes, &w.files, Some(snap), Some(upto));
            prop_assert_eq!(fingerprint(&reference), fingerprint(&rec));
            assert_same_state(&reference, &rec, &w.tables, w.max_key);
        }
    }

    /// A corrupt frame mid-log stops recovery at exactly the corruption
    /// point — the state equals a clean recovery of the bytes before it,
    /// and the reference stopped at the same frame — and fires
    /// `core.recover.torn_tail_stops` exactly once.
    #[test]
    fn torn_tail_stops_at_same_prefix(seed in any::<u64>()) {
        let w = run_workload(seed, None);
        let bytes = log_bytes(&w.p);
        let cut = w.boundaries[w.boundaries.len() / 2] as usize;
        prop_assert!(cut < bytes.len(), "later rounds always append past a mid-workload boundary");

        // Flip the kind byte of the frame starting at `cut`: the frame is
        // whole but its CRC no longer matches — a mid-log corruption.
        let mut corrupt = bytes.clone();
        corrupt[cut + 4] ^= 0xFF;

        let before = torn_tail_counter();
        let rec = recover(&corrupt, &w.files, None, None);
        prop_assert_eq!(torn_tail_counter() - before, 1, "one torn-tail stop");

        let clean = recover(&bytes[..cut], &w.files, None, None);
        let reference = tail_apply(&corrupt, &w.files, None, None);
        prop_assert_eq!(fingerprint(&clean), fingerprint(&rec));
        prop_assert_eq!(fingerprint(&reference), fingerprint(&rec));
        assert_same_state(&reference, &rec, &w.tables, w.max_key);

        // A cleanly truncated tail (crash mid-append) is NOT corruption:
        // replay stops silently at the last whole frame, no counter.
        let trunc = &bytes[..(cut + 5).min(bytes.len())];
        let before = torn_tail_counter();
        let rec = recover(trunc, &w.files, None, None);
        prop_assert_eq!(torn_tail_counter(), before, "clean truncation fires no torn-tail stop");
        prop_assert_eq!(fingerprint(&tail_apply(trunc, &w.files, None, None)), fingerprint(&rec));
    }
}
