//! Randomized battery for the group-commit pipeline (§3: commits are
//! durable once in the local WAL; group commit amortizes the fsync).
//!
//! Three properties, each over proptest-generated shapes:
//! - **acked ⇒ durable**: every key whose `commit()` returned is present
//!   after recovering a fresh partition from the durable log prefix alone;
//! - **monotonic timestamps**: commit timestamps across N racing
//!   committers are distinct and gapless — strictly monotonic per
//!   partition;
//! - **model equivalence**: a single-threaded op sequence recovers to the
//!   state of a `BTreeMap` model, and the log holds exactly one `Commit`
//!   frame per commit, in timestamp order.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{EngineRecord, MemFileStore, Partition, REC_COMMIT};
use s2_wal::{Log, RecordIter};

fn kv_schema() -> Schema {
    Schema::new(vec![ColumnDef::new("k", DataType::Int64), ColumnDef::new("v", DataType::Int64)])
        .unwrap()
}

fn kv_options() -> TableOptions {
    TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_flush_threshold(16)
        .with_segment_rows(32)
}

fn new_partition() -> (Arc<Partition>, u32) {
    let p = Partition::new("gc_p0", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let t = p.create_table("t", kv_schema(), kv_options()).unwrap();
    p.log.sync().unwrap();
    (p, t)
}

/// Recover a fresh partition from exactly the first `upto` log bytes.
fn recover_prefix(p: &Arc<Partition>, upto: u64) -> Arc<Partition> {
    let bytes = p.log.read_range(0, upto).unwrap();
    let log = Log::in_memory();
    log.append_raw(&bytes);
    Partition::recover("gc_rec", Arc::new(log), Arc::new(MemFileStore::new()), None, None).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// N committer threads race on one partition.
    /// Afterwards: (a) every acked key survives recovery from the durable
    /// prefix alone, (b) the commit timestamps handed back are distinct and
    /// gapless (strictly monotonic per partition).
    #[test]
    fn racing_committers_acked_durable_and_ts_monotonic(
        n_threads in 2usize..=6,
        commits_per_thread in 1usize..=10,
        window_us in prop_oneof![1 => Just(0u64), 1 => Just(50), 1 => Just(200)],
    ) {
        let (p, t) = new_partition();
        p.set_group_flush_window_us(window_us);

        let mut handles = Vec::new();
        for tid in 0..n_threads {
            let p = Arc::clone(&p);
            handles.push(thread::spawn(move || {
                let mut out = Vec::new();
                for i in 0..commits_per_thread {
                    let k = (tid * 10_000 + i) as i64;
                    let mut txn = p.begin();
                    txn.insert(t, Row::new(vec![Value::Int(k), Value::Int(k * 7)])).unwrap();
                    let (ts, end_lp) = txn.commit().unwrap();
                    out.push((k, ts, end_lp));
                }
                out
            }));
        }
        let results: Vec<(i64, u64, u64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        prop_assert_eq!(results.len(), n_threads * commits_per_thread);

        // (b) timestamps distinct and gapless.
        let mut tss: Vec<u64> = results.iter().map(|(_, ts, _)| *ts).collect();
        tss.sort_unstable();
        tss.dedup();
        prop_assert_eq!(tss.len(), results.len(), "commit timestamps must be distinct");
        prop_assert_eq!(
            tss[tss.len() - 1] - tss[0] + 1,
            results.len() as u64,
            "commit timestamps must be gapless"
        );

        // (a) every returned end_lp is already durable, and recovering from
        // the durable prefix alone reproduces every acked key.
        let durable = p.log.durable_lp();
        for (_, _, end_lp) in &results {
            prop_assert!(*end_lp <= durable, "acked position {end_lp} beyond durable {durable}");
        }
        let rp = recover_prefix(&p, durable);
        let txn = rp.begin();
        for (k, _, _) in &results {
            let got = txn.get_unique(t, &[Value::Int(*k)]).unwrap();
            let v = got.as_ref().and_then(|r| r.get(1).as_int().ok());
            prop_assert_eq!(v, Some(k * 7), "acked key {} lost after recovery", k);
        }
        txn.rollback();
    }

    /// A deterministic single-threaded op sequence recovers to exactly the
    /// state a `BTreeMap` model predicts, and the log holds one `Commit`
    /// frame per `commit()` call, carrying the timestamps handed back, in
    /// order: the pipeline changes batching, never content.
    #[test]
    fn op_sequence_matches_model_one_frame_per_commit(seed in any::<u64>(), n_ops in 10usize..=60) {
        let (p, t) = new_partition();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let mut acked_ts: Vec<u64> = Vec::new();
        for _ in 0..n_ops {
            let mut txn = p.begin();
            let roll: u32 = rng.random_range(0..10);
            if roll < 5 || model.is_empty() {
                let k: i64 = rng.random_range(0..1_000_000);
                if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(k) {
                    txn.insert(t, Row::new(vec![Value::Int(k), Value::Int(k + 1)])).unwrap();
                    slot.insert(k + 1);
                }
            } else {
                let k = *model.keys().nth(rng.random_range(0..model.len())).unwrap();
                if roll < 8 {
                    let v: i64 = rng.random_range(-1000..1000);
                    txn.update_unique(t, &[Value::Int(k)],
                        Row::new(vec![Value::Int(k), Value::Int(v)])).unwrap();
                    model.insert(k, v);
                } else {
                    txn.delete_unique(t, &[Value::Int(k)]).unwrap();
                    model.remove(&k);
                }
            }
            let (ts, end_lp) = txn.commit().unwrap();
            prop_assert!(end_lp <= p.log.durable_lp(), "commit returned before its fsync");
            acked_ts.push(ts);
        }

        let end = p.log.end_lp();
        let bytes = p.log.read_range(0, end).unwrap();
        let logged_ts: Vec<u64> = RecordIter::new(&bytes, 0)
            .map(|rec| rec.unwrap())
            .filter(|rec| rec.kind == REC_COMMIT)
            .map(|rec| EngineRecord::decode(rec.kind, rec.payload).unwrap().commit_ts().unwrap())
            .collect();
        prop_assert_eq!(&logged_ts, &acked_ts, "one Commit frame per commit, in timestamp order");
        prop_assert!(acked_ts.windows(2).all(|w| w[0] < w[1]), "timestamps strictly increase");

        let recovered = recover_prefix(&p, end);
        let snap = recovered.read_snapshot();
        let rows: BTreeMap<i64, i64> = snap
            .table(t)
            .unwrap()
            .rowstore_rows()
            .iter()
            .map(|(_, r)| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
            .collect();
        prop_assert_eq!(rows, model, "recovered state diverges from the model");
    }
}
