//! Layer probes (source P): short timed loops that call one layer's public
//! functions directly, on data from the run's seed. They run in every traced
//! run whatever the workload, so each layer has a number that does not depend
//! on the layers above it; the commit ladder `rowstore → wal → core →
//! cluster` gives lock/apply, append+fsync and routing+ack shares by
//! subtraction.
//!
//! Layer-level engine APIs are named here and nowhere else.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use s2_cluster::{Cluster, ClusterConfig};
use s2_columnstore::{build_segment, merge_segments, SegmentReader};
use s2_common::date::days_from_ymd;
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{DataFileStore, DuplicatePolicy, MemFileStore, Partition};
use s2_encoding::{encode_column, ColumnReader};
use s2_exec::{scan, CmpOp, Expr, ScanOptions, ScanPool};
use s2_index::{GlobalIndex, InvertedIndexBuilder};
use s2_rowstore::RowStore;
use s2_wal::{Log, RecordIter};
use s2_workloads::tpch::{self, l};

use crate::engine::{row_bytes, Result};
use crate::metrics::{put, Metrics};
use crate::workloads::{derive_seed, Sizes};

/// Run every probe.
pub fn run(seed: u64, sizes: &Sizes) -> Result<Metrics> {
    let mut m = Metrics::new();
    let keys = sizes.probe_keys;
    rowstore(&mut m, keys)?;
    wal(&mut m, keys / 10)?;
    commit_ladder(&mut m, keys / 25)?;
    index(&mut m, keys);
    pool(&mut m);
    let lineitem = tpch::generate(sizes.probe_sf, derive_seed(seed, "probes", 0));
    let lineitem = lineitem.table("lineitem");
    encoding(&mut m, &lineitem.schema, &lineitem.rows)?;
    columnstore(&mut m, &lineitem.schema, &lineitem.options, &lineitem.rows)?;
    exec(&mut m, &lineitem.schema, &lineitem.options, &lineitem.rows)?;
    Ok(m)
}

fn per(total: std::time::Duration, n: usize, unit_ns: f64) -> f64 {
    total.as_nanos() as f64 / unit_ns / n.max(1) as f64
}

fn kv_row(k: i64, a: i64) -> Row {
    Row::new(vec![
        Value::Int(k % 2),
        Value::Int(k),
        Value::Int(a),
        Value::Double(a as f64 * 0.5),
        Value::str("payload-24-bytes-of-text"),
    ])
}

fn kv_schema() -> Result<Schema> {
    Schema::new(vec![
        ColumnDef::new("w", DataType::Int64),
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("a", DataType::Int64),
        ColumnDef::new("b", DataType::Double),
        ColumnDef::new("s", DataType::Str),
    ])
}

fn kv_options() -> TableOptions {
    // Sharded by `w` so that a write set with one `w` stays on one partition,
    // as a TPC-C transaction stays on its warehouse.
    TableOptions::new().with_shard_key(vec![0]).with_unique("pk", vec![0, 1])
}

/// RowStore write + commit and get over `keys` keys.
fn rowstore(m: &mut Metrics, keys: usize) -> Result<()> {
    let rs = RowStore::new();
    let t = Instant::now();
    for chunk in 0..keys.div_ceil(10) {
        let txn = chunk as u64 + 1;
        let batch: Vec<Vec<Value>> =
            (chunk * 10..(chunk * 10 + 10).min(keys)).map(|k| vec![Value::Int(k as i64)]).collect();
        for key in &batch {
            rs.write(txn, key, Some(kv_row(key[0].as_int()?, 1)))?;
        }
        rs.commit(txn, txn, &batch);
    }
    put(m, "rowstore.write_ns", per(t.elapsed(), keys, 1.0), "ns");
    let read_ts = keys as u64 + 1;
    let t = Instant::now();
    let mut found = 0usize;
    for i in 0..keys {
        // A fixed odd stride visits every key once in a scattered order.
        let k = (i * 7919) % keys;
        found += usize::from(rs.get(&[Value::Int(k as i64)], read_ts, None).is_some());
    }
    put(m, "rowstore.get_ns", per(t.elapsed(), keys, 1.0), "ns");
    assert_eq!(black_box(found), keys, "rowstore probe lost keys");
    Ok(())
}

/// Log append + sync (memory and file) and frame scan.
fn wal(m: &mut Metrics, records: usize) -> Result<()> {
    let payload = vec![0xA5u8; 256];
    let log = Log::in_memory();
    let t = Instant::now();
    for _ in 0..records {
        log.append(1, &payload);
        log.sync()?;
    }
    put(m, "wal.append_sync_us", per(t.elapsed(), records, 1e3), "us");

    // The file lives beside the running binary, inside the build directory.
    let dir = std::env::current_exe()?.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    let path = dir.join(format!("ledger-wal-probe-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let file_records = (records / 10).max(10);
    let file_log = Log::open(&path)?;
    let t = Instant::now();
    for _ in 0..file_records {
        file_log.append(1, &payload);
        file_log.sync()?;
    }
    put(m, "wal.append_sync_file_us", per(t.elapsed(), file_records, 1e3), "us");
    drop(file_log);
    let _ = std::fs::remove_file(&path);

    let bytes = log.read_range(0, log.end_lp())?;
    let passes = 20;
    let t = Instant::now();
    let mut frames = 0usize;
    for _ in 0..passes {
        frames += RecordIter::new(black_box(&bytes), 0).filter(|r| r.is_ok()).count();
    }
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(frames, passes * records, "wal probe lost frames");
    put(m, "wal.scan_mb_per_s", (bytes.len() * passes) as f64 / 1e6 / secs, "MB/s");
    Ok(())
}

/// A new-order-shaped write set: 11 updates of flushed rows, 12 inserts.
const UPDATES: usize = 11;
const INSERTS: usize = 12;
const PRELOAD: i64 = 10_000;

/// Key of update `u` of transaction `i`: a preloaded row with `w`'s parity,
/// so it lives on the transaction's shard.
fn update_key(i: usize, u: usize, w: i64) -> i64 {
    ((i * 131 + u * 977) as i64 * 2 + w) % PRELOAD
}

/// Key of insert `n` of transaction `i`: fresh, with `w`'s parity.
fn insert_key(i: usize, n: usize, w: i64) -> i64 {
    PRELOAD + ((i * INSERTS + n) as i64) * 2 + w
}

fn preload_rows() -> Vec<Row> {
    (0..PRELOAD).map(|k| kv_row(k, 0)).collect()
}

/// The same write set committed on a bare partition and through a cluster.
fn commit_ladder(m: &mut Metrics, txns: usize) -> Result<()> {
    // core: one partition, in-memory log, no replication.
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new(
        "probe",
        Arc::new(Log::in_memory()),
        Arc::clone(&files) as Arc<dyn DataFileStore>,
    );
    let kv = p.create_table("kv", kv_schema()?, kv_options())?;
    let lines = p.create_table("lines", kv_schema()?, kv_options())?;
    let mut txn = p.begin();
    txn.insert_batch(kv, preload_rows(), DuplicatePolicy::Error)?;
    txn.commit()?;
    p.flush_table(kv, true)?;
    let log_before = p.log.end_lp();
    let mut user_bytes = 0u64;
    let t = Instant::now();
    for i in 0..txns {
        let w = (i % 2) as i64;
        let mut txn = p.begin();
        for u in 0..UPDATES {
            let k = update_key(i, u, w);
            let row = kv_row(k, i as i64);
            user_bytes += row_bytes(&row);
            txn.update_unique(kv, &[Value::Int(w), Value::Int(k)], row)?;
        }
        for n in 0..INSERTS {
            let row = kv_row(insert_key(i, n, w), i as i64);
            user_bytes += row_bytes(&row);
            txn.insert(lines, row)?;
        }
        txn.commit()?;
    }
    put(m, "core.commit_us", per(t.elapsed(), txns, 1e3), "us");
    p.log.sync()?;
    let wal_bytes = p.log.end_lp() - log_before;
    put(m, "wal.bytes_per_user_byte", wal_bytes as f64 / user_bytes as f64, "ratio");

    // core recovery: replay the whole log of that partition from nothing.
    let bytes = p.log.read_range(0, p.log.end_lp())?;
    let t = Instant::now();
    let log = Log::in_memory();
    log.append_raw(&bytes);
    let recovered = Partition::recover(
        "probe",
        Arc::new(log),
        Arc::clone(&files) as Arc<dyn DataFileStore>,
        None,
        None,
    )?;
    let secs = t.elapsed().as_secs_f64();
    black_box(recovered.commit_ts());
    put(m, "core.recover_mb_per_s", bytes.len() as f64 / 1e6 / secs, "MB/s");

    // cluster: the oltp_tpcc topology (2 partitions, sync HA replica).
    let cluster = Cluster::new(
        "probe",
        ClusterConfig {
            partitions: 2,
            ha_replicas: 1,
            sync_replication: true,
            blob: None,
            ..Default::default()
        },
    )?;
    cluster.create_table("kv", kv_schema()?, kv_options())?;
    cluster.create_table("lines", kv_schema()?, kv_options())?;
    let mut txn = cluster.begin();
    txn.insert_batch("kv", preload_rows(), DuplicatePolicy::Error)?;
    txn.commit()?;
    cluster.flush_table("kv")?;
    let t = Instant::now();
    for i in 0..txns {
        let w = (i % 2) as i64;
        let mut txn = cluster.begin();
        for u in 0..UPDATES {
            let k = update_key(i, u, w);
            txn.update_unique_with("kv", &[Value::Int(w), Value::Int(k)], |_| kv_row(k, i as i64))?;
        }
        for n in 0..INSERTS {
            txn.insert("lines", kv_row(insert_key(i, n, w), i as i64))?;
        }
        txn.commit()?;
    }
    put(m, "cluster.commit_us", per(t.elapsed(), txns, 1e3), "us");
    Ok(())
}

/// Inverted + global index build and equality probe over 8 segments.
fn index(m: &mut Metrics, rows: usize) {
    const SEGMENTS: usize = 8;
    let per_segment = (rows / SEGMENTS).max(1);
    let distinct = (rows / 4).max(1) as i64;
    let t = Instant::now();
    let mut global = GlobalIndex::new(1);
    let mut inverted = Vec::with_capacity(SEGMENTS);
    for seg in 0..SEGMENTS {
        let mut b = InvertedIndexBuilder::new();
        for r in 0..per_segment {
            b.add(&Value::Int(((seg * per_segment + r) as i64 * 31) % distinct), r as u32);
        }
        let ix = b.finish();
        global.add_segment(seg as u64, ix.iter_entries().map(|(h, off)| (h, vec![off])).collect());
        inverted.push(ix);
    }
    put(m, "index.build_ns_per_row", per(t.elapsed(), per_segment * SEGMENTS, 1.0), "ns");

    let probes = rows;
    let t = Instant::now();
    let mut hits = 0usize;
    for i in 0..probes {
        let v = Value::Int((i as i64 * 17) % distinct);
        for (seg, offs) in global.lookup(v.hash64(), &|_| true) {
            if let Ok(Some(p)) = inverted[seg as usize].postings_at(offs[0], &v) {
                hits += p.len();
            }
        }
    }
    put(m, "index.probe_ns", per(t.elapsed(), probes, 1.0), "ns");
    black_box(hits);
}

/// `ScanPool::run` over no-op items: the cost of dispatching a morsel.
fn pool(m: &mut Metrics) {
    const RUNS: usize = 200;
    const ITEMS: usize = 16;
    let threads = s2_exec::effective_threads(0);
    let t = Instant::now();
    for r in 0..RUNS {
        let out =
            ScanPool::global().run(threads, (0..ITEMS).map(|i| i + r).collect(), |i: usize| i + 1);
        black_box(out);
    }
    put(m, "pool.dispatch_us", per(t.elapsed(), RUNS * ITEMS, 1e3), "us");
}

/// Encode, decode and encoded-filter every lineitem column.
fn encoding(m: &mut Metrics, schema: &Schema, rows: &[Row]) -> Result<()> {
    #[derive(Default)]
    struct Cost {
        encode_ns: f64,
        decode_ns: f64,
        filter_ns: f64,
        filter_rows: usize,
        rows: usize,
        bytes: usize,
    }
    let mut by_encoding: BTreeMap<String, Cost> = BTreeMap::new();
    let mut all = Cost::default();
    for ci in 0..schema.len() {
        let values: Vec<Value> = rows.iter().map(|r| r.get(ci).clone()).collect();
        let t = Instant::now();
        let encoded = encode_column(&values, schema.column(ci).data_type, None)?;
        let encode_ns = t.elapsed().as_nanos() as f64;
        let reader = ColumnReader::open(&encoded)?;
        let t = Instant::now();
        black_box(reader.decode_vector(None)?);
        let decode_ns = t.elapsed().as_nanos() as f64;
        // Keep what differs from the first value: a selective-enough
        // predicate that every encoding can evaluate.
        let first = values[0].clone();
        let t = Instant::now();
        let filtered = reader.encoded_filter(&mut |v| *v != first, None)?;
        let filter_ns = t.elapsed().as_nanos() as f64;
        for cost in [
            &mut all,
            by_encoding.entry(format!("{:?}", reader.encoding()).to_lowercase()).or_default(),
        ] {
            cost.encode_ns += encode_ns;
            cost.decode_ns += decode_ns;
            cost.rows += values.len();
            cost.bytes += encoded.encoded_size();
            if filtered.is_some() {
                cost.filter_ns += filter_ns;
                cost.filter_rows += values.len();
            }
        }
    }
    put(m, "encoding.encode_ns_per_row", all.encode_ns / all.rows as f64, "ns");
    put(m, "encoding.decode_ns_per_row", all.decode_ns / all.rows as f64, "ns");
    put(m, "encoding.filter_ns_per_row", all.filter_ns / all.filter_rows.max(1) as f64, "ns");
    put(m, "encoding.bytes_per_value", all.bytes as f64 / all.rows as f64, "bytes");
    for (name, c) in by_encoding {
        put(m, &format!("encoding.encode_ns_per_row.{name}"), c.encode_ns / c.rows as f64, "ns");
        put(m, &format!("encoding.decode_ns_per_row.{name}"), c.decode_ns / c.rows as f64, "ns");
        if c.filter_rows > 0 {
            put(
                m,
                &format!("encoding.filter_ns_per_row.{name}"),
                c.filter_ns / c.filter_rows as f64,
                "ns",
            );
        }
        put(
            m,
            &format!("encoding.bytes_per_value.{name}"),
            c.bytes as f64 / c.rows as f64,
            "bytes",
        );
    }
    Ok(())
}

/// Segment build and 4-way merge of the lineitem sample.
fn columnstore(
    m: &mut Metrics,
    schema: &Schema,
    options: &TableOptions,
    rows: &[Row],
) -> Result<()> {
    let t = Instant::now();
    black_box(build_segment(1, rows.to_vec(), schema, &options.sort_key)?);
    put(m, "columnstore.build_ms_per_krow", per(t.elapsed(), rows.len(), 1e6) * 1e3, "ms");

    let parts: Vec<_> = rows
        .chunks(rows.len().div_ceil(4))
        .enumerate()
        .map(|(i, chunk)| build_segment(10 + i as u64, chunk.to_vec(), schema, &options.sort_key))
        .collect::<Result<_>>()?;
    let readers: Vec<SegmentReader> =
        parts.iter().map(|(_, data)| SegmentReader::new(data.clone())).collect();
    let inputs: Vec<_> = parts.iter().zip(&readers).map(|((meta, _), r)| (meta, r)).collect();
    let mut next_id = 100;
    let t = Instant::now();
    black_box(merge_segments(
        &inputs,
        schema,
        &options.sort_key,
        &mut next_id,
        options.segment_rows,
    )?);
    put(m, "columnstore.merge_ms_per_krow", per(t.elapsed(), rows.len(), 1e6) * 1e3, "ms");
    Ok(())
}

/// `s2_exec::scan` called directly on a flushed lineitem snapshot with the
/// Q1 and Q6 filters and projections.
fn exec(m: &mut Metrics, schema: &Schema, options: &TableOptions, rows: &[Row]) -> Result<()> {
    let p = Partition::new(
        "probe",
        Arc::new(Log::in_memory()),
        Arc::new(MemFileStore::new()) as Arc<dyn DataFileStore>,
    );
    let t = p.create_table("lineitem", schema.clone(), options.clone())?;
    for chunk in rows.chunks(5000) {
        let mut txn = p.begin();
        txn.insert_batch(t, chunk.to_vec(), DuplicatePolicy::Error)?;
        txn.commit()?;
    }
    p.flush_table(t, true)?;
    while p.merge_table(t)? {}
    let snap = p.read_snapshot();
    let table = snap.table(t)?;
    let opts = ScanOptions::default();
    let d = |y, mo, day| days_from_ymd(y, mo, day);

    let q1_cols =
        [l::QUANTITY, l::EXTENDEDPRICE, l::DISCOUNT, l::TAX, l::RETURNFLAG, l::LINESTATUS];
    let q1 = Expr::cmp(l::SHIPDATE, CmpOp::Le, d(1998, 9, 2));
    let q6_cols = [l::EXTENDEDPRICE, l::DISCOUNT];
    let q6 = Expr::cmp(l::SHIPDATE, CmpOp::Ge, d(1994, 1, 1))
        .and(Expr::cmp(l::SHIPDATE, CmpOp::Lt, d(1995, 1, 1)))
        .and(Expr::between(l::DISCOUNT, 0.05 - 1e-9, 0.07 + 1e-9))
        .and(Expr::cmp(l::QUANTITY, CmpOp::Lt, 24.0));

    const REPS: usize = 8;
    // One untimed scan each: the decision cache and the pool are warm.
    scan(table, &q1_cols, Some(&q1), &opts)?;
    scan(table, &q6_cols, Some(&q6), &opts)?;
    let time = |cols: &[usize], filter: &Expr| -> Result<f64> {
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(scan(table, cols, Some(filter), &opts)?);
        }
        Ok(t.elapsed().as_secs_f64() / REPS as f64)
    };
    let q1_s = time(&q1_cols, &q1)?;
    let q6_s = time(&q6_cols, &q6)?;
    put(m, "exec.scan_q1_ms", q1_s * 1e3, "ms");
    put(m, "exec.scan_q6_ms", q6_s * 1e3, "ms");
    put(m, "exec.scan_rows_per_s", 2.0 * rows.len() as f64 / (q1_s + q6_s), "1/s");
    Ok(())
}
