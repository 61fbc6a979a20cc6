//! The key-value workload the crash, outage and workspace drills share: a
//! unique-keyed `t(k, v)` table drawn from the seed, one transaction
//! generator checked against the [`Model`], phase-scoped fault plans, the
//! fast blob tuning the outage arcs need, the liveness oracle they end on,
//! and the bounded polls and timers they wait on (the only wall-clock reads
//! in the harness).

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use s2_blob::{BlobHealth, BreakerConfig, StoreHealth, UploaderConfig};
use s2_cluster::{BlobBackedFileStore, ClusterTxn, StorageConfig};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{Partition, Txn};

use crate::oracle::Model;
use crate::plan::FaultPlan;

/// Breaker tuning so outage arcs play out in milliseconds; the semantics are
/// the production defaults'.
pub const FAST_BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 3,
    open_cooldown: Duration::from_millis(20),
    max_cooldown: Duration::from_millis(100),
    probe_successes: 1,
    degraded_window: Duration::from_millis(150),
};

/// Uploader tuning to match [`FAST_BREAKER`].
pub const FAST_UPLOADER: UploaderConfig = UploaderConfig {
    threads: 2,
    base_backoff: Duration::from_millis(2),
    max_backoff: Duration::from_millis(20),
};

/// One millisecond: drill budgets and poll intervals are multiples of it.
pub const MS: Duration = Duration::from_millis(1);

/// Data-file cache per blob-backed file store.
pub const CACHE_BYTES: usize = 256 * 1024;

/// Cold-read deadline budget of a blob-backed file store.
pub const READ_BUDGET: Duration = Duration::from_millis(300);

/// Shipping config drawn from the seed: chunk size, then snapshot interval.
pub fn storage_config(rng: &mut StdRng, snapshot_bytes: Range<u64>) -> StorageConfig {
    StorageConfig {
        chunk_bytes: rng.random_range(64..512_usize),
        snapshot_interval_bytes: rng.random_range(snapshot_bytes),
        tick: MS,
        require_replicated: false,
    }
}

/// The `t(k, v)` table: `k` is the sort key and the unique `pk`; the flush
/// threshold, then the segment size, are drawn from the seed.
pub fn table(
    rng: &mut StdRng,
    flush_rows: Range<usize>,
    segment_rows: Range<usize>,
) -> Result<(Schema, TableOptions), String> {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("v", DataType::Int64),
    ])
    .map_err(|e| format!("schema: {e}"))?;
    let options = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_flush_threshold(rng.random_range(flush_rows))
        .with_segment_rows(rng.random_range(segment_rows));
    Ok((schema, options))
}

/// One `t` row.
pub fn row(k: i64, v: i64) -> Row {
    Row::new(vec![Value::Int(k), Value::Int(v)])
}

/// The engine half of a generated transaction on `t`.
pub trait KvTxn {
    fn insert(&mut self, row: Row) -> s2_common::Result<()>;
    fn update(&mut self, key: &[Value], row: Row) -> s2_common::Result<bool>;
    fn delete(&mut self, key: &[Value]) -> s2_common::Result<bool>;
    fn get(&mut self, key: &[Value]) -> s2_common::Result<Option<Row>>;
}

/// A partition transaction on table id `.1`.
pub struct TableTxn<'a>(pub &'a mut Txn, pub u32);

impl KvTxn for TableTxn<'_> {
    fn insert(&mut self, row: Row) -> s2_common::Result<()> {
        self.0.insert(self.1, row)
    }
    fn update(&mut self, key: &[Value], row: Row) -> s2_common::Result<bool> {
        self.0.update_unique(self.1, key, row)
    }
    fn delete(&mut self, key: &[Value]) -> s2_common::Result<bool> {
        self.0.delete_unique(self.1, key)
    }
    fn get(&mut self, key: &[Value]) -> s2_common::Result<Option<Row>> {
        self.0.get_unique(self.1, key)
    }
}

impl KvTxn for ClusterTxn {
    fn insert(&mut self, row: Row) -> s2_common::Result<()> {
        ClusterTxn::insert(self, "t", row)
    }
    fn update(&mut self, key: &[Value], row: Row) -> s2_common::Result<bool> {
        self.update_unique_with("t", key, |_| row)
    }
    fn delete(&mut self, key: &[Value]) -> s2_common::Result<bool> {
        self.delete_unique("t", key)
    }
    fn get(&mut self, key: &[Value]) -> s2_common::Result<Option<Row>> {
        self.get_unique("t", key)
    }
}

/// Draw a 1–4 op transaction against `model` (the committed state) and apply
/// each op to `txn` as it is drawn, checking every engine answer against the
/// transaction's own view — so a kill point mid-transaction leaves the rng
/// exactly where the engine stopped, and a wrong answer fails at the op that
/// got it. Returns the state it would commit.
pub fn gen_txn(
    rng: &mut StdRng,
    key_space: i64,
    model: &Model,
    txn: &mut impl KvTxn,
) -> Result<Model, String> {
    let mut scratch = model.clone();
    let nops: usize = rng.random_range(1..=4);
    for _ in 0..nops {
        let k: i64 = rng.random_range(0..key_space);
        let key = [Value::Int(k)];
        let choice: u32 = rng.random_range(0..10);
        let present = scratch.get(&k).copied();
        match (present, choice) {
            (Some(_), 0..=3) => {
                let v: i64 = rng.random_range(-1000..1000);
                let updated = txn
                    .update(&key, row(k, v))
                    .map_err(|er| format!("update_unique({k}) failed: {er}"))?;
                if !updated {
                    return Err(format!("update_unique missed present key {k}"));
                }
                scratch.insert(k, v);
            }
            (Some(_), 4..=6) => {
                let deleted =
                    txn.delete(&key).map_err(|er| format!("delete_unique({k}) failed: {er}"))?;
                if !deleted {
                    return Err(format!("delete_unique missed present key {k}"));
                }
                scratch.remove(&k);
            }
            (None, 0..=6) => {
                let v: i64 = rng.random_range(-1000..1000);
                txn.insert(row(k, v))
                    .map_err(|er| format!("insert of absent key {k} failed: {er}"))?;
                scratch.insert(k, v);
            }
            _ => {
                let got = txn.get(&key).map_err(|er| format!("get_unique({k}) failed: {er}"))?;
                let got = got.and_then(|r| r.get(1).as_int().ok());
                if got != present {
                    return Err(format!(
                        "read divergence at key {k}: engine {got:?}, expected {present:?}"
                    ));
                }
            }
        }
    }
    Ok(scratch)
}

/// Read the full `t` state (rowstore + segments minus delete bits). Returns
/// the keyed state plus the raw live-row count (which differs from the map
/// size exactly when duplicate live rows exist — itself a bug).
pub fn engine_state(p: &Arc<Partition>, table: u32) -> Result<(Model, usize), String> {
    let snap = p.read_snapshot();
    let ts = snap.table(table).map_err(|er| format!("table snapshot: {er}"))?;
    let mut out = Model::new();
    let mut live = 0usize;
    for (_, row) in ts.rowstore_rows() {
        let k = row.get(0).as_int().map_err(|er| format!("rowstore key: {er}"))?;
        let v = row.get(1).as_int().map_err(|er| format!("rowstore value: {er}"))?;
        out.insert(k, v);
        live += 1;
    }
    for seg in &ts.segments {
        for ri in 0..seg.core.meta.row_count {
            if seg.deleted.get(ri) {
                continue;
            }
            let row = seg.core.reader.row(ri).map_err(|er| format!("segment row: {er}"))?;
            let k = row.get(0).as_int().map_err(|er| format!("segment key: {er}"))?;
            let v = row.get(1).as_int().map_err(|er| format!("segment value: {er}"))?;
            out.insert(k, v);
            live += 1;
        }
    }
    Ok((out, live))
}

/// Run one phase with `plan` installed as the process fault hook, cleared
/// when the phase returns (the drill's `Harness` clears it if the phase
/// panics).
pub fn with_plan<R>(plan: FaultPlan, phase: impl FnOnce(&FaultPlan) -> R) -> R {
    let plan = Arc::new(plan);
    s2_common::fault::install(Arc::clone(&plan) as Arc<dyn s2_common::fault::FaultHook>);
    let out = phase(&plan);
    s2_common::fault::clear();
    out
}

/// A transient burst: `blob.put` / `blob.get` fail with seeded probabilities
/// on every thread. Returns the plan and its trace description.
pub fn burst_plan(seed: u64, rng: &mut StdRng) -> (FaultPlan, String) {
    let put_p: f64 = rng.random_range(0.25..0.55);
    let get_p: f64 = rng.random_range(0.10..0.30);
    let mut plan = FaultPlan::new(seed);
    plan.site_any_thread("blob.put", put_p, 0.0).site_any_thread("blob.get", get_p, 0.0);
    (plan, format!("put_p={put_p:.2} get_p={get_p:.2}"))
}

/// Poll `done` every `poll` until it returns true; after `budget` the drill
/// fails with `what`. `done` may fail the drill itself.
pub fn wait_for(
    what: &str,
    budget: Duration,
    poll: Duration,
    mut done: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    // s2-lint: allow(wall-clock, blob drills wait out real breaker cooldowns and upload retries)
    let start = Instant::now();
    while !done()? {
        if start.elapsed() > budget {
            return Err(format!("{what} (waited {budget:?})"));
        }
        std::thread::sleep(poll);
    }
    Ok(())
}

/// The liveness oracle, run once a phase's fault plan has cleared: within
/// `budget`, with nothing fed but `tick` (a drill that ships by hand passes
/// here; a cluster ships on its own), every backlog drains — each log is
/// shipped up to its durable position, no upload is pending and no byte is
/// pinned — and `health` returns to `Healthy`.
pub fn wait_live(
    budget: Duration,
    health: &BlobHealth,
    sets: &[(Arc<Partition>, Arc<BlobBackedFileStore>)],
    mut tick: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let backlog = || {
        sets.iter().find_map(|(p, files)| {
            let (shipped, durable) = (p.log.uploaded_lp(), p.log.durable_lp());
            let (pending, pinned) = (files.pending_uploads(), files.pinned_bytes());
            (shipped != durable || pending > 0 || pinned > 0).then(|| {
                format!(
                    "{}: log {shipped}/{durable} shipped, {pending} uploads pending, \
                     {pinned} bytes pinned",
                    p.name
                )
            })
        })
    };
    wait_for("backlog did not drain with nothing fed", budget, 5 * MS, || {
        tick()?;
        Ok(backlog().is_none() && health.health() == StoreHealth::Healthy)
    })
    .map_err(|e| format!("{e}: {}, health {:?}", backlog().unwrap_or_default(), health.health()))
}

/// Run `f`, returning its wall-clock duration too.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    // s2-lint: allow(wall-clock, blob drills bound real cold-read, provisioning and drain times)
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}
