//! The four workloads and what they share: sizes, the round loop's clock,
//! the closed-loop TPC-C client block and the outcome type.
//!
//! A run is a sequence of identical rounds. A round sets the system up from
//! scratch (timed: one `setup_s` sample), runs a discarded warm-up, then one
//! measured block of a fixed, seed-derived operation stream. Rounds repeat
//! until the measured time reaches `--seconds`; every reported number is the
//! median over rounds, so both sides of a comparison do identical work on
//! identically growing tables however many rounds fit. With tracing on, every
//! second round records spans and obs deltas: end-to-end numbers come from the
//! untraced rounds, per-layer numbers from the traced ones, and the difference
//! between the two is the tracing overhead.

pub mod htap_ch;
pub mod olap_tpch;
pub mod oltp_tpcc;
pub mod restart;

use std::sync::Barrier;
use std::time::Instant;

use crate::engine::{self, Result, TpccDb, TpccOp};
use crate::json::Json;
use crate::layers::LayerAcc;
use crate::metrics::{Metric, Metrics};
use crate::stats;
use crate::trace::{Span, Tracer};

/// Operation counts and data scales. [`Sizes::full`] is what `BENCHMARK.json`
/// freezes; [`Sizes::smoke`] is the few-hundred-operation variant the smoke
/// test runs.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// TPC-C warm-up transactions per client per round.
    pub tpcc_warm: usize,
    /// TPC-C measured transactions per client per block (`oltp_tpcc`).
    pub tpcc_block: usize,
    /// TPC-H scale factor.
    pub tpch_sf: f64,
    /// Warm-up passes of the 22 queries per round.
    pub tpch_warm: usize,
    /// Measured passes per block.
    pub tpch_block: usize,
    /// Writer transactions per block (`htap_ch`).
    pub htap_block: usize,
    /// A marker update follows every this many writer transactions.
    pub marker_every: usize,
    /// Transactions before, and again after, the mid-history snapshot (`restart`).
    pub restart_history: usize,
    /// Recover + provision + restore cycles per block.
    pub restart_cycles: usize,
    /// Scale factor of the lineitem sample the layer probes use.
    pub probe_sf: f64,
    /// Keys the rowstore, index, wal and commit probes touch.
    pub probe_keys: usize,
}

impl Sizes {
    /// The sizes of record. ISSUE 11 sized one 25–35 s measured phase per
    /// workload; the driver's total-time cap is tighter, so every count is
    /// scaled to a round of about 3 s and rounds repeat up to `--seconds`.
    pub fn full() -> Sizes {
        Sizes {
            tpcc_warm: 300,
            tpcc_block: 2500,
            tpch_sf: 0.05,
            tpch_warm: 1,
            tpch_block: 5,
            htap_block: 6000,
            marker_every: 10,
            restart_history: 1500,
            restart_cycles: 8,
            probe_sf: 0.01,
            probe_keys: 50_000,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            tpcc_warm: 20,
            tpcc_block: 100,
            tpch_sf: 0.002,
            tpch_warm: 1,
            tpch_block: 2,
            htap_block: 150,
            marker_every: 10,
            restart_history: 60,
            restart_cycles: 1,
            probe_sf: 0.001,
            probe_keys: 2_000,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("tpcc_scale", "TpccScale::bench(2)")
            .with("tpcc_warm_per_client", self.tpcc_warm)
            .with("tpcc_block_per_client", self.tpcc_block)
            .with("tpch_sf", self.tpch_sf)
            .with("tpch_warm_passes", self.tpch_warm)
            .with("tpch_block_passes", self.tpch_block)
            .with("htap_block_txns", self.htap_block)
            .with("marker_every", self.marker_every)
            .with("restart_history_txns", 2 * self.restart_history)
            .with("restart_cycles_per_block", self.restart_cycles)
            .with("probe_sf", self.probe_sf)
            .with("probe_keys", self.probe_keys)
    }
}

/// What one invocation asks of a workload.
pub struct Args {
    pub seed: u64,
    /// Rounds repeat until this many seconds were measured.
    pub seconds: f64,
    /// Also run a traced block per round, the obs deltas and the layer probes.
    pub traced: bool,
    pub sizes: Sizes,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued in measured blocks.
    pub attempted: u64,
    /// Operations that failed, plus failed output checks.
    pub failed: u64,
    /// One line per failed operation or output check.
    pub problems: Vec<String>,
    /// An output check failed (sets `error_share` to 1).
    pub check_failed: bool,
    /// End-to-end and driver metrics under the workload's own names, from
    /// untraced blocks.
    pub native: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layer: Metrics,
    /// `(what, hash)` of every generated operation stream and canonical result.
    pub fingerprint: Vec<(String, String)>,
    /// Spans of the traced blocks.
    pub spans: Vec<Span>,
    pub clients: usize,
    pub rounds: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn problem(&mut self, line: String) {
        self.failed += 1;
        // Keep the report readable when one fault repeats.
        if self.problems.len() < 20 {
            self.problems.push(line);
        }
    }

    /// A failed output check.
    pub fn check_problem(&mut self, line: String) {
        self.check_failed = true;
        self.problem(line);
    }

    pub fn fingerprint_add(&mut self, what: &str, hash: u64) {
        self.fingerprint.push((what.to_string(), format!("{hash:016x}")));
    }
}

/// Run `workload` (a name from `metrics::WORKLOADS`).
pub fn run(workload: &str, args: &Args) -> Result<Outcome> {
    match workload {
        "oltp_tpcc" => oltp_tpcc::run(args),
        "olap_tpch" => olap_tpch::run(args),
        "htap_ch" => htap_ch::run(args),
        "restart" => restart::run(args),
        other => Err(engine::Error::InvalidArgument(format!("no workload {other:?}"))),
    }
}

/// Client threads a workload may start: never more than the host has cores.
pub fn client_count(wanted: usize) -> usize {
    wanted.min(std::thread::available_parallelism().map_or(1, |n| n.get())).max(1)
}

/// A seed for one stream of one workload, derived from the run seed.
pub fn derive_seed(seed: u64, what: &str, index: usize) -> u64 {
    engine::mix_hash(engine::mix_hash(seed, engine::text_hash(what)), index as u64)
}

/// Decides when a run has measured enough.
pub struct Clock {
    seconds: f64,
    measured: f64,
    /// One round at least; with tracing one of each kind.
    min_rounds: usize,
}

impl Clock {
    pub fn new(args: &Args) -> Clock {
        Clock { seconds: args.seconds, measured: 0.0, min_rounds: if args.traced { 2 } else { 1 } }
    }

    pub fn add(&mut self, block_wall_s: f64) {
        self.measured += block_wall_s;
    }

    /// Whether another round is needed after `rounds` of them.
    pub fn more(&self, rounds: usize) -> bool {
        rounds < self.min_rounds || self.measured < self.seconds
    }
}

/// Whether round `round` is a traced one: every second round when tracing.
pub fn is_traced(traced: bool, round: usize) -> bool {
    traced && round % 2 == 1
}

/// Per-round values of named scalars, folded into [`Metrics`] at the end.
#[derive(Default)]
pub struct RoundValues(std::collections::BTreeMap<&'static str, (Vec<f64>, &'static str)>);

impl RoundValues {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.entry(name).or_insert_with(|| (Vec::new(), unit)).0.push(value);
    }

    pub fn into_metrics(self, out: &mut Metrics) {
        for (name, (rounds, unit)) in self.0 {
            out.insert(name.to_string(), Metric::of_rounds(rounds, unit));
        }
    }
}

/// Attach pooled samples to an already-folded metric.
pub fn attach_samples(m: &mut Metrics, name: &str, samples: &[f64]) {
    if let Some(metric) = m.remove(name) {
        m.insert(name.to_string(), metric.with_samples(samples));
    }
}

// ------------------------------------------------------------ TPC-C blocks

/// What one block of TPC-C transactions did.
#[derive(Default)]
pub struct TpccBlock {
    /// Latency samples in ms per transaction type (`engine::TXN_KINDS` order).
    pub lat_ms: [Vec<f64>; 5],
    /// Transactions that committed (or completed, for the read-only types).
    pub committed: u64,
    /// Committed new-orders (the consistency check's count).
    pub new_orders: u64,
    pub attempted: u64,
    pub retries: u64,
    pub misses: u64,
    pub errors: Vec<String>,
    /// First client start to last client end.
    pub wall_s: f64,
}

impl TpccBlock {
    pub fn record(&mut self, op: &TpccOp, ms: f64, result: Result<engine::TxnOutcome>) {
        self.attempted += 1;
        match result {
            Ok(o) => {
                self.lat_ms[op.kind()].push(ms);
                self.retries += u64::from(o.retries);
                self.misses += u64::from(o.misses);
                if o.committed {
                    self.committed += 1;
                    if op.kind() == 0 {
                        self.new_orders += 1;
                    }
                }
            }
            Err(e) => self.errors.push(format!("{}: {e}", engine::TXN_KINDS[op.kind()])),
        }
    }

    /// Fold another block's samples and counts in (`wall_s` is left alone).
    pub fn merge(&mut self, other: TpccBlock) {
        for (mine, theirs) in self.lat_ms.iter_mut().zip(other.lat_ms) {
            mine.extend(theirs);
        }
        self.committed += other.committed;
        self.new_orders += other.new_orders;
        self.attempted += other.attempted;
        self.retries += other.retries;
        self.misses += other.misses;
        self.errors.extend(other.errors);
    }

    pub fn txn_per_s(&self) -> f64 {
        self.committed as f64 / self.wall_s
    }

    /// Push this block's end-to-end TPC-C values as one round.
    pub fn push_e2e(&self, rounds: &mut RoundValues) {
        rounds.push("txn_per_s", "1/s", self.txn_per_s());
        rounds.push("neworder_p50_ms", "ms", stats::median(&self.lat_ms[0]));
        rounds.push("neworder_p95_ms", "ms", stats::percentile(&self.lat_ms[0], 0.95));
        rounds.push("payment_p50_ms", "ms", stats::median(&self.lat_ms[1]));
    }

    /// Report this block's failures into `out`.
    pub fn report(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        for e in &self.errors {
            out.problem(e.clone());
        }
    }
}

/// Closed loop: one thread per stream, each issuing its next transaction when
/// the previous one returned, all released together.
pub fn run_tpcc_block(
    db: &TpccDb,
    streams: &[&[TpccOp]],
    tracer: &Tracer,
    request_base: u64,
) -> TpccBlock {
    let barrier = Barrier::new(streams.len());
    let origin = Instant::now();
    let parts: Vec<(TpccBlock, f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, ops)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut local = tracer.local();
                    let mut block = TpccBlock::default();
                    barrier.wait();
                    let start = origin.elapsed().as_secs_f64();
                    for (i, op) in ops.iter().enumerate() {
                        let request = request_base | ((client as u64) << 32) | i as u64;
                        let t0 = Instant::now();
                        let result = db.exec(op, &mut local, request);
                        block.record(op, t0.elapsed().as_secs_f64() * 1e3, result);
                    }
                    (block, start, origin.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tpcc client thread")).collect()
    });
    let mut total = TpccBlock::default();
    let start = parts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let end = parts.iter().map(|p| p.2).fold(0.0, f64::max);
    for (block, _, _) in parts {
        total.merge(block);
    }
    total.wall_s = end - start;
    total
}

/// Pooled TPC-C driver metrics over every untraced block of a run.
pub fn tpcc_driver_metrics(pooled: &TpccBlock, native: &mut Metrics) {
    for (name, samples) in [
        ("neworder_p50_ms", &pooled.lat_ms[0]),
        ("neworder_p95_ms", &pooled.lat_ms[0]),
        ("payment_p50_ms", &pooled.lat_ms[1]),
    ] {
        attach_samples(native, name, samples);
    }
    let p50 = |kind: usize| {
        Metric::scalar(stats::median(&pooled.lat_ms[kind]), "ms").with_samples(&pooled.lat_ms[kind])
    };
    native.insert("tpcc.order_status_p50_ms".into(), p50(2));
    native.insert("tpcc.delivery_p50_ms".into(), p50(3));
    native.insert("tpcc.stock_level_p50_ms".into(), p50(4));
    native.insert(
        "tpcc.neworder_p99_ms".into(),
        Metric::scalar(stats::percentile(&pooled.lat_ms[0], 0.99), "ms")
            .with_samples(&pooled.lat_ms[0]),
    );
}

/// Finish a traced run: per-layer metrics from the accumulator plus probes.
pub fn finish_layers(args: &Args, acc: LayerAcc, out: &mut Outcome) -> Result<()> {
    if args.traced {
        out.layer = acc.metrics();
        out.layer.extend(crate::probes::run(args.seed, &args.sizes)?);
        out.spans = acc.spans;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        let a = engine::stream_hash(&engine::tpcc_stream(derive_seed(42, "oltp", 0), 200));
        let b = engine::stream_hash(&engine::tpcc_stream(derive_seed(42, "oltp", 0), 200));
        let c = engine::stream_hash(&engine::tpcc_stream(derive_seed(43, "oltp", 0), 200));
        let d = engine::stream_hash(&engine::tpcc_stream(derive_seed(42, "oltp", 1), 200));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn stream_follows_the_deck_mix() {
        let ops = engine::tpcc_stream(7, 23 * 20);
        let mut counts = [0usize; 5];
        for op in &ops {
            counts[op.kind()] += 1;
        }
        assert_eq!(counts, [200, 200, 20, 20, 20]);
    }

    #[test]
    fn traced_rounds_alternate_and_clock_stops() {
        assert!(!is_traced(false, 1));
        assert!(!is_traced(true, 0) && is_traced(true, 1) && !is_traced(true, 2));
        let args = |seconds, traced| Args { seed: 1, seconds, traced, sizes: Sizes::smoke() };
        assert!(Clock::new(&args(0.0, false)).more(0), "a run has at least one round");
        assert!(!Clock::new(&args(0.0, false)).more(1));
        assert!(Clock::new(&args(0.0, true)).more(1), "a traced run has a round of each kind");
        let mut clock = Clock::new(&args(2.0, false));
        clock.add(1.5);
        assert!(clock.more(1));
        clock.add(0.6);
        assert!(!clock.more(2));
    }
}
