//! `olap_tpch`: the 22 TPC-H queries through the SQL path (text → plan →
//! execute), one closed-loop client, on a 4-partition cluster without
//! replicas. exec, encoding, columnstore, pool, sql and query do all the work
//! and wal/rowstore none. Two fixed query sets tell a scan change from a join
//! operator change apart: the scan-bound set runs 0–2 hash joins against tiny
//! build sides (its time is the lineitem scan), the join-bound set 2–7.

use std::time::Instant;

use super::{finish_layers, is_traced, Args, Clock, Outcome, RoundValues};
use crate::engine::{
    batch_shape_hash, batches_match, tpch_generate, Batch, CdwRef, Result, TpchDb,
};
use crate::layers::LayerAcc;
use crate::metrics::Metric;
use crate::obs;
use crate::stats;
use crate::trace::Tracer;

/// Queries whose cost is the lineitem scan itself.
pub const SCAN_BOUND: [usize; 4] = [1, 6, 14, 15];
/// Queries whose cost is their hash joins.
pub const JOIN_BOUND: [usize; 8] = [3, 5, 7, 8, 9, 10, 18, 21];
const QUERIES: usize = 22;

/// Per-query samples of one block or of the whole run (index = query − 1).
#[derive(Default)]
struct PerQuery {
    total_ms: Vec<Vec<f64>>,
    plan_us: Vec<Vec<f64>>,
    exec_ms: Vec<Vec<f64>>,
}

impl PerQuery {
    fn new() -> PerQuery {
        let empty = || vec![Vec::new(); QUERIES];
        PerQuery { total_ms: empty(), plan_us: empty(), exec_ms: empty() }
    }

    fn extend(&mut self, other: &PerQuery) {
        for q in 0..QUERIES {
            self.total_ms[q].extend(&other.total_ms[q]);
            self.plan_us[q].extend(&other.plan_us[q]);
            self.exec_ms[q].extend(&other.exec_ms[q]);
        }
    }

    fn medians(&self) -> Vec<f64> {
        self.total_ms.iter().map(|s| stats::median(s)).collect()
    }
}

fn set_geomean(medians: &[f64], set: &[usize]) -> f64 {
    stats::geomean(&set.iter().map(|&q| medians[q - 1]).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Result<Outcome> {
    let sizes = &args.sizes;
    let data = tpch_generate(sizes.tpch_sf, args.seed);
    let mut out = Outcome { clients: 1, ..Default::default() };

    let mut clock = Clock::new(args);
    let mut rounds = RoundValues::default();
    let mut pooled = PerQuery::new();
    let mut acc = LayerAcc::default();
    // Canonical result per query, fixed by the first execution. Later
    // executions are compared with a tolerance: the order in which doubles
    // are summed depends on the segment layout, which a reload may change.
    let mut canon: Vec<Option<Batch>> = vec![None; QUERIES];
    while clock.more(out.rounds) {
        let round = out.rounds;
        let t0 = Instant::now();
        let db = TpchDb::setup(&data)?;
        rounds.push("setup_s", "s", t0.elapsed().as_secs_f64());

        // The first round's warm-up pass doubles as the reference check:
        // every result must equal the warehouse model's on the same data.
        let reference = if round == 0 { Some(CdwRef::load(&data)?) } else { None };
        let off = Tracer::new(false);
        for _ in 0..sizes.tpch_warm.max(1) {
            let mut local = off.local();
            for q in 1..=QUERIES {
                let r = db.query(q, &mut local, 0)?;
                if let Some(reference) = &reference {
                    if canon[q - 1].is_none() && !batches_match(&r.batch, &reference.query(q)?) {
                        out.check_problem(format!("q{q}: result differs from the CDW reference"));
                    }
                }
                if !batches_match(canon[q - 1].get_or_insert_with(|| r.batch.clone()), &r.batch) {
                    out.check_problem(format!("q{q}: warm-up result differs between passes"));
                }
            }
        }
        drop(reference);

        let traced = is_traced(args.traced, round);
        let tracer = Tracer::new(traced);
        let mark = obs::mark();
        let mut block = PerQuery::new();
        let mut local = tracer.local();
        let start = Instant::now();
        // Time inside queries: the result checks between them are the
        // driver's work, not the engine's.
        let mut busy_s = 0.0;
        for pass in 0..sizes.tpch_block {
            for q in 1..=QUERIES {
                let request = ((round as u64) << 40) | (pass as u64) << 8 | q as u64;
                out.attempted += 1;
                let t = Instant::now();
                match db.query(q, &mut local, request) {
                    Ok(r) => {
                        let took_s = t.elapsed().as_secs_f64();
                        busy_s += took_s;
                        block.total_ms[q - 1].push(took_s * 1e3);
                        block.plan_us[q - 1].push(r.plan_us);
                        block.exec_ms[q - 1].push(r.exec_us / 1e3);
                        if !canon[q - 1].as_ref().is_some_and(|c| batches_match(c, &r.batch)) {
                            out.check_problem(format!("q{q}: result differs between passes"));
                        }
                        if traced {
                            acc.add_query(r.plan_us, r.exec_us, r.stats);
                        }
                    }
                    Err(e) => out.problem(format!("q{q}: {e}")),
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        drop(local);
        clock.add(wall_s);
        let rate = (sizes.tpch_block * QUERIES) as f64 / busy_s;
        if traced {
            acc.add_block(&mark.since(), tracer.spans(), 1, wall_s);
            acc.traced_rate.push(rate);
        } else {
            acc.untraced_rate.push(rate);
            let medians = block.medians();
            rounds.push("query_per_s", "1/s", rate);
            rounds.push("scan_q_ms", "ms", set_geomean(&medians, &SCAN_BOUND));
            rounds.push("join_q_ms", "ms", set_geomean(&medians, &JOIN_BOUND));
            rounds.push("max_q_ms", "ms", medians.iter().copied().fold(0.0, f64::max));
            pooled.extend(&block);
        }
        out.rounds += 1;
    }

    for (q, batch) in canon.iter().enumerate() {
        let hash = batch.as_ref().map_or(0, batch_shape_hash);
        out.fingerprint_add(&format!("olap_tpch.result.q{:02}", q + 1), hash);
    }
    rounds.into_metrics(&mut out.native);
    for q in 0..QUERIES {
        let metric = |samples: &[f64], unit| {
            Metric::scalar(stats::median(samples), unit).with_samples(samples)
        };
        out.native.insert(format!("tpch.q{:02}_ms", q + 1), metric(&pooled.total_ms[q], "ms"));
        out.native.insert(format!("query.exec_ms.q{:02}", q + 1), metric(&pooled.exec_ms[q], "ms"));
        out.native.insert(format!("sql.plan_us.q{:02}", q + 1), metric(&pooled.plan_us[q], "us"));
    }
    finish_layers(args, acc, &mut out)?;
    Ok(out)
}
