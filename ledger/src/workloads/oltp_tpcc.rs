//! `oltp_tpcc`: full-mix TPC-C through the cluster's commit path, 2 closed-
//! loop clients, no think time, on a 2-partition cluster with one
//! synchronously replicated HA replica per partition and no blob store. The
//! commit path does nearly all the work here and the scan and encoding
//! layers almost none, so this is where a commit-path or group-commit change
//! must show.

use std::time::Instant;

use super::{
    client_count, derive_seed, finish_layers, is_traced, run_tpcc_block, tpcc_driver_metrics, Args,
    Clock, Outcome, RoundValues, TpccBlock,
};
use crate::engine::{stream_hash, tpcc_stream, Result, Topology, TpccDb, TpccOp};
use crate::layers::LayerAcc;
use crate::obs;
use crate::trace::Tracer;

pub fn run(args: &Args) -> Result<Outcome> {
    let sizes = &args.sizes;
    let clients = client_count(2);
    let streams: Vec<Vec<TpccOp>> = (0..clients)
        .map(|c| {
            tpcc_stream(derive_seed(args.seed, "oltp_tpcc", c), sizes.tpcc_warm + sizes.tpcc_block)
        })
        .collect();
    let mut out = Outcome { clients, ..Default::default() };
    for (c, s) in streams.iter().enumerate() {
        out.fingerprint_add(&format!("oltp_tpcc.stream.{c}"), stream_hash(s));
    }

    let mut clock = Clock::new(args);
    let mut rounds = RoundValues::default();
    let mut pooled = TpccBlock::default();
    let mut acc = LayerAcc::default();
    while clock.more(out.rounds) {
        let round = out.rounds;
        let t0 = Instant::now();
        let db = TpccDb::setup(Topology::SyncReplica, args.seed, false)?;
        rounds.push("setup_s", "s", t0.elapsed().as_secs_f64());

        let slice = |from: usize, len: usize| -> Vec<&[TpccOp]> {
            streams.iter().map(|s| &s[from..from + len]).collect()
        };
        let warm = run_tpcc_block(&db, &slice(0, sizes.tpcc_warm), &Tracer::new(false), 0);
        let traced = is_traced(args.traced, round);
        let tracer = Tracer::new(traced);
        let mark = obs::mark();
        let ops = slice(sizes.tpcc_warm, sizes.tpcc_block);
        let block = run_tpcc_block(&db, &ops, &tracer, (round as u64) << 40);
        clock.add(block.wall_s);
        let new_orders = warm.new_orders + block.new_orders;
        block.report(&mut out);
        if traced {
            acc.add_block(&mark.since(), tracer.spans(), clients, block.wall_s);
            acc.traced_rate.push(block.txn_per_s());
            acc.conflict_retries += block.retries;
            acc.unique_miss_retries += block.misses;
        } else {
            acc.untraced_rate.push(block.txn_per_s());
            block.push_e2e(&mut rounds);
            pooled.merge(block);
        }
        for line in db.consistency_violations(new_orders)? {
            out.check_problem(format!("round {round}: {line}"));
        }
        out.rounds += 1;
    }

    rounds.into_metrics(&mut out.native);
    tpcc_driver_metrics(&pooled, &mut out.native);
    finish_layers(args, acc, &mut out)?;
    Ok(out)
}
