//! `restart`: recovery and elasticity (paper §3). Set-up loads TPC-C with
//! separated storage on, runs half the transaction history, checkpoints
//! (flush + snapshot to blob), runs the other half and checkpoints again.
//! Then, one client, in cycles: recover every partition on a fresh node from
//! that snapshot plus the durable log suffix (the unacknowledged tail is
//! discarded); provision a cold read-only workspace, catch it up and detach
//! it; restore every partition from blob storage alone to a point in the
//! middle of the history. These exercise wal read, core replay and index
//! rebuild, blob get and cache and cluster PITR, which the other workloads
//! barely touch, on a working set that is by construction colder than every
//! cache.

use std::time::Instant;

use super::{derive_seed, finish_layers, is_traced, Args, Clock, Outcome, RoundValues, TpccBlock};
use crate::engine::{
    partition_sums, stream_hash, tpcc_stream, user_bytes, CrashImage, Fleet, Result, TableSums,
    Topology, TpccDb,
};
use crate::layers::LayerAcc;
use crate::obs;
use crate::stats;
use crate::trace::{Local, Tracer};

/// Samples of one block, in ms.
#[derive(Default)]
struct Block {
    recover_ms: Vec<f64>,
    provision_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    wall_s: f64,
}

/// First difference between two checksum sets, if any.
fn sums_differ(what: &str, got: &TableSums, want: &TableSums) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{what}: {} tables, expected {}", got.len(), want.len()));
    }
    want.iter().find_map(|(table, w)| {
        let g = got.get(table);
        (g != Some(w))
            .then(|| format!("{what}: table {table} is {g:?}, expected {w:?} (rows, hash, bytes)"))
    })
}

/// What the cycles of one block work on, and what they measured.
struct Cycles<'a> {
    image: &'a CrashImage,
    fleet: &'a Fleet,
    block: Block,
}

impl Cycles<'_> {
    /// One recover + provision + restore cycle. `verify` compares the
    /// recovered and provisioned state with the primary's acknowledged state.
    fn run(
        &mut self,
        name: &str,
        verify: bool,
        local: &mut Local<'_>,
        request: u64,
        out: &mut Outcome,
    ) -> Result<()> {
        let (image, fleet, block) = (self.image, self.fleet, &mut self.block);
        out.attempted += 3;

        local.enter("restart.recover", request);
        let t = Instant::now();
        let recovered: Result<Vec<_>> =
            (0..image.parts.len()).map(|i| image.recover(i, local, request)).collect();
        block.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        local.exit();
        match recovered {
            Ok(parts) if verify => {
                for (p, part) in parts.iter().zip(&image.parts) {
                    if let Some(line) = sums_differ(
                        &format!("recovered {}", part.name),
                        &partition_sums(p)?,
                        &part.expected,
                    ) {
                        out.check_problem(line);
                    }
                }
            }
            Ok(_) => {}
            Err(e) => out.problem(format!("recover: {e}")),
        }

        local.enter("restart.provision", request);
        let t = Instant::now();
        let ws = fleet
            .provision(name, local, request)
            .and_then(|ws| ws.catch_up(local, request).map(|()| ws));
        block.provision_ms.push(t.elapsed().as_secs_f64() * 1e3);
        local.exit();
        match ws {
            Ok(ws) => {
                if verify {
                    for (got, part) in ws.sums(image.parts.len())?.iter().zip(&image.parts) {
                        if let Some(line) =
                            sums_differ(&format!("workspace {}", part.name), got, &part.expected)
                        {
                            out.check_problem(line);
                        }
                    }
                }
                drop(ws);
                fleet.detach(name)?;
            }
            Err(e) => out.problem(format!("provision: {e}")),
        }

        local.enter("restart.restore", request);
        let t = Instant::now();
        let restored: Result<Vec<_>> =
            (0..image.parts.len()).map(|i| image.restore_midway(i, local, request)).collect();
        block.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        local.exit();
        if let Err(e) = restored {
            out.problem(format!("restore: {e}"));
        }
        Ok(())
    }
}

pub fn run(args: &Args) -> Result<Outcome> {
    let sizes = &args.sizes;
    let history = tpcc_stream(derive_seed(args.seed, "restart", 0), 2 * sizes.restart_history);
    let mut out = Outcome { clients: 1, ..Default::default() };
    out.fingerprint_add("restart.stream.history", stream_hash(&history));

    let mut clock = Clock::new(args);
    let mut rounds = RoundValues::default();
    let mut pooled = Block::default();
    let mut acc = LayerAcc::default();
    while clock.more(out.rounds) {
        let round = out.rounds;
        let off = Tracer::new(false);
        let t0 = Instant::now();
        let db = TpccDb::setup(Topology::Blob, args.seed, false)?;
        let mut past = TpccBlock::default();
        let mut replay = |ops: &[crate::engine::TpccOp]| {
            let mut local = off.local();
            for op in ops {
                let r = db.exec(op, &mut local, 0);
                past.record(op, 0.0, r);
            }
        };
        replay(&history[..sizes.restart_history]);
        db.checkpoint()?;
        let snapshot_at = db.log_ends();
        replay(&history[sizes.restart_history..]);
        db.checkpoint()?;
        rounds.push("setup_s", "s", t0.elapsed().as_secs_f64());
        for e in past.errors.drain(..) {
            out.problem(format!("history: {e}"));
        }

        let image = db.crash_image(&snapshot_at)?;
        let expected: Vec<TableSums> = image.parts.iter().map(|p| p.expected.clone()).collect();
        rounds.push(
            "bytes_per_user_byte",
            "ratio",
            db.blob().stored_bytes() as f64 / user_bytes(&expected) as f64,
        );
        let fleet = db.fleet()?;

        let traced = is_traced(args.traced, round);
        let tracer = Tracer::new(traced);
        let mark = obs::mark();
        let blob_before = db.blob().counts();
        let mut cycles = Cycles { image: &image, fleet: &fleet, block: Block::default() };
        let mut local = tracer.local();
        let start = Instant::now();
        for c in 0..sizes.restart_cycles {
            let request = ((round as u64) << 40) | c as u64;
            cycles.run(&format!("elastic-{c}"), c == 0, &mut local, request, &mut out)?;
        }
        let mut block = cycles.block;
        block.wall_s = start.elapsed().as_secs_f64();
        drop(local);
        clock.add(block.wall_s);
        let rate = sizes.restart_cycles as f64 / block.wall_s;
        if traced {
            acc.add_block(&mark.since(), tracer.spans(), 1, block.wall_s);
            acc.add_blob(blob_before, db.blob().counts());
            acc.traced_rate.push(rate);
        } else {
            acc.untraced_rate.push(rate);
            rounds.push("cycle_per_s", "1/s", rate);
            rounds.push("recover_ms", "ms", stats::median(&block.recover_ms));
            rounds.push("provision_ms", "ms", stats::median(&block.provision_ms));
            rounds.push("restore_ms", "ms", stats::median(&block.restore_ms));
            pooled.recover_ms.extend(&block.recover_ms);
            pooled.provision_ms.extend(&block.provision_ms);
            pooled.restore_ms.extend(&block.restore_ms);
        }
        out.rounds += 1;
    }

    rounds.into_metrics(&mut out.native);
    super::attach_samples(&mut out.native, "recover_ms", &pooled.recover_ms);
    super::attach_samples(&mut out.native, "provision_ms", &pooled.provision_ms);
    super::attach_samples(&mut out.native, "restore_ms", &pooled.restore_ms);
    finish_layers(args, acc, &mut out)?;
    Ok(out)
}
