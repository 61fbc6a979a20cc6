//! Workspace-fleet drill: a seed-driven scenario exercising elastic
//! workspaces (paper §3.2) under faults — concurrent provision/detach churn
//! with kill points, transient blob fault bursts, a total blob outage and
//! recovery — against the availability contract: the blob store is off the
//! commit path, attached workspaces degrade to growing lag (never to
//! errors), provisioning pauses during an outage and resumes after it, and
//! every surviving workspace converges byte-for-byte to the primary.
//!
//! Phases, each drawn from the seed:
//!
//! 1. **Warmup** (healthy): committed writes on the cluster, a flush, and a
//!    full `sync_to_blob` so provisioning has a snapshot to restore.
//! 2. **Churn with kills**: seeded provision/detach churn under live
//!    writes, with crash injection at the `workspace.provision`,
//!    `pitr.restore` and `workspace.detach` kill points. Oracle: a killed
//!    provision never leaves a half-attached workspace; a killed detach
//!    leaves the workspace fully attached; the registry always matches the
//!    drill's own fleet model.
//! 3. **Transient burst**: `blob.put` / `blob.get` fail with seeded
//!    probability on every thread; commits must be untouched and
//!    provisioning may only fail with transient error classes.
//! 4. **Total outage**: the store rejects 100% of traffic. Commits keep
//!    acknowledging, provisioning pauses and then gives up `Unavailable`
//!    within its bounded budget, attached workspaces keep answering
//!    queries from local state.
//! 5. **Recovery**: with nothing fed, the cluster alone drains every
//!    backlog (the liveness oracle: logs shipped to their durable
//!    positions, no upload pending or pinned, health back to `Healthy`);
//!    provisioning resumes and succeeds, the whole fleet catches up to zero
//!    lag, and every workspace's per-partition engine state equals the
//!    primary's, which equals the drill's committed model.
//!
//! The trace records seed-determined decisions only. Whether the burst's
//! provision succeeds depends on how worker threads meet the injected
//! faults, and the commits that feed the breaker failures until it trips
//! run as often as that wait lasts: both are timed counters. Those commits
//! insert fresh keys outside the generated key range and draw nothing, so
//! the seeded transactions never see them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_blob::{FaultyStore, MemoryStore, ObjectStore, StoreHealth};
use s2_cluster::{Cluster, ClusterConfig, WorkspaceManager, WorkspaceManagerConfig};
use s2_common::Error;
use s2_core::Partition;

use crate::drill::{
    Agg::{Peak, Sum, TimedSum},
    Harness, Report,
};
use crate::kv::{self, engine_state, timed, wait_for, with_plan, MS};
use crate::oracle::Model;
use crate::plan::FaultPlan;

/// Database name used by every workspace drill.
const DB: &str = "sim_ws";

fn transient(e: &Error) -> bool {
    matches!(e, Error::Unavailable(_) | Error::NotFound(_) | Error::Io(_))
}

struct Fleet {
    cluster: Arc<Cluster>,
    mgr: WorkspaceManager,
    faulty: Arc<FaultyStore<MemoryStore>>,
    model: Model,
    key_space: i64,
    commits: u64,
    provisions: u64,
    detaches: u64,
    kills: u64,
    feed_commits: u64,
    /// Names the drill believes are attached (diffed against the registry).
    fleet: Vec<String>,
    next_ws: u64,
}

impl Fleet {
    /// One committed-and-acknowledged cluster transaction. Commit must
    /// succeed in every phase — that is the contract.
    fn commit(&mut self, rng: &mut StdRng) -> Result<(), String> {
        let mut txn = self.cluster.begin();
        let scratch = kv::gen_txn(rng, self.key_space, &self.model, &mut txn)?;
        txn.commit().map_err(|e| format!("commit failed: {e}"))?;
        self.model = scratch;
        self.commits += 1;
        Ok(())
    }

    /// One commit that gives the storage service chunks and data files to
    /// ship while the drill waits for the breaker to trip: an insert of a fresh key
    /// above the generator's `0..key_space`, so the seeded transactions draw
    /// the same however many of these run.
    fn feed(&mut self) -> Result<(), String> {
        let k = self.key_space + self.feed_commits as i64;
        let mut txn = self.cluster.begin();
        txn.insert("t", kv::row(k, 0)).map_err(|e| format!("feed insert({k}) failed: {e}"))?;
        txn.commit().map_err(|e| format!("feed commit failed: {e}"))?;
        self.model.insert(k, 0);
        self.feed_commits += 1;
        Ok(())
    }

    fn next_name(&mut self) -> String {
        self.next_ws += 1;
        format!("ws{}", self.next_ws - 1)
    }

    /// Registry-vs-model consistency: the manager tracks exactly the
    /// workspaces the drill believes are attached.
    fn check_registry(&self) -> Result<(), String> {
        let mut expect = self.fleet.clone();
        expect.sort();
        let got = self.mgr.names();
        if got != expect {
            return Err(format!("registry {got:?} diverged from fleet model {expect:?}"));
        }
        Ok(())
    }
}

/// The workspace drill.
pub fn workspace(seed: u64, h: &mut Harness) -> Result<Report, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x574f_524b_5350_4143);
    let key_space: i64 = rng.random_range(16..48);
    let partitions = rng.random_range(1..=2usize);

    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    let blob: Arc<dyn ObjectStore> = Arc::clone(&faulty) as Arc<dyn ObjectStore>;
    let cluster = Cluster::new(
        DB,
        ClusterConfig {
            partitions,
            ha_replicas: 0,
            sync_replication: true,
            blob: Some(blob),
            cache_bytes: kv::CACHE_BYTES,
            storage: kv::storage_config(&mut rng, 200..500),
            breaker: Some(kv::FAST_BREAKER),
        },
    )
    .map_err(|e| format!("cluster: {e}"))?;
    let (schema, options) = kv::table(&mut rng, 4..12, 4..16)?;
    cluster
        .create_table("t", schema, options.with_shard_key(vec![0]))
        .map_err(|e| format!("create_table: {e}"))?;
    let mgr = WorkspaceManager::new(
        &cluster,
        WorkspaceManagerConfig {
            cache_bytes: kv::CACHE_BYTES,
            read_budget: kv::READ_BUDGET,
            provision_wait: 250 * MS,
        },
    )
    .map_err(|e| format!("manager: {e}"))?;

    let mut d = Fleet {
        cluster,
        mgr,
        faulty,
        model: Model::new(),
        key_space,
        commits: 0,
        provisions: 0,
        detaches: 0,
        kills: 0,
        feed_commits: 0,
        fleet: Vec::new(),
        next_ws: 0,
    };

    // ---------------------------------------------------- phase 1: warmup
    let n_warm: u32 = rng.random_range(8..14);
    for i in 0..n_warm {
        d.commit(&mut rng)?;
        if i % 3 == 2 {
            d.cluster.flush_table("t").map_err(|e| format!("warmup flush: {e}"))?;
        }
    }
    d.cluster.sync_to_blob().map_err(|e| format!("warmup sync_to_blob: {e}"))?;
    h.trace.push(format!("phase:warmup commits={n_warm} partitions={partitions}"));

    // ------------------------------------- phase 2: churn with kill points
    let crash_p: f64 = rng.random_range(0.15..0.45);
    let n_churn: u32 = rng.random_range(8..14);
    let mut plan = FaultPlan::new(seed);
    plan.site("workspace.provision", 0.0, crash_p);
    plan.site("pitr.restore", 0.0, crash_p * 0.5);
    plan.site("workspace.detach", 0.0, crash_p);
    with_plan(plan, |_| {
        for _ in 0..n_churn {
            d.commit(&mut rng)?;
            if d.fleet.len() < 2 || rng.random_bool(0.6) {
                let name = d.next_name();
                match catch_unwind(AssertUnwindSafe(|| d.mgr.provision(&name))) {
                    Ok(Ok(_)) => {
                        d.provisions += 1;
                        d.fleet.push(name);
                    }
                    Ok(Err(e)) => return Err(format!("healthy provision {name} failed: {e}")),
                    // Killed mid-provision: must be all-or-nothing.
                    Err(_) if d.mgr.get(&name).is_some() => {
                        return Err(format!(
                            "workspace {name} attached despite a crash mid-provision"
                        ));
                    }
                    Err(_) => d.kills += 1,
                }
            } else {
                let idx = rng.random_range(0..d.fleet.len());
                let name = d.fleet[idx].clone();
                match catch_unwind(AssertUnwindSafe(|| d.mgr.detach(&name))) {
                    Ok(Ok(())) => {
                        d.detaches += 1;
                        d.fleet.remove(idx);
                    }
                    Ok(Err(e)) => return Err(format!("detach {name} failed: {e}")),
                    // Killed mid-detach: the workspace must still be
                    // attached and serving.
                    Err(_) if d.mgr.get(&name).is_none() => {
                        return Err(format!("workspace {name} vanished after a crash mid-detach"));
                    }
                    Err(_) => d.kills += 1,
                }
            }
            d.check_registry()?;
        }
        Ok(())
    })?;
    h.trace.push(format!(
        "phase:churn rounds={n_churn} crash_p={crash_p:.2} kills={} fleet={}",
        d.kills,
        d.fleet.len()
    ));

    // --------------------------------------- phase 3: transient burst
    let (plan, odds) = kv::burst_plan(seed.wrapping_add(1), &mut rng);
    let n_burst: u32 = rng.random_range(5..10);
    with_plan(plan, |_| {
        for _ in 0..n_burst {
            d.commit(&mut rng)
                .map_err(|e| format!("commit path touched faulted blob traffic: {e}"))?;
        }
        // Provisioning under transient faults: success or a transient error
        // class; anything else (or a hang) is a violation.
        let name = d.next_name();
        match d.mgr.provision(&name) {
            Ok(_) => {
                d.provisions += 1;
                d.fleet.push(name);
            }
            Err(e) if transient(&e) => {}
            Err(e) => return Err(format!("burst provision failed non-transiently: {e}")),
        }
        d.check_registry()
    })?;
    h.trace.push(format!("phase:burst commits={n_burst} {odds}"));

    // Make sure at least one workspace rides through the outage.
    if d.fleet.is_empty() {
        let name = d.next_name();
        d.mgr.provision(&name).map_err(|e| format!("pre-outage provision: {e}"))?;
        d.provisions += 1;
        d.fleet.push(name);
    }
    // Warm each workspace to parity so outage-time reads have local state.
    if !d.mgr.catch_up_all(Duration::from_secs(10)) {
        return Err("fleet failed to catch up before the outage".to_string());
    }

    // --------------------------------------- phase 4: total outage
    d.faulty.set_unavailable(true);
    let health = Arc::clone(d.cluster.blob_health().ok_or("cluster has no blob health")?);
    // The cluster's own storage ticks feed the breaker failures as long as
    // commits keep producing chunks to ship.
    wait_for("breaker never reached Outage during a 100% outage", 3000 * MS, 2 * MS, || {
        if health.health() == StoreHealth::Outage {
            return Ok(true);
        }
        d.feed().map_err(|e| format!("commit blocked during blob outage: {e}"))?;
        Ok(false)
    })
    .map_err(|e| format!("{e}, health {:?}", health.health()))?;

    // Provisioning pauses, then gives up Unavailable within its budget.
    let name = d.next_name();
    let (refused, waited) = timed(|| d.mgr.provision(&name));
    match refused {
        Err(Error::Unavailable(_)) => {}
        Err(e) => return Err(format!("outage provision failed with wrong class: {e}")),
        Ok(_) => return Err("provision succeeded against a dead blob store".to_string()),
    }
    if waited > 2000 * MS {
        return Err(format!("paused provision blocked {waited:?} (budget ~250ms)"));
    }
    if d.mgr.get(&name).is_some() {
        return Err(format!("refused workspace {name} left attached"));
    }

    // Attached workspaces keep serving reads from local state, and the
    // primary keeps acknowledging commits.
    let n_outage: u32 = rng.random_range(5..10);
    for _ in 0..n_outage {
        d.commit(&mut rng).map_err(|e| format!("commit path touched the dead blob store: {e}"))?;
    }
    for name in &d.fleet {
        let ws = d.mgr.get(name).ok_or_else(|| format!("{name} missing from registry"))?;
        for pid in 0..partitions {
            let t_id = table_id(&d.cluster.set(pid).master())?;
            engine_state(ws.replica_partition(pid), t_id)
                .map_err(|e| format!("workspace {name} stopped serving during outage: {e}"))?;
        }
    }
    h.trace.push(format!("phase:outage commits={n_outage} provision-paused"));

    // -------------------------------------------- phase 5: recovery
    d.faulty.set_unavailable(false);
    let sets = (0..partitions)
        .map(|pid| {
            let set = d.cluster.set(pid);
            let files = set.blob_files.clone().ok_or("cluster has no blob-backed file store")?;
            Ok((set.master(), files))
        })
        .collect::<Result<Vec<_>, String>>()?;
    kv::wait_live(5000 * MS, &health, &sets, || Ok(()))?;

    // Provisioning resumes: a post-recovery provision must succeed (the
    // breaker may still be probing shut — allow a bounded retry window).
    let name = d.next_name();
    let mut last = None;
    wait_for("provisioning never resumed after recovery", 5000 * MS, 10 * MS, || {
        match d.mgr.provision(&name) {
            Ok(_) => Ok(true),
            Err(e) if transient(&e) => {
                last = Some(e);
                Ok(false)
            }
            Err(e) => Err(format!("provisioning failed after recovery: {e}")),
        }
    })
    .map_err(|e| format!("{e}, last error: {last:?}"))?;
    d.provisions += 1;
    d.fleet.push(name);
    d.check_registry()?;

    // Convergence: zero lag, then every workspace's per-partition engine
    // state equals the primary's, and the primaries' union equals the model.
    if !d.mgr.catch_up_all(Duration::from_secs(10)) {
        return Err(format!(
            "fleet failed to catch up after recovery (max lag {} bytes)",
            d.mgr.max_lag_bytes()
        ));
    }
    let mut union = Model::new();
    for pid in 0..partitions {
        let master = d.cluster.set(pid).master();
        let t_id = table_id(&master)?;
        let (m_state, _) = engine_state(&master, t_id)?;
        for name in &d.fleet {
            let ws = d.mgr.get(name).ok_or_else(|| format!("{name} missing from registry"))?;
            let (w_state, _) = engine_state(ws.replica_partition(pid), t_id)?;
            if w_state != m_state {
                return Err(format!(
                    "workspace {name} diverged from primary on partition {pid}: \
                     {} keys vs {}",
                    w_state.len(),
                    m_state.len()
                ));
            }
        }
        union.extend(m_state);
    }
    if union != d.model {
        return Err(format!(
            "primaries diverged from committed model: {} keys vs {}",
            union.len(),
            d.model.len()
        ));
    }
    h.trace.push(format!("finale commits={} ok", d.commits));

    let fleet = d.fleet.len() as u64;
    d.mgr.detach_all();
    Ok(h.report(vec![
        ("commits", Sum, d.commits),
        ("breaker_feed_commits", TimedSum, d.feed_commits),
        ("provisions", TimedSum, d.provisions),
        ("detaches", Sum, d.detaches),
        ("kills", Sum, d.kills),
        ("fleet", Peak, fleet),
    ]))
}

fn table_id(master: &Arc<Partition>) -> Result<u32, String> {
    Ok(master.table_by_name("t").map_err(|e| format!("table lookup: {e}"))?.id)
}
