//! Workspace fleet lifecycle (paper §3.2): provision and detach read-only
//! workspaces — many at a time, under live write traffic — with the blob
//! breaker governing the whole arc.
//!
//! Degraded-mode policy: while the shared [`BlobHealth`] reports an outage,
//! *new* provisioning pauses (and resumes when the store recovers, or fails
//! with `Unavailable` after a bounded wait) while *attached* workspaces keep
//! serving reads from their local caches and retrying tail replication —
//! they degrade to growing lag, never to errors.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use s2_blob::{ObjectStore, StoreHealth};
use s2_common::sync::{rank, Mutex};
use s2_common::{Error, Result};

use crate::cluster::Cluster;
use crate::workspace::Workspace;

/// Tuning for a workspace fleet.
#[derive(Debug, Clone)]
pub struct WorkspaceManagerConfig {
    /// Local data-file cache per workspace partition.
    pub cache_bytes: usize,
    /// Cold-read deadline budget for workspace file stores.
    pub read_budget: Duration,
    /// How long `provision` waits out a blob outage before giving up with
    /// `Unavailable`.
    pub provision_wait: Duration,
}

impl Default for WorkspaceManagerConfig {
    fn default() -> Self {
        WorkspaceManagerConfig {
            cache_bytes: 64 * 1024 * 1024,
            read_budget: Duration::from_secs(2),
            provision_wait: Duration::from_secs(10),
        }
    }
}

/// Provisions, tracks and detaches a fleet of named workspaces over one
/// cluster. All methods are callable concurrently; the heavy work of
/// provisioning runs outside the registry lock.
pub struct WorkspaceManager {
    cluster: Arc<Cluster>,
    blob: Arc<dyn ObjectStore>,
    cfg: WorkspaceManagerConfig,
    workspaces: Mutex<HashMap<String, Arc<Workspace>>>,
}

impl WorkspaceManager {
    /// Create a manager over `cluster`. The cluster must run separated
    /// storage (workspaces are provisioned from its blob store).
    pub fn new(cluster: &Arc<Cluster>, cfg: WorkspaceManagerConfig) -> Result<WorkspaceManager> {
        let blob = cluster
            .blob_store()
            .ok_or_else(|| {
                Error::InvalidArgument("workspace manager needs a cluster with blob storage".into())
            })?
            .clone();
        Ok(WorkspaceManager {
            cluster: Arc::clone(cluster),
            blob,
            cfg,
            workspaces: Mutex::new(&rank::CLUSTER_WORKSPACES, HashMap::new()),
        })
    }

    /// Provision and attach one workspace. During a blob outage this pauses
    /// (breaker-gated) and resumes when the store recovers; after
    /// `provision_wait` it gives up with `Unavailable`. Duplicate names are
    /// rejected.
    pub fn provision(&self, name: &str) -> Result<Arc<Workspace>> {
        if self.workspaces.lock().contains_key(name) {
            return Err(Error::InvalidArgument(format!("workspace {name:?} already attached")));
        }
        self.wait_provisionable()?;
        let start = std::time::Instant::now();
        let ws = Arc::new(Workspace::provision_with_tuning(
            name,
            &self.cluster,
            &self.blob,
            self.cfg.cache_bytes,
            self.cfg.read_budget,
        )?);
        s2_obs::histogram!("workspace.provision_ms").record(start.elapsed().as_millis() as u64);
        let active = {
            let mut map = self.workspaces.lock();
            if map.contains_key(name) {
                return Err(Error::InvalidArgument(format!("workspace {name:?} already attached")));
            }
            map.insert(name.to_string(), Arc::clone(&ws));
            map.len()
        };
        s2_obs::gauge!("workspace.active").set(active as i64);
        s2_obs::counter!("workspace.provisions").inc();
        s2_obs::event("workspace.provisioned", format!("{name} ({active} active)"));
        Ok(ws)
    }

    /// Provision several workspaces concurrently (one thread each; the
    /// per-workspace restore work is already fan-in from blob storage).
    pub fn provision_many(&self, names: &[String]) -> Vec<(String, Result<Arc<Workspace>>)> {
        std::thread::scope(|s| {
            let handles: Vec<_> =
                names.iter().map(|n| s.spawn(move || (n.clone(), self.provision(n)))).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }

    /// Block while the blob breaker reports a full outage. Returns `Ok` the
    /// moment the store is usable again, `Unavailable` after the configured
    /// wait: degraded mode pauses provisioning rather than erroring out.
    fn wait_provisionable(&self) -> Result<()> {
        let Some(health) = self.cluster.blob_health() else {
            return Ok(());
        };
        if health.health() != StoreHealth::Outage {
            return Ok(());
        }
        s2_obs::counter!("workspace.provision_pauses").inc();
        s2_obs::event("workspace.provision_pause", "blob outage: provisioning paused".to_string());
        let deadline = std::time::Instant::now() + self.cfg.provision_wait;
        loop {
            if health.health() != StoreHealth::Outage {
                s2_obs::event(
                    "workspace.provision_resume",
                    "blob store recovered: provisioning resumed".to_string(),
                );
                return Ok(());
            }
            if std::time::Instant::now() >= deadline {
                return Err(Error::Unavailable(
                    "blob outage: workspace provisioning paused past its wait budget".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Detach a workspace: removes it from the registry and stops its
    /// replication threads. All-or-nothing — a crash at the kill point
    /// leaves the workspace attached and serving.
    pub fn detach(&self, name: &str) -> Result<()> {
        s2_common::fault::crash_point("workspace.detach");
        let (ws, active) = {
            let mut map = self.workspaces.lock();
            let ws =
                map.remove(name).ok_or_else(|| Error::NotFound(format!("workspace {name:?}")))?;
            (ws, map.len())
        };
        s2_obs::gauge!("workspace.active").set(active as i64);
        s2_obs::counter!("workspace.detaches").inc();
        s2_obs::event("workspace.detached", format!("{name} ({active} active)"));
        // Dropped outside the registry lock: the drop joins apply threads.
        drop(ws);
        Ok(())
    }

    /// Detach every workspace.
    pub fn detach_all(&self) {
        for name in self.names() {
            let _ = self.detach(&name);
        }
    }

    /// Look up an attached workspace.
    pub fn get(&self, name: &str) -> Option<Arc<Workspace>> {
        self.workspaces.lock().get(name).cloned()
    }

    /// Names of attached workspaces (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.workspaces.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of attached workspaces.
    pub fn active(&self) -> usize {
        self.workspaces.lock().len()
    }

    /// Max tail-replication lag in log bytes across the fleet (also
    /// published as the `workspace.lag_bytes` gauge).
    pub fn max_lag_bytes(&self) -> u64 {
        let fleet: Vec<Arc<Workspace>> = self.workspaces.lock().values().cloned().collect();
        let lag = fleet.iter().map(|ws| ws.max_lag_bytes()).max().unwrap_or(0);
        s2_obs::gauge!("workspace.lag_bytes").set(lag as i64);
        lag
    }

    /// Wait until every attached workspace has zero lag against the
    /// masters' current positions.
    pub fn catch_up_all(&self, timeout: Duration) -> bool {
        let fleet: Vec<Arc<Workspace>> = self.workspaces.lock().values().cloned().collect();
        let deadline = std::time::Instant::now() + timeout;
        let mut ok = true;
        for ws in fleet {
            let now = std::time::Instant::now();
            let left = deadline.saturating_duration_since(now);
            ok &= ws.catch_up(left);
        }
        self.max_lag_bytes();
        ok
    }
}
