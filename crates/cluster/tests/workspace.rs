//! Workspace fleet tests (paper §3.2): local attach (no blob store),
//! DDL-vs-provisioning races, concurrent fleet lifecycle under live writes,
//! and degraded-mode behaviour across a blob outage.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use s2_blob::{BreakerConfig, FaultyStore, MemoryStore, ObjectStore, StoreHealth};
use s2_cluster::{
    Cluster, ClusterConfig, StorageConfig, Workspace, WorkspaceManager, WorkspaceManagerConfig,
};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_exec::{AggFunc, Aggregate, Expr};
use s2_query::{ExecOptions, Plan};

fn account_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("branch", DataType::Int64),
        ColumnDef::new("balance", DataType::Double),
    ])
    .unwrap()
}

fn account_options() -> TableOptions {
    TableOptions::new()
        .with_sort_key(vec![0])
        .with_shard_key(vec![0])
        .with_unique("pk", vec![0])
        .with_index("by_branch", vec![1])
        .with_flush_threshold(64)
        .with_segment_rows(256)
}

fn accounts(from: i64, to: i64) -> Vec<Row> {
    (from..to)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 10), Value::Double(100.0)]))
        .collect()
}

fn fast_breaker() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 3,
        open_cooldown: Duration::from_millis(20),
        max_cooldown: Duration::from_millis(100),
        probe_successes: 1,
        degraded_window: Duration::from_millis(150),
    }
}

fn test_cluster(
    blob: Option<Arc<dyn ObjectStore>>,
    breaker: Option<BreakerConfig>,
) -> Arc<Cluster> {
    Cluster::new(
        "wsdb",
        ClusterConfig {
            partitions: 2,
            ha_replicas: 0,
            sync_replication: true,
            blob,
            cache_bytes: 32 * 1024 * 1024,
            storage: StorageConfig {
                tick: Duration::from_millis(5),
                snapshot_interval_bytes: 64 * 1024,
                ..Default::default()
            },
            breaker,
        },
    )
    .unwrap()
}

fn count_plan() -> Plan {
    Plan::scan("accounts", vec![2], None).aggregate(
        vec![],
        vec![Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) }],
    )
}

fn ws_count(ws: &Workspace) -> i64 {
    match ws.execute(&count_plan(), &ExecOptions::default()).unwrap().value(0, 0) {
        Value::Int(n) => n,
        other => panic!("count returned {other:?}"),
    }
}

fn seed_accounts(cluster: &Arc<Cluster>, n: i64) {
    cluster.create_table("accounts", account_schema(), account_options()).unwrap();
    let mut txn = cluster.begin();
    for row in accounts(0, n) {
        txn.insert("accounts", row).unwrap();
    }
    txn.commit().unwrap();
}

/// `attach_local` streams the full history from the primaries — no blob
/// store anywhere — and converges to zero lag, answering the same queries
/// as the cluster itself.
#[test]
fn attach_local_streams_full_history() {
    let cluster = test_cluster(None, None);
    seed_accounts(&cluster, 300);
    cluster.flush_table("accounts").unwrap();

    let ws = Workspace::attach_local("local", &cluster).unwrap();
    assert!(ws.catch_up(Duration::from_secs(5)));
    assert_eq!(ws.max_lag_bytes(), 0);
    assert_eq!(ws_count(&ws), 300);

    // Lag converges again after more primary writes, including updates that
    // turn into move transactions against flushed segments.
    let mut txn = cluster.begin();
    for row in accounts(300, 360) {
        txn.insert("accounts", row).unwrap();
    }
    for id in 0..20 {
        txn.delete_unique("accounts", &[Value::Int(id)]).unwrap();
    }
    txn.commit().unwrap();
    assert!(ws.catch_up(Duration::from_secs(5)));
    assert_eq!(ws.max_lag_bytes(), 0);
    assert_eq!(ws_count(&ws), 340);
    assert_eq!(cluster.row_count("accounts").unwrap(), 340);
}

/// The blob-restore path and the local full-history path land on the same
/// queryable state.
#[test]
fn attach_local_matches_blob_provisioned_workspace() {
    let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let cluster = test_cluster(Some(Arc::clone(&blob)), None);
    seed_accounts(&cluster, 250);
    cluster.flush_table("accounts").unwrap();
    cluster.sync_to_blob().unwrap();

    let from_blob = Workspace::provision("blobws", &cluster, &blob, 8 * 1024 * 1024).unwrap();
    let local = Workspace::attach_local("localws", &cluster).unwrap();
    assert!(from_blob.catch_up(Duration::from_secs(5)));
    assert!(local.catch_up(Duration::from_secs(5)));

    let sum = Plan::scan("accounts", vec![2], None)
        .aggregate(vec![], vec![Aggregate { func: AggFunc::Sum, input: Expr::Column(0) }]);
    let a = from_blob.execute(&sum, &ExecOptions::default()).unwrap();
    let b = local.execute(&sum, &ExecOptions::default()).unwrap();
    let c = cluster.execute(&sum, &ExecOptions::default()).unwrap();
    assert_eq!(a.value(0, 0), c.value(0, 0));
    assert_eq!(b.value(0, 0), c.value(0, 0));
}

/// Regression: a workspace racing CREATE TABLE must never error out of
/// `context()` — a table whose DDL hasn't replicated to every partition yet
/// is skipped, then shows up once replication catches up.
#[test]
fn context_never_errors_racing_create_table() {
    let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let cluster = test_cluster(Some(Arc::clone(&blob)), None);
    seed_accounts(&cluster, 50);
    cluster.sync_to_blob().unwrap();
    let ws = Workspace::provision("racer", &cluster, &blob, 8 * 1024 * 1024).unwrap();
    assert!(ws.catch_up(Duration::from_secs(5)));

    let stop = Arc::new(AtomicBool::new(false));
    let ddl_cluster = Arc::clone(&cluster);
    let ddl_stop = Arc::clone(&stop);
    let ddl = std::thread::spawn(move || {
        for i in 0..12 {
            ddl_cluster
                .create_table(
                    format!("extra_{i}"),
                    Schema::new(vec![ColumnDef::new("x", DataType::Int64)]).unwrap(),
                    TableOptions::new().with_shard_key(vec![0]).with_unique("pk", vec![0]),
                )
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        ddl_stop.store(true, Ordering::Release);
    });
    // Hammer context() through the whole DDL storm: stale catalogs are
    // fine, errors are not.
    while !stop.load(Ordering::Acquire) {
        ws.context().unwrap();
    }
    ddl.join().unwrap();

    // Once replication catches up the new tables are all queryable.
    assert!(ws.catch_up(Duration::from_secs(5)));
    let names = ws.context().unwrap().table_names();
    for i in 0..12 {
        assert!(names.contains(&format!("extra_{i}")), "extra_{i} missing from workspace context");
    }
}

/// Fleet lifecycle under live writes: concurrent provisioning, duplicate
/// rejection, catch-up, per-workspace query parity and detach.
#[test]
fn manager_fleet_under_live_writes() {
    let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let cluster = test_cluster(Some(Arc::clone(&blob)), None);
    seed_accounts(&cluster, 200);
    cluster.flush_table("accounts").unwrap();
    cluster.sync_to_blob().unwrap();

    let before = s2_obs::global().snapshot();
    let mgr = WorkspaceManager::new(
        &cluster,
        WorkspaceManagerConfig {
            cache_bytes: 8 * 1024 * 1024,
            read_budget: Duration::from_secs(2),
            provision_wait: Duration::from_secs(2),
        },
    )
    .unwrap();

    // Writer thread keeps committing while the fleet provisions.
    let stop = Arc::new(AtomicBool::new(false));
    let wc = Arc::clone(&cluster);
    let ws_stop = Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut next = 200i64;
        while !ws_stop.load(Ordering::Acquire) {
            let mut txn = wc.begin();
            for row in accounts(next, next + 10) {
                txn.insert("accounts", row).unwrap();
            }
            txn.commit().unwrap();
            next += 10;
            std::thread::sleep(Duration::from_millis(1));
        }
        next
    });

    let names: Vec<String> = (0..4).map(|i| format!("w{i}")).collect();
    let results = mgr.provision_many(&names);
    for (name, res) in &results {
        assert!(res.is_ok(), "provision {name}: {:?}", res.as_ref().err());
    }
    assert_eq!(mgr.active(), 4);
    assert_eq!(mgr.names(), names);

    // Duplicate names are rejected.
    assert!(matches!(mgr.provision("w0"), Err(s2_common::Error::InvalidArgument(_))));

    stop.store(true, Ordering::Release);
    let total = writer.join().unwrap();
    assert!(mgr.catch_up_all(Duration::from_secs(10)));
    assert_eq!(mgr.max_lag_bytes(), 0);
    for name in &names {
        let ws = mgr.get(name).unwrap();
        assert_eq!(ws_count(&ws), total, "workspace {name} diverged from primary");
    }

    // Detach: removed from the registry, double-detach is NotFound.
    mgr.detach("w1").unwrap();
    assert_eq!(mgr.active(), 3);
    assert!(mgr.get("w1").is_none());
    assert!(matches!(mgr.detach("w1"), Err(s2_common::Error::NotFound(_))));
    mgr.detach_all();
    assert_eq!(mgr.active(), 0);

    // Telemetry moved (delta-checked: the obs registry is process-global).
    let after = s2_obs::global().snapshot();
    assert!(after.counter("workspace.provisions") >= before.counter("workspace.provisions") + 4);
    assert!(after.counter("workspace.detaches") >= before.counter("workspace.detaches") + 4);
    let hist_before = before.histogram("workspace.provision_ms").map_or(0, |h| h.count);
    let hist_after = after.histogram("workspace.provision_ms").map_or(0, |h| h.count);
    assert!(hist_after >= hist_before + 4, "provision_ms histogram not recorded");
}

/// Degraded mode: a total blob outage pauses provisioning (bounded wait →
/// `Unavailable`), already-attached workspaces keep serving reads, and
/// provisioning resumes the moment the breaker recovers.
#[test]
fn manager_pauses_during_outage_and_resumes() {
    let faulty = Arc::new(FaultyStore::new(MemoryStore::new(), Duration::ZERO, Duration::ZERO));
    let blob: Arc<dyn ObjectStore> = Arc::new(SharedFaulty(Arc::clone(&faulty)));
    let cluster = test_cluster(Some(blob), Some(fast_breaker()));
    seed_accounts(&cluster, 100);
    cluster.flush_table("accounts").unwrap();
    cluster.sync_to_blob().unwrap();

    let mgr = WorkspaceManager::new(
        &cluster,
        WorkspaceManagerConfig {
            cache_bytes: 8 * 1024 * 1024,
            read_budget: Duration::from_millis(200),
            provision_wait: Duration::from_millis(300),
        },
    )
    .unwrap();
    let ws = mgr.provision("survivor").unwrap();
    assert!(ws.catch_up(Duration::from_secs(5)));
    assert_eq!(ws_count(&ws), 100); // warm the data-file cache

    // Take the store down and keep committing until the breaker trips.
    faulty.set_unavailable(true);
    let health = cluster.blob_health().unwrap();
    let mut next = 100i64;
    for _ in 0..400 {
        if health.health() == StoreHealth::Outage {
            break;
        }
        let mut txn = cluster.begin();
        for row in accounts(next, next + 5) {
            txn.insert("accounts", row).unwrap();
        }
        txn.commit().unwrap();
        next += 5;
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(health.health(), StoreHealth::Outage, "breaker never tripped");

    // Provisioning pauses, then gives up with Unavailable after its budget.
    let before_pauses = s2_obs::global().snapshot().counter("workspace.provision_pauses");
    assert!(matches!(mgr.provision("blocked"), Err(s2_common::Error::Unavailable(_))));
    assert!(s2_obs::global().snapshot().counter("workspace.provision_pauses") > before_pauses);
    assert!(mgr.get("blocked").is_none());

    // The attached workspace still serves reads from its cache, and keeps
    // replicating the primary's tail (replication is not on the blob path).
    let committed = next;
    assert!(ws.catch_up(Duration::from_secs(5)));
    assert_eq!(ws_count(&ws), committed);

    // Recovery: a provision already paused on the outage resumes on its own
    // the moment the store comes back.
    let slow_cluster = Arc::clone(&cluster);
    let paused = std::thread::spawn(move || {
        // Longer budget than the outage lasts: this one must succeed.
        let slow = WorkspaceManager::new(
            &slow_cluster,
            WorkspaceManagerConfig {
                cache_bytes: 8 * 1024 * 1024,
                provision_wait: Duration::from_secs(10),
                ..Default::default()
            },
        )
        .unwrap();
        slow.provision("resumed").map(|_| ())
    });
    std::thread::sleep(Duration::from_millis(100));
    // Nothing else happens after the store heals: the cluster's own
    // shipping ticks probe the breaker shut.
    faulty.set_unavailable(false);
    paused.join().unwrap().unwrap();
    assert_ne!(health.health(), StoreHealth::Outage, "breaker never recovered");

    mgr.detach_all();
}

/// Newtype so an `Arc<FaultyStore<_>>` can be shared as `Arc<dyn ObjectStore>`
/// while the test keeps a typed handle for fault injection.
struct SharedFaulty(Arc<FaultyStore<MemoryStore>>);

impl ObjectStore for SharedFaulty {
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> s2_common::Result<()> {
        self.0.put(key, bytes)
    }
    fn get(&self, key: &str) -> s2_common::Result<Arc<Vec<u8>>> {
        self.0.get(key)
    }
    fn list(&self, prefix: &str) -> s2_common::Result<Vec<String>> {
        self.0.list(prefix)
    }
    fn delete(&self, key: &str) -> s2_common::Result<()> {
        self.0.delete(key)
    }
}
