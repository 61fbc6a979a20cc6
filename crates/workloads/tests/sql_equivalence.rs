//! The SQL front end must be a faithful surface over the plan API: every
//! TPC-H and CH query's SQL-text form, planned by `s2-sql`, returns
//! **byte-identical** results to the hand-built plan from `queries.rs` /
//! `ch.rs` — same rows, same order, same formatting.

use std::sync::Arc;

use s2_cluster::{Cluster, ClusterConfig};
use s2_exec::Batch;
use s2_query::{format_batch, ExecOptions};
use s2_workloads::tpcc;
use s2_workloads::tpch;
use s2_workloads::tpch::load::ClusterRunner;
use s2_workloads::tpch::queries::run_query;
use s2_workloads::tpch::sql::run_query_sql;

fn small_cluster() -> Arc<Cluster> {
    Cluster::new(
        "test",
        ClusterConfig {
            partitions: 2,
            ha_replicas: 0,
            sync_replication: false,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Render a batch with positional headers so two batches compare as bytes.
fn bytes_of(b: &Batch) -> String {
    let headers: Vec<String> = (0..b.width()).map(|i| format!("c{i}")).collect();
    let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    format_batch(b, &refs)
}

#[test]
fn tpch_sql_forms_match_hand_built_plans_byte_for_byte() {
    let data = tpch::generate(0.002, 4242);
    let cluster = small_cluster();
    tpch::load::load_cluster(&cluster, &data).unwrap();
    let runner = ClusterRunner { cluster: &cluster, opts: ExecOptions::default() };
    let ctx = cluster.context().unwrap();

    for q in 1..=22 {
        let hand = run_query(q, &runner).unwrap_or_else(|e| panic!("q{q} hand plan: {e}"));
        let sql = run_query_sql(q, &ctx).unwrap_or_else(|e| panic!("q{q} sql form: {e}"));
        assert_eq!(hand.width(), sql.width(), "q{q}: output width");
        assert_eq!(hand.rows(), sql.rows(), "q{q}: row count");
        assert_eq!(bytes_of(&hand), bytes_of(&sql), "q{q}: byte-identical output");
    }
}

#[test]
fn ch_sql_forms_match_hand_built_plans_byte_for_byte() {
    let cluster = small_cluster();
    let scale = tpcc::TpccScale::tiny(2);
    tpcc::backend::load_cluster(&cluster, &scale, 21).unwrap();
    let opts = ExecOptions::default();
    let ctx = cluster.context().unwrap();

    let hand: Vec<_> = s2_workloads::ch::queries();
    let sql: Vec<_> = s2_workloads::ch::queries_sql();
    assert_eq!(hand.len(), sql.len(), "one SQL form per hand-built CH query");
    for ((name, plan), (sql_name, text)) in hand.iter().zip(&sql) {
        assert_eq!(name, sql_name, "query sets paired by name");
        let a = cluster.execute(plan, &opts).unwrap_or_else(|e| panic!("{name} hand: {e}"));
        let b = s2_sql::query(&ctx, text).unwrap_or_else(|e| panic!("{name} sql: {e}"));
        assert_eq!(a.width(), b.width(), "{name}: output width");
        assert_eq!(bytes_of(&a), bytes_of(&b), "{name}: byte-identical output");
    }
}

#[test]
fn tpch_sql_explains_show_pushdown_and_cost_annotations() {
    let data = tpch::generate(0.002, 7);
    let cluster = small_cluster();
    tpch::load::load_cluster(&cluster, &data).unwrap();
    let ctx = cluster.context().unwrap();

    // Q6: every WHERE conjunct lands in the lineitem scan, ranked by
    // (1 - P)/cost with the visible rank annotation.
    let tpch::sql::SqlForm::Single(q6) = tpch::sql::query_sql(6).unwrap() else {
        panic!("q6 is single-statement")
    };
    let text = s2_sql::explain(&ctx, q6).unwrap();
    assert!(text.contains("Scan lineitem"), "{text}");
    assert!(text.contains("rank="), "{text}");
    assert!(!text.contains("Filter "), "no post-scan filter survives for Q6:\n{text}");

    // Q3: explicit joins keep the written build order and show key columns.
    let tpch::sql::SqlForm::Single(q3) = tpch::sql::query_sql(3).unwrap() else {
        panic!("q3 is single-statement")
    };
    let text = s2_sql::explain(&ctx, q3).unwrap();
    assert!(text.contains("HashJoin Inner"), "{text}");
    assert!(text.contains("Scan customer"), "{text}");
    assert!(text.contains("est="), "{text}");

    // Q7: the post-join nation OR implies each alias's own IN list, so both
    // nation scans filter before the joins; the OR itself stays above them.
    let tpch::sql::SqlForm::Single(q7) = tpch::sql::query_sql(7).unwrap() else {
        panic!("q7 is single-statement")
    };
    let text = s2_sql::explain(&ctx, q7).unwrap();
    // (members in the order the disjuncts name them: n1 FRANCE first, n2
    // GERMANY first)
    for nation_in in [
        "filter (#1 IN (Str(\"FRANCE\"), Str(\"GERMANY\")))",
        "filter (#1 IN (Str(\"GERMANY\"), Str(\"FRANCE\")))",
    ] {
        assert_eq!(text.matches(nation_in).count(), 1, "{nation_in}:\n{text}");
    }
    assert!(text.contains("Filter (("), "the OR stays a post-join filter:\n{text}");

    // Q19: the three-way OR gives `part` the OR of its three conjunctions
    // and `lineitem` the OR of its three `l_quantity` ranges.
    let tpch::sql::SqlForm::Single(q19) = tpch::sql::query_sql(19).unwrap() else {
        panic!("q19 is single-statement")
    };
    let text = s2_sql::explain(&ctx, q19).unwrap();
    let part = text.split("Scan part").nth(1).unwrap_or_else(|| panic!("part scan:\n{text}"));
    assert!(
        part.contains(
            "filter (((#3 = Str(\"Brand#12\")) AND (#6 IN (Str(\"SM CASE\"), Str(\"SM BOX\"), \
             Str(\"SM PACK\"), Str(\"SM PKG\"))) AND (#5 >= Int(1)) AND (#5 <= Int(5))) OR"
        ),
        "part carries its derived OR:\n{text}"
    );
    assert_eq!(part.matches("Brand#").count(), 3, "one part per disjunct:\n{text}");
    let lineitem = text.split("Scan lineitem").nth(1).expect("lineitem scan");
    let lineitem = lineitem.split("Scan part").next().expect("lineitem filters");
    assert!(
        lineitem.contains(
            "filter (((#4 >= Double(1.0)) AND (#4 <= Double(11.0))) OR \
             ((#4 >= Double(10.0)) AND (#4 <= Double(20.0))) OR \
             ((#4 >= Double(20.0)) AND (#4 <= Double(30.0))))"
        ),
        "lineitem carries its l_quantity ranges:\n{text}"
    );
    assert!(text.contains("Filter (((#5 = Str(\"Brand#12\"))"), "the OR stays:\n{text}");
}
