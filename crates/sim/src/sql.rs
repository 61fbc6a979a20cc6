//! Randomized SQL drill: generated queries against a seeded partition,
//! cross-checked against a plain-Rust oracle.
//!
//! Each drill builds a two-table partition (`t(k, grp, v, s)` joined to
//! `u(id, name)`) from the seed, mirrors every row into vectors, then runs a
//! batch of generated SELECTs through the full `s2-sql` pipeline (lex →
//! parse → plan → optimize → execute) and recomputes each result in plain
//! Rust. Any cell mismatch, row-count mismatch, or planner/executor error is
//! a violation with a replayable seed; the trace is the generated SQL.
//!
//! Query values stay small integers so `SUM`/`AVG` (f64 accumulators) are
//! exact and order-independent, and every generated query carries an ORDER
//! BY over a unique key so both sides agree on row order. Deterministic by
//! construction: no wall-clock reads, everything derives from the seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition};
use s2_sql::SqlContext;
use s2_wal::Log;

use crate::drill::{Agg::Sum, Harness, Report};

/// Per-drill oracle state: every row of both tables, in key order.
struct Data {
    /// `t` rows as (k, grp, v, s).
    t: Vec<(i64, i64, i64, &'static str)>,
    /// `u` rows as (id, name).
    u: Vec<(i64, String)>,
}

const STRINGS: &[&str] = &["amber", "blue", "green", "red", "violet"];

/// Build the seeded partition plus its oracle mirror.
fn build(seed: u64) -> Result<(Arc<Partition>, Data), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0501);
    let p = Partition::new("sql", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));

    let t_schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("grp", DataType::Int64),
        ColumnDef::new("v", DataType::Int64),
        ColumnDef::new("s", DataType::Str),
    ])
    .map_err(|e| e.to_string())?;
    let t_opts =
        TableOptions::new().with_sort_key(vec![0]).with_unique("pk", vec![0]).with_segment_rows(64);
    let t = p.create_table("t", t_schema, t_opts).map_err(|e| e.to_string())?;

    let u_schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("name", DataType::Str),
    ])
    .map_err(|e| e.to_string())?;
    let u_opts = TableOptions::new().with_sort_key(vec![0]).with_unique("pk", vec![0]);
    let u = p.create_table("u", u_schema, u_opts).map_err(|e| e.to_string())?;

    let groups = rng.random_range(3..10i64);
    let rows = rng.random_range(40..200usize);
    let mut data = Data { t: Vec::with_capacity(rows), u: Vec::new() };

    let mut txn = p.begin();
    for id in 0..groups {
        let name = format!("group-{id}");
        txn.insert(u, Row::new(vec![Value::Int(id), Value::str(name.clone())]))
            .map_err(|e| e.to_string())?;
        data.u.push((id, name));
    }
    for k in 0..rows as i64 {
        let grp = rng.random_range(0..groups);
        let v = rng.random_range(-100..100i64);
        let s = STRINGS[rng.random_range(0..STRINGS.len())];
        txn.insert(t, Row::new(vec![Value::Int(k), Value::Int(grp), Value::Int(v), Value::str(s)]))
            .map_err(|e| e.to_string())?;
        data.t.push((k, grp, v, s));
    }
    txn.commit().map_err(|e| e.to_string())?;

    // Sometimes flush to columnstore (and sometimes keep a rowstore tail) so
    // the generated queries cross both storage paths.
    if rng.random_bool(0.7) {
        p.flush_table(t, true).map_err(|e| e.to_string())?;
        p.flush_table(u, true).map_err(|e| e.to_string())?;
        if rng.random_bool(0.5) {
            let mut txn = p.begin();
            let extra = rng.random_range(5..30usize);
            for i in 0..extra as i64 {
                let k = rows as i64 + i;
                let grp = rng.random_range(0..groups);
                let v = rng.random_range(-100..100i64);
                let s = STRINGS[rng.random_range(0..STRINGS.len())];
                txn.insert(
                    t,
                    Row::new(vec![Value::Int(k), Value::Int(grp), Value::Int(v), Value::str(s)]),
                )
                .map_err(|e| e.to_string())?;
                data.t.push((k, grp, v, s));
            }
            txn.commit().map_err(|e| e.to_string())?;
        }
    }
    Ok((p, data))
}

/// One generated query: the SQL text plus the oracle's expected rows.
struct Case {
    sql: String,
    expect: Vec<Vec<Value>>,
}

fn sum_value(vals: &[i64]) -> Value {
    if vals.is_empty() {
        Value::Null
    } else {
        Value::Double(vals.iter().map(|&v| v as f64).sum())
    }
}

fn gen_case(rng: &mut StdRng, d: &Data) -> Case {
    match rng.random_range(0..9u32) {
        // Projection + conjunctive filter + sort direction + optional limit.
        0 => {
            let x = rng.random_range(-100..100i64);
            let y = rng.random_range(0..d.t.len() as i64 + 1);
            let desc = rng.random_bool(0.5);
            let limit =
                if rng.random_bool(0.5) { Some(rng.random_range(1..40usize)) } else { None };
            let mut rows: Vec<(i64, i64)> =
                d.t.iter().filter(|r| r.2 >= x && r.0 < y).map(|r| (r.0, r.2)).collect();
            rows.sort_by_key(|r| if desc { -r.0 } else { r.0 });
            if let Some(l) = limit {
                rows.truncate(l);
            }
            Case {
                sql: format!(
                    "SELECT k, v FROM t WHERE v >= {x} AND k < {y} ORDER BY k{}{}",
                    if desc { " DESC" } else { "" },
                    limit.map(|l| format!(" LIMIT {l}")).unwrap_or_default()
                ),
                expect: rows.into_iter().map(|(k, v)| vec![Value::Int(k), Value::Int(v)]).collect(),
            }
        }
        // Global aggregates over a (possibly empty) group slice.
        1 => {
            let g = rng.random_range(0..12i64);
            let vs: Vec<i64> = d.t.iter().filter(|r| r.1 == g).map(|r| r.2).collect();
            let min = vs.iter().min().map_or(Value::Null, |&v| Value::Int(v));
            let max = vs.iter().max().map_or(Value::Null, |&v| Value::Int(v));
            Case {
                sql: format!("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE grp = {g}"),
                expect: vec![vec![Value::Int(vs.len() as i64), sum_value(&vs), min, max]],
            }
        }
        // Group-by with count and sum, ordered by the group key.
        2 => {
            let mut gs: Vec<i64> = d.t.iter().map(|r| r.1).collect();
            gs.sort_unstable();
            gs.dedup();
            let expect = gs
                .into_iter()
                .map(|g| {
                    let vs: Vec<i64> = d.t.iter().filter(|r| r.1 == g).map(|r| r.2).collect();
                    vec![Value::Int(g), Value::Int(vs.len() as i64), sum_value(&vs)]
                })
                .collect();
            Case {
                sql: "SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp ORDER BY grp".into(),
                expect,
            }
        }
        // DISTINCT over the low-cardinality string column.
        3 => {
            let desc = rng.random_bool(0.5);
            let mut ss: Vec<&str> = d.t.iter().map(|r| r.3).collect();
            ss.sort_unstable();
            ss.dedup();
            if desc {
                ss.reverse();
            }
            Case {
                sql: format!(
                    "SELECT DISTINCT s FROM t ORDER BY s{}",
                    if desc { " DESC" } else { "" }
                ),
                expect: ss.into_iter().map(|s| vec![Value::str(s)]).collect(),
            }
        }
        // Join to the dimension table through the group key.
        4 => {
            let x = rng.random_range(-100..100i64);
            let mut rows: Vec<(i64, String)> =
                d.t.iter()
                    .filter(|r| r.2 > x)
                    .filter_map(|r| {
                        d.u.iter().find(|(id, _)| *id == r.1).map(|(_, n)| (r.0, n.clone()))
                    })
                    .collect();
            rows.sort_by_key(|r| r.0);
            Case {
                sql: format!("SELECT k, name FROM t JOIN u ON grp = id WHERE v > {x} ORDER BY k"),
                expect: rows.into_iter().map(|(k, n)| vec![Value::Int(k), Value::str(n)]).collect(),
            }
        }
        // HAVING over the grouped count.
        5 => {
            let h = rng.random_range(0..40i64);
            let mut gs: Vec<i64> = d.t.iter().map(|r| r.1).collect();
            gs.sort_unstable();
            gs.dedup();
            let expect = gs
                .into_iter()
                .filter_map(|g| {
                    let n = d.t.iter().filter(|r| r.1 == g).count() as i64;
                    (n > h).then(|| vec![Value::Int(g), Value::Int(n)])
                })
                .collect();
            Case {
                sql: format!(
                    "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING COUNT(*) > {h} \
                     ORDER BY grp"
                ),
                expect,
            }
        }
        // A join under a cross-table OR: each side gets the filter the OR
        // implies for it (`v > x OR v < y` on t, a name IN list on u).
        6 => {
            let (x, y) = (rng.random_range(-100..100i64), rng.random_range(-100..100i64));
            let (a, b) = (rng.random_range(0..10i64), rng.random_range(0..10i64));
            let (name_a, name_b) = (format!("group-{a}"), format!("group-{b}"));
            let rows: Vec<(i64, String)> =
                d.t.iter()
                    .filter_map(|r| {
                        let (_, n) = d.u.iter().find(|(id, _)| *id == r.1)?;
                        ((r.2 > x && *n == name_a) || (r.2 < y && *n == name_b))
                            .then(|| (r.0, n.clone()))
                    })
                    .collect();
            Case {
                sql: format!(
                    "SELECT k, name FROM t JOIN u ON grp = id \
                     WHERE (v > {x} AND name = '{name_a}') OR (v < {y} AND name = '{name_b}') \
                     ORDER BY k"
                ),
                expect: rows.into_iter().map(|(k, n)| vec![Value::Int(k), Value::str(n)]).collect(),
            }
        }
        // The LEFT JOIN form: only the preserved side t gets a derived
        // filter; `name IS NULL` keeps the rows with no group below g.
        7 => {
            let (x, y) = (rng.random_range(-100..100i64), rng.random_range(-100..100i64));
            let (a, g) = (rng.random_range(0..10i64), rng.random_range(0..10i64));
            let name_a = format!("group-{a}");
            let rows: Vec<(i64, Option<String>)> =
                d.t.iter()
                    .filter_map(|r| {
                        let n = d.u.iter().find(|(id, _)| *id == r.1 && *id < g).map(|(_, n)| n);
                        let keep = (r.2 > x && n == Some(&name_a)) || (r.2 < y && n.is_none());
                        keep.then(|| (r.0, n.cloned()))
                    })
                    .collect();
            Case {
                sql: format!(
                    "SELECT k, name FROM t LEFT JOIN u ON grp = id AND id < {g} \
                     WHERE (v > {x} AND name = '{name_a}') OR (v < {y} AND name IS NULL) \
                     ORDER BY k"
                ),
                expect: rows
                    .into_iter()
                    .map(|(k, n)| vec![Value::Int(k), n.map_or(Value::Null, Value::str)])
                    .collect(),
            }
        }
        // CASE expression in the projection.
        _ => {
            let lim = rng.random_range(5..60usize);
            let mut rows: Vec<(i64, i64)> =
                d.t.iter().map(|r| (r.0, i64::from(r.2 >= 0))).collect();
            rows.sort_by_key(|r| r.0);
            rows.truncate(lim);
            Case {
                sql: format!(
                    "SELECT k, CASE WHEN v >= 0 THEN 1 ELSE 0 END FROM t \
                     ORDER BY k LIMIT {lim}"
                ),
                expect: rows.into_iter().map(|(k, f)| vec![Value::Int(k), Value::Int(f)]).collect(),
            }
        }
    }
}

const QUERIES_PER_DRILL: usize = 24;

/// The SQL drill: each generated query joins the trace before it runs.
pub fn sql(seed: u64, h: &mut Harness) -> Result<Report, String> {
    let (p, data) = build(seed).map_err(|e| format!("setup failed: {e}"))?;
    let snap = p.read_snapshot();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DDC_A5E0);
    let mut rows_checked = 0u64;
    for qi in 0..QUERIES_PER_DRILL {
        let case = gen_case(&mut rng, &data);
        h.trace.push(format!("query {qi}: {}", case.sql));
        let got =
            snap.query(&case.sql).map_err(|e| format!("query {qi} failed to plan/execute: {e}"))?;
        if got.rows() != case.expect.len() {
            return Err(format!(
                "query {qi}: {} rows, oracle expects {} (first expected rows: {:?})",
                got.rows(),
                case.expect.len(),
                case.expect.iter().take(3).collect::<Vec<_>>()
            ));
        }
        for (ri, want) in case.expect.iter().enumerate() {
            if got.width() != want.len() {
                return Err(format!("query {qi}: width {} vs oracle {}", got.width(), want.len()));
            }
            for (ci, w) in want.iter().enumerate() {
                let g = got.value(ci, ri);
                if g != *w {
                    return Err(format!(
                        "query {qi}: cell ({ri},{ci}) = {g:?}, oracle expects {w:?} \
                         (expected row: {want:?})"
                    ));
                }
            }
            rows_checked += 1;
        }
    }
    Ok(h.report(vec![
        ("queries", Sum, QUERIES_PER_DRILL as u64),
        ("rows_checked", Sum, rows_checked),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drill::{drill, sweep};

    #[test]
    fn ten_seeds_zero_violations() {
        let summary = sweep(drill("sql").expect("sql drill"), 42, 10, false);
        assert!(summary.failures.is_empty(), "{:?}", summary.failures);
        assert_eq!(summary.get("queries"), 10 * QUERIES_PER_DRILL as u64);
        assert!(summary.get("rows_checked") > 0);
    }
}
