//! Filters implied by a cross-table OR against a reference the rewrite does
//! not look into: random 2–3-table Inner and Left joins over rowstore and
//! flushed rows, with NULLs and empty sides, under random OR-of-AND WHERE
//! clauses (and sometimes an OR in an ON clause). The reference is the same
//! query with each OR written as `CASE WHEN <or> THEN 1 ELSE 0 END = 1`.
//! Both must return the same batch, f64 bits and row order included, or
//! both fail, or only the reference fails: a derived filter, like a written
//! single-relation conjunct, removes rows before the joins, so an ON
//! residual or a post-join conjunct that fails on one of those rows no
//! longer sees it. It never adds an error. The ORs include a division that
//! fails on a zero divisor and `IS NULL` on a Left-joined relation's
//! columns: deriving a filter from either would change a result.

use std::sync::Arc;

use proptest::prelude::*;
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition};
use s2_exec::Batch;
use s2_sql::SqlContext;
use s2_wal::Log;

/// Deterministic splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

const TABLES: [&str; 3] = ["ta", "tb", "tc"];

/// Every table: `id` (unique), `k` (join key), `a`, `s`, `d` and `z` (a
/// divisor that is sometimes 0), all but `id` nullable.
fn build(seed: u64) -> Arc<Partition> {
    let mut rng = Rng(seed);
    let p = Partition::new("df", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let int = |rng: &mut Rng, n: usize| match rng.below(n + 1) {
        0 => Value::Null,
        i => Value::Int(i as i64 - 1),
    };
    for name in TABLES {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int64),
            ColumnDef::nullable("k", DataType::Int64),
            ColumnDef::nullable("a", DataType::Int64),
            ColumnDef::nullable("s", DataType::Str),
            ColumnDef::nullable("d", DataType::Double),
            ColumnDef::nullable("z", DataType::Int64),
        ])
        .unwrap();
        let opts =
            TableOptions::new().with_unique("pk", vec![0]).with_segment_rows(4 + rng.below(12));
        let t = p.create_table(name, schema, opts).unwrap();
        let mut id = 0i64;
        let batches = rng.below(3);
        for b in 0..=batches {
            let mut txn = p.begin();
            for _ in 0..rng.below(20) {
                let s = rng.pick(&["a", "b", "ab", "", "-"]);
                let d = rng.below(8);
                let row = vec![
                    Value::Int(id),
                    int(&mut rng, 4),
                    int(&mut rng, 5),
                    if s == "-" { Value::Null } else { Value::str(s) },
                    if d == 0 { Value::Null } else { Value::Double(d as f64 - 0.5) },
                    int(&mut rng, 3),
                ];
                txn.insert(t, Row::new(row)).unwrap();
                id += 1;
            }
            txn.commit().unwrap();
            // The last batch stays in the rowstore.
            if b < batches {
                p.flush_table(t, true).unwrap();
            }
        }
    }
    p
}

/// One conjunct over relation `x` (an alias `r<n>`); `others` are the other
/// aliases in scope, for a conjunct over two relations.
fn atom(rng: &mut Rng, x: &str, others: &[String]) -> String {
    let c = rng.below(5);
    match rng.below(16) {
        0 | 13 => format!("{x}.a = {c}"),
        1 => format!("{x}.a IN ({c}, {})", rng.below(5)),
        2 => format!("{x}.a BETWEEN {c} AND {}", c + 2),
        3 => format!("{x}.d > {c}.0"),
        4 | 14 => format!("{x}.s = '{}'", rng.pick(&["a", "b", ""])),
        5 => format!("{x}.s LIKE '{}'", rng.pick(&["a%", "%b", "_"])),
        6 => format!("{x}.s <> 'a'"),
        7 | 8 => format!("{x}.a IS NULL"),
        9 => format!("{x}.s IS NOT NULL"),
        10 => format!("NOT ({x}.a < {c})"),
        11 => format!("10 / {x}.z > {}", 2 + rng.below(4)),
        12 => match others {
            [] => format!("{x}.a = {c}"),
            _ => format!("{x}.a = {}.a", rng.pick(others)),
        },
        _ => format!("{x}.d <= {c}.5"),
    }
}

/// A random `D1 OR … OR Dk` over the aliases `scope`: most disjuncts start
/// with a conjunct on `home`, so some relation often has a part in each.
fn gen_or(rng: &mut Rng, scope: &[String]) -> String {
    let home = rng.pick(scope);
    let disjuncts: Vec<String> = (0..2 + rng.below(2))
        .map(|_| {
            let mut parts = Vec::new();
            for i in 0..1 + rng.below(3) {
                let x = if i == 0 && rng.below(8) != 0 { home.clone() } else { rng.pick(scope) };
                let others: Vec<String> = scope.iter().filter(|o| **o != x).cloned().collect();
                parts.push(atom(rng, &x, &others));
            }
            format!("({})", parts.join(" AND "))
        })
        .collect();
    format!("({})", disjuncts.join(" OR "))
}

/// One query as (derived form, reference form): the reference writes each
/// OR as a CASE.
fn gen_query(rng: &mut Rng) -> (String, String) {
    let n = 2 + rng.below(2);
    let aliases: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
    let mut from = vec![format!("{} AS r0", rng.pick(&TABLES))];
    let mut from_ref = from.clone();
    for i in 1..n {
        let kind = rng.pick(&["JOIN", "LEFT JOIN"]);
        let table = rng.pick(&TABLES);
        let on = format!("r{}.k = r{i}.k", rng.below(i));
        let (on, on_ref) = if rng.below(3) == 0 {
            let or = gen_or(rng, &aliases[..=i]);
            (format!("{on} AND {or}"), format!("{on} AND {}", case_of(&or)))
        } else {
            (on.clone(), on)
        };
        from.push(format!("{kind} {table} AS r{i} ON {on}"));
        from_ref.push(format!("{kind} {table} AS r{i} ON {on_ref}"));
    }
    let or = gen_or(rng, &aliases);
    let extra = match rng.below(4) {
        0 => format!(" AND {}.id < {}", rng.pick(&aliases), rng.pick(&[0, 6, 100])),
        _ => String::new(),
    };
    let select = if rng.below(3) == 0 {
        format!(
            "SELECT r0.s, COUNT(*), SUM({}.d) FROM {{from}} WHERE {{where}} GROUP BY r0.s",
            rng.pick(&aliases)
        )
    } else {
        let ids: Vec<String> = aliases.iter().map(|a| format!("{a}.id")).collect();
        format!("SELECT {}, r{}.d FROM {{from}} WHERE {{where}}", ids.join(", "), rng.below(n))
    };
    let render = |from: &[String], where_: String| {
        select.replace("{from}", &from.join(" ")).replace("{where}", &where_)
    };
    (render(&from, format!("{or}{extra}")), render(&from_ref, format!("{}{extra}", case_of(&or))))
}

fn case_of(or: &str) -> String {
    format!("CASE WHEN {or} THEN 1 ELSE 0 END = 1")
}

/// Every cell, doubles by their bits.
fn cells(b: &Batch) -> Vec<String> {
    let cell = |v: Value| match v {
        Value::Double(d) => format!("D{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    };
    (0..b.rows()).map(|r| (0..b.width()).map(|c| cell(b.value(c, r))).collect()).collect()
}

/// Scan filter conjuncts in an `EXPLAIN` rendering.
fn scan_filters(text: &str) -> usize {
    text.lines().filter(|l| l.trim_start().starts_with("filter ")).count()
}

const QUERIES: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn derived_filters_change_no_result(seed in any::<u64>()) {
        let p = build(seed);
        let snap = p.read_snapshot();
        let mut rng = Rng(seed ^ 0xd0e5);
        let mut derived = 0;
        for _ in 0..QUERIES {
            let (sql, reference) = gen_query(&mut rng);
            match (snap.query(&sql), snap.query(&reference)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.width(), want.width(), "{}", sql);
                    prop_assert_eq!(cells(&got), cells(&want), "{}", sql);
                }
                (Err(e), Ok(_)) => prop_assert!(false, "{sql}\nnew error: {e}"),
                (_, Err(_)) => {}
            }
            let plans = (snap.explain(&sql).unwrap(), snap.explain(&reference).unwrap());
            if scan_filters(&plans.0) > scan_filters(&plans.1) {
                derived += 1;
            }
        }
        // Not vacuous: a fixed share of the queries gets a derived filter.
        prop_assert!(derived * 4 >= QUERIES, "{} of {} queries derived a filter", derived, QUERIES);
    }
}
