//! `CdwEngine`: the cloud data warehouse comparator ("CDW1/CDW2" in §6).
//!
//! Models the properties the paper attributes to cloud data warehouses:
//! excellent columnar scans (compressed segments, min/max zone maps,
//! vectorized execution — competitive with S2DB on TPC-H), but a commit
//! path that must write data to blob storage before a transaction is
//! durable ("they force new data for a write transaction to be written out
//! to blob storage before that transaction can be considered committed"),
//! and no fine-grained OLTP machinery: no unique-key enforcement, no
//! secondary indexes, no row-level locking, no point updates/deletes —
//! which is why "CDW1 and CDW2 do not support running TPC-C".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use s2_blob::ObjectStore;
use s2_columnstore::{build_segment, SegmentMeta, SegmentReader};
use s2_common::{Error, Result, Row, Schema, Value};
use s2_exec::{hash_aggregate, hash_join, sort_batch, Batch, Expr};
use s2_query::Plan;

struct CdwSegment {
    meta: SegmentMeta,
    reader: SegmentReader,
}

struct CdwTable {
    schema: Schema,
    segments: Vec<CdwSegment>,
    next_id: u64,
}

/// The batch-columnstore comparator engine.
pub struct CdwEngine {
    blob: Arc<dyn ObjectStore>,
    tables: RwLock<HashMap<String, Arc<RwLock<CdwTable>>>>,
    commits: AtomicU64,
}

impl CdwEngine {
    /// Engine over `blob` (inject latency there to model S3 round trips).
    pub fn new(blob: Arc<dyn ObjectStore>) -> CdwEngine {
        CdwEngine { blob, tables: RwLock::new(HashMap::new()), commits: AtomicU64::new(0) }
    }

    /// Create a table (schema only — no keys, no indexes: CDWs don't have
    /// them).
    pub fn create_table(&self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::InvalidArgument(format!("table {name:?} exists")));
        }
        tables.insert(
            name,
            Arc::new(RwLock::new(CdwTable { schema, segments: Vec::new(), next_id: 1 })),
        );
        Ok(())
    }

    fn table(&self, name: &str) -> Result<Arc<RwLock<CdwTable>>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name:?}")))
    }

    /// Load a batch of rows as one (or more) columnstore segments.
    ///
    /// **The data file is written to blob storage synchronously before the
    /// call returns** — this is the commit-latency property under test.
    pub fn load_batch(&self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self.table(table)?;
        let mut t = t.write();
        let schema = t.schema.clone();
        let id = t.next_id;
        t.next_id += 1;
        let (meta, data) = build_segment(id, rows, &schema, &[])?;
        let bytes = Arc::new(data.encode());
        // Synchronous blob write on the commit path (the paper's CDW model).
        self.blob.put(&format!("cdw/{table}/{id:010}"), bytes)?;
        let reader = SegmentReader::new(data);
        t.segments.push(CdwSegment { meta, reader });
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Single-row insert: a degenerate one-row batch, each paying a full
    /// blob round trip. This is what makes OLTP-style write workloads
    /// impractical on the CDW model.
    pub fn insert_row(&self, table: &str, row: Row) -> Result<()> {
        self.load_batch(table, vec![row])
    }

    /// Point update: unsupported (no primary keys, no row locks).
    pub fn update(&self, _table: &str, _key: &[Value]) -> Result<()> {
        Err(Error::InvalidArgument(
            "CDW model does not support point updates (no unique keys or row-level locking)".into(),
        ))
    }

    /// Point delete: unsupported.
    pub fn delete(&self, _table: &str, _key: &[Value]) -> Result<()> {
        Err(Error::InvalidArgument(
            "CDW model does not support point deletes (no unique keys or row-level locking)".into(),
        ))
    }

    /// Total rows.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let t = self.table(table)?;
        let t = t.read();
        Ok(t.segments.iter().map(|s| s.meta.row_count).sum())
    }

    /// Vectorized columnar scan with zone-map (min/max) pruning — CDWs are
    /// good at this; it's the write path they give up.
    fn scan(&self, table: &str, projection: &[usize], filter: Option<&Expr>) -> Result<Batch> {
        let t = self.table(table)?;
        let t = t.read();
        let types: Vec<s2_common::DataType> =
            projection.iter().map(|&c| t.schema.column(c).data_type).collect();
        let conjuncts: Vec<Expr> = filter.map(|f| f.clone().split_conjuncts()).unwrap_or_default();
        let ranges: Vec<_> = conjuncts.iter().filter_map(Expr::as_column_range).collect();
        let mut parts: Vec<Batch> = Vec::new();
        for seg in &t.segments {
            if ranges
                .iter()
                .any(|(c, lo, hi)| !seg.meta.may_overlap_range(*c, lo.as_ref(), hi.as_ref()))
            {
                continue;
            }
            // Vectorized filtering: decode filter columns, evaluate clause by
            // clause over shrinking selections, then materialize the
            // projection late.
            let mut sel: Option<Vec<u32>> = None;
            for clause in &conjuncts {
                let cols = clause.referenced_columns();
                let domain: Vec<u32> = match &sel {
                    Some(s) => s.clone(),
                    None => (0..seg.meta.row_count as u32).collect(),
                };
                if domain.is_empty() {
                    break;
                }
                let mut vectors = Vec::with_capacity(cols.len());
                for &c in &cols {
                    vectors.push(seg.reader.column(c)?.decode_vector(Some(&domain))?);
                }
                let pos: HashMap<usize, usize> =
                    cols.iter().enumerate().map(|(i, &c)| (c, i)).collect();
                let remapped = clause.remap_columns(&|c| pos[&c]);
                let local = Batch::new(vectors).filter(&remapped, None)?;
                sel = Some(local.into_iter().map(|i| domain[i as usize]).collect());
            }
            let sel = match sel {
                Some(s) => s,
                None => (0..seg.meta.row_count as u32).collect(),
            };
            if sel.is_empty() {
                continue;
            }
            let mut cols = Vec::with_capacity(projection.len());
            for &c in projection {
                cols.push(seg.reader.column(c)?.decode_vector(Some(&sel))?);
            }
            parts.push(Batch::new(cols));
        }
        if parts.is_empty() {
            Ok(Batch::empty(&types))
        } else {
            Batch::concat(parts)
        }
    }

    /// Execute an analytical plan with the vectorized kernels (the CDW's
    /// strength; shares kernels with S2DB so the comparison isolates
    /// storage-layer differences).
    pub fn execute(&self, plan: &Plan) -> Result<Batch> {
        match plan {
            Plan::Scan { table, projection, filter } => {
                self.scan(table, projection, filter.as_ref())
            }
            Plan::Filter { input, predicate } => {
                let b = self.execute(input)?;
                let sel = b.filter(predicate, None)?;
                Ok(b.gather(&sel))
            }
            Plan::Project { input, exprs } => {
                let b = self.execute(input)?;
                let mut cols = Vec::with_capacity(exprs.len());
                for (e, t) in exprs {
                    cols.push(b.eval_expr(e, *t)?);
                }
                Ok(Batch::new(cols))
            }
            Plan::Join { left, right, left_keys, right_keys, join_type, residual } => {
                let l = self.execute(left)?;
                let r = self.execute(right)?;
                hash_join(&l, &r, left_keys, right_keys, *join_type, residual.as_ref())
            }
            Plan::Aggregate { input, group_by, aggregates } => {
                let b = self.execute(input)?;
                hash_aggregate(&b, group_by, aggregates)
            }
            Plan::Sort { input, keys, limit } => {
                let b = self.execute(input)?;
                Ok(sort_batch(&b, keys, *limit))
            }
            Plan::Limit { input, n } => {
                let b = self.execute(input)?;
                let sel: Vec<u32> = (0..b.rows().min(*n) as u32).collect();
                Ok(b.gather(&sel))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_blob::MemoryStore;
    use s2_common::schema::ColumnDef;
    use s2_common::DataType;
    use s2_exec::{AggFunc, Aggregate, CmpOp};

    fn engine() -> CdwEngine {
        let e = CdwEngine::new(Arc::new(MemoryStore::new()));
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int64),
            ColumnDef::new("amount", DataType::Double),
        ])
        .unwrap();
        e.create_table("t", schema).unwrap();
        for chunk in 0..4 {
            let rows: Vec<Row> = (0..250)
                .map(|i| {
                    let id = chunk * 250 + i;
                    Row::new(vec![Value::Int(id), Value::Double(id as f64)])
                })
                .collect();
            e.load_batch("t", rows).unwrap();
        }
        e
    }

    #[test]
    fn batch_load_and_scan() {
        let e = engine();
        assert_eq!(e.row_count("t").unwrap(), 1000);
        let plan = Plan::scan("t", vec![0], Some(Expr::cmp(0, CmpOp::Lt, 100i64)));
        let out = e.execute(&plan).unwrap();
        assert_eq!(out.rows(), 100);
    }

    #[test]
    fn aggregates() {
        let e = engine();
        let plan = Plan::scan("t", vec![1], None)
            .aggregate(vec![], vec![Aggregate { func: AggFunc::Sum, input: Expr::Column(0) }]);
        let out = e.execute(&plan).unwrap();
        let expected: f64 = (0..1000).map(|i| i as f64).sum();
        assert_eq!(out.value(0, 0), Value::Double(expected));
    }

    #[test]
    fn point_dml_unsupported() {
        let e = engine();
        assert!(e.update("t", &[Value::Int(1)]).is_err());
        assert!(e.delete("t", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn commit_is_synchronous_with_blob() {
        use s2_blob::FaultyStore;
        use std::time::Duration;
        let faulty =
            FaultyStore::new(MemoryStore::new(), Duration::from_millis(20), Duration::ZERO);
        let e = CdwEngine::new(Arc::new(faulty));
        let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int64)]).unwrap();
        e.create_table("t", schema).unwrap();
        let t0 = std::time::Instant::now();
        e.insert_row("t", Row::new(vec![Value::Int(1)])).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20), "commit paid the blob latency");
    }
}
