//! Driver-side spans: `{name, start, end, parent, request_id}` around every
//! call the driver makes into the engine. Spans are kept in memory (one
//! buffer per client thread, merged when the thread finishes) and written
//! out when the workload ends. With the tracer off `enter`/`exit` are a
//! single branch, so the untraced phase pays nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One finished span. `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects the spans of one traced phase.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A span buffer for one thread.
    pub fn local(&self) -> Local<'_> {
        Local { tracer: self, open: Vec::new(), spans: Vec::new() }
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.done.lock().expect("tracer buffer lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// One thread's open-span stack and finished spans.
pub struct Local<'t> {
    tracer: &'t Tracer,
    open: Vec<Span>,
    spans: Vec<Span>,
}

impl Local<'_> {
    /// Open a span as a child of the innermost open span of this thread.
    pub fn enter(&mut self, name: &'static str, request_id: u64) {
        if !self.tracer.on {
            return;
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().map_or(0, |s| s.id);
        let start_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        self.open.push(Span { id, parent, request_id, name, start_ns, end_ns: start_ns });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.tracer.on {
            return;
        }
        if let Some(mut span) = self.open.pop() {
            span.end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
            self.spans.push(span);
        }
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            // Never panic in drop: a poisoned buffer only loses trace data.
            if let Ok(mut done) = self.tracer.done.lock() {
                done.append(&mut self.spans);
            }
        }
    }
}

/// Self time of one span: its duration minus the part of its interval that
/// its children cover (children may overlap each other or stick out).
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    ivs.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (s, e) in ivs {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Total self time and total duration per span name, in nanoseconds.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let e = out.entry(s.name).or_default();
        e.0 += self_ns(s, kids);
        e.1 += s.end_ns - s.start_ns;
        e.2 += 1;
    }
    out
}

/// The trace file: every span plus the per-name self-time table.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let table = by_name(spans)
        .into_iter()
        .map(|(name, (self_ns, total_ns, count))| {
            Json::obj()
                .with("name", name)
                .with("count", count)
                .with("self_ns", self_ns)
                .with("total_ns", total_ns)
        })
        .collect::<Vec<_>>();
    let items = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("id", u64::from(s.id))
                .with("parent", u64::from(s.parent))
                .with("request_id", s.request_id)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
        })
        .collect::<Vec<_>>();
    Json::obj().with("workload", workload).with("self_time", table).with("spans", items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request_id: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_nested_overlapping_and_protruding_children() {
        let parent = span(1, 0, 100, 200);
        // Two overlapping children cover [110, 150); one sticks out past the end.
        let a = span(2, 1, 110, 140);
        let b = span(3, 1, 130, 150);
        let c = span(4, 1, 190, 260);
        assert_eq!(self_ns(&parent, &[&a, &b, &c]), 100 - 40 - 10);
        // A child nested in a child does not count twice.
        let grandchild = span(5, 2, 115, 120);
        assert_eq!(self_ns(&a, &[&grandchild]), 25);
        assert_eq!(self_ns(&parent, &[]), 100);
        // A child wholly outside the parent covers nothing.
        assert_eq!(self_ns(&parent, &[&span(6, 1, 10, 50)]), 100);
    }

    #[test]
    fn by_name_sums_self_and_total() {
        let mut spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 70)];
        spans[1].name = "child";
        spans[2].name = "child";
        let t = by_name(&spans);
        assert_eq!(t["s"], (60, 100, 1));
        assert_eq!(t["child"], (40, 40, 2));
    }

    #[test]
    fn locals_nest_and_merge_and_off_records_nothing() {
        let tr = Tracer::new(true);
        {
            let mut l = tr.local();
            l.enter("query", 7);
            l.enter("sql.plan", 7);
            l.exit();
            l.enter("query.execute", 7);
            l.exit();
            l.exit();
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "query").unwrap();
        assert_eq!(root.parent, 0);
        assert!(spans.iter().filter(|s| s.name != "query").all(|s| s.parent == root.id));
        assert!(spans.iter().all(|s| s.request_id == 7 && s.end_ns >= s.start_ns));

        let off = Tracer::new(false);
        let mut l = off.local();
        l.enter("x", 1);
        l.exit();
        drop(l);
        assert!(off.spans().is_empty());
        let doc = to_json("w", &spans);
        assert_eq!(doc.get("spans").map(|s| s.items().len()), Some(3));
    }
}
