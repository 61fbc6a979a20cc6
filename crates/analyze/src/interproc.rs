//! Interprocedural lock-order and blocking-call analysis (checks L1–L3).
//!
//! Builds per-function summaries — lock classes possibly acquired,
//! blocking primitives possibly reached, fault hooks possibly hit — and
//! propagates them to a fixpoint over the resolved call graph. A final
//! replay of each function body with a tracked held-lock set emits:
//!
//! - **L1 `lock-order`** — acquiring class B while a held class A has an
//!   equal or higher hierarchy rank (the static complement of the
//!   runtime detector in `s2_common::sync`, which needs the path to
//!   actually execute).
//! - **L2 `blocking-locked`** — a blocking primitive (sleep, channel
//!   recv, thread join, condvar wait, fsync, blob I/O) reachable while
//!   any `wal.*`/`core.*` commit-section lock is held. Plain local file
//!   writes are *not* blocking: the WAL writes its own file under
//!   `wal.log` by design.
//! - **L3 `failpoint-coverage`** — raw WAL I/O mutation sites and
//!   `ObjectStore` verbs that no `fault::` hook can reach, i.e. paths
//!   the s2-sim crash matrix cannot exercise.
//!
//! Call and lock resolution is deliberately conservative: an ambiguous
//! receiver or an over-wide candidate set drops the edge rather than
//! guessing, so the pass under-approximates instead of spraying false
//! findings.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use s2_common::sync::rank;

use crate::engine::Finding;
use crate::items::{FileModel, FnDef, RawEvent, Recv};

/// The lock hierarchy, loaded from `s2_common::sync::rank::TABLE`.
struct Classes {
    names: Vec<&'static str>,
    orders: Vec<u32>,
    by_ident: HashMap<&'static str, usize>,
}

impl Classes {
    fn load() -> Classes {
        let mut names = Vec::new();
        let mut orders = Vec::new();
        let mut by_ident = HashMap::new();
        for (ident, class) in rank::TABLE {
            by_ident.insert(*ident, names.len());
            names.push(class.name);
            orders.push(class.order);
        }
        Classes { names, orders, by_ident }
    }

    /// Commit-section classes: held across the WAL/commit critical path.
    fn commit_section(&self, c: usize) -> bool {
        self.names[c].starts_with("wal.") || self.names[c].starts_with("core.")
    }
}

/// `snake_case` → `CamelCase`, for receiver-name → type-name hints
/// (`self.log.sync()` → try `Log::sync`).
fn camel(s: &str) -> String {
    let mut out = String::new();
    for part in s.split('_').filter(|p| !p.is_empty()) {
        let mut cs = part.chars();
        if let Some(c) = cs.next() {
            out.extend(c.to_uppercase());
            out.push_str(&cs.as_str().to_lowercase());
        }
    }
    out
}

/// A resolved body event (the [`RawEvent`] stream with lock classes and
/// call candidates bound).
enum Ev {
    Acquire { class: usize, bind: Option<String>, line: usize, depth: u32 },
    CvWait { guard: Option<String>, rebind: Option<String>, line: usize },
    Drop { name: String },
    Close { depth: u32 },
    Call { cands: Vec<usize>, line: usize },
    Block { what: &'static str, line: usize },
    Hook,
    RawIo { what: &'static str, line: usize },
}

/// How a summary entry got there: directly at `line`, or through a call
/// to global function `callee` at `line`. Chains of `Via` reconstruct
/// the full call path for a finding message.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wit {
    Direct(usize),
    Via(usize, usize),
}

/// Per-function fixpoint state.
#[derive(Default, Clone, PartialEq)]
struct Summary {
    /// Lock classes possibly acquired during a call to this function.
    acquires: BTreeMap<usize, Wit>,
    /// Blocking primitives possibly reached.
    blocks: BTreeMap<&'static str, Wit>,
    /// A `fault::` hook is reachable from this function.
    hook_down: bool,
}

/// Functions whose effect the surface parse cannot see but the checks
/// must know about: `Log::sync` *is* the WAL fsync (buffered bytes hit
/// the file inside it), so any caller reaching it under a commit-section
/// lock is blocking-while-locked even though the body shows only plain
/// file writes.
const INTRINSIC_BLOCKS: &[(&str, &str, &str)] = &[("Log", "sync", "wal fsync (Log::sync)")];

struct ProgFn<'a> {
    file: usize,
    def: &'a FnDef,
    events: Vec<Ev>,
    intrinsic_block: Option<&'static str>,
}

impl ProgFn<'_> {
    fn display(&self) -> String {
        match &self.def.impl_ty {
            Some(t) => format!("{t}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// One outstanding lock during a body replay.
struct Held {
    class: usize,
    /// Binding names referring to the guard (grows across condvar-wait
    /// rebinds); empty for statement-temporary guards.
    aliases: Vec<String>,
    depth: u32,
    line: usize,
}

/// Dedup key set: (fn, line, check id, detail).
type Seen = BTreeSet<(usize, usize, &'static str, String)>;

pub(crate) struct Program<'a> {
    models: &'a [FileModel],
    classes: Classes,
    fns: Vec<ProgFn<'a>>,
    unknown_classes: Vec<Finding>,
}

/// Run L1–L3 over the parsed workspace.
pub(crate) fn check(models: &[FileModel]) -> Vec<Finding> {
    let prog = Program::build(models);
    let summaries = prog.fixpoint();
    let mut findings = prog.unknown_classes.clone();
    findings.extend(prog.check_bodies(&summaries));
    findings.extend(prog.check_failpoint_coverage(&summaries));
    findings
}

impl<'a> Program<'a> {
    fn build(models: &'a [FileModel]) -> Program<'a> {
        let classes = Classes::load();

        // ---- lock construction maps (field name → class candidates)
        let mut by_impl_field: HashMap<(String, String), BTreeSet<usize>> = HashMap::new();
        let mut by_file_field: HashMap<(usize, String), BTreeSet<usize>> = HashMap::new();
        let mut by_field: HashMap<String, BTreeSet<usize>> = HashMap::new();
        let mut unknown_classes = Vec::new();
        for (fi, m) in models.iter().enumerate() {
            for ctor in &m.ctors {
                let Some(&class) = classes.by_ident.get(ctor.class_ident.as_str()) else {
                    unknown_classes.push(Finding {
                        path: m.path.clone(),
                        line: ctor.line + 1,
                        id: "L1",
                        rule: "lock-order",
                        message: format!(
                            "unknown lock class `rank::{}` (not in sync::rank::TABLE; \
                             add it so the hierarchy stays checkable)",
                            ctor.class_ident
                        ),
                    });
                    continue;
                };
                let Some(field) = ctor.field.clone() else { continue };
                if let Some(ty) = ctor.impl_ty.clone() {
                    by_impl_field.entry((ty, field.clone())).or_default().insert(class);
                }
                by_file_field.entry((fi, field.clone())).or_default().insert(class);
                by_field.entry(field).or_default().insert(class);
            }
        }
        let single = |set: Option<&BTreeSet<usize>>| match set {
            Some(s) if s.len() == 1 => s.iter().next().copied(),
            _ => None,
        };

        // ---- global function table (test fns excluded entirely)
        let mut fn_ids: Vec<(usize, usize)> = Vec::new();
        for (fi, m) in models.iter().enumerate() {
            for (i, f) in m.fns.iter().enumerate() {
                if !f.is_test {
                    fn_ids.push((fi, i));
                }
            }
        }
        let mut by_impl_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut method_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut file_free: HashMap<(usize, String), Vec<usize>> = HashMap::new();
        for (gi, &(fi, i)) in fn_ids.iter().enumerate() {
            let f = &models[fi].fns[i];
            match &f.impl_ty {
                Some(ty) => {
                    by_impl_name.entry((ty.clone(), f.name.clone())).or_default().push(gi);
                    method_by_name.entry(f.name.clone()).or_default().push(gi);
                }
                None => {
                    free_by_name.entry(f.name.clone()).or_default().push(gi);
                    file_free.entry((fi, f.name.clone())).or_default().push(gi);
                }
            }
        }
        let capped = |v: Option<&Vec<usize>>| -> Vec<usize> {
            match v {
                Some(v) if !v.is_empty() && v.len() <= 3 => v.clone(),
                _ => Vec::new(),
            }
        };

        // ---- resolve each body's raw events
        let mut fns = Vec::with_capacity(fn_ids.len());
        for &(fi, i) in &fn_ids {
            let def = &models[fi].fns[i];
            let mut events = Vec::new();
            for ev in &def.events {
                match ev {
                    RawEvent::Acquire { field, hint, bind, line, depth } => {
                        // Resolution ladder: enclosing impl's field → same
                        // file's field → globally-unique field → receiver
                        // hint as a type name. Ambiguity drops the event.
                        let class = def
                            .impl_ty
                            .as_ref()
                            .and_then(|t| single(by_impl_field.get(&(t.clone(), field.clone()))))
                            .or_else(|| single(by_file_field.get(&(fi, field.clone()))))
                            .or_else(|| single(by_field.get(field)))
                            .or_else(|| {
                                hint.as_ref().and_then(|h| {
                                    single(by_impl_field.get(&(camel(h), field.clone())))
                                })
                            });
                        if let Some(class) = class {
                            events.push(Ev::Acquire {
                                class,
                                bind: bind.clone(),
                                line: *line,
                                depth: *depth,
                            });
                        }
                    }
                    RawEvent::CvWait { guard, rebind, line } => events.push(Ev::CvWait {
                        guard: guard.clone(),
                        rebind: rebind.clone(),
                        line: *line,
                    }),
                    RawEvent::DropIdent { name } => events.push(Ev::Drop { name: name.clone() }),
                    RawEvent::Close { depth } => events.push(Ev::Close { depth: *depth }),
                    RawEvent::Block { what, line } => events.push(Ev::Block { what, line: *line }),
                    RawEvent::Hook { .. } => events.push(Ev::Hook),
                    RawEvent::RawIo { what, line } => events.push(Ev::RawIo { what, line: *line }),
                    RawEvent::Call { name, recv, line } => {
                        let cands = match recv {
                            Recv::Method(None) => match &def.impl_ty {
                                Some(ty) => capped(by_impl_name.get(&(ty.clone(), name.clone()))),
                                None => Vec::new(),
                            },
                            Recv::Method(Some(seg)) => {
                                let by_ty = capped(by_impl_name.get(&(camel(seg), name.clone())));
                                if !by_ty.is_empty() {
                                    by_ty
                                } else {
                                    // Fall back to a globally-unique method
                                    // name; anything wider is too risky.
                                    match method_by_name.get(name) {
                                        Some(v) if v.len() == 1 => v.clone(),
                                        _ => Vec::new(),
                                    }
                                }
                            }
                            Recv::Qual(q) => {
                                if q.chars().next().is_some_and(char::is_uppercase) {
                                    capped(by_impl_name.get(&(q.clone(), name.clone())))
                                } else {
                                    match free_by_name.get(name) {
                                        Some(v) if v.len() == 1 => v.clone(),
                                        _ => Vec::new(),
                                    }
                                }
                            }
                            Recv::Bare if def.params.iter().any(|p| p == name) => {
                                // Call through a closure-typed parameter:
                                // not a free fn, and we can't see its body.
                                Vec::new()
                            }
                            Recv::Bare => {
                                let local = capped(file_free.get(&(fi, name.clone())));
                                if !local.is_empty() {
                                    local
                                } else {
                                    match free_by_name.get(name) {
                                        Some(v) if v.len() == 1 => v.clone(),
                                        _ => Vec::new(),
                                    }
                                }
                            }
                        };
                        if !cands.is_empty() {
                            events.push(Ev::Call { cands, line: *line });
                        }
                    }
                }
            }
            let intrinsic_block = INTRINSIC_BLOCKS.iter().find_map(|(ty, name, what)| {
                (def.impl_ty.as_deref() == Some(*ty) && def.name == *name).then_some(*what)
            });
            fns.push(ProgFn { file: fi, def, events, intrinsic_block });
        }

        Program { models, classes, fns, unknown_classes }
    }

    fn path(&self, gi: usize) -> &str {
        &self.models[self.fns[gi].file].path
    }

    /// Propagate summaries to a fixpoint (monotone: sets only grow).
    fn fixpoint(&self) -> Vec<Summary> {
        let mut sums = vec![Summary::default(); self.fns.len()];
        let mut changed = true;
        let mut rounds = 0;
        while changed && rounds < 64 {
            changed = false;
            rounds += 1;
            for gi in 0..self.fns.len() {
                let f = &self.fns[gi];
                let mut s = Summary::default();
                if let Some(what) = f.intrinsic_block {
                    s.blocks.insert(what, Wit::Direct(f.def.line));
                }
                for ev in &f.events {
                    match ev {
                        Ev::Acquire { class, line, .. } => {
                            s.acquires.entry(*class).or_insert(Wit::Direct(*line));
                        }
                        Ev::Block { what, line } => {
                            s.blocks.entry(what).or_insert(Wit::Direct(*line));
                        }
                        Ev::CvWait { line, .. } => {
                            s.blocks.entry("condvar wait").or_insert(Wit::Direct(*line));
                        }
                        Ev::Hook => s.hook_down = true,
                        Ev::Call { cands, line } => {
                            for &c in cands {
                                let cs = &sums[c];
                                for &cls in cs.acquires.keys() {
                                    s.acquires.entry(cls).or_insert(Wit::Via(c, *line));
                                }
                                for &what in cs.blocks.keys() {
                                    s.blocks.entry(what).or_insert(Wit::Via(c, *line));
                                }
                                s.hook_down |= cs.hook_down;
                            }
                        }
                        _ => {}
                    }
                }
                if s != sums[gi] {
                    sums[gi] = s;
                    changed = true;
                }
            }
        }
        sums
    }

    /// Format the call path by which `gi` reaches `target`, e.g.
    /// `wait_durable -> lead -> lead_inner -> Log::sync`.
    fn chain_to<F>(&self, sums: &[Summary], mut gi: usize, lookup: F) -> String
    where
        F: Fn(&Summary) -> Option<Wit>,
    {
        let mut out = self.fns[gi].display();
        for _ in 0..12 {
            match lookup(&sums[gi]) {
                Some(Wit::Via(next, _)) => {
                    gi = next;
                    out.push_str(" -> ");
                    out.push_str(&self.fns[gi].display());
                }
                Some(Wit::Direct(line)) => {
                    out.push_str(&format!(" ({}:{})", self.path(gi), line + 1));
                    return out;
                }
                None => return out,
            }
        }
        out
    }

    /// Emit L1 findings for acquiring class `b` (directly or via the call
    /// chain in `via`) with `held` locks outstanding.
    #[allow(clippy::too_many_arguments)]
    fn l1(
        &self,
        seen: &mut Seen,
        gi: usize,
        held: &[Held],
        b: usize,
        line: usize,
        via: Option<&str>,
        findings: &mut Vec<Finding>,
    ) {
        let cls = &self.classes;
        for h in held {
            // Same-class re-acquire is exempt: statically a second
            // *instance* of the class (sharded locks) is indistinguishable
            // from a true re-entry, and the runtime detector owns that case.
            if h.class != b && cls.orders[h.class] >= cls.orders[b] {
                let key = (gi, line, "L1", format!("{}<{}", h.class, b));
                if seen.insert(key) {
                    let how = match via {
                        Some(chain) => format!("call chain {chain} acquires"),
                        None => "acquires".to_string(),
                    };
                    findings.push(Finding {
                        path: self.path(gi).to_string(),
                        line: line + 1,
                        id: "L1",
                        rule: "lock-order",
                        message: format!(
                            "lock-order inversion: {how} `{}` (rank {}) while `{}` \
                             (rank {}, acquired line {}) is held",
                            cls.names[b],
                            cls.orders[b],
                            cls.names[h.class],
                            cls.orders[h.class],
                            h.line + 1
                        ),
                    });
                }
            }
        }
    }

    /// Replay every body with a tracked held-lock set; emit L1/L2.
    fn check_bodies(&self, sums: &[Summary]) -> Vec<Finding> {
        let cls = &self.classes;
        let mut findings = Vec::new();
        let mut seen: Seen = BTreeSet::new();

        for (gi, f) in self.fns.iter().enumerate() {
            let mut held: Vec<Held> = Vec::new();
            for ev in &f.events {
                // Unnamed guards (`self.x.lock().len()`) live to the end of
                // their statement; approximate that as "their source line".
                let cur_line = match ev {
                    Ev::Acquire { line, .. }
                    | Ev::CvWait { line, .. }
                    | Ev::Call { line, .. }
                    | Ev::Block { line, .. }
                    | Ev::RawIo { line, .. } => Some(*line),
                    _ => None,
                };
                if let Some(l) = cur_line {
                    held.retain(|h| !h.aliases.is_empty() || h.line == l);
                }
                match ev {
                    Ev::Acquire { class, bind, line, depth } => {
                        self.l1(&mut seen, gi, &held, *class, *line, None, &mut findings);
                        held.push(Held {
                            class: *class,
                            aliases: bind.clone().into_iter().collect(),
                            depth: *depth,
                            line: *line,
                        });
                    }
                    Ev::CvWait { guard, rebind, line } => {
                        for h in &held {
                            let is_guard =
                                guard.as_ref().is_some_and(|g| h.aliases.iter().any(|a| a == g));
                            if !is_guard && cls.commit_section(h.class) {
                                let key = (gi, *line, "L2", cls.names[h.class].to_string());
                                if seen.insert(key) {
                                    findings.push(Finding {
                                        path: self.path(gi).to_string(),
                                        line: *line + 1,
                                        id: "L2",
                                        rule: "blocking-locked",
                                        message: format!(
                                            "condvar wait while commit-section lock `{}` \
                                             (acquired line {}) is held and not released \
                                             by the wait",
                                            cls.names[h.class],
                                            h.line + 1
                                        ),
                                    });
                                }
                            }
                        }
                        if let Some(g) = guard {
                            if let Some(h) =
                                held.iter_mut().find(|h| h.aliases.iter().any(|a| a == g))
                            {
                                match rebind {
                                    // The wait returns the same guard under a
                                    // new name; keep the old alias too (the
                                    // common `let (g2,_) = wait(g); g = g2;`
                                    // shape re-uses it).
                                    Some(r) => h.aliases.push(r.clone()),
                                    None => {
                                        let idx = held
                                            .iter()
                                            .position(|h| h.aliases.iter().any(|a| a == g))
                                            .unwrap();
                                        held.remove(idx);
                                    }
                                }
                            }
                        }
                    }
                    Ev::Drop { name } => {
                        held.retain(|h| !h.aliases.iter().any(|a| a == name));
                    }
                    Ev::Close { depth } => held.retain(|h| h.depth <= *depth),
                    Ev::Block { what, line } => {
                        for h in &held {
                            if cls.commit_section(h.class) {
                                let key = (gi, *line, "L2", cls.names[h.class].to_string());
                                if seen.insert(key) {
                                    findings.push(Finding {
                                        path: self.path(gi).to_string(),
                                        line: *line + 1,
                                        id: "L2",
                                        rule: "blocking-locked",
                                        message: format!(
                                            "blocking call ({what}) while commit-section \
                                             lock `{}` (acquired line {}) is held",
                                            cls.names[h.class],
                                            h.line + 1
                                        ),
                                    });
                                }
                            }
                        }
                    }
                    Ev::Call { cands, line } => {
                        if held.is_empty() {
                            continue;
                        }
                        for &c in cands {
                            for &b in sums[c].acquires.keys() {
                                let chain = self.chain_to(sums, c, |s| s.acquires.get(&b).copied());
                                self.l1(
                                    &mut seen,
                                    gi,
                                    &held,
                                    b,
                                    *line,
                                    Some(&chain),
                                    &mut findings,
                                );
                            }
                            if held.iter().any(|h| cls.commit_section(h.class)) {
                                for &what in sums[c].blocks.keys() {
                                    let h =
                                        held.iter().find(|h| cls.commit_section(h.class)).unwrap();
                                    let key = (gi, *line, "L2", format!("{}/{what}", h.class));
                                    if seen.insert(key) {
                                        let chain =
                                            self.chain_to(sums, c, |s| s.blocks.get(what).copied());
                                        findings.push(Finding {
                                            path: self.path(gi).to_string(),
                                            line: *line + 1,
                                            id: "L2",
                                            rule: "blocking-locked",
                                            message: format!(
                                                "call chain {chain} blocks ({what}) while \
                                                 commit-section lock `{}` (acquired line \
                                                 {}) is held",
                                                cls.names[h.class],
                                                h.line + 1
                                            ),
                                        });
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        findings
    }

    /// L3: failpoint coverage for raw WAL I/O and `ObjectStore` verbs.
    fn check_failpoint_coverage(&self, sums: &[Summary]) -> Vec<Finding> {
        let mut findings = Vec::new();

        // Forward closure from every function with a reachable hook: if an
        // ancestor with a hook calls into f, the crash matrix covers f.
        let mut covered_up = vec![false; self.fns.len()];
        let mut work: Vec<usize> = (0..self.fns.len()).filter(|&gi| sums[gi].hook_down).collect();
        for &gi in &work {
            covered_up[gi] = true;
        }
        while let Some(gi) = work.pop() {
            for ev in &self.fns[gi].events {
                if let Ev::Call { cands, .. } = ev {
                    for &c in cands {
                        if !covered_up[c] {
                            covered_up[c] = true;
                            work.push(c);
                        }
                    }
                }
            }
        }

        // L3a: raw I/O mutation sites in the WAL crate.
        for (gi, f) in self.fns.iter().enumerate() {
            if !self.path(gi).starts_with("crates/wal/") {
                continue;
            }
            if sums[gi].hook_down || covered_up[gi] {
                continue;
            }
            // `Log::append*` mutates the durable stream even when the body is
            // memory-only (the bytes become durable at the next sync), so the
            // name is the mutation signal there, not a raw-I/O token.
            let log_append = f.def.impl_ty.as_deref() == Some("Log")
                && f.def.name.starts_with("append")
                && !f.def.is_test;
            let raw_io = f.events.iter().find_map(|e| match e {
                Ev::RawIo { what, line } => Some((*what, *line)),
                _ => None,
            });
            if let Some((what, line)) =
                raw_io.or_else(|| log_append.then_some(("log append", f.def.line)))
            {
                findings.push(Finding {
                    path: self.path(gi).to_string(),
                    line: line + 1,
                    id: "L3",
                    rule: "failpoint-coverage",
                    message: format!(
                        "WAL mutation site ({what}) in `{}` reaches no fault:: hook — \
                         the s2-sim crash matrix cannot exercise this path",
                        f.display()
                    ),
                });
            }
        }

        // L3b: every ObjectStore verb needs >= 1 impl reaching a hook.
        let declares_store =
            self.models.iter().any(|m| m.traits.iter().any(|t| t.name == "ObjectStore"));
        if declares_store {
            for verb in ["put", "get", "delete"] {
                let impls: Vec<usize> = self
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| {
                        f.def.impl_trait.as_deref() == Some("ObjectStore")
                            && f.def.name == verb
                            && !f.def.trait_default
                    })
                    .map(|(gi, _)| gi)
                    .collect();
                if !impls.is_empty() && !impls.iter().any(|&gi| sums[gi].hook_down) {
                    let gi = impls[0];
                    findings.push(Finding {
                        path: self.path(gi).to_string(),
                        line: self.fns[gi].def.line + 1,
                        id: "L3",
                        rule: "failpoint-coverage",
                        message: format!(
                            "no ObjectStore::{verb} implementation reaches a fault:: \
                             hook — blob {verb} faults cannot be injected"
                        ),
                    });
                }
            }
        }

        findings
    }
}
