//! The rule table. Every rule has a stable id (`R1`, `R2`, `R4`..`R6` for
//! the per-line rules, `L1`..`L4` for the interprocedural checks in
//! `interproc`/`metrics`), a marker name (what `s2-lint: allow(<name>, …)`
//! refers to), and a scope predicate over repo-relative paths. Adding a
//! rule = adding an entry to [`all_rules`] (or a check module), a line to
//! DESIGN.md's rule table, and an [`explain`] entry.

/// A token-presence rule: flag lines of non-test code whose stripped code
/// contains any of `tokens`, within the files selected by `applies`.
pub struct TokenRule {
    pub id: &'static str,
    pub name: &'static str,
    pub tokens: &'static [&'static str],
    pub message: &'static str,
    pub applies: fn(&str) -> bool,
}

/// R4: every `unsafe` must be annotated with a `// SAFETY:` comment on the
/// same line or on the contiguous comment/attribute block above it.
pub struct SafetyCommentRule {
    pub id: &'static str,
    pub name: &'static str,
}

/// R5: string literals passed at event sites must be `subsystem.noun_verb`
/// style (metric registrations are L4's).
pub struct MetricNameRule {
    pub id: &'static str,
    pub name: &'static str,
    pub callsites: &'static [&'static str],
}

/// R6: raw `std::sync` lock construction outside the ranked wrappers.
pub struct RawLockRule {
    pub id: &'static str,
    pub name: &'static str,
}

pub enum RuleKind {
    Token(TokenRule),
    SafetyComment(SafetyCommentRule),
    MetricName(MetricNameRule),
    RawLock(RawLockRule),
}

pub struct Rule {
    pub kind: RuleKind,
}

/// R1 scope: modules that must stay deterministic — the pure breaker core,
/// the fault-injection registry, and the whole simulation harness. These are
/// replayed from seeds; a wall-clock read makes replays diverge.
fn deterministic_module(path: &str) -> bool {
    path == "crates/blob/src/health.rs"
        || path == "crates/common/src/fault.rs"
        || path.starts_with("crates/sim/src/")
}

/// R2 scope: crates on the commit path, where a panic stalls every writer
/// behind the partition commit lock.
fn commit_path_crate(path: &str) -> bool {
    path.starts_with("crates/wal/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/rowstore/src/")
        || path == "crates/blob/src/uploader.rs"
}

/// R6 scope: everywhere except the ranked-wrapper implementation itself
/// and the shims crate (which wraps third-party types as-is).
pub(crate) fn raw_lock_scope(path: &str) -> bool {
    path != "crates/common/src/sync.rs" && !path.starts_with("crates/shims/")
}

/// Names usable in allow-markers. `malformed-marker` is not allowlistable.
pub fn rule_names() -> &'static [&'static str] {
    &[
        "wall-clock",
        "unwrap",
        "safety-comment",
        "metric-name",
        "raw-lock",
        "lock-order",
        "blocking-locked",
        "failpoint-coverage",
        "metric-registry",
    ]
}

/// `--explain <ID>` text: what each rule checks and why it exists.
pub fn explain(id: &str) -> Option<&'static str> {
    Some(match id {
        "R1" | "wall-clock" => {
            "R1 wall-clock: `Instant::now`/`SystemTime::now` in a deterministic module \
             (breaker core, fault registry, s2-sim). These modules replay from seeds; a \
             wall-clock read makes replays diverge. Use the injected clock instead."
        }
        "R2" | "unwrap" => {
            "R2 unwrap: `.unwrap()`/`.expect(` on a commit-path crate (wal, core, \
             rowstore, blob uploader). A panic there poisons the partition commit lock \
             and stalls every writer. Return an error or handle the case."
        }
        "R4" | "safety-comment" => {
            "R4 safety-comment: every `unsafe` needs a `// SAFETY:` comment on the same \
             line or the contiguous comment block above, stating the invariant relied on."
        }
        "R5" | "metric-name" => {
            "R5 metric-name: the event name at `s2_obs::event(`/`.event(` sites must be \
             dot-separated lower_snake segments (`subsystem.noun_verb`), so dashboards \
             can group by prefix. Metric names at `counter!`/`gauge!`/`histogram!` \
             sites are checked once, by L4 metric-registry."
        }
        "R6" | "raw-lock" => {
            "R6 raw-lock: `std::sync::{Mutex,RwLock,Condvar}` named outside \
             crates/common/src/sync.rs or crates/shims/. Raw locks bypass the rank \
             detector and the L1/L2 static checks; use `s2_common::sync` wrappers with \
             a `rank::` class."
        }
        "L1" | "lock-order" => {
            "L1 lock-order: a path (direct or through calls) acquires lock class B while \
             a held class A has an equal or higher hierarchy rank. The static complement \
             of the runtime rank detector, which only sees executed paths. The message \
             carries the full call chain; fix the order or re-rank in sync::rank."
        }
        "L2" | "blocking-locked" => {
            "L2 blocking-locked: a blocking primitive (sleep, channel recv, thread join, \
             condvar wait, fsync via Log::sync, blob put/get/delete) is reachable \
             while a `wal.*`/`core.*` commit-section lock is held. The \
             paper's commit path must never stall on blob I/O or scheduling; move the \
             blocking work outside the critical section (see the wal.group leader \
             protocol). Plain local file writes are exempt: the WAL writes its own file \
             under `wal.log` by design."
        }
        "L3" | "failpoint-coverage" => {
            "L3 failpoint-coverage: a WAL raw-I/O mutation site (write/truncate/fsync) \
             or an ObjectStore verb (put/get/delete) that no `fault::failpoint`/\
             `crash_point` can reach. Such paths silently escape the s2-sim crash \
             matrix; add a hook at the site or on an enclosing path."
        }
        "L4" | "metric-registry" => {
            "L4 metric-registry: every registered metric name must be style-clean, have \
             one kind (the registry is keyed by name), and match DESIGN.md's metrics \
             table both ways. Regenerate the table with `s2-lint --dump-metrics`."
        }
        "lint" | "malformed-marker" => {
            "lint malformed-marker: an `s2-lint: allow(..)` marker naming an unknown \
             rule or missing its mandatory reason. Not allowlistable."
        }
        _ => return None,
    })
}

pub fn all_rules() -> Vec<Rule> {
    vec![
        Rule {
            kind: RuleKind::Token(TokenRule {
                id: "R1",
                name: "wall-clock",
                tokens: &["Instant::now", "SystemTime::now"],
                message: "wall-clock read in a deterministic module",
                applies: deterministic_module,
            }),
        },
        Rule {
            kind: RuleKind::Token(TokenRule {
                id: "R2",
                name: "unwrap",
                tokens: &[".unwrap()", ".expect("],
                message: "forbidden panic path on a commit-path crate",
                applies: commit_path_crate,
            }),
        },
        Rule {
            kind: RuleKind::SafetyComment(SafetyCommentRule { id: "R4", name: "safety-comment" }),
        },
        Rule {
            kind: RuleKind::MetricName(MetricNameRule {
                id: "R5",
                name: "metric-name",
                callsites: &["s2_obs::event(", ".event("],
            }),
        },
        Rule { kind: RuleKind::RawLock(RawLockRule { id: "R6", name: "raw-lock" }) },
    ]
}
