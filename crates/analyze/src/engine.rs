//! The rule engine: applies named rules to lexed source, honouring
//! `#[cfg(test)]` exemptions and `s2-lint: allow(rule, reason)` markers.
//!
//! Marker grammar (inside any comment):
//!
//! ```text
//! s2-lint: allow(<rule>, <reason>)
//! ```
//!
//! A marker suppresses findings of `<rule>` on its own line and on the next
//! line that contains code. The reason is mandatory; a marker without one
//! (or naming an unknown rule) is itself reported as `malformed-marker`.

use crate::lexer::{lex, Line};
use crate::rules::{rule_names, MetricNameRule, Rule, RuleKind, SafetyCommentRule, TokenRule};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`R1`..`R6`, `L1`..`L4`, or `lint` for marker problems).
    pub id: &'static str,
    /// Rule name (the marker key, e.g. `wall-clock`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}/{}: {}", self.path, self.line, self.id, self.rule, self.message)
    }
}

/// A parsed allow marker.
pub(crate) struct Marker {
    line: usize, // 0-based
    rule: String,
    has_reason: bool,
}

pub(crate) fn parse_markers(lines: &[Line]) -> Vec<Marker> {
    let mut out = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let mut rest = line.comment.as_str();
        while let Some(at) = rest.find("s2-lint:") {
            rest = &rest[at + "s2-lint:".len()..];
            let body = rest.trim_start();
            let Some(args) = body.strip_prefix("allow(") else {
                out.push(Marker { line: ln, rule: String::new(), has_reason: false });
                continue;
            };
            let Some(close) = args.find(')') else {
                out.push(Marker { line: ln, rule: String::new(), has_reason: false });
                continue;
            };
            let inner = &args[..close];
            let (rule, reason) = match inner.split_once(',') {
                Some((r, why)) => (r.trim().to_string(), !why.trim().is_empty()),
                None => (inner.trim().to_string(), false),
            };
            out.push(Marker { line: ln, rule, has_reason: reason });
        }
    }
    out
}

/// Mark every line inside a `#[cfg(test)] mod … { … }` span (and the
/// attribute line itself) as test code. Brace depth is tracked on stripped
/// code, so braces in strings or comments cannot skew the span.
pub(crate) fn test_spans(lines: &[Line]) -> Vec<bool> {
    let mut is_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Find the opening brace of the mod (same or later line).
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                is_test[j] = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    is_test
}

pub(crate) fn allowed(markers: &[Marker], lines: &[Line], rule: &str, ln: usize) -> bool {
    markers.iter().any(|m| {
        if m.rule != rule || !m.has_reason {
            return false;
        }
        if m.line == ln {
            return true;
        }
        // The marker covers the next line that contains code.
        if m.line < ln {
            let covers = (m.line + 1..lines.len()).find(|&k| !lines[k].code.trim().is_empty());
            return covers == Some(ln);
        }
        false
    })
}

/// Whether `needle` occurs in `hay` bounded by non-identifier characters on
/// the left (tokens like `unsafe` must not match `is_unsafe`).
fn token_match(hay: &str, needle: &str) -> bool {
    // Only tokens that start with an identifier character need a boundary;
    // `.unwrap()` is legitimately preceded by the receiver's identifier.
    let needs_boundary = needle.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(at) = hay[from..].find(needle) {
        let abs = from + at;
        let left_ok = !needs_boundary
            || abs == 0
            || !hay[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok {
            return true;
        }
        from = abs + needle.len();
    }
    false
}

/// Validate a metric/event name: two or more dot-separated segments, each
/// `[a-z][a-z0-9_]*` (see DESIGN.md "Observability").
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|s| {
            !s.is_empty()
                && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn apply_token_rule(
    rule: &TokenRule,
    path: &str,
    lines: &[Line],
    is_test: &[bool],
    markers: &[Marker],
    findings: &mut Vec<Finding>,
) {
    if !(rule.applies)(path) {
        return;
    }
    for (ln, line) in lines.iter().enumerate() {
        if is_test[ln] {
            continue;
        }
        for token in rule.tokens {
            if token_match(&line.code, token) && !allowed(markers, lines, rule.name, ln) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: ln + 1,
                    id: rule.id,
                    rule: rule.name,
                    message: format!("{} ({token})", rule.message),
                });
            }
        }
    }
}

fn apply_safety_rule(
    rule: &SafetyCommentRule,
    path: &str,
    lines: &[Line],
    is_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (ln, line) in lines.iter().enumerate() {
        if is_test[ln] || !token_match(&line.code, "unsafe") {
            continue;
        }
        // Look upward through contiguous comment / attribute / empty-code
        // lines (and this line's own comment) for a SAFETY: tag.
        let mut ok = line.comment.contains("SAFETY:");
        let mut k = ln;
        while !ok && k > 0 {
            k -= 1;
            let prev = &lines[k];
            let code = prev.code.trim();
            let is_annotation = code.is_empty() || code.starts_with("#[");
            if prev.comment.contains("SAFETY:") {
                ok = true;
            } else if !is_annotation {
                break;
            }
        }
        if !ok {
            findings.push(Finding {
                path: path.to_string(),
                line: ln + 1,
                id: rule.id,
                rule: rule.name,
                message: "unsafe without a preceding // SAFETY: comment".to_string(),
            });
        }
    }
}

fn apply_metric_rule(
    rule: &MetricNameRule,
    path: &str,
    lines: &[Line],
    is_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (ln, line) in lines.iter().enumerate() {
        if is_test[ln] {
            continue;
        }
        let registers = rule.callsites.iter().any(|c| line.code.contains(c));
        if !registers {
            continue;
        }
        // Only the first string literal on the line is the metric/event
        // name; later ones are free-form detail payloads.
        if let Some(s) = line.strings.first() {
            if !valid_metric_name(s) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: ln + 1,
                    id: rule.id,
                    rule: rule.name,
                    message: format!(
                        "metric/event name {s:?} is not subsystem.noun_verb style \
                         (lowercase dot-separated segments)"
                    ),
                });
            }
        }
    }
}

fn apply_raw_lock_rule(
    rule: &crate::rules::RawLockRule,
    path: &str,
    lines: &[Line],
    is_test: &[bool],
    markers: &[Marker],
    findings: &mut Vec<Finding>,
) {
    if !crate::rules::raw_lock_scope(path) {
        return;
    }
    for (ln, line) in lines.iter().enumerate() {
        if is_test[ln] || allowed(markers, lines, rule.name, ln) {
            continue;
        }
        // `std::sync::Mutex`, `use std::sync::{Mutex, ..}` — any whole-word
        // lock type in the remainder of a `std::sync::` line. `MutexGuard`
        // and the atomics stay legal: only the lock types bypass the rank
        // detector.
        let Some(at) = line.code.find("std::sync::") else { continue };
        let rest = &line.code[at + "std::sync::".len()..];
        if ["Mutex", "RwLock", "Condvar"].iter().any(|t| token_match(rest, t)) {
            findings.push(Finding {
                path: path.to_string(),
                line: ln + 1,
                id: rule.id,
                rule: rule.name,
                message: "raw std::sync lock outside s2_common::sync — bypasses the rank \
                          detector and the L1/L2 static checks"
                    .to_string(),
            });
        }
    }
}

/// Lint one file's source. `path` must be repo-relative with `/` separators
/// (it drives per-rule file scoping).
pub fn lint_source(path: &str, src: &str, rules: &[Rule]) -> Vec<Finding> {
    let lines = lex(src);
    let is_test = test_spans(&lines);
    let markers = parse_markers(&lines);
    let mut findings = Vec::new();

    for m in &markers {
        if m.rule.is_empty() || !rule_names().contains(&m.rule.as_str()) {
            findings.push(Finding {
                path: path.to_string(),
                line: m.line + 1,
                id: "lint",
                rule: "malformed-marker",
                message: format!(
                    "unparseable s2-lint marker (expected `s2-lint: allow(<rule>, <reason>)` \
                     with a known rule; got rule {:?})",
                    m.rule
                ),
            });
        } else if !m.has_reason {
            findings.push(Finding {
                path: path.to_string(),
                line: m.line + 1,
                id: "lint",
                rule: "malformed-marker",
                message: format!("allow({}) marker is missing its reason", m.rule),
            });
        }
    }

    for rule in rules {
        match &rule.kind {
            RuleKind::Token(t) => {
                apply_token_rule(t, path, &lines, &is_test, &markers, &mut findings)
            }
            RuleKind::SafetyComment(r) => {
                apply_safety_rule(r, path, &lines, &is_test, &mut findings)
            }
            RuleKind::MetricName(m) => apply_metric_rule(m, path, &lines, &is_test, &mut findings),
            RuleKind::RawLock(r) => {
                apply_raw_lock_rule(r, path, &lines, &is_test, &markers, &mut findings)
            }
        }
    }
    findings.sort_by(|a, b| (a.line, a.id).cmp(&(b.line, b.id)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::all_rules;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src, &all_rules())
    }

    // ---------------------------------------------------------------- R1
    #[test]
    fn r1_flags_wall_clock_in_deterministic_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        let f = lint("crates/sim/src/plan.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wall-clock");
        // The same source outside the deterministic set is clean.
        assert!(lint("crates/query/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r1_marker_suppresses_with_reason() {
        let src = "// s2-lint: allow(wall-clock, drill timing is real time)\n\
                   let t = Instant::now();";
        assert!(lint("crates/sim/src/outage.rs", src).is_empty());
        // Without a reason the marker itself is a finding, and the rule fires.
        let bad = "// s2-lint: allow(wall-clock)\nlet t = Instant::now();";
        let f = lint("crates/sim/src/outage.rs", bad);
        assert!(f.iter().any(|x| x.rule == "malformed-marker"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "wall-clock"), "{f:?}");
    }

    // ---------------------------------------------------------------- R2
    #[test]
    fn r2_flags_unwrap_on_commit_path_crates_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"nope\"); }";
        let f = lint("crates/wal/src/log.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unwrap"));
        assert!(lint("crates/query/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r2_exempts_test_code_and_strings() {
        let src = "fn f() { log(\"never .unwrap() here\"); }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}";
        assert!(lint("crates/core/src/partition.rs", src).is_empty());
    }

    #[test]
    fn r2_marker_on_same_line_suppresses() {
        let src = "let v = x.unwrap(); // s2-lint: allow(unwrap, length checked two lines above)";
        assert!(lint("crates/rowstore/src/mvcc.rs", src).is_empty());
    }

    // ---------------------------------------------------------------- R4
    #[test]
    fn r4_requires_safety_comment_before_unsafe() {
        let bad = "fn f(p: *const u8) { let v = unsafe { *p }; }";
        let f = lint("crates/anywhere/src/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "safety-comment");
        let good = "// SAFETY: p is valid for reads by contract.\n\
                    fn f(p: *const u8) { let v = unsafe { *p }; }";
        assert!(lint("crates/anywhere/src/x.rs", good).is_empty());
        // Attribute lines between the comment and the unsafe item are fine.
        let attr = "// SAFETY: all mutation is via atomics.\n#[allow(dead_code)]\n\
                    unsafe impl Send for T {}";
        assert!(lint("crates/anywhere/src/x.rs", attr).is_empty());
    }

    #[test]
    fn r4_ignores_the_word_unsafe_in_strings_and_comments() {
        let src = "// this API is unsafe to misuse\nlet s = \"unsafe\";";
        assert!(lint("crates/anywhere/src/x.rs", src).is_empty());
    }

    // ---------------------------------------------------------------- R5
    #[test]
    fn r5_checks_metric_names_at_registration_sites() {
        // Only event sites: a metric name is L4's, so a bad one is reported once.
        let bad = "s2_obs::counter!(\"BadName\").inc();\ns2_obs::event(\"oneword\", d);\n\
                   ring.event(\"Bad.Name\", d);";
        let f = lint("crates/exec/src/pool.rs", bad);
        assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), [2, 3], "{f:?}");
        assert!(f.iter().all(|x| x.rule == "metric-name"));
        let good = "s2_obs::counter!(\"exec.pool.morsels\").inc();\n\
                    s2_obs::event(\"blob.cache_pressure\", d);";
        assert!(lint("crates/exec/src/pool.rs", good).is_empty());
    }

    #[test]
    fn r5_exempts_test_metric_names() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { r.counter(\"x\"); \
                   s2_obs::counter!(\"race\").inc(); }\n}";
        assert!(lint("crates/obs/src/ring.rs", src).is_empty());
    }

    // ------------------------------------------------------------ markers
    #[test]
    fn unknown_rule_in_marker_is_reported() {
        let src = "// s2-lint: allow(made-up-rule, because)\nfn f() {}";
        let f = lint("crates/anywhere/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "malformed-marker");
    }

    #[test]
    fn findings_render_machine_readable() {
        let f = lint("crates/wal/src/log.rs", "x.unwrap();");
        assert_eq!(format!("{}", f[0]), "crates/wal/src/log.rs:1: R2/unwrap: forbidden panic path on a commit-path crate (.unwrap())");
    }
}
