//! Integration tests for the interprocedural checks (L1–L4): each check
//! has a seeded-violation fixture, a waivered twin, and a clean twin, plus
//! regression tests over the real WAL sources and the live workspace.

use std::path::{Path, PathBuf};

use s2_lint::workspace::{analyze_workspace, SourceFile};
use s2_lint::{all_rules, lint_source, Finding};

fn run(files: &[(&str, &str)], design: Option<&str>) -> Vec<Finding> {
    let files: Vec<SourceFile> =
        files.iter().map(|(p, s)| SourceFile { path: p.to_string(), src: s.to_string() }).collect();
    analyze_workspace(&files, design)
}

fn ids(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.id).collect()
}

// ------------------------------------------------------------------ L1

#[test]
fn l1_fires_on_cluster_context_inversion_shape() {
    let findings =
        run(&[("crates/cluster/src/ctx.rs", include_str!("fixtures/l1_violation.rs"))], None);
    assert_eq!(ids(&findings), ["L1", "L1"], "unexpected: {findings:#?}");
    // Direct inversion names both classes.
    assert!(findings[0].message.contains("cluster.topology"), "{}", findings[0].message);
    assert!(findings[0].message.contains("cluster.tables"), "{}", findings[0].message);
    // Interprocedural inversion reports the call chain to the acquire.
    let via = &findings[1];
    assert!(via.message.contains("bump_epoch"), "chain missing: {}", via.message);
}

#[test]
fn l1_waiver_suppresses_the_finding() {
    let findings =
        run(&[("crates/cluster/src/ctx.rs", include_str!("fixtures/l1_waivered.rs"))], None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

#[test]
fn l1_accepts_ascending_order_and_scoped_guards() {
    let findings =
        run(&[("crates/cluster/src/ctx.rs", include_str!("fixtures/l1_clean.rs"))], None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

// ------------------------------------------------------------------ L2

#[test]
fn l2_fires_on_blocking_calls_under_commit_lock() {
    let findings = run(&[("crates/wal/src/w.rs", include_str!("fixtures/l2_violation.rs"))], None);
    assert_eq!(ids(&findings), ["L2", "L2", "L2"], "unexpected: {findings:#?}");
    assert!(findings[0].message.contains("wal.log"), "{}", findings[0].message);
    // The interprocedural one points through the callee.
    assert!(findings[1].message.contains("flush_disk"), "{}", findings[1].message);
    // A sleep under the lock is blocking too; the upload enqueue is not.
    assert!(findings[2].message.contains("thread::sleep"), "{}", findings[2].message);
}

#[test]
fn l2_waiver_suppresses_the_finding() {
    let findings = run(&[("crates/wal/src/w.rs", include_str!("fixtures/l2_waivered.rs"))], None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

#[test]
fn l2_accepts_group_commit_leader_protocol() {
    let findings = run(&[("crates/wal/src/w.rs", include_str!("fixtures/l2_clean.rs"))], None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

// ------------------------------------------------------------------ L3

#[test]
fn l3a_fires_on_uncovered_wal_mutation() {
    let findings =
        run(&[("crates/wal/src/seg.rs", include_str!("fixtures/l3a_violation.rs"))], None);
    assert_eq!(ids(&findings), ["L3"], "unexpected: {findings:#?}");
    assert!(findings[0].message.contains("truncate_tail"), "{}", findings[0].message);
}

#[test]
fn l3a_waiver_suppresses_the_finding() {
    let findings =
        run(&[("crates/wal/src/seg.rs", include_str!("fixtures/l3a_waivered.rs"))], None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

#[test]
fn l3a_accepts_hooked_mutation() {
    let findings = run(&[("crates/wal/src/seg.rs", include_str!("fixtures/l3a_clean.rs"))], None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

#[test]
fn l3b_fires_when_no_delete_impl_is_injectable() {
    // Also the closure-parameter regression: `guarded(attempt: impl Fn())`
    // calls `attempt()`; resolving that to the hooked free `attempt` fn
    // would wrongly cover every verb routed through `guarded`.
    let findings =
        run(&[("crates/blob/src/s.rs", include_str!("fixtures/l3b_violation.rs"))], None);
    assert_eq!(ids(&findings), ["L3"], "unexpected: {findings:#?}");
    assert!(findings[0].message.contains("delete"), "{}", findings[0].message);
}

#[test]
fn l3b_accepts_one_injectable_impl_per_verb() {
    let findings = run(&[("crates/blob/src/s.rs", include_str!("fixtures/l3b_clean.rs"))], None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

// ------------------------------------------------------------------ L4

#[test]
fn l4_fires_on_registry_and_doc_table_drift() {
    let findings = run(
        &[("crates/obs/src/m.rs", include_str!("fixtures/l4_violation.rs"))],
        Some(include_str!("fixtures/l4_design_violation.md")),
    );
    assert!(findings.iter().all(|f| f.id == "L4"), "unexpected: {findings:#?}");
    let has = |needle: &str| findings.iter().any(|f| f.message.contains(needle));
    assert!(has("fix.ops"), "kind conflict not reported: {findings:#?}");
    assert!(has("Fix-Bad-Name"), "style violation not reported: {findings:#?}");
    assert!(has("fix.extra"), "code-not-in-table not reported: {findings:#?}");
    assert!(has("fix.ghost"), "stale doc row not reported: {findings:#?}");
    assert!(has("fix.lat_us"), "kind mismatch not reported: {findings:#?}");
    // Doc-side findings anchor to DESIGN.md rows.
    assert!(findings.iter().any(|f| f.path == "DESIGN.md"), "unexpected: {findings:#?}");
}

#[test]
fn l4_waiver_suppresses_the_finding() {
    let findings = run(
        &[("crates/obs/src/m.rs", include_str!("fixtures/l4_waivered.rs"))],
        Some(include_str!("fixtures/l4_design_waivered.md")),
    );
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

#[test]
fn l4_accepts_synced_registry() {
    let findings = run(
        &[("crates/obs/src/m.rs", include_str!("fixtures/l4_clean.rs"))],
        Some(include_str!("fixtures/l4_design_clean.md")),
    );
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

// ---------------------------------------------------- real-source gates

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

fn read_real(root: &Path, rel: &str) -> SourceFile {
    SourceFile {
        path: rel.to_string(),
        src: std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}")),
    }
}

/// The PR-7 group-commit protocol (leader stages under `wal.group`, drops
/// every guard, THEN fsyncs via `Log::sync`) must pass L1/L2 unmodified.
#[test]
fn real_wal_group_commit_passes_lock_checks() {
    let root = workspace_root();
    let files = vec![
        read_real(&root, "crates/wal/src/group.rs"),
        read_real(&root, "crates/wal/src/log.rs"),
    ];
    let findings = analyze_workspace(&files, None);
    assert!(findings.is_empty(), "unexpected: {findings:#?}");
}

/// Whole-workspace regression: the live tree analyzes clean (all waivers
/// in place, DESIGN.md metrics table in sync). Mirrors the CI gate.
#[test]
fn live_workspace_is_clean() {
    let root = workspace_root();
    let mut rels: Vec<PathBuf> = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.components().any(|c| c.as_os_str() == "src")
            {
                rels.push(path);
            }
        }
    }
    rels.sort();
    let files: Vec<SourceFile> = rels
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
            read_real(&root, &rel)
        })
        .collect();
    assert!(files.len() > 50, "workspace walk found only {} files", files.len());

    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let findings = analyze_workspace(&files, Some(&design));
    assert!(findings.is_empty(), "live workspace has findings: {findings:#?}");

    let rules = all_rules();
    for f in &files {
        let per_line = lint_source(&f.path, &f.src, &rules);
        assert!(per_line.is_empty(), "per-line findings in {}: {per_line:#?}", f.path);
    }
}

// ------------------------------------------------------------- parsing

#[test]
fn signature_params_are_captured_and_bare_calls_to_them_skipped() {
    let model = s2_lint::items::parse_file(
        "crates/x/src/a.rs",
        "fn guarded(attempt: impl Fn() -> u32, n: u32) -> u32 {\n    attempt() + n\n}\n",
    );
    assert_eq!(model.fns.len(), 1);
    assert_eq!(model.fns[0].params, ["attempt", "n"]);
}
