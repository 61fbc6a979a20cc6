//! CLI driver: lint every `crates/**/src/**/*.rs` file in the workspace
//! with the per-line rules (R1, R2, R4–R6), then run the interprocedural checks
//! (L1–L4) over the whole program model plus DESIGN.md.
//!
//! Output is one line per finding, `path:line: ID/rule: message`, sorted
//! by path then line, plus a trailing per-rule summary on stderr. Exit
//! status is nonzero iff any finding was produced, so CI can gate on it.
//!
//! Flags:
//! - `--json <path>` — also write the findings as a JSON array.
//! - `--explain <ID>` — print what a rule checks and why; exit.
//! - `--dump-metrics` — print the canonical DESIGN.md metrics table
//!   (markers included) built from the code's registration sites; exit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use s2_lint::workspace::{analyze_workspace, SourceFile};
use s2_lint::{all_rules, lint_source, Finding};

/// Workspace root: this crate lives at `<root>/crates/analyze`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Collect every `.rs` file under a `src/` directory of any crate, sorted
/// for deterministic output.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.components().any(|c| c.as_os_str() == "src")
            {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"path\": \"{}\", \"line\": {}, \"id\": \"{}\", \"rule\": \"{}\", \
             \"message\": \"{}\"}}{}\n",
            json_escape(&f.path),
            f.line,
            f.id,
            f.rule,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<PathBuf> = None;
    let mut dump_metrics = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--explain" => {
                let Some(id) = args.get(i + 1) else {
                    eprintln!("s2-lint: --explain needs a rule id (R1, R2, R4..R6, L1..L4)");
                    return ExitCode::FAILURE;
                };
                return match s2_lint::rules::explain(id) {
                    Some(text) => {
                        println!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("s2-lint: unknown rule {id:?} (try R1, R2, R4..R6, L1..L4)");
                        ExitCode::FAILURE
                    }
                };
            }
            "--json" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("s2-lint: --json needs an output path");
                    return ExitCode::FAILURE;
                };
                json_path = Some(PathBuf::from(p));
                i += 2;
                continue;
            }
            "--dump-metrics" => {
                dump_metrics = true;
                i += 1;
            }
            other => {
                eprintln!("s2-lint: unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let rules = all_rules();

    let mut files: Vec<SourceFile> = Vec::new();
    let mut unreadable = 0usize;
    for path in collect_sources(&root) {
        let rel = path.strip_prefix(&root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(&path) {
            Ok(src) => files.push(SourceFile { path: rel, src }),
            Err(e) => {
                eprintln!("s2-lint: cannot read {rel}: {e}");
                unreadable += 1;
            }
        }
    }

    if dump_metrics {
        let models: Vec<_> =
            files.iter().map(|f| s2_lint::items::parse_file(&f.path, &f.src)).collect();
        print!("{}", s2_lint::metrics::dump_table(&models));
        return ExitCode::SUCCESS;
    }

    // Per-line rules (R1, R2, R4–R6), then the interprocedural pass (L1–L4).
    let mut findings: Vec<Finding> = Vec::new();
    for f in &files {
        findings.extend(lint_source(&f.path, &f.src, &rules));
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    findings.extend(analyze_workspace(&files, design.as_deref()));
    findings.sort_by(|a, b| (&a.path, a.line, a.id).cmp(&(&b.path, b.line, b.id)));

    if let Some(p) = &json_path {
        if let Some(dir) = p.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(p, to_json(&findings)) {
            eprintln!("s2-lint: cannot write {}: {e}", p.display());
            unreadable += 1;
        }
    }

    let mut by_rule: Vec<(String, usize)> = Vec::new();
    for finding in &findings {
        println!("{finding}");
        let key = format!("{}/{}", finding.id, finding.rule);
        match by_rule.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => by_rule.push((key, 1)),
        }
    }

    let total = findings.len() + unreadable;
    if total == 0 {
        eprintln!("s2-lint: clean ({} rules + L1-L4 over {} files)", rules.len(), files.len());
        ExitCode::SUCCESS
    } else {
        by_rule.sort();
        let summary: Vec<String> = by_rule.iter().map(|(k, n)| format!("{k}: {n}")).collect();
        eprintln!("s2-lint: {total} finding(s) [{}]", summary.join(", "));
        ExitCode::FAILURE
    }
}
