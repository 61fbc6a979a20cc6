//! The perf ledger: one benchmark driver for the S2DB reproduction.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON result line
//! ledger run --seed <n> --out <dir> [--seconds <s>] [--smoke]       all four workloads, ledger.json + traces
//! ledger compare <base.json> <new.json> [--benchmark <path>]        judge two ledgers by BENCHMARK.json
//! ledger spec                                                       print BENCHMARK.json from the catalog
//! ```
//!
//! See `README.md` beside this package for the metric glossary.

mod compare;
mod engine;
mod json;
mod layers;
mod metrics;
mod obs;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use metrics::{Metrics, PER_LAYER, SLOTS, WORKLOADS};
use workloads::{Args, Outcome, Sizes};

/// Value of `--flag value` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
        .transpose()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("spec") => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => single(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

/// The driver contract: one workload, one result line as the last line of
/// standard output. `--trace 0` prints every end-to-end metric, `--trace 1`
/// every per-layer metric.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")
        .ok_or("usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>")?;
    let index = metrics::workload_index(workload).ok_or(format!("no workload {workload:?}"))?;
    let traced = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad value {other:?} for --trace")),
    };
    let run = Args {
        seed: parsed(args, "--seed")?.unwrap_or(42),
        seconds: parsed(args, "--seconds")?.unwrap_or(metrics::RUN_SECONDS as f64),
        traced,
        sizes: Sizes::full(),
    };
    let out = workloads::run(workload, &run).map_err(|e| format!("{workload}: {e}"))?;
    for line in &out.problems {
        eprintln!("{workload}: {line}");
    }
    let reported: Metrics =
        if traced { out.layer.clone() } else { metrics::slots_of(index, &out.native) };
    let expected: Vec<&str> = if traced {
        PER_LAYER.iter().map(|p| p.0).collect()
    } else {
        SLOTS.iter().map(|s| s.name).collect()
    };
    let mut values = Json::obj();
    for name in expected {
        let m = reported.get(name).ok_or(format!("{workload}: metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("{workload}: metric {name} is not a number"));
        }
        values.set(name, Json::obj().with("value", m.value).with("unit", m.unit));
        if !m.rounds.is_empty() {
            eprintln!("{workload}: {name} {} {} over rounds {:?}", m.value, m.unit, m.rounds);
        }
    }
    let line = Json::obj()
        .with("correct", out.correct())
        .with("attempted", out.attempted.max(1))
        .with("failed", out.failed)
        .with("metrics", values);
    println!("{}", line.compact());
    Ok(ExitCode::SUCCESS)
}

/// Every `S2_*` variable in the environment. The ledger sets none; it records
/// what it saw so that two runs under different switches are told apart.
fn s2_env() -> Json {
    let mut vars: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("S2_")).collect();
    vars.sort();
    Json::Obj(vars.into_iter().map(|(k, v)| (k, Json::Str(v))).collect())
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
}

fn workload_json(index: usize, out: &Outcome) -> Json {
    let error_share =
        if out.check_failed { 1.0 } else { out.failed as f64 / out.attempted.max(1) as f64 };
    let mut native = out.native.clone();
    metrics::put(&mut native, "error_share", error_share, "share");
    Json::obj()
        .with("loop", "closed")
        .with("clients", out.clients)
        .with("rounds", out.rounds)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("problems", out.problems.iter().map(|p| Json::from(p.as_str())).collect::<Vec<_>>())
        .with(
            "fingerprint",
            Json::Obj(
                out.fingerprint.iter().map(|(k, v)| (k.clone(), Json::from(v.as_str()))).collect(),
            ),
        )
        .with("end_to_end", metrics_json(&metrics::slots_of(index, &native)))
        .with("native", metrics_json(&native))
        .with("per_layer", metrics_json(&out.layer))
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("  {title}:");
    for (name, v) in m {
        let tail = v.tail.map_or(String::new(), |(p, t)| format!("  p{} {t:.4}", p * 100.0));
        let n = if v.n > 0 { format!("  n={}", v.n) } else { String::new() };
        println!("    {name:<36} {:>14.4} {}{tail}{n}", v.value, v.unit);
    }
}

/// `ledger run`: every workload, untraced and traced blocks, all metrics
/// printed by name with their unit, `ledger.json` and one trace file per
/// workload written to `--out`.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let out_dir = flag(args, "--out")
        .ok_or("usage: ledger run --seed <n> --out <dir> [--seconds <s>] [--smoke]")?;
    let seed = parsed(args, "--seed")?.unwrap_or(42);
    let smoke = args.iter().any(|a| a == "--smoke");
    // One measured phase of about 30 s per workload (ISSUE 11's window);
    // the smoke run does a single round of a few hundred operations.
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(if smoke { 0.0 } else { 30.0 });
    let sizes = if smoke { Sizes::smoke() } else { Sizes::full() };
    let doc = run_ledger(seed, seconds, sizes, Path::new(out_dir))?;
    let clean = doc
        .get("workloads")
        .map_or(&[][..], Json::fields)
        .iter()
        .all(|(_, w)| w.get("failed").and_then(Json::as_f64) == Some(0.0));
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn run_ledger(seed: u64, seconds: f64, sizes: Sizes, out_dir: &Path) -> Result<Json, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = Json::obj()
        .with("git_revision", git_revision())
        .with("available_parallelism", parallelism)
        .with("env", s2_env())
        .with("seed", seed)
        .with("seconds_per_workload", seconds)
        .with("sizes", sizes.to_json());
    let mut workloads_json = Json::obj();
    for (index, (name, why)) in WORKLOADS.iter().enumerate() {
        println!("== {name}: {why}");
        let run = Args { seed, seconds, traced: true, sizes: sizes.clone() };
        let out = workloads::run(name, &run).map_err(|e| format!("{name}: {e}"))?;
        println!(
            "  loop: closed, clients: {}, rounds: {}, attempted: {}, failed: {}",
            out.clients, out.rounds, out.attempted, out.failed
        );
        for line in &out.problems {
            println!("  PROBLEM: {line}");
        }
        let doc = workload_json(index, &out);
        print_metrics("end to end (untraced blocks)", &metrics::slots_of(index, &out.native));
        print_metrics("native", &out.native);
        print_metrics("per layer (traced blocks and probes)", &out.layer);
        let trace_path = out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&trace_path, trace::to_json(name, &out.spans).compact())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        workloads_json.set(name, doc);
    }
    let doc = Json::obj().with("record", record).with("workloads", workloads_json);
    let path = out_dir.join("ledger.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(doc)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let benchmark = flag(args, "--benchmark").unwrap_or("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            it.next();
        } else {
            files.push(a.as_str());
        }
    }
    let [base, new] = files[..] else {
        return Err("usage: ledger compare <base.json> <new.json> [--benchmark <path>]".into());
    };
    Ok(if compare::run(base, new, benchmark)? { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few hundred operations per workload: every metric ISSUE 11 names
    /// appears in the ledger, every catalog metric on every workload, and the
    /// ledger compares clean against itself.
    #[test]
    fn smoke_run_reports_every_metric() {
        let dir = std::env::current_exe()
            .unwrap()
            .parent()
            .unwrap()
            .join(format!("ledger-smoke-{}", std::process::id()));
        let doc = run_ledger(7, 0.0, Sizes::smoke(), &dir).unwrap();
        let workloads = doc.get("workloads").unwrap().fields();
        assert_eq!(workloads.len(), WORKLOADS.len());

        let mut seen = std::collections::BTreeSet::new();
        for (name, w) in workloads {
            assert_eq!(
                w.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{name}: {:?}",
                w.get("problems")
            );
            for section in ["end_to_end", "native", "per_layer"] {
                for (metric, v) in w.get(section).unwrap().fields() {
                    let value = v.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name}.{section}.{metric} = {value:?}"
                    );
                    // `query.exec_ms.q01` also counts as `query.exec_ms`.
                    seen.insert(metric.clone());
                    seen.insert(
                        metric
                            .rsplit_once('.')
                            .map_or(metric.as_str(), |(head, _)| head)
                            .to_string(),
                    );
                }
            }
            for slot in &SLOTS {
                let v =
                    w.get("end_to_end").and_then(|e| e.get(slot.name)).and_then(|m| m.get("value"));
                assert!(
                    v.and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                    "{name}: slot {} = {v:?}",
                    slot.name
                );
            }
            for (metric, _, _) in &PER_LAYER {
                assert!(
                    w.get("per_layer").and_then(|p| p.get(metric)).is_some(),
                    "{name}: no {metric}"
                );
            }
            assert!(!w.get("fingerprint").unwrap().fields().is_empty());
            assert!(dir.join(format!("trace-{name}.json")).exists());
        }
        for name in metrics::issue_names() {
            assert!(seen.contains(&name), "metric {name} of ISSUE 11 is missing from the ledger");
        }

        let ledger = dir.join("ledger.json");
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(&bench, metrics::benchmark_json().pretty()).unwrap();
        let (ledger, bench) = (ledger.to_str().unwrap(), bench.to_str().unwrap());
        assert_eq!(compare::run(ledger, ledger, bench), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
