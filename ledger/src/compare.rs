//! `ledger compare <base.json> <new.json>`: applies each end-to-end metric's
//! direction and bound from `BENCHMARK.json` to two ledger files, one row per
//! (metric, workload).

use crate::json::Json;
use crate::stats;

/// How one (metric, workload) pair moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The spread between a side's own rounds exceeds the bound, so the pair
    /// says nothing either way.
    Unresolved,
}

/// Judge `new` against `base`. `spreads` are each side's quartile spread as a
/// share of its median, where known.
pub fn verdict(
    base: f64,
    new: f64,
    higher_is_better: bool,
    bound: f64,
    spreads: [Option<f64>; 2],
) -> Verdict {
    if spreads.iter().flatten().any(|&s| s > bound) {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base.
    let worse_by = if higher_is_better { (base - new) / base } else { (new - base) / base };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |d, k| d.get(k))
}

/// Compare two ledger files; `Ok(true)` when nothing regressed.
pub fn run(base_path: &str, new_path: &str, benchmark_path: &str) -> Result<bool, String> {
    let (base, new, bench) = (load(base_path)?, load(new_path)?, load(benchmark_path)?);

    let parallelism =
        |d: &Json| field(d, &["record", "available_parallelism"]).and_then(Json::as_f64);
    if parallelism(&base) != parallelism(&new) {
        return Err(format!(
            "host parallelism differs ({:?} vs {:?}): the ledgers are not comparable",
            parallelism(&base),
            parallelism(&new)
        ));
    }
    for (name, b) in base.get("workloads").map_or(&[][..], Json::fields) {
        let n = field(&new, &["workloads", name])
            .ok_or(format!("workload {name} missing from {new_path}"))?;
        if b.get("fingerprint") != n.get("fingerprint") {
            return Err(format!(
                "workload {name}: fingerprints differ, the two runs did different work"
            ));
        }
    }

    println!(
        "{:<13} {:<10} {:>12} {:>12} {:>8}  {:<5} {:>6}  verdict",
        "metric", "workload", "base", "new", "new/base", "unit", "bound"
    );
    let mut ok = true;
    for metric in bench.get("end_to_end").map_or(&[][..], Json::items) {
        let name =
            metric.get("name").and_then(Json::as_str).ok_or("end_to_end entry without a name")?;
        let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
        let bound =
            metric.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without a bound")?;
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        for (workload, b) in base.get("workloads").map_or(&[][..], Json::fields) {
            let side = |doc: &Json| -> Option<(f64, Option<f64>)> {
                let m = field(doc, &["end_to_end", name])?;
                let rounds: Vec<f64> = m
                    .get("rounds")
                    .map_or(&[][..], Json::items)
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                Some((m.get("value")?.as_f64()?, stats::spread(&rounds)))
            };
            let n = field(&new, &["workloads", workload]).expect("checked above");
            let (Some((bv, bs)), Some((nv, ns))) = (side(b), side(n)) else {
                println!("{name:<13} {workload:<10} missing on one side");
                ok = false;
                continue;
            };
            let v = verdict(bv, nv, higher, bound, [bs, ns]);
            ok &= v != Verdict::Worse;
            println!(
                "{name:<13} {workload:<10} {bv:>12.4} {nv:>12.4} {:>8.3}  {unit:<5} {:>5.0}%  {}",
                nv / bv,
                bound * 100.0,
                match v {
                    Verdict::Better => "better",
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let quiet = [Some(0.01), Some(0.02)];
        // Lower is better, bound 10 %.
        assert_eq!(verdict(100.0, 105.0, false, 0.10, quiet), Verdict::Within);
        assert_eq!(verdict(100.0, 111.0, false, 0.10, quiet), Verdict::Worse);
        assert_eq!(verdict(100.0, 85.0, false, 0.10, quiet), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(100.0, 111.0, true, 0.10, quiet), Verdict::Better);
        assert_eq!(verdict(100.0, 85.0, true, 0.10, quiet), Verdict::Worse);
        assert_eq!(verdict(100.0, 95.0, true, 0.10, quiet), Verdict::Within);
        // A side whose own rounds spread wider than the bound resolves nothing.
        assert_eq!(
            verdict(100.0, 150.0, false, 0.10, [Some(0.3), Some(0.01)]),
            Verdict::Unresolved
        );
        assert_eq!(verdict(100.0, 150.0, false, 0.10, [None, Some(0.11)]), Verdict::Unresolved);
        // Unknown spreads (single round) do not block a verdict.
        assert_eq!(verdict(100.0, 150.0, false, 0.10, [None, None]), Verdict::Worse);
    }
}
