//! CLI for the crash-recovery simulator.
//!
//! ```text
//! cargo run -p s2-sim -- --seed 42 --scenarios 200 [--verbose]
//! cargo run -p s2-sim -- --scenario outage --seed 7 --scenarios 10
//! ```
//!
//! `--scenario crash` (default) runs the crash-recovery sweep; `group` runs
//! the same sweep with boosted `wal.group.*` kill points; `outage` runs
//! blob-outage drills against the resilience layer; `workspace` drills
//! elastic workspace fleets (provision/detach churn with kill points,
//! transient bursts, a total blob outage, convergence to the primary); `sql`
//! runs generated queries through the full s2-sql pipeline against a
//! plain-Rust oracle. Exit code 0 means every scenario upheld every
//! invariant; 1 means at least one violation (each printed with its
//! replayable seed and decision trace).

fn main() {
    let mut seed = 42u64;
    let mut scenarios = 200usize;
    let mut verbose = false;
    let mut scenario = "crash".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--scenarios" => {
                scenarios = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scenarios needs an integer"));
            }
            "--scenario" => {
                scenario = args
                    .next()
                    .unwrap_or_else(|| die("--scenario needs crash|group|outage|workspace|sql"));
                if scenario != "crash"
                    && scenario != "group"
                    && scenario != "outage"
                    && scenario != "workspace"
                    && scenario != "sql"
                {
                    die("--scenario needs crash|group|outage|workspace|sql");
                }
            }
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: s2-sim [--scenario crash|group|outage|workspace|sql] [--seed N] \
                     [--scenarios N] [--verbose]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    if scenario == "sql" {
        println!("s2-sim: {scenarios} sql drills from seed {seed}");
        let summary = s2_sim::run_sql_many(seed, scenarios, verbose);
        println!("{}", summary.summary_line());
        if !summary.failures.is_empty() {
            println!("\nreproduce with:");
            for v in &summary.failures {
                println!("  cargo run -p s2-sim -- --scenario sql --seed {} --scenarios 1", v.seed);
            }
            std::process::exit(1);
        }
        return;
    }

    if scenario == "group" {
        println!("s2-sim: {scenarios} group-commit crash drills from seed {seed}");
        let summary = s2_sim::run_group_many(seed, scenarios, verbose);
        println!("{}", summary.summary_line());
        if !summary.failures.is_empty() {
            println!("\nreproduce with:");
            for v in &summary.failures {
                println!(
                    "  cargo run -p s2-sim -- --scenario group --seed {} --scenarios 1",
                    v.seed
                );
            }
            std::process::exit(1);
        }
        return;
    }

    if scenario == "workspace" {
        println!("s2-sim: {scenarios} workspace drills from seed {seed}");
        let summary = s2_sim::run_workspace_many(seed, scenarios, verbose);
        println!("{}", summary.summary_line());
        if !summary.failures.is_empty() {
            println!("\nreproduce with:");
            for v in &summary.failures {
                println!(
                    "  cargo run -p s2-sim -- --scenario workspace --seed {} --scenarios 1",
                    v.seed
                );
            }
            std::process::exit(1);
        }
        return;
    }

    if scenario == "outage" {
        println!("s2-sim: {scenarios} outage drills from seed {seed}");
        let summary = s2_sim::run_outage_many(seed, scenarios, verbose);
        println!("{}", summary.summary_line());
        if !summary.failures.is_empty() {
            println!("\nreproduce with:");
            for v in &summary.failures {
                println!(
                    "  cargo run -p s2-sim -- --scenario outage --seed {} --scenarios 1",
                    v.seed
                );
            }
            std::process::exit(1);
        }
        return;
    }

    println!("s2-sim: {scenarios} scenarios from seed {seed}");
    let summary = s2_sim::run_many(seed, scenarios, verbose);
    println!("{}", summary.summary_line());
    if !summary.failures.is_empty() {
        println!("\nreproduce with:");
        for v in &summary.failures {
            println!("  cargo run -p s2-sim -- --seed {} --scenarios 1", v.seed);
        }
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("s2-sim: {msg}");
    std::process::exit(2);
}
