//! CLI for the simulator: one drill from the table, swept over a seed range.
//!
//! ```text
//! cargo run -p s2-sim -- --seed 42 --scenarios 200 [--verbose]
//! cargo run -p s2-sim -- --scenario outage --seed 7 --scenarios 10
//! ```
//!
//! `--scenario` names an entry of `s2_sim::DRILLS` (`crash`, the default;
//! `group`, `outage`, `workspace`, `sql`). Exit code 0 means every drill
//! upheld every invariant; 1 means at least one violation (each printed
//! with its replayable seed and trace).

use std::str::FromStr;

fn main() {
    let names = s2_sim::DRILLS.iter().map(|d| d.name).collect::<Vec<_>>().join("|");
    let mut drill = s2_sim::drill("crash").expect("crash is in the drill table");
    let mut seed = 42u64;
    let mut scenarios = 200usize;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = parse(args.next(), "--seed needs an integer"),
            "--scenarios" => scenarios = parse(args.next(), "--scenarios needs an integer"),
            "--scenario" => {
                drill = args
                    .next()
                    .and_then(|name| s2_sim::drill(&name))
                    .unwrap_or_else(|| die(&format!("--scenario needs {names}")));
            }
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: s2-sim [--scenario {names}] [--seed N] [--scenarios N] [--verbose]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    println!("s2-sim: {scenarios} {} drills from seed {seed}", drill.name);
    let summary = s2_sim::sweep(drill, seed, scenarios, verbose);
    println!("{}", summary.summary_line());
    if !summary.failures.is_empty() {
        println!("\nreproduce with:");
        for v in &summary.failures {
            println!(
                "  cargo run -p s2-sim -- --scenario {} --seed {} --scenarios 1",
                drill.name, v.seed
            );
        }
        std::process::exit(1);
    }
}

fn parse<T: FromStr>(value: Option<String>, msg: &str) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| die(msg))
}

fn die(msg: &str) -> ! {
    eprintln!("s2-sim: {msg}");
    std::process::exit(2);
}
