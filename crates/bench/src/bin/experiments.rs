//! The experiment harness: prints the E1–E18 tables of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run -p asset-bench --release --bin experiments           # full suite
//! cargo run -p asset-bench --release --bin experiments -- quick  # smoke scale
//! cargo run -p asset-bench --release --bin experiments -- e2 e4  # a subset
//! cargo run -p asset-bench --release --bin experiments -- e15 --txns 200  # executor smoke
//! ```
//!
//! E14, E15, E16, E17, and E18 also serialize their measured runs into
//! `BENCH_obs.json` (schema `asset-bench-obs/v1`); when several are
//! selected the file holds the union of their rows. E18 additionally
//! writes its merged multi-node Chrome trace to `asset-trace-e18.json`.

use asset_bench::experiments::{self, ObsBenchRun, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut txns_override: Option<usize> = None;
    let mut selected: Vec<&str> = Vec::new();
    let mut it = args.iter().map(|s| s.as_str());
    while let Some(a) = it.next() {
        match a {
            "quick" => {}
            "--txns" => {
                txns_override = it.next().and_then(|v| v.parse().ok());
                if txns_override.is_none() {
                    eprintln!("experiments: --txns needs a positive integer");
                    std::process::exit(2);
                }
            }
            other => selected.push(other),
        }
    }

    type Exp = (&'static str, fn(Scale) -> asset_bench::Table);
    let all: Vec<Exp> = vec![
        ("e1", experiments::e1_primitives),
        ("e2", experiments::e2_permits_vs_2pl),
        ("e3", experiments::e3_nested),
        ("e4", experiments::e4_sagas),
        ("e5", experiments::e5_group_commit),
        ("e6", experiments::e6_cursor_stability),
        ("e7", experiments::e7_split_early_release),
        ("e8", experiments::e8_workflow),
        ("e9", experiments::e9_structures),
        ("e9b", experiments::e9b_stripe_contention),
        ("e10", experiments::e10_recovery),
        ("e11", experiments::e11_contingent),
        ("e12", experiments::e12_ablations),
        ("e13", experiments::e13_crash_matrix),
        ("e14", experiments::e14_observability),
        ("e15", experiments::e15_executor),
        ("e16", experiments::e16_ledger),
        ("e17", experiments::e17_coord),
        ("e18", experiments::e18_dist_obs),
    ];

    if let Some(unknown) = selected
        .iter()
        .find(|s| all.iter().all(|(name, _)| name != *s))
    {
        let names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "experiments: unknown experiment `{unknown}`; valid names: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }

    println!("ASSET experiment suite (scale factor {:.2})", scale.factor);
    println!("paper: Biliris/Dar/Gehani/Jagadish/Ramamritham, SIGMOD 1994");
    if !cfg!(debug_assertions) {
        println!("build: release");
    } else {
        println!("build: DEBUG — timings are not meaningful; use --release");
    }

    // E14/E15/E16/E17 measure once and contribute rows to BENCH_obs.json
    let mut obs_runs: Vec<ObsBenchRun> = Vec::new();

    for (name, f) in &all {
        if !selected.is_empty() && !selected.contains(name) {
            continue;
        }
        let start = std::time::Instant::now();
        if *name == "e14" {
            let runs = experiments::e14_observability_runs(scale);
            println!("{}", experiments::e14_table(&runs));
            obs_runs.extend(runs);
        } else if *name == "e15" {
            let runs = experiments::e15_executor_runs(scale, txns_override);
            println!("{}", experiments::e15_table(&runs));
            obs_runs.extend(runs);
        } else if *name == "e16" {
            let runs = experiments::e16_ledger_runs(scale);
            println!("{}", experiments::e16_table(&runs));
            obs_runs.extend(runs);
        } else if *name == "e17" {
            let runs = experiments::e17_coord_runs(scale);
            println!("{}", experiments::e17_table(&runs));
            obs_runs.extend(runs);
        } else if *name == "e18" {
            let runs = experiments::e18_dist_obs_runs(scale, txns_override);
            println!("{}", experiments::e18_table(&runs));
            obs_runs.extend(runs);
            // the merged multi-node trace is E18's second artifact
            let path = "asset-trace-e18.json";
            match std::fs::write(path, experiments::e18_merged_trace()) {
                Ok(()) => println!("   [merged fleet trace -> {path}]"),
                Err(err) => eprintln!("   [{path} not written: {err}]"),
            }
        } else if *name == "e9b" {
            // e9b also captures a structured event trace; dump it next to
            // the experiment output
            let (table, trace) = experiments::e9b_stripe_contention_traced(scale);
            println!("{table}");
            let path = "asset-trace-e9b.log";
            match std::fs::File::create(path) {
                Ok(file) => {
                    use std::io::Write;
                    let mut w = std::io::BufWriter::new(file);
                    for e in &trace {
                        writeln!(w, "{e}").expect("trace write");
                    }
                    w.flush().expect("trace flush");
                    println!("   [event trace: {} events -> {path}]", trace.len());
                }
                Err(err) => eprintln!("   [event trace not written: {err}]"),
            }
        } else {
            let table = f(scale);
            println!("{table}");
        }
        println!("   [{name} took {:.2?}]", start.elapsed());
    }

    if !obs_runs.is_empty() {
        let path = "BENCH_obs.json";
        match std::fs::write(path, experiments::bench_obs_json(&obs_runs)) {
            Ok(()) => println!(
                "   [observability bench: {} runs -> {path}]",
                obs_runs.len()
            ),
            Err(err) => eprintln!("   [{path} not written: {err}]"),
        }
    }
}
