//! The experiment harness: prints the tables of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run -p asset-bench --release --bin experiments           # full suite
//! cargo run -p asset-bench --release --bin experiments -- quick  # smoke scale
//! cargo run -p asset-bench --release --bin experiments -- e2 e4  # a subset
//! ```
//!
//! An unknown name exits 2 and lists the valid ones.

use asset_bench::experiments::{self, Scale, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let selected: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| *a != "quick")
        .collect();

    if let Some(unknown) = selected
        .iter()
        .find(|s| ALL.iter().all(|(name, _)| name != *s))
    {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
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

    for (name, f) in ALL {
        if !selected.is_empty() && !selected.contains(name) {
            continue;
        }
        let start = std::time::Instant::now();
        if *name == "e9b" {
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
}
