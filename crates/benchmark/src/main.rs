//! # asset-benchmark — the benchmark every performance claim is measured with
//!
//! Six named workloads over the public functions of the ASSET crates,
//! end-to-end metrics with regression bounds and a per-layer sheet, all
//! declared in the repository's `BENCHMARK.json`. See `README.md` in
//! this crate for the configuration, the layer → end-to-end table and
//! how to read the output.
//!
//! ```text
//! asset-benchmark run --seed 1                 every workload, untraced + traced
//! asset-benchmark run --seed 1 --reps 10 --out a.json
//! asset-benchmark run --reps 10 --out a.json --vs <other exe> --vs-out b.json
//! asset-benchmark run --workload exec_hot --seed 7 --seconds 10 --trace 1
//! asset-benchmark run --smoke                  every workload for 0.3 s, in process
//! asset-benchmark compare a.json b.json
//! ```

mod common;
mod compare;
mod dist;
mod env;
mod exec;
mod json;
mod models;
mod pace;
mod probes;
mod report;
mod rng;
mod spec;
mod stats;
mod trace;
mod wire;

use common::{ctx, Params, R};
use json::Json;
use spec::{Declaration, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Window of a `--smoke` pass, seconds.
const SMOKE_SECONDS: f64 = 0.3;

/// Parsed `run` arguments.
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    reps: usize,
    out: Option<PathBuf>,
    /// Another build's executable to take alternately with this one,
    /// and the file its results go to.
    vs: Option<(PathBuf, PathBuf)>,
    smoke: bool,
}

fn parse_run_args(decl: &Declaration, args: &[String]) -> R<RunArgs> {
    let mut parsed = RunArgs {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: decl.run_seconds,
        traced: false,
        reps: 1,
        out: None,
        vs: None,
        smoke: false,
    };
    let (mut vs_exe, mut vs_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(ctx("--seed"))?,
            "--seconds" => parsed.seconds = value()?.parse().map_err(ctx("--seconds"))?,
            "--reps" => parsed.reps = value()?.parse().map_err(ctx("--reps"))?,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--vs" => vs_exe = Some(PathBuf::from(value()?)),
            "--vs-out" => vs_out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if parsed.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    parsed.vs = match (vs_exe, vs_out) {
        (Some(exe), Some(out)) if parsed.out.is_some() && !parsed.smoke => Some((exe, out)),
        (None, None) => None,
        _ => return Err("--vs <exe> goes with --vs-out <file> and --out <file>".into()),
    };
    if parsed.smoke {
        parsed.seconds = SMOKE_SECONDS;
    }
    Ok(parsed)
}

/// One pass in this process: print the sheet, the full-sheet line and,
/// last, the contract line. `Ok(false)` when a gate failed.
fn single_pass(decl: &Declaration, p: &Params) -> R<bool> {
    let res = report::run_pass(p)?;
    report::print_pass(decl, p, &res);
    println!("{}", report::sheet_line(p, &res));
    println!("{}", report::contract_line(decl, p, &res)?);
    Ok(res.correct)
}

/// Run one pass of the build `exe` as a child process (so
/// `peak_rss_mb` is per workload) and return its full-sheet line.
fn child_pass(exe: &Path, p: &Params) -> R<Json> {
    let out = Command::new(exe)
        .args(["run", "--workload", p.workload.name()])
        .args(["--seed", &p.seed.to_string()])
        .args(["--seconds", &p.seconds.to_string()])
        .args(["--trace", if p.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(ctx("start child pass"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (_contract, sheet) = (lines.next(), lines.next());
    let sheet = sheet.and_then(|l| json::parse(l).ok()).ok_or_else(|| {
        format!(
            "{} pass printed no result (exit {})",
            p.workload.name(),
            out.status
        )
    })?;
    Ok(sheet)
}

/// Median of a metric over the runs of one (workload, pass).
fn median_of(runs: &[Json], workload: &str, traced: bool, metric: &str) -> Option<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::str) == Some(workload)
                && (r.get("trace").and_then(Json::num) == Some(1.0)) == traced
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.num())
        .collect();
    (!values.is_empty()).then(|| stats::median(&values))
}

/// Print every declared metric of every workload: the untraced and the
/// traced pass side by side (medians over the reps).
fn print_summary(decl: &Declaration, runs: &[Json]) {
    let cell = |v: Option<f64>| v.map_or_else(|| format!("{:>16}", "-"), |v| format!("{v:>16.4}"));
    for workload in &decl.workloads {
        println!("\n== {workload}");
        println!("{:<42} {:>16} {:>16}  unit", "metric", "untraced", "traced");
        for (title, list) in [
            ("end-to-end", &decl.end_to_end),
            ("per-layer", &decl.per_layer),
        ] {
            println!("-- {title}");
            for m in list {
                let (u, t) = (
                    median_of(runs, workload, false, &m.name),
                    median_of(runs, workload, true, &m.name),
                );
                if m.bound.is_none() && u.unwrap_or(0.0) == 0.0 && t.unwrap_or(0.0) == 0.0 {
                    continue; // a layer this workload does not exercise
                }
                println!("{:<42} {} {}  {}", m.name, cell(u), cell(t), m.unit);
            }
        }
        for r in runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::str) == Some(workload))
        {
            for note in r.get("notes").map(Json::items).unwrap_or_default() {
                println!("# note: {}", note.str().unwrap_or_default());
            }
        }
    }
}

/// One build's executable, where its results go, and the full-sheet
/// lines collected so far.
struct Side {
    exe: PathBuf,
    out: PathBuf,
    runs: Vec<Json>,
}

/// The whole benchmark: every workload, untraced then traced, `reps`
/// times; all results of a build in one file. With `--vs`, every pass
/// is run on both builds back to back and the builds alternate in who
/// goes first, so that both see the same drift of a shared host (guide
/// `choosing-metrics` §8). `Ok(false)` when a gate failed.
fn full_run(decl: &Declaration, args: &RunArgs) -> R<bool> {
    let mut sides = vec![Side {
        exe: std::env::current_exe().map_err(ctx("locate own executable"))?,
        out: args.out.clone().unwrap_or_else(|| {
            Path::new(env::OUT_DIR).join(format!("results-seed{}.json", args.seed))
        }),
        runs: Vec::new(),
    }];
    sides.extend(args.vs.clone().map(|(exe, out)| Side {
        exe,
        out,
        runs: Vec::new(),
    }));
    let mut correct = true;
    for rep in 0..args.reps {
        let mut order: Vec<usize> = (0..sides.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for workload in Workload::ALL {
            for traced in [false, true] {
                let p = Params {
                    workload,
                    seed: args.seed,
                    seconds: args.seconds,
                    traced,
                    smoke: args.smoke,
                };
                for &i in &order {
                    let side = &mut sides[i];
                    eprintln!(
                        "asset-benchmark: rep {}/{} {} {} ({})",
                        rep + 1,
                        args.reps,
                        workload.name(),
                        if traced { "traced" } else { "untraced" },
                        side.out.display(),
                    );
                    let sheet = if args.smoke {
                        report::sheet_line(&p, &report::run_pass(&p)?)
                    } else {
                        child_pass(&side.exe, &p)?
                    };
                    correct &= sheet.get("correct") == Some(&Json::Bool(true));
                    side.runs.push(sheet);
                }
            }
        }
    }
    print_summary(decl, &sides[0].runs);
    println!();
    for side in sides {
        // the label of the build that produced the runs, not of this one
        let locks = side.runs[0].get("locks").cloned().unwrap_or(Json::Null);
        let doc = Json::obj([
            ("schema", Json::from(spec::RESULT_SCHEMA)),
            ("locks", locks),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(args.seconds)),
            ("reps", Json::from(args.reps as u64)),
            ("nproc", Json::from(env::nproc() as u64)),
            ("fs", Json::from(env::fs_type(Path::new(".")).as_str())),
            ("runs", Json::Arr(side.runs)),
        ]);
        if let Some(parent) = side.out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(ctx("create output directory"))?;
        }
        std::fs::write(&side.out, format!("{doc}\n")).map_err(ctx("write result file"))?;
        println!("# results written to {}", side.out.display());
    }
    println!(
        "# every correctness gate {}",
        if correct { "held" } else { "DID NOT hold" }
    );
    Ok(correct)
}

fn run(args: &[String]) -> R<bool> {
    let decl = Declaration::embedded();
    let parsed = parse_run_args(&decl, args)?;
    match parsed.workload {
        Some(workload) => single_pass(
            &decl,
            &Params {
                workload,
                seed: parsed.seed,
                seconds: parsed.seconds,
                traced: parsed.traced,
                smoke: parsed.smoke,
            },
        ),
        None => full_run(&decl, &parsed),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        _ => Err(
            "usage: asset-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>] \
                  [--trace 0|1] [--reps <n>] [--out <file>] [--vs <exe> --vs-out <file>] \
                  [--smoke] | compare <a.json> <b.json>"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("asset-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `run --smoke`: every workload, both passes, 0.3 s at 1 000
    /// accounts. Every gate must hold, and the set of metric names the
    /// passes print must be exactly the set `BENCHMARK.json` declares.
    #[test]
    fn smoke_run_passes_its_gates_and_prints_exactly_the_declared_metrics() {
        let decl = Declaration::embedded();
        let mut printed: BTreeSet<String> = BTreeSet::new();
        for workload in Workload::ALL {
            for traced in [false, true] {
                let p = Params {
                    workload,
                    seed: 3,
                    seconds: SMOKE_SECONDS,
                    traced,
                    smoke: true,
                };
                let res =
                    report::run_pass(&p).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert!(
                    res.correct,
                    "{} traced={traced}: {:?}",
                    workload.name(),
                    res.notes
                );
                assert!(res.attempted > 0, "{}: measured something", workload.name());
                // the contract line carries exactly the declared list
                let line = report::contract_line(&decl, &p, &res).unwrap();
                let list = if traced {
                    &decl.per_layer
                } else {
                    &decl.end_to_end
                };
                let names: Vec<&str> = line
                    .get("metrics")
                    .unwrap()
                    .members()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(
                    names,
                    list.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
                );
                if !traced {
                    for (name, v) in line.get("metrics").unwrap().members() {
                        let v = v.get("value").and_then(Json::num).unwrap();
                        assert!(
                            v > 0.0,
                            "{}: end-to-end metric {name} is {v}",
                            workload.name()
                        );
                    }
                }
                printed.extend(res.sheet.iter().map(|(k, _)| k.to_string()));
            }
        }
        let declared: BTreeSet<String> = decl
            .end_to_end
            .iter()
            .chain(&decl.per_layer)
            .map(|m| m.name.clone())
            .collect();
        let undeclared: Vec<_> = printed.difference(&declared).collect();
        let unmeasured: Vec<_> = declared.difference(&printed).collect();
        assert!(
            undeclared.is_empty(),
            "printed but not declared: {undeclared:?}"
        );
        assert!(
            unmeasured.is_empty(),
            "declared but never printed: {unmeasured:?}"
        );
    }
}
