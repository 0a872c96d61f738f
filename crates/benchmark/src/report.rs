//! One pass, start to finish, and how its result is printed: the
//! human-readable sheet, the full-sheet line a parent `run` collects,
//! and the contract line a driver reads last.

use crate::common::{ctx, Params, PassResult, R};
use crate::env::{self, RunDir};
use crate::json::Json;
use crate::spec::{self, Declaration, Sheet, Workload};
use crate::trace::TraceData;
use crate::{dist, exec, models, probes, wire};
use std::path::Path;

/// Run one pass of one workload in this process: set-up, window,
/// gates, and — traced — the probes and the trace file.
pub fn run_pass(p: &Params) -> R<PassResult> {
    let mut dir = RunDir::create(p.workload.name()).map_err(ctx("create run directory"))?;
    let outcome = run_in(p, &mut dir);
    dir.finish(matches!(&outcome, Ok(res) if res.correct));
    outcome
}

fn run_in(p: &Params, dir: &mut RunDir) -> R<PassResult> {
    let (mut res, trace) = match p.workload {
        Workload::WireClosed | Workload::WireOpen => wire::run(p, dir)?,
        Workload::ExecUniform | Workload::ExecHot => exec::run(p, dir)?,
        Workload::ModelsMix => models::run(p, dir)?,
        Workload::DistCommit => dist::run(p, dir)?,
    };
    if p.traced {
        let probe_dir = dir.fresh("probes").map_err(ctx("create probe directory"))?;
        probes::environment(p, &probe_dir, &mut res.sheet)?;
        probes::standalone(p, &probe_dir, &mut res.sheet)?;
        write_trace(p, &res.counters, &trace)?;
    }
    res.gate(res.attempted > 0, || {
        "the window measured nothing: no unit was attempted".into()
    });
    for (name, v) in res.sheet.iter() {
        if !v.is_finite() {
            res.notes
                .push(format!("GATE FAILED: {name} is not a finite number"));
            res.correct = false;
        }
    }
    Ok(res)
}

/// `target/asset-benchmark/<workload>.trace.json`.
fn write_trace(p: &Params, counters: &[(String, f64)], trace: &TraceData) -> R<()> {
    let path = Path::new(env::OUT_DIR).join(format!("{}.trace.json", p.workload.name()));
    trace
        .write_chrome(&path, p.workload.name(), counters)
        .map_err(ctx("write trace file"))
}

/// The value a declared metric takes in `sheet`. A per-layer metric the
/// workload does not exercise reads 0; an end-to-end metric must have
/// been measured.
fn declared_value(sheet: &Sheet, name: &str, end_to_end: bool) -> R<f64> {
    match sheet.get(name) {
        Some(v) => Ok(v),
        None if !end_to_end => Ok(0.0),
        None => Err(format!("end-to-end metric {name} was not measured")),
    }
}

/// The contract line: `correct`, `attempted`, `failed`, and exactly the
/// declared end-to-end (untraced) or per-layer (traced) metrics.
pub fn contract_line(decl: &Declaration, p: &Params, res: &PassResult) -> R<Json> {
    let list = if p.traced {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let mut metrics = Vec::with_capacity(list.len());
    for m in list {
        let value = declared_value(&res.sheet, &m.name, !p.traced)?;
        metrics.push((
            m.name.clone(),
            Json::obj([
                ("value", Json::from(value)),
                ("unit", Json::from(m.unit.as_str())),
            ]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::from(res.correct)),
        ("attempted", Json::from(res.attempted)),
        ("failed", Json::from(res.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// The full-sheet line: everything this pass measured, by name.
pub fn sheet_line(p: &Params, res: &PassResult) -> Json {
    Json::obj([
        ("workload", Json::from(p.workload.name())),
        ("seed", Json::from(p.seed)),
        ("seconds", Json::from(p.seconds)),
        ("trace", Json::from(u64::from(p.traced))),
        ("locks", Json::from(spec::LOCKS)),
        ("correct", Json::from(res.correct)),
        ("attempted", Json::from(res.attempted)),
        ("failed", Json::from(res.failed)),
        (
            "metrics",
            Json::obj(res.sheet.iter().map(|(k, v)| (k, Json::from(v)))),
        ),
        (
            "notes",
            Json::Arr(res.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
    ])
}

/// Print one pass's sheet for a person: every metric by name with its
/// unit, then the notes.
pub fn print_pass(decl: &Declaration, p: &Params, res: &PassResult) {
    println!(
        "# asset-benchmark {} seed={} seconds={} pass={} nproc={} fs={} locks={}",
        p.workload.name(),
        p.seed,
        p.seconds,
        if p.traced { "traced" } else { "untraced" },
        env::nproc(),
        env::fs_type(Path::new(".")),
        spec::LOCKS,
    );
    println!(
        "# correct={} attempted={} failed={}",
        res.correct, res.attempted, res.failed
    );
    for (name, v) in res.sheet.iter() {
        let unit = decl.find(name).map_or("?", |m| m.unit.as_str());
        println!("{name:<42} {v:>16.4} {unit}");
    }
    for note in &res.notes {
        println!("# note: {note}");
    }
}
