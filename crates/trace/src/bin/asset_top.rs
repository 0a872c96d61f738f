//! `asset-top` — a `top`-style live monitor for an ASSET database.
//!
//! The repository has no long-running server process, so the binary
//! drives a small self-contained contention workload (transfers over a
//! shared pool of objects, with delegation, permits and a saga mixed in)
//! against an in-memory [`Database`] with tracing enabled, and redraws
//! the [`asset_trace::top`] dashboard on an interval. Each frame reads
//! the database twice: [`Database::introspect`] for the live view (live
//! transactions by status, stripes, waits-for and dependency edges) and
//! [`Database::metrics_snapshot`] for every count (committed and aborted
//! totals, lock waits, latency percentiles).
//!
//! ```text
//! asset-top [--frames N] [--interval-ms MS] [--once] [--serve ADDR]
//!           [--nodes A,B,...]
//! ```
//!
//! * `--frames N` — stop after `N` redraws (default 20).
//! * `--interval-ms MS` — redraw period (default 500).
//! * `--once` — render a single frame without ANSI cursor control and
//!   exit (what the CI smoke job runs). With `--nodes`, a failed
//!   scrape exits non-zero instead of rendering an empty frame.
//! * `--serve ADDR` — additionally expose the Prometheus endpoint on
//!   `ADDR` (e.g. `127.0.0.1:9187`) while running.
//! * `--nodes A,B,...` — fleet mode: instead of driving a local
//!   workload, scrape each listed Prometheus endpoint
//!   (`asset-server --serve-metrics`) every frame and render the
//!   fleet dashboard ([`asset_trace::top::render_fleet_frame`]).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

use asset_core::{Database, DepType, ObSet, OpSet};
use asset_server::prom;
use asset_trace::top;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Opts {
    frames: u64,
    interval: Duration,
    once: bool,
    serve: Option<String>,
    nodes: Vec<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        frames: 20,
        interval: Duration::from_millis(500),
        once: false,
        serve: None,
        nodes: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--frames" => {
                let v = args.next().ok_or("--frames needs a value")?;
                opts.frames = v.parse().map_err(|_| "--frames: not a number")?;
            }
            "--interval-ms" => {
                let v = args.next().ok_or("--interval-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| "--interval-ms: not a number")?;
                opts.interval = Duration::from_millis(ms);
            }
            "--once" => opts.once = true,
            "--serve" => {
                opts.serve = Some(args.next().ok_or("--serve needs an address")?);
            }
            "--nodes" => {
                let v = args.next().ok_or("--nodes needs a,b,... addresses")?;
                opts.nodes = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if opts.nodes.is_empty() {
                    return Err("--nodes: no addresses given".to_string());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: asset-top [--frames N] [--interval-ms MS] [--once] [--serve ADDR] \
                     [--nodes A,B,...]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(opts)
}

/// Scrape every node once; a failed scrape becomes a `DOWN` row.
fn scrape_fleet(nodes: &[String]) -> (Vec<top::NodeVitals>, usize) {
    let mut rows = Vec::with_capacity(nodes.len());
    let mut failures = 0;
    for addr in nodes {
        let body = addr.parse().ok().and_then(|sock| prom::scrape(sock).ok());
        match body {
            Some(body) => rows.push(top::NodeVitals::from_scrape(addr, &body)),
            None => {
                failures += 1;
                rows.push(top::NodeVitals::down(addr));
            }
        }
    }
    (rows, failures)
}

/// Fleet mode: scrape + render per frame. Returns the process exit
/// code — in `--once` mode a failed scrape is an error, not an empty
/// frame.
fn run_fleet(opts: &Opts) -> i32 {
    if opts.once {
        let (rows, failures) = scrape_fleet(&opts.nodes);
        print!("{}", top::render_fleet_frame(&rows));
        if failures > 0 {
            eprintln!(
                "asset-top: {failures} of {} scrape(s) failed",
                opts.nodes.len()
            );
            return 1;
        }
        return 0;
    }
    for _ in 0..opts.frames {
        std::thread::sleep(opts.interval);
        let (rows, _) = scrape_fleet(&opts.nodes);
        print!("\x1b[2J\x1b[H{}", top::render_fleet_frame(&rows));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    0
}

/// One delegation + permit handoff over `o`: t1 writes, permits t2,
/// delegates its locks and undo to t2, then both commit.
fn handoff(db: &Database, o: asset_core::Oid, seed: u64) -> asset_core::Result<()> {
    let t1 = db.initiate(move |ctx| ctx.write(o, vec![(seed % 251) as u8]))?;
    db.begin(t1)?;
    if !db.wait(t1)? {
        return Ok(()); // t1 aborted; nothing to hand off
    }
    let t2 = db.initiate(|_| Ok(()))?;
    db.begin(t2)?;
    let _ = db.wait(t2)?;
    db.permit(t1, Some(t2), ObSet::one(o), OpSet::ALL)?;
    db.delegate(t1, t2, None)?;
    db.commit(t1)?;
    db.commit(t2)?;
    Ok(())
}

/// A CD-linked step pair (minimal saga shape): s2 may commit only if s1
/// does.
fn cd_pair(db: &Database, a: asset_core::Oid, b: asset_core::Oid) -> asset_core::Result<()> {
    let s1 = db.initiate(move |ctx| ctx.write(a, b"s1".to_vec()))?;
    let s2 = db.initiate(move |ctx| ctx.write(b, b"s2".to_vec()))?;
    db.form_dependency(DepType::CD, s1, s2)?;
    db.begin(s1)?;
    db.begin(s2)?;
    let _ = db.wait(s1)?;
    let _ = db.wait(s2)?;
    db.commit(s1)?;
    db.commit(s2)?;
    Ok(())
}

/// Keep the database busy so the dashboard has something to show:
/// transfer pairs contending over a shared pool, a periodic
/// delegation + permit handoff, and CD-linked step pairs (a minimal
/// saga shape).
fn spawn_workload(db: Database, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let pool: Vec<_> = (0..16).map(|_| db.new_oid()).collect();
        for o in &pool {
            let o = *o;
            let _ = db.run(move |ctx| ctx.write(o, vec![0, 100]));
        }
        let mut round = 0u64;
        while !stop.load(Ordering::Relaxed) {
            round += 1;
            let a = pool[(round as usize) % pool.len()];
            let b = pool[(round as usize * 7 + 3) % pool.len()];
            let _ = db.run(move |ctx| {
                let _ = ctx.read(a)?;
                ctx.write(b, vec![(round % 251) as u8])?;
                Ok(())
            });
            if round.is_multiple_of(8) {
                let o = pool[(round as usize * 3) % pool.len()];
                let _ = handoff(&db, o, round);
            }
            if round.is_multiple_of(13) {
                let _ = cd_pair(&db, a, b);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    if !opts.nodes.is_empty() {
        std::process::exit(run_fleet(&opts));
    }

    let db = Database::in_memory();
    db.obs().enable_tracing(0);

    let stop = Arc::new(AtomicBool::new(false));
    let worker = spawn_workload(db.clone(), Arc::clone(&stop));

    let mut prom_server = None;
    if let Some(addr) = &opts.serve {
        let src = db.clone();
        match prom::PromServer::spawn(addr, move || {
            prom::render(&src.metrics_snapshot(), &src.locks().stripe_stats())
        }) {
            Ok(server) => {
                eprintln!(
                    "serving Prometheus metrics on http://{}/metrics",
                    server.addr()
                );
                prom_server = Some(server);
            }
            Err(e) => {
                eprintln!("failed to bind {addr}: {e}");
                stop.store(true, Ordering::Relaxed);
                let _ = worker.join();
                std::process::exit(1);
            }
        }
    }

    if opts.once {
        // One warm-up beat so the frame isn't empty.
        std::thread::sleep(Duration::from_millis(100));
        print!(
            "{}",
            top::render_frame(&db.introspect(), &db.metrics_snapshot())
        );
    } else {
        for _ in 0..opts.frames {
            std::thread::sleep(opts.interval);
            // Clear screen + home, then the frame.
            print!(
                "\x1b[2J\x1b[H{}",
                top::render_frame(&db.introspect(), &db.metrics_snapshot())
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
    }

    stop.store(true, Ordering::Relaxed);
    let _ = worker.join();
    drop(prom_server);
}
