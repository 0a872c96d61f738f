//! Standalone ASSET server binary.
//!
//! ```text
//! asset-server [--addr HOST:PORT] [--dir PATH] [--workers N]
//!              [--node-id N] [--serve-metrics HOST:PORT] [--trace-cap N]
//!
//!   --addr           listen address          (default 127.0.0.1:4994)
//!   --dir            durable database dir    (default: in-memory)
//!   --workers        executor worker threads (default 0 = one per core)
//!   --node-id        fleet node id for metrics/trace merge (default 0)
//!   --serve-metrics  Prometheus endpoint address (default: off)
//!   --trace-cap      enable event tracing with this ring capacity
//! ```
//!
//! Runs until a wire `SHUTDOWN` request (or the process is killed; the
//! log's commit records make restart recovery safe for a `--dir`
//! database).

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

use asset_common::Config;
use asset_core::Database;
use asset_server::prom::PromServer;
use asset_server::AssetServer;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:4994");
    let mut dir: Option<String> = None;
    let mut workers: usize = 0;
    let mut node_id: u32 = 0;
    let mut metrics_addr: Option<String> = None;
    let mut trace_cap: usize = 0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let r = match arg.as_str() {
            "--addr" => take("--addr").map(|v| addr = v),
            "--dir" => take("--dir").map(|v| dir = Some(v)),
            "--workers" => take("--workers").and_then(|v| {
                v.parse()
                    .map(|n| workers = n)
                    .map_err(|e| format!("--workers: {e}"))
            }),
            "--node-id" => take("--node-id").and_then(|v| {
                v.parse()
                    .map(|n| node_id = n)
                    .map_err(|e| format!("--node-id: {e}"))
            }),
            "--serve-metrics" => take("--serve-metrics").map(|v| metrics_addr = Some(v)),
            "--trace-cap" => take("--trace-cap").and_then(|v| {
                v.parse()
                    .map(|n| trace_cap = n)
                    .map_err(|e| format!("--trace-cap: {e}"))
            }),
            "--help" | "-h" => {
                eprintln!(
                    "usage: asset-server [--addr HOST:PORT] [--dir PATH] [--workers N] \
                     [--node-id N] [--serve-metrics HOST:PORT] [--trace-cap N]"
                );
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?} (try --help)")),
        };
        if let Err(msg) = r {
            eprintln!("asset-server: {msg}");
            return ExitCode::FAILURE;
        }
    }

    let mut config = match &dir {
        Some(d) => Config::on_disk(d),
        None => Config::in_memory(),
    };
    if workers > 0 {
        config = config.with_exec_workers(workers);
    }

    let (db, recovery) = match Database::open(config) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("asset-server: open failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "asset-server: recovered (winners={}, losers={}, redone={}, undone={})",
        recovery.winners, recovery.losers, recovery.redone, recovery.undone
    );
    if trace_cap > 0 {
        db.obs().enable_tracing(trace_cap);
        eprintln!("asset-server: event tracing on (ring capacity {trace_cap})");
    }

    let server = match AssetServer::spawn_node(db, &addr, node_id) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("asset-server: bind {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "asset-server: node {} listening on {}",
        server.node_id(),
        server.local_addr()
    );
    let mut exporter = None;
    if let Some(maddr) = &metrics_addr {
        match PromServer::spawn(maddr, server.metrics_source()) {
            Ok(p) => {
                eprintln!(
                    "asset-server: serving metrics on http://{}/metrics",
                    p.addr()
                );
                exporter = Some(p);
            }
            Err(e) => {
                eprintln!("asset-server: metrics bind {maddr} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    server.join();
    if let Some(mut p) = exporter.take() {
        p.shutdown();
    }
    eprintln!("asset-server: shut down");
    ExitCode::SUCCESS
}
