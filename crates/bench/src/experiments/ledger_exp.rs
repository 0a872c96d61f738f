//! E16 — the network server's connection sweep (`EXPERIMENTS.md` E16):
//! connections ∈ {16, 128, 1024} over an in-process [`AssetServer`] at
//! one account count, every transaction a conservation-preserving
//! transfer issued by a real wire client. `asset-benchmark`'s `wire_*`
//! workloads fix the connection count; this sweep is the thread-model
//! baseline (a client thread plus a session thread per connection) that
//! ROADMAP's readiness-driven server is judged against.
//!
//! The latency percentiles are **client-observed whole-transaction
//! latencies** — `BEGIN` through the `COMMIT` ack riding the server's
//! group-commit flush window. The lock-wait column is server-side (a
//! `Database::metrics_snapshot` delta), so one row shows both sides of
//! the wire.

use super::{percentiles, Scale};
use crate::table::{fmt_duration, fmt_rate, Table};
use asset_client::Client;
use asset_common::Config;
use asset_core::Database;
use asset_server::AssetServer;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The sweep: (connections, stable cell name). Connection counts scale
/// with [`Scale`].
const CELLS: &[(usize, &str)] = &[
    (16, "ledger-c16-a10k"),
    (128, "ledger-c128-a10k"),
    (1024, "ledger-c1024-a10k"),
];

/// Accounts per cell before scaling.
const ACCOUNTS: usize = 10_000;

/// Transfers per cell before scaling (split across the connections).
const TRANSFERS_BASE: usize = 8_192;

/// Every account starts with this balance; the invariant is that the
/// sum stays `accounts * INITIAL` under any interleaving of transfers.
const INITIAL: i64 = 1_000;

/// One measured cell.
struct LedgerRun {
    name: &'static str,
    txns: u64,
    elapsed: Duration,
    /// Client-observed BEGIN..COMMIT-ack latency (p50, p95, p99) in ns.
    latency_ns: (f64, f64, f64),
    /// Server-side lock-wait p99 in ns.
    lock_wait_p99_ns: f64,
}

/// Drive `transfers_total` conservation-preserving transfers from
/// `conns` concurrent wire clients over `accounts` freshly minted
/// accounts and measure client-observed latencies. Panics if the
/// post-run `SUM` breaks conservation.
fn run_cell(name: &'static str, conns: usize, accounts: u64, transfers_total: usize) -> LedgerRun {
    let (db, _) =
        Database::open(Config::in_memory().with_commit_flush_window(Duration::from_micros(200)))
            .expect("open");
    let server = AssetServer::spawn(db, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let mut admin = Client::connect(&addr).expect("admin connect");
    let (first, minted) = admin.mint(accounts, INITIAL).expect("mint");
    assert_eq!(minted, accounts, "{name}: mint");

    let per_conn = (transfers_total / conns).max(1);
    // lock-wait histograms are trace-gated
    server.database().obs().enable_tracing(1 << 16);
    let before = server.database().metrics_snapshot();
    let lat = Mutex::new(Vec::<u64>::with_capacity(conns * per_conn));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..conns {
            let (addr, lat) = (&addr, &lat);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("conn");
                let mut rng = asset_faults::Rng::new(0xE16, c as u64);
                let mut local_lat = Vec::with_capacity(per_conn);
                for _ in 0..per_conn {
                    // always a distinct pair: a self-transfer is a
                    // client-side no-op and would measure nothing
                    let a = rng.below(accounts);
                    let b = (a + 1 + rng.below(accounts - 1)) % accounts;
                    let amount = (rng.below(100)) as i64;
                    // aborts are a legitimate fate under contention;
                    // conservation is the check
                    let t0 = Instant::now();
                    let _ = client
                        .transfer(first + a, first + b, amount)
                        .expect("transfer transport");
                    local_lat.push(t0.elapsed().as_nanos() as u64);
                }
                lat.lock().unwrap().extend(local_lat);
            });
        }
    });
    let elapsed = start.elapsed();
    let d = server.database().metrics_snapshot().delta(&before);

    // conservation: every movement is balanced, so the total is
    // invariant no matter which transfers committed or aborted
    let (sum, present) = admin.sum(first, accounts).expect("sum");
    assert_eq!(present, accounts, "{name}: accounts present");
    assert_eq!(
        sum,
        accounts as i64 * INITIAL,
        "{name}: conservation of money violated"
    );
    drop(admin);
    server.shutdown();
    server.join();

    let lat = lat.into_inner().unwrap();
    LedgerRun {
        name,
        txns: lat.len() as u64,
        elapsed,
        latency_ns: percentiles(lat),
        lock_wait_p99_ns: d.lock_wait_ns.percentiles().2,
    }
}

fn e16_ledger_runs(scale: Scale) -> Vec<LedgerRun> {
    CELLS
        .iter()
        .map(|&(conns, name)| {
            run_cell(
                name,
                scale.n(conns),
                scale.n(ACCOUNTS) as u64,
                scale.n(TRANSFERS_BASE),
            )
        })
        .collect()
}

/// E16 — run the connection sweep at `scale`.
pub fn e16_ledger(scale: Scale) -> Table {
    let mut table = Table::new(
        "E16: network server, connection sweep over a money ledger",
        "wire transfers over an in-process server, 10k accounts; latency is client-observed BEGIN..COMMIT-ack; conservation checked per cell",
    )
    .headers(&[
        "workload",
        "txns",
        "throughput",
        "txn latency p50/p95/p99",
        "server lock wait p99",
    ]);
    for r in e16_ledger_runs(scale) {
        let (c50, c95, c99) = r.latency_ns;
        table.row(vec![
            r.name.into(),
            r.txns.to_string(),
            fmt_rate(r.txns, r.elapsed),
            format!(
                "{} / {} / {}",
                fmt_duration(Duration::from_nanos(c50 as u64)),
                fmt_duration(Duration::from_nanos(c95 as u64)),
                fmt_duration(Duration::from_nanos(c99 as u64)),
            ),
            fmt_duration(Duration::from_nanos(r.lock_wait_p99_ns as u64)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_and_conserves_at_tiny_scale() {
        // factor 0.01 shrinks the sweep to a handful of connections over a
        // hundred accounts; the conservation asserts run inside run_cell
        let runs = e16_ledger_runs(Scale { factor: 0.01 });
        assert_eq!(runs.len(), CELLS.len());
        for r in &runs {
            assert!(r.txns > 0, "{}: drove transactions", r.name);
            assert!(r.latency_ns.2 >= r.latency_ns.0, "{}: p99 >= p50", r.name);
        }
    }
}
