//! E16 — the network server under the money-ledger workload
//! (`EXPERIMENTS.md` E16): a connections × accounts sweep over an
//! in-process [`AssetServer`], every transaction a conservation-
//! preserving transfer issued by a real wire client, plus (with
//! `--features faults`) a fault-injected cell whose conservation
//! invariant is re-checked **after restart recovery** of the on-disk
//! database.
//!
//! Unlike E14/E15, the latency percentiles reported in
//! [`ObsBenchRun::commit_ns`] here are **client-observed whole-
//! transaction latencies** — `BEGIN` through the `COMMIT` ack riding
//! the server's group-commit flush window — not server-side commit
//! path times. The `lock_wait_ns` column stays server-side (via
//! `Database::metrics_snapshot` deltas), so one row shows both sides
//! of the wire.

use super::{ObsBenchRun, Scale};
use crate::table::{fmt_duration, fmt_rate, Table};
use asset_client::Client;
use asset_common::Config;
use asset_core::Database;
use asset_server::AssetServer;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The sweep: (connections, accounts, stable run name). Connection and
/// account counts scale with [`Scale`]; the names are the keys under
/// which `BENCH_obs.json` tracks the cells across commits.
const CELLS: &[(usize, usize, &str)] = &[
    (16, 10_000, "ledger-c16-a10k"),
    (128, 10_000, "ledger-c128-a10k"),
    (1024, 10_000, "ledger-c1024-a10k"),
    (16, 1_000_000, "ledger-c16-a1m"),
    (128, 1_000_000, "ledger-c128-a1m"),
    (1024, 1_000_000, "ledger-c1024-a1m"),
];

/// The fault-injected cell's name (present only with `faults`).
pub const E16_FAULT_CELL: &str = "ledger-faults-c1024-a1m";

/// Transfers per cell before scaling (split across the connections).
const TRANSFERS_BASE: usize = 8_192;

/// Every account starts with this balance; the invariant is that the
/// sum stays `accounts * INITIAL` under any interleaving of transfers.
const INITIAL: i64 = 1_000;

/// Mint the cell's accounts; returns the first account oid. Kept
/// separate from [`drive_ledger`] so the faulted cell can arm its
/// failpoints *after* setup — faults belong to the transfer phase.
fn mint_accounts(name: &str, server: &AssetServer, accounts: u64) -> u64 {
    let mut admin = Client::connect(&server.local_addr().to_string()).expect("admin connect");
    let (first, minted) = admin.mint(accounts, INITIAL).expect("mint");
    assert_eq!(minted, accounts, "{name}: mint");
    first
}

/// Drive `transfers_total` conservation-preserving transfers from
/// `conns` concurrent wire clients over the pre-minted accounts at
/// `first..first+accounts` and measure client-observed latencies.
/// Panics if the post-run `SUM` breaks conservation.
fn drive_ledger(
    name: &'static str,
    server: &AssetServer,
    conns: usize,
    accounts: u64,
    first: u64,
    transfers_total: usize,
) -> ObsBenchRun {
    let addr = server.local_addr().to_string();
    let mut admin = Client::connect(&addr).expect("admin connect");
    let per_conn = (transfers_total / conns).max(1);
    // lock-wait histograms are trace-gated, like E14
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
                    // aborts and ambiguity are legitimate fates under
                    // contention and faults; conservation is the check
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
    // invariant no matter which transfers committed, aborted, or
    // vanished into ambiguity
    let (sum, present) = admin.sum(first, accounts).expect("sum");
    assert_eq!(present, accounts, "{name}: accounts present");
    assert_eq!(
        sum,
        accounts as i64 * INITIAL,
        "{name}: conservation of money violated"
    );

    let mut lat = lat.into_inner().unwrap();
    lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            0.0
        } else {
            lat[((lat.len() - 1) as f64 * p) as usize] as f64
        }
    };
    ObsBenchRun {
        name,
        txns: lat.len() as u64,
        elapsed,
        lock_wait_ns: d.lock_wait_ns.percentiles(),
        // client-observed whole-transaction latency (see module docs)
        commit_ns: (pct(0.50), pct(0.95), pct(0.99)),
        events_recorded: d.counters.events_recorded,
        events_dropped: d.events_dropped,
    }
}

fn in_memory_cell(name: &'static str, conns: usize, accounts: usize, scale: Scale) -> ObsBenchRun {
    let (db, _) =
        Database::open(Config::in_memory().with_commit_flush_window(Duration::from_micros(200)))
            .expect("open");
    let server = AssetServer::spawn(db, "127.0.0.1:0").expect("bind");
    let n_accounts = scale.n(accounts) as u64;
    let first = mint_accounts(name, &server, n_accounts);
    let run = drive_ledger(
        name,
        &server,
        scale.n(conns),
        n_accounts,
        first,
        scale.n(TRANSFERS_BASE),
    );
    server.shutdown();
    server.join();
    run
}

/// Run the E16 sweep. With `faults` the last cell injects commit-point
/// flush failures into an on-disk database, then reopens it and
/// re-checks conservation after restart recovery.
pub fn e16_ledger_runs(scale: Scale) -> Vec<ObsBenchRun> {
    #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
    let mut runs: Vec<ObsBenchRun> = CELLS
        .iter()
        .map(|&(conns, accounts, name)| in_memory_cell(name, conns, accounts, scale))
        .collect();
    #[cfg(feature = "faults")]
    runs.push(faulted::cell(scale));
    runs
}

#[cfg(feature = "faults")]
mod faulted {
    use super::*;
    use asset_faults::{FaultAction, FaultRegistry, Trigger};
    use std::sync::Arc;

    /// The fault-injected acceptance cell: 1024 connections over a
    /// million on-disk accounts, a fraction of flush windows failing at
    /// their commit-point sync, conservation re-checked after dropping
    /// the database and recovering from the log.
    pub(super) fn cell(scale: Scale) -> ObsBenchRun {
        let dir = std::env::temp_dir().join(format!("asset-e16-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = Arc::new(FaultRegistry::new());
        let (db, _) = Database::open(
            Config::on_disk(&dir)
                .with_commit_flush_window(Duration::from_micros(200))
                .with_faults(Arc::clone(&faults)),
        )
        .expect("open on-disk");
        let server = AssetServer::spawn(db, "127.0.0.1:0").expect("bind");
        let accounts = scale.n(1_000_000) as u64;
        let first = mint_accounts(E16_FAULT_CELL, &server, accounts);

        // armed only after setup: ~2% of transfer-phase flush windows
        // fail their sync with an injected error, and every commit in
        // such a window is acknowledged as ambiguous
        faults.arm(
            asset_storage::failpoints::FLUSH_WINDOW_SYNC,
            Trigger::Prob {
                per_mille: 20,
                seed: 0xE16,
            },
            FaultAction::Error,
        );
        let run = drive_ledger(
            E16_FAULT_CELL,
            &server,
            scale.n(1024),
            accounts,
            first,
            scale.n(TRANSFERS_BASE),
        );
        faults.reset();
        server.shutdown();
        server.join();

        // restart recovery: reopen from the log alone and re-check the
        // invariant — ambiguous commits must have resolved to exactly
        // all-or-nothing movements
        let (db, _) = Database::open(Config::on_disk(&dir)).expect("recovery reopen");
        let mut sum = 0i64;
        let mut present = 0u64;
        for raw in first..first + accounts {
            if let Ok(Some(bytes)) = db.peek(asset_common::Oid(raw)) {
                if let Ok(arr) = <[u8; 8]>::try_from(bytes.as_slice()) {
                    sum = sum.wrapping_add(i64::from_le_bytes(arr));
                    present += 1;
                }
            }
        }
        assert_eq!(
            present, accounts,
            "{E16_FAULT_CELL}: accounts after recovery"
        );
        assert_eq!(
            sum,
            accounts as i64 * INITIAL,
            "{E16_FAULT_CELL}: conservation violated after recovery"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        run
    }
}

/// Format already-measured runs as the E16 table (so the harness binary
/// can measure once and both print and serialize).
pub fn e16_table(runs: &[ObsBenchRun]) -> Table {
    let mut table = Table::new(
        "E16: network server, connections x accounts money ledger",
        "wire transfers over an in-process server; latency is client-observed BEGIN..COMMIT-ack; conservation checked per cell (and after recovery for the faulted cell)",
    )
    .headers(&[
        "workload",
        "txns",
        "throughput",
        "txn latency p50/p95/p99",
        "server lock wait p99",
    ]);
    for r in runs {
        let (c50, c95, c99) = r.commit_ns;
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
            fmt_duration(Duration::from_nanos(r.lock_wait_ns.2 as u64)),
        ]);
    }
    #[cfg(not(feature = "faults"))]
    table.row(vec![
        E16_FAULT_CELL.into(),
        "-".into(),
        "-".into(),
        "requires --features faults".into(),
        "-".into(),
    ]);
    table
}

/// E16 as a harness table.
pub fn e16_ledger(scale: Scale) -> Table {
    e16_table(&e16_ledger_runs(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_and_conserves_at_tiny_scale() {
        // factor 0.01 shrinks the grid to a couple of connections over
        // hundreds to tens of thousands of accounts; the conservation
        // asserts run inside drive_ledger (and, with faults, after the
        // recovery reopen).
        let runs = e16_ledger_runs(Scale { factor: 0.01 });
        let want = if cfg!(feature = "faults") {
            CELLS.len() + 1
        } else {
            CELLS.len()
        };
        assert_eq!(runs.len(), want);
        for r in &runs {
            assert!(r.txns > 0, "{}: drove transactions", r.name);
            assert!(r.commit_ns.2 >= r.commit_ns.0, "{}: p99 >= p50", r.name);
        }
        let json = super::super::bench_obs_json(&runs);
        assert!(json.contains("\"name\": \"ledger-c1024-a1m\""));
    }
}
