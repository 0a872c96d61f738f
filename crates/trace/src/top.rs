//! Frame rendering for `asset-top`, the live terminal monitor.
//!
//! [`render_frame`] turns one [`Introspection`] + [`MetricsSnapshot`]
//! pair into a fixed-width text dashboard: live transactions by status
//! (from the introspection's walk of the TDs) beside the committed and
//! aborted totals (from the snapshot's counters), per-stripe lock
//! occupancy and contention, the current waits-for edges,
//! dependency-graph totals, permit-chain depth, log watermarks and
//! latency percentiles. The binary redraws it on an interval; tests and
//! `--once` callers just print it.

use asset_core::Introspection;
use asset_obs::MetricsSnapshot;
use std::fmt::Write as _;

fn ns_disp(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Render one dashboard frame (plain text, trailing newline, no ANSI —
/// the binary adds cursor control around it).
pub fn render_frame(intro: &Introspection, snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let c = &snap.counters;

    let _ = writeln!(
        out,
        "asset-top — live: {:>4}  initiated: {:>4}  running: {:>4}  completed: {:>4}  committed: {:>6}  aborted: {:>6}",
        intro.live, intro.initiated, intro.running, intro.completed, c.txn_committed, c.txn_aborted
    );
    let _ = writeln!(
        out,
        "deps — active: {}  doomed: {}  CD: {}  AD: {}  GC: {}   permits live: {}  deepest permit chain: {}",
        intro.live,
        intro.deps.doomed,
        intro.deps.cd_edges,
        intro.deps.ad_edges,
        intro.deps.gc_links,
        intro.permits,
        snap.permit_chain_len.max
    );
    let _ = writeln!(
        out,
        "log — tail lsn: {}  records: {}  pending: {}B  unsynced: {}B   trace: {} ({} dropped)",
        intro.log.tail.0,
        intro.log.records_appended,
        intro.log.pending_bytes,
        intro.log.unsynced_bytes,
        if snap.tracing_enabled { "on" } else { "off" },
        snap.events_dropped
    );

    let (p50, p95, p99) = snap.lock_wait_ns.percentiles();
    let (c50, c95, c99) = snap.commit_ns.percentiles();
    let _ = writeln!(
        out,
        "lock wait — p50 {} / p95 {} / p99 {}   commit — p50 {} / p95 {} / p99 {}",
        ns_disp(p50),
        ns_disp(p95),
        ns_disp(p99),
        ns_disp(c50),
        ns_disp(c95),
        ns_disp(c99)
    );

    out.push('\n');
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>9} {:>8} | {:>8} {:>8} {:>9} {:>10}",
        "stripe",
        "objects",
        "granted",
        "suspended",
        "waiting",
        "grants",
        "blocks",
        "deadlocks",
        "wait-max"
    );
    for (occ, st) in intro.stripes.iter().zip(intro.stripe_stats.iter()) {
        // Idle stripes stay out of the table so busy ones are readable;
        // cumulative activity alone (grants with nothing resident) still
        // shows.
        if occ.objects == 0 && st.grants == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>9} {:>8} | {:>8} {:>8} {:>9} {:>10}",
            occ.stripe,
            occ.objects,
            occ.granted,
            occ.suspended,
            occ.waiting,
            st.grants,
            st.blocks,
            st.deadlocks,
            ns_disp(st.wait_ns_max as f64)
        );
    }

    if !intro.waits.is_empty() {
        out.push('\n');
        let mut rows: Vec<_> = intro.waits.iter().collect();
        rows.sort_unstable_by_key(|(w, _)| **w);
        for (waiter, holders) in rows {
            let mut hs: Vec<u64> = holders.iter().map(|h| h.raw()).collect();
            hs.sort_unstable();
            let list = hs
                .iter()
                .map(|h| format!("t{h}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "waiting: t{} -> {}", waiter.raw(), list);
        }
    }

    out
}

/// One node's vitals for the fleet dashboard, pulled out of a
/// Prometheus scrape body (`asset-top --nodes a,b,c` mode).
#[derive(Debug, Clone)]
pub struct NodeVitals {
    /// The node's metrics endpoint address (row label).
    pub addr: String,
    /// Did the scrape succeed? A down node renders as a dashed row.
    pub up: bool,
    /// `asset_txn_committed_total`.
    pub committed: f64,
    /// `asset_txn_aborted_total`.
    pub aborted: f64,
    /// `asset_server_requests_total`.
    pub requests: f64,
    /// `asset_server_live_connections` gauge.
    pub live_connections: f64,
    /// `asset_server_live_sessions` gauge.
    pub live_sessions: f64,
    /// `asset_server_live_transactions` gauge.
    pub live_transactions: f64,
    /// `asset_server_in_doubt` gauge — prepared, undecided groups.
    pub in_doubt: f64,
    /// `asset_events_dropped` gauge — ring-buffer drops.
    pub events_dropped: f64,
}

/// Sample a series by bare name, tolerating a `{label}` set — the
/// per-node exporter tags its gauges with `{node="N"}`, which
/// [`asset_server::prom::sample`]'s exact match would miss.
pub fn fleet_sample(body: &str, series: &str) -> Option<f64> {
    body.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (name, value) = l.split_once(' ')?;
        let bare = name.split('{').next()?;
        if bare == series {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

impl NodeVitals {
    /// Vitals parsed out of a successful scrape of `addr`.
    pub fn from_scrape(addr: &str, body: &str) -> NodeVitals {
        let get = |series: &str| fleet_sample(body, series).unwrap_or(0.0);
        NodeVitals {
            addr: addr.to_string(),
            up: true,
            committed: get("asset_txn_committed_total"),
            aborted: get("asset_txn_aborted_total"),
            requests: get("asset_server_requests_total"),
            live_connections: get("asset_server_live_connections"),
            live_sessions: get("asset_server_live_sessions"),
            live_transactions: get("asset_server_live_transactions"),
            in_doubt: get("asset_server_in_doubt"),
            events_dropped: get("asset_events_dropped"),
        }
    }

    /// The row for a node whose scrape failed.
    pub fn down(addr: &str) -> NodeVitals {
        NodeVitals {
            up: false,
            ..NodeVitals::from_scrape(addr, "")
        }
    }
}

/// Render the fleet dashboard: one row per scraped node, plus a totals
/// row. Plain text, same contract as [`render_frame`].
pub fn render_fleet_frame(nodes: &[NodeVitals]) -> String {
    let mut out = String::with_capacity(1024);
    let up = nodes.iter().filter(|n| n.up).count();
    let _ = writeln!(
        out,
        "asset-top — fleet: {} node(s), {} up, {} down",
        nodes.len(),
        up,
        nodes.len() - up
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<22} {:>4} {:>10} {:>8} {:>10} {:>6} {:>9} {:>6} {:>8} {:>8}",
        "node",
        "up",
        "committed",
        "aborted",
        "requests",
        "conns",
        "sessions",
        "txns",
        "in-doubt",
        "dropped"
    );
    for n in nodes {
        if !n.up {
            let _ = writeln!(
                out,
                "{:<22} {:>4} {:>10} {:>8} {:>10} {:>6} {:>9} {:>6} {:>8} {:>8}",
                n.addr, "DOWN", "-", "-", "-", "-", "-", "-", "-", "-"
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{:<22} {:>4} {:>10} {:>8} {:>10} {:>6} {:>9} {:>6} {:>8} {:>8}",
            n.addr,
            "ok",
            n.committed,
            n.aborted,
            n.requests,
            n.live_connections,
            n.live_sessions,
            n.live_transactions,
            n.in_doubt,
            n.events_dropped
        );
    }
    let live: Vec<&NodeVitals> = nodes.iter().filter(|n| n.up).collect();
    let sum = |f: fn(&NodeVitals) -> f64| live.iter().map(|n| f(n)).sum::<f64>();
    let _ = writeln!(
        out,
        "{:<22} {:>4} {:>10} {:>8} {:>10} {:>6} {:>9} {:>6} {:>8} {:>8}",
        "total",
        "",
        sum(|n| n.committed),
        sum(|n| n.aborted),
        sum(|n| n.requests),
        sum(|n| n.live_connections),
        sum(|n| n.live_sessions),
        sum(|n| n.live_transactions),
        sum(|n| n.in_doubt),
        sum(|n| n.events_dropped)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_core::Database;

    #[test]
    fn frame_reflects_database_state() {
        let db = Database::in_memory();
        db.obs().enable_tracing(0);
        let a = db.new_oid();
        let committed = db
            .run(move |ctx| {
                ctx.write(a, vec![1])?;
                Ok(())
            })
            .unwrap();
        assert!(committed);
        let frame = render_frame(&db.introspect(), &db.metrics_snapshot());
        assert!(frame.contains("asset-top"), "header present");
        assert!(
            frame.contains("committed:      1  aborted:      0"),
            "totals from the counters:\n{frame}"
        );
        assert!(frame.contains("trace: on"), "tracing flag shown");
        assert!(frame.contains("stripe"), "stripe table header present");
    }

    #[test]
    fn frame_shows_a_parked_executor_task_as_waiting() {
        use asset_core::{TryOp, TxnStep};
        let db = Database::in_memory();
        let o = db.new_oid();
        let holder = db.initiate(move |ctx| ctx.write(o, vec![1])).unwrap();
        db.begin(holder).unwrap();
        assert!(db.wait(holder).unwrap());
        let parked = db
            .submit(move |sc| match sc.try_write(o, vec![2]) {
                Ok(TryOp::Done(())) => TxnStep::Done(Ok(())),
                Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
                Err(e) => TxnStep::Done(Err(e)),
            })
            .unwrap();
        while db.locks().pending(o).is_empty() {
            std::thread::yield_now();
        }
        let frame = render_frame(&db.introspect(), &db.metrics_snapshot());
        // stripe rows: five cells left of the bar, `waiting` the fifth
        let waiting: u64 = frame
            .lines()
            .filter_map(|l| {
                let cells: Vec<&str> = l.split('|').next()?.split_whitespace().collect();
                cells
                    .get(4)
                    .filter(|_| cells.len() == 5)?
                    .parse::<u64>()
                    .ok()
            })
            .sum();
        assert_eq!(waiting, 1, "the parked task's request is listed:\n{frame}");
        assert!(frame.contains(&format!("waiting: t{} -> t{}", parked.raw(), holder.raw())));
        assert!(db.commit(holder).unwrap());
        assert!(db.outcome(parked).unwrap());
    }

    #[test]
    fn ns_display_picks_units() {
        assert_eq!(ns_disp(512.0), "512ns");
        assert_eq!(ns_disp(1_500.0), "1.5µs");
        assert_eq!(ns_disp(2_500_000.0), "2.50ms");
    }

    #[test]
    fn fleet_sample_ignores_label_sets() {
        let body =
            "# HELP x y\nasset_server_in_doubt{node=\"3\"} 2\nasset_txn_committed_total 41\n";
        assert_eq!(fleet_sample(body, "asset_server_in_doubt"), Some(2.0));
        assert_eq!(fleet_sample(body, "asset_txn_committed_total"), Some(41.0));
        assert_eq!(fleet_sample(body, "asset_missing"), None);
    }

    #[test]
    fn fleet_frame_has_a_row_per_node_and_totals() {
        let a = NodeVitals {
            committed: 10.0,
            in_doubt: 1.0,
            ..NodeVitals::from_scrape("127.0.0.1:9001", "")
        };
        let b = NodeVitals::down("127.0.0.1:9002");
        let frame = render_fleet_frame(&[a, b]);
        assert!(frame.contains("2 node(s), 1 up, 1 down"));
        assert!(frame.contains("127.0.0.1:9001"));
        assert!(frame.contains("DOWN"));
        assert!(frame.contains("total"));
    }
}
