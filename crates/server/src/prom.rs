//! Prometheus text-format exposition, hand-rolled over `std`.
//!
//! [`render`] turns a [`MetricsSnapshot`] (plus optional per-stripe lock
//! stats) into the [text exposition format] Prometheus scrapes; counters
//! become `asset_<name>_total`, histograms become the conventional
//! `_bucket{le=...}` / `_sum` / `_count` triple with **cumulative** bucket
//! counts, and stripe stats become `{stripe="i"}`-labeled series.
//!
//! [`PromServer`] is a deliberately tiny HTTP/1.1 responder on a
//! `std::net::TcpListener`: every request — whatever the path — gets a
//! `200 text/plain` scrape body produced by a caller-supplied closure.
//! It exists so examples, `asset-top --serve` and tests can expose live
//! metrics without an HTTP dependency; it is not a general web server.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/
//!
//! The §7 observability rule applies: nothing here runs on a transaction
//! hot path. Rendering reads an already-captured snapshot; the server
//! thread only ever touches `Obs` through the lock-free snapshot call the
//! closure performs.

use asset_lock::StripeStats;
use asset_obs::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Append one histogram in exposition format (`_bucket{le=...}` /
/// `_sum` / `_count`, cumulative buckets) under `name`, so a caller (the
/// server's per-opcode families) can add its own next to a [`render`]ed
/// snapshot.
pub fn render_histogram(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    // Prometheus buckets are cumulative and each carries its upper bound.
    let mut cum = 0u64;
    for (i, c) in h.buckets.iter().enumerate() {
        cum += c;
        match h.boundaries.get(i) {
            Some(b) => {
                let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cum}");
            }
            None => {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            }
        }
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Render a snapshot (and optional per-stripe lock-table stats) in the
/// Prometheus text exposition format.
///
/// Counter totals in the output are exactly the totals in `snap` —
/// `tests/trace_export.rs` scrapes a live endpoint and diffs it against
/// `metrics_snapshot()`.
pub fn render(snap: &MetricsSnapshot, stripes: &[StripeStats]) -> String {
    let mut out = String::with_capacity(8192);

    snap.counters.for_each(|name, value| {
        let _ = writeln!(
            out,
            "# HELP asset_{name}_total Monotonic ASSET counter `{name}`."
        );
        let _ = writeln!(out, "# TYPE asset_{name}_total counter");
        let _ = writeln!(out, "asset_{name}_total {value}");
    });

    let _ = writeln!(
        out,
        "# HELP asset_events_dropped_total Trace events dropped by the ring recorder."
    );
    let _ = writeln!(out, "# TYPE asset_events_dropped_total counter");
    let _ = writeln!(out, "asset_events_dropped_total {}", snap.events_dropped);

    let _ = writeln!(
        out,
        "# HELP asset_tracing_enabled Whether the event recorder is on (0/1)."
    );
    let _ = writeln!(out, "# TYPE asset_tracing_enabled gauge");
    let _ = writeln!(
        out,
        "asset_tracing_enabled {}",
        u8::from(snap.tracing_enabled)
    );

    for (name, h) in snap.histograms() {
        let full = format!("asset_{name}");
        render_histogram(&mut out, &full, "ASSET latency/size distribution.", h);
    }

    if !stripes.is_empty() {
        for (field, help) in [
            ("grants", "Locks granted on the stripe."),
            ("blocks", "Block attempts on the stripe."),
            (
                "suspensions",
                "Permit-driven lock suspensions on the stripe.",
            ),
            ("deadlocks", "Deadlock victims whose final wait was here."),
            ("timeouts", "Lock-wait timeouts on the stripe."),
            ("waits", "Requests that blocked at least once."),
            ("wait_ns_total", "Total nanoseconds blocked on the stripe."),
            ("wait_ns_max", "Longest single wait on the stripe (ns)."),
            ("queue_peak", "Deepest pending queue seen on the stripe."),
        ] {
            let _ = writeln!(out, "# HELP asset_stripe_{field} {help}");
            let _ = writeln!(out, "# TYPE asset_stripe_{field} gauge");
            for s in stripes {
                let v = match field {
                    "grants" => s.grants,
                    "blocks" => s.blocks,
                    "suspensions" => s.suspensions,
                    "deadlocks" => s.deadlocks,
                    "timeouts" => s.timeouts,
                    "waits" => s.waits,
                    "wait_ns_total" => s.wait_ns_total,
                    "wait_ns_max" => s.wait_ns_max,
                    _ => s.queue_peak,
                };
                let _ = writeln!(out, "asset_stripe_{field}{{stripe=\"{}\"}} {v}", s.stripe);
            }
        }
    }

    out
}

/// [`render`] plus node-attributed fleet series (DESIGN.md §7.2): an
/// `asset_events_dropped{node="..."}` gauge so dropped trace events stay
/// attributable when several exporters are aggregated, and an
/// `asset_node_up{node="..."} 1` liveness marker per scrape.
pub fn render_node(snap: &MetricsSnapshot, stripes: &[StripeStats], node: u32) -> String {
    let mut out = render(snap, stripes);
    let _ = writeln!(
        out,
        "# HELP asset_events_dropped Trace events dropped by this node's ring recorder."
    );
    let _ = writeln!(out, "# TYPE asset_events_dropped gauge");
    let _ = writeln!(
        out,
        "asset_events_dropped{{node=\"{node}\"}} {}",
        snap.events_dropped
    );
    let _ = writeln!(out, "# HELP asset_node_up This node answered the scrape.");
    let _ = writeln!(out, "# TYPE asset_node_up gauge");
    let _ = writeln!(out, "asset_node_up{{node=\"{node}\"}} 1");
    out
}

/// A tiny single-threaded HTTP responder serving Prometheus scrapes.
///
/// Every incoming request receives `200 OK` with the body produced by the
/// source closure at that moment, so each scrape sees fresh totals.
/// Dropping the server (or calling [`PromServer::shutdown`]) stops the
/// accept loop and joins the thread.
pub struct PromServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PromServer {
    /// Bind `addr` (use port 0 for an ephemeral port — see
    /// [`PromServer::addr`]) and serve scrapes from `source` on a
    /// background thread.
    pub fn spawn<F>(addr: &str, source: F) -> std::io::Result<PromServer>
    where
        F: Fn() -> String + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("asset-prom".into())
            .spawn(move || serve(listener, &stop2, source))?;
        Ok(PromServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread (idempotent).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        crate::server::wake_accept(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PromServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve<F: Fn() -> String>(listener: TcpListener, stop: &AtomicBool, source: F) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // A failed accept or a misbehaving client never takes the
        // exporter down; just move to the next connection.
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        // Drain (up to one buffer of) the request; we answer every path
        // identically so the content is irrelevant.
        let mut buf = [0u8; 2048];
        let _ = stream.read(&mut buf);
        let body = source();
        let header = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream.write_all(header.as_bytes());
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.flush();
    }
}

/// Fetch one scrape from a [`PromServer`] (or any HTTP endpoint) and
/// return just the body. Test/tooling helper — a two-line HTTP client.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response",
        )),
    }
}

/// Pull a single sample value out of a rendered scrape body by exact
/// series name (e.g. `asset_commits_total`). Test/tooling helper.
pub fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (name, value) = l.split_once(' ')?;
        if name == series {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_obs::{bump, Obs};

    #[test]
    fn render_emits_counters_and_cumulative_buckets() {
        let obs = Obs::new();
        bump(&obs.counters.txn_committed);
        bump(&obs.counters.txn_committed);
        obs.lock_wait_ns.record(500);
        obs.lock_wait_ns.record(2_000);
        let body = render(&obs.snapshot(), &[]);
        assert_eq!(sample(&body, "asset_txn_committed_total"), Some(2.0));
        // Cumulative: the 1000-bound bucket holds the 500ns hit, every
        // later bucket (and +Inf) includes it too.
        let inf = body
            .lines()
            .find(|l| l.starts_with("asset_lock_wait_ns_bucket{le=\"+Inf\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<u64>().ok());
        assert_eq!(inf, Some(2));
        assert!(body.contains("asset_lock_wait_ns_sum 2500"));
        assert!(body.contains("asset_lock_wait_ns_count 2"));
        assert!(body.contains("asset_tracing_enabled 0"));
    }

    #[test]
    fn render_labels_stripe_series() {
        let obs = Obs::new();
        let stripes = vec![StripeStats {
            stripe: 3,
            grants: 7,
            blocks: 1,
            suspensions: 0,
            deadlocks: 0,
            timeouts: 0,
            waits: 1,
            wait_ns_total: 9,
            wait_ns_max: 9,
            queue_peak: 2,
        }];
        let body = render(&obs.snapshot(), &stripes);
        assert_eq!(
            sample(&body, "asset_stripe_grants{stripe=\"3\"}"),
            Some(7.0)
        );
        assert_eq!(
            sample(&body, "asset_stripe_queue_peak{stripe=\"3\"}"),
            Some(2.0)
        );
    }

    #[test]
    fn render_node_labels_dropped_events_by_node() {
        let obs = Obs::new();
        let mut snap = obs.snapshot();
        snap.events_dropped = 5;
        let body = render_node(&snap, &[], 3);
        assert_eq!(sample(&body, "asset_events_dropped{node=\"3\"}"), Some(5.0));
        assert_eq!(sample(&body, "asset_node_up{node=\"3\"}"), Some(1.0));
        // the fleet-agnostic series are still present
        assert_eq!(sample(&body, "asset_events_dropped_total"), Some(5.0));
    }

    #[test]
    fn server_serves_scrapes_until_shutdown() {
        let obs = std::sync::Arc::new(Obs::new());
        bump(&obs.counters.txn_begun);
        let src = std::sync::Arc::clone(&obs);
        let mut server =
            PromServer::spawn("127.0.0.1:0", move || render(&src.snapshot(), &[])).unwrap();
        let addr = server.addr();
        let body = scrape(addr).unwrap();
        assert_eq!(sample(&body, "asset_txn_begun_total"), Some(1.0));
        // Counters move between scrapes — each request renders fresh.
        bump(&obs.counters.txn_begun);
        let body2 = scrape(addr).unwrap();
        assert_eq!(sample(&body2, "asset_txn_begun_total"), Some(2.0));
        server.shutdown();
        server.shutdown(); // idempotent
    }
}
