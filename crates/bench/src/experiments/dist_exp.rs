//! E18 — distributed-commit observability (`EXPERIMENTS.md` E18): what
//! does the §7.2 cross-node tracing pipeline cost, and what does it
//! produce?
//!
//! The sweep drives uncontended global transactions through the
//! coordinator in both configurations (one file-backed acceptor = 2PC,
//! three = Paxos Commit with F = 1; the same store as E17) over an
//! in-process 3-node cluster whose transport delays each message by
//! [`LINK_DELAY`] — a fast LAN, the same modeling move as E17's slower
//! 200us link — once
//! with tracing off and once with the full instrumentation on (event
//! rings on every node, the coordinator hub recording
//! `MsgSend`/`MsgAck`, per-message counters and the decision-latency
//! histogram). The timed window is the whole transaction lifecycle —
//! stage on every node through decision delivered everywhere, the same
//! outcome definition E17 uses — since that is the path a deployment
//! actually pays for. Off/on cells are interleaved and each is the
//! best of [`REPS`] repetitions, so the reported overhead is a
//! floor-to-floor comparison rather than scheduler noise.
//!
//! A separate small traced pass then drains every node's ring, merges
//! the per-node [`CausalGraph`]s onto one fleet timeline
//! ([`CausalGraph::merge`]) and renders the merged Chrome trace — the
//! artifact the harness binary writes next to `BENCH_obs.json`.

use super::coord_exp::AcceptorDir;
use super::{ObsBenchRun, Scale};
use crate::table::{fmt_duration, fmt_rate, Table};
use asset_common::Config;
use asset_coord::{
    ChannelTransport, CommitTransport, CoordObs, Decision, GlobalTxn, ParticipantNode, PaxosCommit,
};
use asset_obs::Obs;
use asset_trace::chrome;
use asset_trace::span::CausalGraph;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Participants per cluster.
const NODES: usize = 3;

/// The coordinator's fleet node id — distinct from every participant
/// index, per the transport's node-id convention.
const COORD_NODE: u32 = 3;

/// Per-message transport delay: a fast LAN link, so the overhead is
/// evaluated against the network cost a distributed commit always pays
/// (E17 models a slower 200us link for the same reason).
const LINK_DELAY: Duration = Duration::from_micros(50);

/// Global transactions per cell before scaling.
const TXNS_BASE: usize = 128;

/// Repetitions per cell; each cell reports its best run.
const REPS: usize = 4;

/// One pass's measurements: summed wall time, per-txn outcome
/// latencies, and events recorded/dropped across every ring (hub plus
/// participants).
type PassResult = (Duration, Vec<u64>, u64, u64);

/// One measured pass: a fresh cluster, `iters` global transactions,
/// each timed over its whole lifecycle (stage on every node → decision
/// delivered everywhere) by the harness clock, so off and on cells are
/// measured identically. `acceptors` is the protocol: 1 or 3.
fn run_pass(acceptors: usize, traced: bool, iters: usize) -> PassResult {
    let nodes: Vec<Arc<ParticipantNode>> = (0..NODES)
        .map(|_| Arc::new(ParticipantNode::open(Config::in_memory()).expect("open node")))
        .collect();
    let hub = Obs::shared();
    if traced {
        hub.enable_tracing(1 << 16);
        for n in &nodes {
            n.db().obs().enable_tracing(1 << 16);
        }
    }
    let mut transport = ChannelTransport::new(nodes).with_delay(LINK_DELAY);
    if traced {
        transport = transport.with_obs(Arc::clone(&hub));
    }
    let transport = Arc::new(transport);
    let store = AcceptorDir::new("e18", acceptors);

    let mut outcome_ns: Vec<u64> = Vec::with_capacity(iters);
    let mut elapsed = Duration::ZERO;
    for i in 0..iters {
        let gid = 1 + i as u64;
        let t0 = Instant::now();
        let mut g = GlobalTxn::new(gid);
        for n in 0..transport.nodes() {
            let db = transport.node(n).db();
            let oid = db.new_oid();
            let t = db
                .initiate(move |ctx| ctx.write(oid, gid.to_le_bytes().to_vec()))
                .expect("initiate");
            db.begin(t).expect("begin");
            db.wait(t).expect("wait");
            g.add_member(n as u32, t);
        }
        let mut c = PaxosCommit::new(transport.clone(), store.acceptors.clone());
        if traced {
            c = c.with_obs(CoordObs::new(COORD_NODE, Arc::clone(&hub)));
        }
        let d = c.commit(&g).expect("commit");
        let dt = t0.elapsed();
        assert_eq!(d, Decision::Commit, "uncontended cell must commit");
        outcome_ns.push(dt.as_nanos() as u64);
        elapsed += dt;
    }
    let mut events = 0u64;
    let mut dropped = 0u64;
    for i in 0..transport.nodes() {
        let s = transport.node(i).db().obs().snapshot();
        events += s.counters.events_recorded;
        dropped += s.events_dropped;
    }
    let s = hub.snapshot();
    events += s.counters.events_recorded;
    dropped += s.events_dropped;
    (elapsed, outcome_ns, events, dropped)
}

fn percentiles(mut ns: Vec<u64>) -> (f64, f64, f64) {
    ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        if ns.is_empty() {
            0.0
        } else {
            ns[((ns.len() - 1) as f64 * p) as usize] as f64
        }
    };
    (pct(0.50), pct(0.95), pct(0.99))
}

/// Run the E18 sweep: for each acceptor count, [`REPS`] interleaved off/on
/// passes, keeping each cell's best (minimum wall time) pass.
pub fn e18_dist_obs_runs(scale: Scale, txns_override: Option<usize>) -> Vec<ObsBenchRun> {
    let iters = txns_override.unwrap_or_else(|| scale.n(TXNS_BASE));
    let mut runs = Vec::new();
    for (acceptors, off_name, on_name) in [
        (1, "dist-2pc-trace-off", "dist-2pc-trace-on"),
        (3, "dist-paxos-trace-off", "dist-paxos-trace-on"),
    ] {
        let mut best: [Option<PassResult>; 2] = [None, None];
        for _ in 0..REPS {
            // interleave off/on so drift hits both cells alike
            for (slot, traced) in [(0usize, false), (1usize, true)] {
                let pass = run_pass(acceptors, traced, iters);
                let better = match &best[slot] {
                    Some((d, _, _, _)) => pass.0 < *d,
                    None => true,
                };
                if better {
                    best[slot] = Some(pass);
                }
            }
        }
        for (slot, name) in [(0usize, off_name), (1usize, on_name)] {
            // verify: allow(no_panics) — every slot was filled above
            let (elapsed, outcome_ns, events, dropped) = best[slot].take().expect("pass ran");
            runs.push(ObsBenchRun {
                name,
                txns: iters as u64,
                elapsed,
                lock_wait_ns: (0.0, 0.0, 0.0),
                commit_ns: percentiles(outcome_ns),
                events_recorded: events,
                events_dropped: dropped,
            });
        }
    }
    runs
}

/// The tracing overhead of an `-on` cell relative to its `-off`
/// sibling, as a fraction (0.03 = 3%), or `None` when either cell is
/// missing or degenerate.
pub fn e18_overhead(runs: &[ObsBenchRun], off: &str, on: &str) -> Option<f64> {
    let wall = |name: &str| -> Option<f64> {
        runs.iter()
            .find(|r| r.name == name)
            .map(|r| r.elapsed.as_secs_f64())
            .filter(|s| *s > 0.0)
    };
    Some(wall(on)? / wall(off)? - 1.0)
}

/// A small dedicated traced pass (both acceptor counts on one hub) whose
/// merged fleet trace is the E18 artifact: per-node lanes for the
/// coordinator and all [`NODES`] participants, cross-node flow edges
/// for every PREPARE and decide fan-out.
pub fn e18_merged_trace() -> String {
    let nodes: Vec<Arc<ParticipantNode>> = (0..NODES)
        .map(|_| Arc::new(ParticipantNode::open(Config::in_memory()).expect("open node")))
        .collect();
    let hub = Obs::shared();
    hub.enable_tracing(1 << 14);
    for n in &nodes {
        n.db().obs().enable_tracing(1 << 14);
    }
    let transport = Arc::new(ChannelTransport::new(nodes).with_obs(Arc::clone(&hub)));
    let stage = |gid: u64| -> GlobalTxn {
        let mut g = GlobalTxn::new(gid);
        for i in 0..transport.nodes() {
            let db = transport.node(i).db();
            let oid = db.new_oid();
            let t = db
                .initiate(move |ctx| ctx.write(oid, gid.to_le_bytes().to_vec()))
                .expect("initiate");
            db.begin(t).expect("begin");
            db.wait(t).expect("wait");
            g.add_member(i as u32, t);
        }
        g
    };

    for (gid, acceptors) in [(1, 1), (2, 3)] {
        let g = stage(gid);
        let store = AcceptorDir::new("e18-trace", acceptors);
        let d = PaxosCommit::new(transport.clone(), store.acceptors.clone())
            .with_obs(CoordObs::new(COORD_NODE, Arc::clone(&hub)))
            .commit(&g)
            .expect("commit");
        assert_eq!(d, Decision::Commit);
    }

    let mut graphs = vec![CausalGraph::from_node_events(COORD_NODE, &hub.trace())];
    for i in 0..transport.nodes() {
        graphs.push(CausalGraph::from_node_events(
            i as u32,
            &transport.node(i).db().obs().trace(),
        ));
    }
    let fleet = CausalGraph::merge(graphs);
    assert!(
        !fleet.flows.is_empty(),
        "E18 artifact must contain cross-node flows"
    );
    chrome::render_fleet(&fleet)
}

/// Format already-measured runs as the E18 table.
pub fn e18_table(runs: &[ObsBenchRun]) -> Table {
    let mut table = Table::new(
        "E18: distributed-commit observability overhead",
        "uncontended global txns over an in-process 3-node cluster, 50us link delay (fast LAN), 1 (2pc) or 3 (paxos) file-backed acceptors; outcome = stage -> decision everywhere (as E17); each cell is the best of 4 interleaved passes; overhead = on/off wall-time ratio - 1 (target < 5%)",
    )
    .headers(&[
        "cell",
        "txns",
        "throughput",
        "outcome p50/p99",
        "events (dropped)",
        "overhead",
    ]);
    for r in runs {
        let (c50, _, c99) = r.commit_ns;
        let overhead = if let Some(off) = r.name.strip_suffix("-trace-on") {
            e18_overhead(runs, &format!("{off}-trace-off"), r.name)
                .map(|f| format!("{:+.1}%", f * 100.0))
                .unwrap_or_else(|| "-".into())
        } else {
            "baseline".into()
        };
        table.row(vec![
            r.name.into(),
            r.txns.to_string(),
            fmt_rate(r.txns, r.elapsed),
            format!(
                "{} / {}",
                fmt_duration(Duration::from_nanos(c50 as u64)),
                fmt_duration(Duration::from_nanos(c99 as u64)),
            ),
            format!("{} ({})", r.events_recorded, r.events_dropped),
            overhead,
        ]);
    }
    table
}

/// E18 as a harness table.
pub fn e18_dist_obs(scale: Scale) -> Table {
    e18_table(&e18_dist_obs_runs(scale, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_trace::json;

    #[test]
    fn sweep_measures_both_protocols_with_and_without_tracing() {
        let runs = e18_dist_obs_runs(Scale::quick(), Some(4));
        assert_eq!(runs.len(), 4);
        for r in &runs {
            assert_eq!(r.txns, 4, "{}: honored the txns override", r.name);
            assert!(r.commit_ns.2 >= r.commit_ns.0, "{}: p99 >= p50", r.name);
        }
        let by = |name: &str| runs.iter().find(|r| r.name == name).expect("cell");
        // off cells recorded nothing; on cells filled the hub ring
        assert_eq!(by("dist-2pc-trace-off").events_recorded, 0);
        assert!(by("dist-2pc-trace-on").events_recorded > 0);
        assert!(by("dist-paxos-trace-on").events_recorded > 0);
        // overhead is computable for both protocols (its magnitude is a
        // release-build property; here only the plumbing is asserted)
        assert!(e18_overhead(&runs, "dist-2pc-trace-off", "dist-2pc-trace-on").is_some());
        assert!(e18_overhead(&runs, "dist-paxos-trace-off", "dist-paxos-trace-on").is_some());
        let json_doc = super::super::bench_obs_json(&runs);
        assert!(json_doc.contains("\"name\": \"dist-paxos-trace-on\""));
    }

    #[test]
    fn merged_trace_artifact_is_valid_json_with_all_lanes() {
        let trace = e18_merged_trace();
        let doc = json::parse(&trace).expect("artifact parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // a process-name metadata record per lane: coordinator + NODES
        let lanes = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .count();
        assert_eq!(lanes, NODES + 1, "one lane per node plus the coordinator");
        // cross-node flows render as s/f pairs on the asset-flow category
        let starts = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .count();
        let finishes = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .count();
        assert!(starts > 0, "flow starts present");
        assert_eq!(starts, finishes, "every flow start has its finish");
    }
}
