//! Chrome trace-event JSON export (Perfetto / `chrome://tracing` loadable).
//!
//! The layout maps the causal graph onto the trace-event model:
//!
//! * one **track** per transaction (`tid` = the raw ASSET tid), named by
//!   an `"M"` (metadata) `thread_name` record — `t<id> [model]`;
//! * the transaction lifetime and each sub-span become `"X"` (complete)
//!   events with microsecond `ts`/`dur`;
//! * every causal edge (delegate, permit, permit-through, CD/AD/GC
//!   dependency, group-commit fan-out) becomes an `"s"`/`"f"` **flow
//!   event** pair, so Perfetto draws an arrow from the source track to the
//!   destination track;
//! * milestones (model tags, deadlock victimhood, ambiguous commits)
//!   become `"i"` instant events;
//! * storage activity (log flushes, latch spins) lands on a dedicated
//!   track with `tid` 0, cross-node message hops on a `wire` track;
//! * participant in-doubt windows (§14.2) become `in-doubt` spans on the
//!   prepared transaction's track.
//!
//! [`render`] emits one graph as a single process (`pid` 1).
//! [`render_fleet`] emits a merged [`FleetGraph`] with **one process
//! lane per node** (`pid` = node id + 1, named by `process_name`
//! metadata) and the matched cross-node request/response flows as
//! `"s"`/`"f"` arrows between the nodes' wire tracks.
//!
//! All timestamps are nanoseconds-since-`Obs`-epoch converted to
//! fractional microseconds (`ns / 1000.0`, three decimals), which keeps
//! sub-microsecond spans visible.

use crate::span::{CausalGraph, EdgeKind, FleetGraph, FlowKind, MsgDir, Outcome, SpanKind, Track};
use asset_common::json::Writer;
use asset_server::protocol::opcode;

/// Emulated process id for single-graph renders.
const PID: u64 = 1;
/// Track id for storage-lane events (no real transaction owns them).
const STORAGE_TID: u64 = 0;
/// Track id for the cross-node message lane of each node.
const WIRE_TID: u64 = u64::MAX;

fn track_name(t: &Track) -> String {
    match t.model {
        Some(m) => format!("t{} [{:?}]", t.tid.raw(), m),
        None => format!("t{}", t.tid.raw()),
    }
}

/// One trace event: its phase, process, thread and name, then the
/// members `rest` writes.
fn event(w: &mut Writer, ph: &str, pid: u64, tid: u64, name: &str, rest: impl FnOnce(&mut Writer)) {
    w.obj(|w| {
        w.key("ph").str(ph).key("pid").u64(pid);
        w.key("tid").u64(tid).key("name").str(name);
        rest(w);
    });
}

/// A metadata event whose arguments `args` writes.
fn meta(w: &mut Writer, pid: u64, tid: u64, name: &str, args: impl FnOnce(&mut Writer)) {
    event(w, "M", pid, tid, name, |w| {
        w.key("args").obj(args);
    });
}

fn meta_thread(w: &mut Writer, pid: u64, tid: u64, name: &str, sort: u64) {
    meta(w, pid, tid, "thread_name", |w| {
        w.key("name").str(name);
    });
    meta(w, pid, tid, "thread_sort_index", |w| {
        w.key("sort_index").u64(sort);
    });
}

fn meta_process(w: &mut Writer, pid: u64, name: &str) {
    meta(w, pid, 0, "process_name", |w| {
        w.key("name").str(name);
    });
    meta(w, pid, 0, "process_sort_index", |w| {
        w.key("sort_index").u64(pid);
    });
}

/// A timestamp: nanoseconds as fractional microseconds.
fn ts(w: &mut Writer, key: &str, ns: f64) {
    w.key(key).f64(ns / 1000.0, 3);
}

fn complete(
    w: &mut Writer,
    pid: u64,
    tid: u64,
    name: &str,
    ts_ns: u64,
    dur_ns: u64,
    args: impl FnOnce(&mut Writer),
) {
    event(w, "X", pid, tid, name, |w| {
        w.key("cat").str("asset");
        ts(w, "ts", ts_ns as f64);
        ts(w, "dur", dur_ns as f64);
        w.key("args").obj(args);
    });
}

fn instant(w: &mut Writer, pid: u64, tid: u64, name: &str, ts_ns: u64) {
    event(w, "i", pid, tid, name, |w| {
        w.key("cat").str("asset");
        ts(w, "ts", ts_ns as f64);
        w.key("s").str("t");
    });
}

/// One flow arrow: `"s"` on `(from_pid, from_tid)` at `start_ns`, `"f"`
/// on `(to_pid, to_tid)` at `end_ns` (floored 1ns later so viewers have
/// a strictly positive arrow length). `cat` distinguishes intra-node
/// causal edges (`asset-edge`) from cross-node flows (`asset-flow`).
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per trace-event field"
)]
fn flow(
    w: &mut Writer,
    id: u64,
    cat: &str,
    name: &str,
    from: (u64, u64),
    to: (u64, u64),
    start_ns: u64,
    end_ns: u64,
) {
    event(w, "s", from.0, from.1, name, |w| {
        w.key("id").u64(id).key("cat").str(cat);
        ts(w, "ts", start_ns as f64);
    });
    event(w, "f", to.0, to.1, name, |w| {
        w.key("id").u64(id).key("cat").str(cat);
        ts(w, "ts", (end_ns as f64).max(start_ns as f64 + 1.0));
        w.key("bp").str("e");
    });
}

fn edge_args(kind: &EdgeKind) -> String {
    match kind {
        EdgeKind::Delegate { objects } => format!("delegate ({objects} objects)"),
        EdgeKind::PermitGrant { objects } => {
            if *objects == 0 {
                "permit (all objects)".to_string()
            } else {
                format!("permit ({objects} objects)")
            }
        }
        EdgeKind::PermitUsed { chain } => format!("permit-through (chain {chain})"),
        EdgeKind::Dep(d) => format!("form_dependency {d:?}"),
        EdgeKind::CommitGroup => "group-commit".to_string(),
    }
}

fn span_args(w: &mut Writer, kind: &SpanKind) {
    match kind {
        SpanKind::LockWait {
            ob,
            stripe,
            queue_depth,
        } => {
            w.key("ob")
                .u64(ob.raw())
                .key("stripe")
                .u64(u64::from(*stripe));
            w.key("queue_depth").u64(u64::from(*queue_depth));
        }
        SpanKind::LatchSpin { spins } => {
            w.key("spins").u64(u64::from(*spins));
        }
        SpanKind::LogFlush { bytes } => {
            w.key("bytes").u64(*bytes);
        }
        SpanKind::FlushWindow {
            window,
            records,
            bytes,
        } => {
            w.key("window")
                .u64(*window)
                .key("records")
                .u64(u64::from(*records));
            w.key("bytes").u64(*bytes);
        }
        SpanKind::Named(_) => {}
    }
}

/// Render one graph's events into `w` under process `pid`, allocating
/// flow ids from `next_id` (flow ids bind `"s"` to `"f"` per category
/// document-wide, so they must be unique across every node of a fleet
/// render).
fn render_graph(w: &mut Writer, pid: u64, g: &CausalGraph, next_id: &mut u64) {
    // Track metadata: storage lane first, then one thread per
    // transaction, then the wire lane (if the node exchanged messages).
    if !g.storage.is_empty() {
        meta_thread(w, pid, STORAGE_TID, "storage", 0);
    }
    for (i, t) in g.tracks.values().enumerate() {
        meta_thread(w, pid, t.tid.raw(), &track_name(t), i as u64 + 1);
    }
    if !g.msgs.is_empty() {
        meta_thread(w, pid, WIRE_TID, "wire", g.tracks.len() as u64 + 1);
    }

    // Transaction lifetime + sub-spans + milestones.
    for t in g.tracks.values() {
        let start = t.first_ns();
        let end = t.last_ns().max(start);
        let name = format!("txn {} ({})", t.tid.raw(), t.outcome.label());
        if t.outcome != Outcome::Open || t.begin_ns.is_some() {
            complete(w, pid, t.tid.raw(), &name, start, end - start, |w| {
                w.key("tid")
                    .u64(t.tid.raw())
                    .key("parent")
                    .u64(t.parent.raw());
                w.key("outcome").str(t.outcome.label());
            });
        }
        for s in &t.spans {
            complete(
                w,
                pid,
                t.tid.raw(),
                s.kind.label(),
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns),
                |w| span_args(w, &s.kind),
            );
        }
        for (at, label) in &t.milestones {
            instant(w, pid, t.tid.raw(), label, *at);
        }
    }

    // Participant in-doubt windows (§14.2) on the prepared txn's track.
    for d in &g.in_doubt {
        let end = d.end_ns.unwrap_or(d.start_ns);
        let decision = match d.commit {
            Some(true) => "commit",
            Some(false) => "abort",
            None => "open",
        };
        complete(
            w,
            pid,
            d.tid.raw(),
            "in-doubt",
            d.start_ns,
            end.saturating_sub(d.start_ns),
            |w| {
                w.key("group").u64(u64::from(d.group));
                w.key("decision").str(decision);
            },
        );
    }

    // Storage lane.
    for s in &g.storage {
        complete(
            w,
            pid,
            STORAGE_TID,
            s.kind.label(),
            s.start_ns,
            s.end_ns.saturating_sub(s.start_ns),
            |w| span_args(w, &s.kind),
        );
    }

    // Wire lane: every cross-node hop this node recorded.
    for m in &g.msgs {
        let dir = match m.dir {
            MsgDir::Send => "send",
            MsgDir::Ack => "ack",
            MsgDir::Recv => "recv",
            MsgDir::Reply => "reply",
        };
        let name = format!(
            "{dir} {} root={} peer={}",
            opcode::name(m.opcode),
            m.root,
            m.peer
        );
        instant(w, pid, WIRE_TID, &name, m.at_ns);
    }

    // Causal edges as flow pairs.
    for e in &g.edges {
        let id = *next_id;
        *next_id += 1;
        flow(
            w,
            id,
            "asset-edge",
            &edge_args(&e.kind),
            (pid, e.from.raw()),
            (pid, e.to.raw()),
            e.at_ns,
            e.at_ns,
        );
    }

    // Commit flows onto shared flush windows: the arrow leaves the
    // committer's track and lands on the storage lane, so several
    // transactions' commits visibly terminate on one flush-window span.
    for f in &g.flush_flows {
        let id = *next_id;
        *next_id += 1;
        flow(
            w,
            id,
            "asset-edge",
            &format!("commit-flush (window {})", f.window),
            (pid, f.tid.raw()),
            (pid, STORAGE_TID),
            f.at_ns,
            f.at_ns,
        );
    }
}

/// Render a [`CausalGraph`] as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form).
///
/// Load the result in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`: each transaction is a named track, causal edges are
/// flow arrows between tracks.
pub fn render(g: &CausalGraph) -> String {
    document(|w| render_graph(w, PID, g, &mut 1))
}

/// Render a merged [`FleetGraph`] as one Chrome trace-event document:
/// one process lane per node (named `node <id>`), each holding that
/// node's transaction/storage/wire tracks, plus `"s"`/`"f"` flow arrows
/// for every matched cross-node request and response
/// (`cat: "asset-flow"`) between the nodes' wire lanes.
pub fn render_fleet(f: &FleetGraph) -> String {
    document(|w| {
        let mut next_id = 1u64;
        for g in &f.nodes {
            let pid = node_pid(g.node);
            meta_process(w, pid, &format!("node {}", g.node));
            render_graph(w, pid, g, &mut next_id);
        }
        for fl in &f.flows {
            let leg = match fl.kind {
                FlowKind::Request => "request",
                FlowKind::Response => "response",
            };
            let id = next_id;
            next_id += 1;
            flow(
                w,
                id,
                "asset-flow",
                &format!("{} {leg} root={}", opcode::name(fl.opcode), fl.root),
                (node_pid(fl.from_node), WIRE_TID),
                (node_pid(fl.to_node), WIRE_TID),
                fl.from_ns,
                fl.to_ns,
            );
        }
    })
}

/// The `{"traceEvents": [...]}` document whose events `events` writes.
fn document(events: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("traceEvents").arr(events);
    });
    w.finish()
}

/// Chrome `pid` of a fleet node (node ids start at 0; pid 0 renders
/// poorly in viewers, so lanes are numbered from 1).
fn node_pid(node: u32) -> u64 {
    node as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::json;
    use asset_common::{DepType, Tid};
    use asset_obs::{Event, EventKind};

    fn ev(seq: u64, at_ns: u64, kind: EventKind) -> Event {
        Event { seq, at_ns, kind }
    }

    #[test]
    fn render_produces_valid_json_with_flows_and_tracks() {
        let (t1, t2) = (Tid(1), Tid(2));
        let trace = vec![
            ev(0, 1_000, EventKind::TxnBegin { tid: t1 }),
            ev(1, 2_000, EventKind::TxnBegin { tid: t2 }),
            ev(
                2,
                3_000,
                EventKind::Delegate {
                    from: t1,
                    to: t2,
                    objects: 2,
                },
            ),
            ev(
                3,
                4_000,
                EventKind::DepFormed {
                    kind: DepType::CD,
                    ti: t1,
                    tj: t2,
                },
            ),
            ev(4, 5_000, EventKind::TxnCommit { tid: t1, group: 1 }),
            ev(5, 6_000, EventKind::TxnCommit { tid: t2, group: 1 }),
            ev(
                6,
                7_000,
                EventKind::LogFlush {
                    bytes: 64,
                    dur_ns: 500,
                },
            ),
        ];
        let g = CausalGraph::from_events(&trace);
        let doc = render(&g);
        let v = json::parse(&doc).expect("chrome trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // Two tracks + storage lane named.
        let thread_names: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .collect();
        assert_eq!(thread_names.len(), 3);
        // Each causal edge is an s/f pair.
        let s_count = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .count();
        let f_count = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .count();
        assert_eq!(s_count, g.edges.len() + g.flush_flows.len());
        assert_eq!(f_count, g.edges.len() + g.flush_flows.len());
        assert!(s_count >= 2, "delegate + CD dep expected");
    }

    #[test]
    fn commit_flows_terminate_on_the_shared_flush_window() {
        let (t1, t2, t3) = (Tid(1), Tid(2), Tid(3));
        let mut trace = vec![
            ev(0, 1_000, EventKind::TxnBegin { tid: t1 }),
            ev(1, 1_100, EventKind::TxnBegin { tid: t2 }),
            ev(2, 1_200, EventKind::TxnBegin { tid: t3 }),
            ev(
                3,
                5_000,
                EventKind::FlushWindow {
                    window: 1,
                    records: 3,
                    bytes: 96,
                    dur_ns: 700,
                },
            ),
        ];
        for (seq, t) in [(4, t1), (5, t2), (6, t3)] {
            trace.push(ev(
                seq,
                5_000 + seq,
                EventKind::CommitFlushed { tid: t, window: 1 },
            ));
        }
        let g = CausalGraph::from_events(&trace);
        assert_eq!(g.flush_flows.len(), 3);
        assert!(g.flush_flows.iter().all(|f| f.window == 1));
        let doc = render(&g);
        let v = json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // One flush-window span on the storage lane (tid 0)...
        let windows: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("flush-window")
                    && e.get("ph").and_then(|p| p.as_str()) == Some("X")
            })
            .collect();
        assert_eq!(windows.len(), 1);
        // ...and three commit flows finishing on it.
        let finishes = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("f")
                    && e.get("name")
                        .and_then(|n| n.as_str())
                        .is_some_and(|n| n.starts_with("commit-flush"))
            })
            .count();
        assert_eq!(finishes, 3);
    }

    #[test]
    fn fleet_render_has_a_process_lane_per_node_and_cross_node_flows() {
        let coord = CausalGraph::from_node_events(
            0,
            &[
                ev(
                    0,
                    1_000,
                    EventKind::MsgSend {
                        node: 1,
                        opcode: 0x40,
                        root: 7,
                    },
                ),
                ev(
                    1,
                    5_000,
                    EventKind::MsgAck {
                        node: 1,
                        opcode: 0x40,
                        root: 7,
                    },
                ),
            ],
        );
        let part = CausalGraph::from_node_events(
            1,
            &[
                ev(
                    0,
                    2_000,
                    EventKind::MsgRecv {
                        opcode: 0x40,
                        origin: 0,
                        root: 7,
                    },
                ),
                ev(
                    1,
                    3_000,
                    EventKind::MsgReply {
                        opcode: 0x40,
                        origin: 0,
                        root: 7,
                        status: 0,
                    },
                ),
            ],
        );
        let fleet = CausalGraph::merge(vec![coord, part]);
        assert_eq!(fleet.flows.len(), 2, "request + response flow");
        let doc = render_fleet(&fleet);
        let v = json::parse(&doc).expect("fleet trace must be valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let process_names: Vec<String> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
            .collect();
        assert_eq!(process_names, vec!["node 0", "node 1"]);
        // One s/f pair per cross-node flow, in the asset-flow category,
        // and the PREPARE request goes node 0 → node 1.
        let flows: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("asset-flow"))
            .collect();
        assert_eq!(flows.len(), 4);
        let req_start = flows
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("s")
                    && e.get("name")
                        .and_then(|n| n.as_str())
                        .is_some_and(|n| n.starts_with("PREPARE request"))
            })
            .expect("request flow start");
        assert_eq!(req_start.get("pid").and_then(|p| p.as_f64()), Some(1.0));
    }
}
