//! Ground truth for the §7.2 distributed tracing pipeline: a
//! 3-participant 2PC and Paxos commit driven through the in-process
//! transport must merge into a fleet graph whose cross-node flow edges
//! match the protocol's known message pattern (prepare to every node,
//! decide fan-out to every node, one root per global transaction), and
//! the participant in-doubt duration histogram must be populated by —
//! and only by — the window between prepare-force and decision
//! delivery. One test scrapes the fleet metrics live over HTTP: the
//! server's Prometheus endpoint across an open in-doubt window, and the
//! coordinator hub's decision-latency histogram. The last drives both
//! protocols through [`TcpTransport`] against two wire servers and
//! re-reads the merged fleet trace from its Chrome JSON export.

use asset::common::json;
use asset::coord::{
    Acceptor, ChannelTransport, CommitMessage, CommitTransport, CoordLog, CoordObs, Decision,
    GlobalTxn, ParticipantNode, PaxosCommit, TcpTransport, TwoPhase,
};
use asset::obs::{Event, EventKind, Obs};
use asset::server::prom::{self, PromServer};
use asset::server::{protocol::opcode, AssetServer};
use asset::trace::chrome;
use asset::trace::span::{CausalGraph, CrossFlow, FleetGraph, FlowKind};
use asset::{Config, Database, Oid, Tid};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;

/// Coordinator lane id — outside the participant index range.
const COORD_NODE: u32 = 9;

/// A traced cluster: [`NODES`] participants with event rings on, one
/// coordinator hub, wired through a [`ChannelTransport`] that mirrors
/// every exchange into the rings on both ends.
fn traced_cluster() -> (Arc<ChannelTransport>, Arc<Obs>) {
    let nodes: Vec<Arc<ParticipantNode>> = (0..NODES)
        .map(|_| Arc::new(ParticipantNode::open(Config::in_memory()).expect("open node")))
        .collect();
    let hub = Obs::shared();
    hub.enable_tracing(1 << 14);
    for n in &nodes {
        n.db().obs().enable_tracing(1 << 14);
    }
    let transport = Arc::new(ChannelTransport::new(nodes).with_obs(Arc::clone(&hub)));
    (transport, hub)
}

/// Stage one write per node and collect the membership.
fn stage(transport: &ChannelTransport, gid: u64) -> GlobalTxn {
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
}

/// Merge the coordinator lane and every participant lane.
fn merge(transport: &ChannelTransport, hub: &Obs) -> FleetGraph {
    let mut graphs = vec![CausalGraph::from_node_events(COORD_NODE, &hub.trace())];
    for i in 0..transport.nodes() {
        graphs.push(CausalGraph::from_node_events(
            i as u32,
            &transport.node(i).db().obs().trace(),
        ));
    }
    CausalGraph::merge(graphs)
}

/// The protocol's ground truth, checked against the merged flows: for
/// global txn `gid`, a request flow coordinator→node for every node on
/// both the prepare and the decide opcode, a vote response back for
/// every prepare, and on each node the prepare departs before the
/// decide.
fn assert_commit_flow_pattern(fleet: &FleetGraph, gid: u64) {
    assert_eq!(
        fleet.nodes.len(),
        NODES + 1,
        "one lane per node + coordinator"
    );
    assert_eq!(fleet.offsets.len(), NODES + 1);
    let of = |op: u8, kind: FlowKind| -> Vec<&CrossFlow> {
        fleet
            .flows
            .iter()
            .filter(|f| f.opcode == op && f.kind == kind && f.root == gid)
            .collect()
    };
    let prepares = of(opcode::PREPARE, FlowKind::Request);
    let votes = of(opcode::PREPARE, FlowKind::Response);
    let decides = of(opcode::COMMIT_DECIDE, FlowKind::Request);
    for n in 0..NODES as u32 {
        let p = prepares
            .iter()
            .find(|f| f.from_node == COORD_NODE && f.to_node == n)
            .unwrap_or_else(|| panic!("prepare flow coordinator->{n}"));
        assert!(
            votes
                .iter()
                .any(|f| f.from_node == n && f.to_node == COORD_NODE),
            "vote flow {n}->coordinator"
        );
        let d = decides
            .iter()
            .find(|f| f.from_node == COORD_NODE && f.to_node == n)
            .unwrap_or_else(|| panic!("decide fan-out coordinator->{n}"));
        assert!(
            p.from_ns <= d.from_ns,
            "node {n}: prepare departs before the decision"
        );
    }
    assert!(
        of(opcode::ABORT_DECIDE, FlowKind::Request).is_empty(),
        "a committed txn has no abort fan-out"
    );
}

/// Phase 1 is one round: the coordinator lane records every node's
/// PREPARE `MsgSend` of global txn `gid` before the first PREPARE
/// `MsgAck` — no vote is awaited before the last prepare has left.
fn assert_prepares_leave_before_the_first_vote(coordinator: &[Event], gid: u64, nodes: usize) {
    let mut sent = 0;
    for e in coordinator {
        match e.kind {
            EventKind::MsgSend {
                opcode: opcode::PREPARE,
                root,
                ..
            } if root == gid => sent += 1,
            EventKind::MsgAck {
                opcode: opcode::PREPARE,
                root,
                ..
            } if root == gid => {
                assert_eq!(
                    sent, nodes,
                    "gid {gid}: {sent} of {nodes} prepares sent before the first vote came back"
                );
                return;
            }
            _ => {}
        }
    }
    panic!("gid {gid}: no prepare was acknowledged");
}

#[test]
fn two_pc_flows_match_protocol_ground_truth() {
    let (transport, hub) = traced_cluster();
    let g = stage(&transport, 41);
    let d = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()))
        .with_obs(CoordObs::new(COORD_NODE, Arc::clone(&hub)))
        .commit(&g)
        .expect("2pc commit");
    assert_eq!(d, Decision::Commit);

    let snap = hub.snapshot();
    assert_eq!(snap.counters.coord_msg_prepare, NODES as u64);
    assert_eq!(snap.counters.coord_msg_commit_decide, NODES as u64);
    assert_eq!(snap.decision_ns.count, 1, "one decision latency recorded");

    assert_prepares_leave_before_the_first_vote(&hub.trace(), 41, NODES);
    assert_commit_flow_pattern(&merge(&transport, &hub), 41);
}

#[test]
fn paxos_flows_match_protocol_ground_truth() {
    let (transport, hub) = traced_cluster();
    let g = stage(&transport, 42);
    let acceptors: Vec<Arc<Acceptor>> = (0..3).map(|_| Arc::new(Acceptor::new())).collect();
    let d = PaxosCommit::new(transport.clone(), acceptors)
        .with_obs(CoordObs::new(COORD_NODE, Arc::clone(&hub)))
        .commit(&g)
        .expect("paxos commit");
    assert_eq!(d, Decision::Commit);
    assert_eq!(hub.snapshot().decision_ns.count, 1);

    assert_prepares_leave_before_the_first_vote(&hub.trace(), 42, NODES);
    assert_commit_flow_pattern(&merge(&transport, &hub), 42);
}

/// The in-doubt duration histogram measures exactly the window between
/// prepare-force and decision delivery: empty before prepare, still
/// empty while the group sits in doubt (the live set is non-empty
/// instead), and populated once the decision lands — with a duration
/// bounded by clocks read around the exchanges: at least from the end of
/// the last prepare to the start of the decide, at most from the start of
/// the first prepare to the end of the decide. The traced in-doubt window
/// carries the same bounds.
#[test]
fn in_doubt_histogram_spans_prepare_to_decision() {
    let (transport, _hub) = traced_cluster();

    // stage one member per node, then drive 2PC by hand so the test
    // reads the clock around every exchange
    let mut members = Vec::new();
    for i in 0..transport.nodes() {
        let db = transport.node(i).db();
        let oid = db.new_oid();
        let t = db
            .initiate(move |ctx| ctx.write(oid, b"w".to_vec()))
            .expect("initiate");
        db.begin(t).expect("begin");
        db.wait(t).expect("wait");
        assert_eq!(
            db.obs().snapshot().in_doubt_ns.count,
            0,
            "empty before prepare"
        );
        members.push((i, t));
    }

    let first_prepare_start = Instant::now();
    let mut groups = Vec::new();
    for (i, t) in &members {
        let vote = transport
            .send(*i, CommitMessage::Prepare { tids: vec![*t] })
            .expect("prepare");
        match vote {
            CommitMessage::Vote { yes: true, group } => groups.push((*i, group)),
            other => panic!("expected a yes vote, got {other:?}"),
        }
        let db = transport.node(*i).db();
        assert!(
            !db.in_doubt_transactions().is_empty(),
            "node {i} is in doubt"
        );
        assert_eq!(
            db.obs().snapshot().in_doubt_ns.count,
            0,
            "nothing recorded while the window is open"
        );
    }
    let last_prepare_end = Instant::now();

    let ns = |d: Duration| d.as_nanos() as u64;
    let mut node0_bounds = None;
    for (i, group) in &groups {
        let decide_start = Instant::now();
        let ack = transport
            .send(
                *i,
                CommitMessage::CommitDecide {
                    tids: group.clone(),
                },
            )
            .expect("decide");
        let decide_end = Instant::now();
        assert!(matches!(ack, CommitMessage::Ack));
        let (lo, hi) = (
            ns(decide_start - last_prepare_end),
            ns(decide_end - first_prepare_start),
        );
        node0_bounds.get_or_insert((lo, hi));
        let db = transport.node(*i).db();
        assert!(db.in_doubt_transactions().is_empty(), "node {i} resolved");
        let h = db.obs().snapshot().in_doubt_ns;
        assert_eq!(h.count, 1, "node {i}: one in-doubt duration recorded");
        assert!(
            (lo..=hi).contains(&h.sum),
            "node {i}: the duration {} lies in [{lo}, {hi}]",
            h.sum
        );
    }

    // the traced window agrees: prepare-force → decision-applied, closed
    // by a commit, within the same bounds
    let (lo, hi) = node0_bounds.expect("node 0 decided");
    let g = CausalGraph::from_events(&transport.node(0).db().obs().trace());
    assert_eq!(g.in_doubt.len(), 1);
    let w = g.in_doubt[0];
    let end = w.end_ns.expect("window closed by the decision");
    assert_eq!(w.commit, Some(true));
    assert!(
        (lo..=hi).contains(&(end - w.start_ns)),
        "traced window {} lies in [{lo}, {hi}]",
        end - w.start_ns
    );
}

/// Live HTTP scrapes of the fleet metrics: the server's endpoint shows
/// the in-doubt gauge rise and fall around the in-doubt window (and the
/// duration histogram fill only at its close), and a hub exporter
/// serves the coordinator's decision-latency histogram.
#[test]
fn fleet_metrics_scraped_live() {
    // -- participant: a real server, scraped across the window --------
    let db = Database::in_memory();
    let server = AssetServer::spawn_node(db, "127.0.0.1:0", 5).expect("spawn server");
    let mut exporter =
        PromServer::spawn("127.0.0.1:0", server.metrics_source()).expect("spawn exporter");
    let mut c = asset::client::Client::connect(&server.local_addr().to_string()).expect("connect");
    let oid = c.new_oid().expect("oid");
    let t = c.begin().expect("begin");
    c.write(t, oid, b"scraped").expect("write");
    let group = c.prepare(&[t]).expect("prepare");

    let mid = prom::scrape(exporter.addr()).expect("scrape mid-window");
    assert_eq!(
        prom::sample(&mid, "asset_server_in_doubt{node=\"5\"}"),
        Some(1.0),
        "gauge counts the open in-doubt group"
    );
    assert_eq!(
        prom::sample(&mid, "asset_in_doubt_ns_count"),
        Some(0.0),
        "histogram still empty mid-window"
    );
    assert_eq!(prom::sample(&mid, "asset_node_up{node=\"5\"}"), Some(1.0));

    c.commit_decide(&group).expect("decide");
    let after = prom::scrape(exporter.addr()).expect("scrape after decision");
    assert_eq!(
        prom::sample(&after, "asset_server_in_doubt{node=\"5\"}"),
        Some(0.0)
    );
    assert_eq!(prom::sample(&after, "asset_in_doubt_ns_count"), Some(1.0));
    assert_eq!(
        prom::sample(&after, "asset_server_op_prepare_ns_count"),
        Some(1.0),
        "per-opcode service-time histogram saw the prepare"
    );
    drop(c);
    exporter.shutdown();
    server.shutdown();
    server.join();

    // -- coordinator: hub histograms behind their own exporter --------
    let (transport, hub) = traced_cluster();
    let g = stage(&transport, 43);
    let d = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()))
        .with_obs(CoordObs::new(COORD_NODE, Arc::clone(&hub)))
        .commit(&g)
        .expect("2pc commit");
    assert_eq!(d, Decision::Commit);

    let hub_for_scrape = Arc::clone(&hub);
    let mut coord_exporter = PromServer::spawn("127.0.0.1:0", move || {
        prom::render(&hub_for_scrape.snapshot(), &[])
    })
    .expect("spawn coord exporter");
    let body = prom::scrape(coord_exporter.addr()).expect("scrape coordinator");
    assert_eq!(
        prom::sample(&body, "asset_decision_ns_count"),
        Some(1.0),
        "decision-latency histogram scraped live"
    );
    assert_eq!(
        prom::sample(&body, "asset_coord_msg_prepare_total"),
        Some(NODES as f64),
        "per-opcode coordinator counters scraped live"
    );
    coord_exporter.shutdown();
}

/// The whole fleet path over real sockets: three [`AssetServer`] nodes
/// with live Prometheus endpoints, a traced coordinator driving one 2PC
/// and one Paxos commit through [`TcpTransport`] — each sending all three
/// prepares before reading a vote — and the four event rings merged into
/// one fleet trace whose Chrome export — parsed back from JSON, as a
/// viewer would — has a lane per node and a paired, lane-crossing flow
/// for every prepare and decide.
#[test]
fn both_protocols_over_tcp_merge_into_one_fleet_trace() {
    const TCP_NODES: usize = 3;
    // the coordinator's lane: distinct from every participant index
    const COORD: u32 = TCP_NODES as u32;

    // node id = transport index, so the merged lanes line up
    let mut servers = Vec::new();
    let mut exporters = Vec::new();
    for i in 0..TCP_NODES {
        let (db, _) = Database::open(Config::in_memory().with_exec_workers(2)).expect("open");
        db.obs().enable_tracing(4096);
        let server = AssetServer::spawn_node(db, "127.0.0.1:0", i as u32).expect("bind server");
        exporters
            .push(PromServer::spawn("127.0.0.1:0", server.metrics_source()).expect("bind metrics"));
        servers.push(server);
    }
    let hub = Obs::shared();
    hub.enable_tracing(4096);
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let transport = Arc::new(TcpTransport::new(addrs).with_obs(Arc::clone(&hub)));

    // PREPARE only accepts the requesting session's transactions, so the
    // writes are staged through the transport's own connections
    let stage = |gid: u64| -> (GlobalTxn, Vec<u64>) {
        let mut g = GlobalTxn::new(gid);
        let mut oids = Vec::new();
        for i in 0..TCP_NODES {
            let (tid, oid) = transport
                .with_node(i, |c| {
                    let oid = c.new_oid()?;
                    let t = c.begin()?;
                    c.write(t, oid, format!("gid{gid}").as_bytes())?;
                    Ok((t, oid))
                })
                .expect("stage over the wire");
            g.add_member(i as u32, Tid(tid));
            oids.push(oid);
        }
        (g, oids)
    };
    let assert_committed = |oids: &[u64], gid: u64| {
        for (server, oid) in servers.iter().zip(oids) {
            assert_eq!(
                server.database().peek(Oid(*oid)).expect("peek"),
                Some(format!("gid{gid}").into_bytes()),
                "gid {gid}: node {} holds the committed value",
                server.node_id()
            );
        }
    };

    let (g, oids) = stage(10);
    let two_pc = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()))
        .with_obs(CoordObs::new(COORD, Arc::clone(&hub)));
    assert_eq!(two_pc.commit(&g).expect("2pc over tcp"), Decision::Commit);
    assert_committed(&oids, 10);

    let (g, oids) = stage(11);
    let acceptors: Vec<Arc<Acceptor>> = (0..3).map(|_| Arc::new(Acceptor::new())).collect();
    let paxos = PaxosCommit::new(transport.clone(), acceptors)
        .with_obs(CoordObs::new(COORD, Arc::clone(&hub)));
    assert_eq!(paxos.commit(&g).expect("paxos over tcp"), Decision::Commit);
    assert_committed(&oids, 11);

    // live scrapes: each node is up, out of doubt, and served one PREPARE
    // per protocol
    for (i, ex) in exporters.iter().enumerate() {
        let body = prom::scrape(ex.addr()).expect("scrape node endpoint");
        let gauge = |name: &str| prom::sample(&body, &format!("{name}{{node=\"{i}\"}}"));
        assert_eq!(gauge("asset_node_up"), Some(1.0));
        assert_eq!(gauge("asset_server_in_doubt"), Some(0.0));
        assert_eq!(
            prom::sample(&body, "asset_server_op_prepare_ns_count"),
            Some(2.0)
        );
    }
    let snap = hub.snapshot();
    assert_eq!(
        snap.decision_ns.count, 2,
        "one decision latency per protocol"
    );
    assert_eq!(snap.counters.coord_msg_prepare, (2 * TCP_NODES) as u64);
    assert_eq!(
        snap.counters.coord_msg_commit_decide,
        (2 * TCP_NODES) as u64
    );

    let coordinator = hub.trace();
    for gid in [10, 11] {
        assert_prepares_leave_before_the_first_vote(&coordinator, gid, TCP_NODES);
    }
    let mut graphs = vec![CausalGraph::from_node_events(COORD, &coordinator)];
    for s in &servers {
        graphs.push(CausalGraph::from_node_events(
            s.node_id(),
            &s.database().obs().trace(),
        ));
    }
    let doc = json::parse(&chrome::render_fleet(&CausalGraph::merge(graphs)))
        .expect("the fleet export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    fn text<'a>(e: &'a json::Value, key: &str) -> Option<&'a str> {
        e.get(key).and_then(|v| v.as_str())
    }
    let pid = |e: &json::Value| e.get("pid").and_then(|v| v.as_f64()).expect("pid") as u64;
    let lanes: HashSet<u64> = events
        .iter()
        .filter(|e| text(e, "name") == Some("process_name"))
        .map(pid)
        .collect();
    assert_eq!(
        lanes.len(),
        TCP_NODES + 1,
        "coordinator + one lane per node"
    );

    // flow id -> (start lane, finish lane)
    let mut flows: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
    let (mut prepares, mut decides) = (0, 0);
    for e in events {
        if text(e, "cat") != Some("asset-flow") {
            continue;
        }
        let id = e.get("id").and_then(|v| v.as_f64()).expect("flow id") as u64;
        let legs = flows.entry(id).or_default();
        match text(e, "ph") {
            Some("s") => {
                legs.0 = Some(pid(e));
                let name = text(e, "name").unwrap_or_default();
                prepares += usize::from(name.contains("PREPARE"));
                decides += usize::from(name.contains("DECIDE"));
            }
            Some("f") => legs.1 = Some(pid(e)),
            other => panic!("unexpected asset-flow phase {other:?}"),
        }
    }
    assert!(!flows.is_empty(), "cross-node flows present");
    for (id, legs) in &flows {
        match legs {
            (Some(s), Some(f)) => assert_ne!(s, f, "flow {id} crosses lanes"),
            _ => panic!("flow {id} is unpaired: {legs:?}"),
        }
    }
    // 2 protocols x 3 nodes
    assert!(prepares >= 2 * TCP_NODES, "prepare flows: {prepares}");
    assert!(decides >= 2 * TCP_NODES, "decide flows: {decides}");

    // the coordinators hold the transport's connections: drop them before
    // asking the servers to stop
    drop((two_pc, paxos, transport));
    for s in servers {
        s.shutdown();
        s.join();
    }
    for mut ex in exporters {
        ex.shutdown();
    }
}
