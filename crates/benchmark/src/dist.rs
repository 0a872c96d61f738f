//! `dist_commit`: global transactions over three on-disk participant
//! nodes behind one in-process transport (no artificial link delay),
//! each decided by two-phase commit or Paxos Commit on a seeded coin —
//! the protocol is an input property, like key skew. Two closed-loop
//! drivers: with one, a run fell into one of two scheduling regimes
//! 1.8 × apart, which no regression bound can cover.

use crate::common::{
    add_snapshot, closed_loop_sheet, counter_sheet, ctx, join_drivers, ratio, span_sheet,
    traced_hist_sheet, DriverTally, Params, PassResult, SetupTimer, TraceSwitch, Window,
    EVENT_RING, R,
};
use crate::env::RunDir;
use crate::rng::Rng;
use crate::spec;
use crate::trace::{TraceData, Tracer};
use asset_common::{Config, Oid};
use asset_coord::{
    Acceptor, ChannelTransport, CoordLog, CoordObs, Decision, GlobalTxn, ParticipantNode,
    PaxosCommit, TwoPhase,
};
use asset_obs::{MetricsSnapshot, Obs};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Messages one committed global transaction costs either coordinator
/// over three nodes: a prepare and a commit-decide per node.
const MSGS_PER_TXN: f64 = 2.0 * spec::DIST_NODES as f64;

/// Global transactions set-up runs before the window: half through each
/// coordinator.
const BOOTSTRAP_TXNS: u64 = 32;

/// The cluster: nodes, transport and both coordinators, each with its
/// own observability hub so their message counts stay apart.
struct Cluster {
    transport: Arc<ChannelTransport>,
    twopc: TwoPhase,
    paxos: PaxosCommit,
    hubs: [Arc<Obs>; 2],
}

fn set_up(dir: &Path) -> R<Cluster> {
    let mut nodes = Vec::new();
    for i in 0..spec::DIST_NODES {
        let node_dir = dir.join(format!("node-{i}"));
        std::fs::create_dir_all(&node_dir).map_err(ctx("create node directory"))?;
        nodes.push(Arc::new(
            ParticipantNode::open(Config::on_disk(node_dir)).map_err(ctx("open node"))?,
        ));
    }
    let transport = Arc::new(ChannelTransport::new(nodes));
    let log =
        Arc::new(CoordLog::at(&dir.join("coordinator.log")).map_err(ctx("open coordinator log"))?);
    let acceptors = (0..spec::DIST_NODES)
        .map(|_| Arc::new(Acceptor::new()))
        .collect();
    let hubs = [Obs::shared(), Obs::shared()];
    let cluster = Cluster {
        twopc: TwoPhase::new(transport.clone(), log).with_obs(CoordObs::new(100, hubs[0].clone())),
        paxos: PaxosCommit::new(transport.clone(), acceptors)
            .with_obs(CoordObs::new(101, hubs[1].clone())),
        transport,
        hubs,
    };
    // bootstrap: a cluster is up once both coordinators have decided
    // transactions on it (this also makes set-up long enough to time)
    for gid in 1..=BOOTSTRAP_TXNS {
        let (g, _) = cluster.stage(gid)?;
        let decision = if gid.is_multiple_of(2) {
            cluster.paxos.commit(&g)
        } else {
            cluster.twopc.commit(&g)
        }
        .map_err(ctx("bootstrap commit"))?;
        if decision != Decision::Commit {
            return Err(format!("bootstrap transaction {gid} aborted"));
        }
    }
    Ok(cluster)
}

impl Cluster {
    /// The nodes' metrics, summed.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut sum = self.transport.node(0).db().metrics_snapshot();
        for i in 1..spec::DIST_NODES {
            add_snapshot(&mut sum, &self.transport.node(i).db().metrics_snapshot());
        }
        sum
    }

    /// WAL bytes appended so far, over all nodes.
    fn log_bytes(&self) -> u64 {
        (0..spec::DIST_NODES)
            .map(|i| {
                self.transport
                    .node(i)
                    .db()
                    .engine()
                    .log()
                    .watermarks()
                    .tail
                    .0
            })
            .sum()
    }

    /// Stage global transaction `gid`: one finished-but-undecided write
    /// of `gid` per node, through the blocking API.
    fn stage(&self, gid: u64) -> R<(GlobalTxn, Vec<Oid>)> {
        let mut g = GlobalTxn::new(gid);
        let mut oids = Vec::with_capacity(spec::DIST_NODES);
        for i in 0..spec::DIST_NODES {
            let db = self.transport.node(i).db();
            let oid = db.new_oid();
            let t = db
                .initiate(move |t| t.write(oid, gid.to_le_bytes().to_vec()))
                .map_err(ctx("stage initiate"))?;
            db.begin(t).map_err(ctx("stage begin"))?;
            if !db.wait(t).map_err(ctx("stage wait"))? {
                return Err(format!("staged write of gid {gid} aborted on node {i}"));
            }
            g.add_member(i as u32, t);
            oids.push(oid);
        }
        Ok((g, oids))
    }
}

/// One decided global transaction, for the agreement gate.
struct Decided {
    gid: u64,
    oids: Vec<Oid>,
    committed: bool,
}

/// Run `dist_commit`.
pub fn run(p: &Params, dir: &mut RunDir) -> R<(PassResult, TraceData)> {
    let (cluster, setup) = SetupTimer::first(dir, set_up)?;
    let mut res = PassResult::begin();
    let before = cluster.snapshot();
    let log_before = cluster.log_bytes();
    let switch = TraceSwitch::new(p.traced);
    let w = Window::start(p);
    type DriverOut = (DriverTally, Vec<Decided>, [u64; 2], Tracer);
    let outs: Vec<R<DriverOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec::DRIVERS as u64)
            .map(|d| {
                let (w, switch, cluster) = (&w, &switch, &cluster);
                scope.spawn(move || -> R<DriverOut> {
                    let mut coin = Rng::new(p.seed, 0xC01 + d);
                    let mut tally = DriverTally::default();
                    let mut decided: Vec<Decided> = Vec::new();
                    let mut by_protocol = [0u64; 2];
                    let mut tracer = Tracer::new(w.epoch, d as u32);
                    // the drivers' gids interleave and never collide
                    for gid in (BOOTSTRAP_TXNS + 1 + d..).step_by(spec::DRIVERS) {
                        let start = Instant::now();
                        if w.over(start) {
                            break;
                        }
                        switch.poll(w.measuring(start), &mut tracer, || {
                            for i in 0..spec::DIST_NODES {
                                let db = cluster.transport.node(i).db();
                                db.obs().enable_tracing(EVENT_RING);
                            }
                        });
                        let paxos = coin.below(2) == 1;
                        tracer.open("dist.txn", gid, start);
                        let (g, oids) = cluster.stage(gid)?;
                        let staged = Instant::now();
                        tracer.child("coord.stage", start, staged);
                        let decision = if paxos {
                            cluster.paxos.commit(&g)
                        } else {
                            cluster.twopc.commit(&g)
                        }
                        .map_err(ctx("commit protocol"))?;
                        let done = Instant::now();
                        let span = if paxos {
                            "coord.paxos.commit"
                        } else {
                            "coord.twopc.commit"
                        };
                        tracer.child(span, staged, done);
                        tracer.close(done);
                        by_protocol[usize::from(paxos)] += 1;
                        let committed = decision == Decision::Commit;
                        tally.record(w, start, done, committed, 0);
                        decided.push(Decided {
                            gid,
                            oids,
                            committed,
                        });
                    }
                    Ok((tally, decided, by_protocol, tracer))
                })
            })
            .collect();
        join_drivers(handles)
    });
    let run_s = w.elapsed_s();
    let mut tally = DriverTally::default();
    let mut decided: Vec<Decided> = Vec::new();
    let mut by_protocol = [BOOTSTRAP_TXNS / 2; 2];
    let mut trace = TraceData::default();
    for out in outs {
        let (t, d, by, tracer) = out?;
        tally.absorb(t);
        decided.extend(d);
        by_protocol[0] += by[0];
        by_protocol[1] += by[1];
        trace.absorb(tracer);
    }

    closed_loop_sheet(&mut res, &w, &mut tally, p.traced);
    let txns = decided.len() as u64;
    let delta = cluster.snapshot().delta(&before);
    counter_sheet(&mut res, &delta, txns, run_s);
    res.sheet.set(
        "log_bytes_per_txn",
        ratio((cluster.log_bytes() - log_before) as f64, txns as f64),
    );
    // counts: they must repeat exactly
    for (i, name) in ["coord.msgs_per_txn.twopc", "coord.msgs_per_txn.paxos"]
        .into_iter()
        .enumerate()
    {
        let c = cluster.hubs[i].snapshot().counters;
        let msgs = c.coord_msg_prepare
            + c.coord_msg_prepared
            + c.coord_msg_commit_decide
            + c.coord_msg_abort_decide;
        let per_txn = ratio(msgs as f64, by_protocol[i] as f64);
        res.sheet.set(name, per_txn);
        res.gate(by_protocol[i] == 0 || per_txn == MSGS_PER_TXN, || {
            format!("{name} = {per_txn}, the protocol constant is {MSGS_PER_TXN}")
        });
    }
    if p.traced {
        for i in 0..spec::DIST_NODES {
            cluster.transport.node(i).db().obs().disable_tracing();
        }
        traced_hist_sheet(&mut res.sheet, &delta);
        let s = &mut res.sheet;
        span_sheet(s, &trace, "coord.stage", "coord.stage_us_p50", None);
        for proto in ["twopc", "paxos"] {
            span_sheet(
                s,
                &trace,
                &format!("coord.{proto}.commit"),
                &format!("coord.{proto}.commit_us_p50"),
                Some(&format!("coord.{proto}.commit_us_p99")),
            );
        }
        s.set("dist.unattributed_frac", trace.unattributed_frac());
    }

    // agreement: every node applied the same decision per gid, and
    // nothing is left in doubt
    for d in &decided {
        for (i, oid) in d.oids.iter().enumerate() {
            let have = cluster
                .transport
                .node(i)
                .db()
                .peek(*oid)
                .map_err(ctx("peek"))?;
            let want = d.committed.then(|| d.gid.to_le_bytes().to_vec());
            res.gate(have == want, || {
                format!(
                    "gid {} ({}) on node {i}: object holds {have:?}",
                    d.gid,
                    if d.committed { "committed" } else { "aborted" }
                )
            });
        }
    }
    for i in 0..spec::DIST_NODES {
        let in_doubt = cluster.transport.node(i).db().in_doubt_transactions();
        res.gate(in_doubt.is_empty(), || {
            format!("node {i} has in-doubt transactions {in_doubt:?}")
        });
    }
    drop(cluster);
    setup.finish(p, dir, &mut res, set_up, drop)?;
    Ok((res, trace))
}
