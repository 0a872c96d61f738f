//! E17 — distributed commit: 2PC blocking vs Paxos Commit
//! (`EXPERIMENTS.md` E17): a nodes × failure-mode sweep over the one
//! coordinator in its two configurations — **one acceptor** (F = 0,
//! which is 2PC: the acceptor is the coordinator log) and **three**
//! (F = 1) — measuring **outcome latency** (stage → decision delivered
//! everywhere) and **blocked time** (how long prepared participants sit
//! in doubt, locks held, before a recovery pass resolves them).
//!
//! The point being measured is the configurations' defining asymmetry:
//! after a coordinator crash, F = 0's only durable copy of the decision
//! state is the dead coordinator's log, so participants stay blocked
//! for the whole coordinator outage (modeled here by
//! [`Acceptor::kill`]ing the single acceptor for [`COORD_DOWNTIME`] —
//! a recovery attempted meanwhile finds no quorum); F = 1 keeps the
//! decision at an acceptor majority that did not die with the
//! coordinator, so a recovery coordinator resolves the very same crash
//! immediately — blocked time collapses to one round of consensus
//! reads.
//!
//! Both configurations run over the **same store**: file-backed
//! acceptors in a temp directory, each answering only after its
//! `write` + `sync_data`. What differs between a `2pc` and a `paxos`
//! row is the acceptor count and nothing else.
//!
//! Every number is wall-clock measured on in-process clusters whose
//! transport delays each message by [`LINK_DELAY`] (so protocol round
//! counts are visible in the latencies, not just scheduler noise).
//! Failure cells crash the coordinator via the `coord.before_decide` /
//! `coord.after_decide` failpoints, which are compiled unconditionally
//! — E17 needs no feature flag.

use super::{percentiles, Scale};
use crate::table::{fmt_duration, Table};
use asset_common::Config;
use asset_coord::failpoints::{COORD_AFTER_DECIDE, COORD_BEFORE_DECIDE};
use asset_coord::{
    Acceptor, ChannelTransport, CommitTransport, CoordError, Decision, GlobalTxn, ParticipantNode,
    PaxosCommit,
};
use asset_faults::{FaultAction, FaultRegistry, Trigger};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-message transport delay: models a LAN link so that round counts
/// dominate latency.
const LINK_DELAY: Duration = Duration::from_micros(200);

/// How long a crashed F = 0 coordinator (and with it, its log — the
/// single acceptor) stays unreachable before recovery can run. F = 1
/// recovery does not wait for it — that is the experiment.
const COORD_DOWNTIME: Duration = Duration::from_millis(10);

/// Global transactions per cell before scaling.
const TXNS_BASE: usize = 48;

/// The failure script of a cell.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// Happy path: the coordinator lives, `commit` runs to completion.
    None,
    /// The coordinator dies after every vote is in but before the
    /// decision is durable — the canonical 2PC blocking window.
    BeforeDecide,
    /// The coordinator dies with the decision durable but undelivered.
    AfterDecide,
}

impl Failure {
    fn point(self) -> Option<&'static str> {
        match self {
            Failure::None => None,
            Failure::BeforeDecide => Some(COORD_BEFORE_DECIDE),
            Failure::AfterDecide => Some(COORD_AFTER_DECIDE),
        }
    }
}

/// The sweep: (acceptors, nodes, failure, stable run name).
const CELLS: &[(usize, usize, Failure, &str)] = &[
    (1, 2, Failure::None, "coord-2pc-n2-ok"),
    (3, 2, Failure::None, "coord-paxos-n2-ok"),
    (1, 4, Failure::None, "coord-2pc-n4-ok"),
    (3, 4, Failure::None, "coord-paxos-n4-ok"),
    (1, 3, Failure::BeforeDecide, "coord-2pc-n3-crash-before"),
    (3, 3, Failure::BeforeDecide, "coord-paxos-n3-crash-before"),
    (1, 3, Failure::AfterDecide, "coord-2pc-n3-crash-after"),
    (3, 3, Failure::AfterDecide, "coord-paxos-n3-crash-after"),
];

/// `n` file-backed acceptors in a fresh temp directory, removed on drop.
struct AcceptorDir {
    dir: PathBuf,
    acceptors: Vec<Arc<Acceptor>>,
}

impl AcceptorDir {
    fn new(tag: &str, n: usize) -> AcceptorDir {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
        let name = format!("asset-{tag}-{}-{serial}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        // a dead process of the same pid may have left its records here
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create acceptor directory");
        let acceptors = (0..n)
            .map(|i| {
                let path = dir.join(format!("acceptor-{i}.log"));
                Arc::new(Acceptor::at(&path).expect("open acceptor"))
            })
            .collect();
        AcceptorDir { dir, acceptors }
    }
}

impl Drop for AcceptorDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Cluster {
    transport: Arc<ChannelTransport>,
    store: AcceptorDir,
}

fn cluster(name: &str, nodes: usize, acceptors: usize) -> Cluster {
    let nodes: Vec<Arc<ParticipantNode>> = (0..nodes)
        .map(|_| Arc::new(ParticipantNode::open(Config::in_memory()).expect("open node")))
        .collect();
    Cluster {
        transport: Arc::new(ChannelTransport::new(nodes).with_delay(LINK_DELAY)),
        store: AcceptorDir::new(name, acceptors),
    }
}

impl Cluster {
    /// Stage one finished-but-undecided write per node; the global txn.
    fn stage(&self, gid: u64) -> GlobalTxn {
        let mut g = GlobalTxn::new(gid);
        for i in 0..self.transport.nodes() {
            let db = self.transport.node(i).db();
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

    fn in_doubt(&self) -> usize {
        (0..self.transport.nodes())
            .map(|i| self.transport.node(i).db().in_doubt_transactions().len())
            .sum()
    }

    fn commit(&self, faults: Arc<FaultRegistry>, g: &GlobalTxn) -> bool {
        PaxosCommit::new(self.transport.clone(), self.store.acceptors.clone())
            .with_faults(faults)
            .commit(g)
            .is_ok()
    }

    /// A fresh recovery coordinator: it knows the acceptors, nothing else.
    fn recover(&self, g: &GlobalTxn) -> Result<Decision, CoordError> {
        PaxosCommit::recovery(self.transport.clone(), self.store.acceptors.clone(), 1).recover(g)
    }
}

/// One measured cell: latency percentiles (p50, p95, p99) in ns.
struct CoordRun {
    name: &'static str,
    txns: usize,
    /// Stage -> decision delivered everywhere.
    outcome_ns: (f64, f64, f64),
    /// Prepared participants in doubt until a recovery pass resolved them.
    blocked_ns: (f64, f64, f64),
}

/// Run one cell: `iters` global transactions, each staged fresh,
/// driven to a decision (with the scripted coordinator crash and a
/// recovery pass for failure cells), asserting convergence every time.
fn run_cell(
    acceptors: usize,
    nodes: usize,
    failure: Failure,
    name: &'static str,
    iters: usize,
) -> CoordRun {
    let c = cluster(name, nodes, acceptors);
    let mut outcome_ns: Vec<u64> = Vec::with_capacity(iters);
    let mut blocked_ns: Vec<u64> = Vec::with_capacity(iters);
    for i in 0..iters {
        let gid = 1 + i as u64;
        let g = c.stage(gid);
        let faults = Arc::new(FaultRegistry::new());
        if let Some(point) = failure.point() {
            faults.arm(point, Trigger::Once, FaultAction::Error);
        }
        let t0 = Instant::now();
        let finished = c.commit(faults, &g);
        match failure {
            Failure::None => {
                assert!(finished, "{name}: happy path must finish");
                outcome_ns.push(t0.elapsed().as_nanos() as u64);
                blocked_ns.push(0);
            }
            Failure::BeforeDecide | Failure::AfterDecide => {
                assert!(!finished, "{name}: the scripted crash must surface");
                // participants are prepared, in doubt, locks held
                let b0 = Instant::now();
                assert!(c.in_doubt() > 0, "{name}: someone must be blocked");
                if let [log] = &c.store.acceptors[..] {
                    // F = 0: the one acceptor is the dead coordinator's
                    // log and is gone with it — recovery has no quorum,
                    // participants block for the whole outage
                    log.kill();
                    assert!(c.recover(&g).is_err(), "{name}: no log, no decision");
                    std::thread::sleep(COORD_DOWNTIME);
                    log.revive();
                }
                let d = c.recover(&g).expect("recover");
                let blocked = b0.elapsed().as_nanos() as u64;
                assert_eq!(c.in_doubt(), 0, "{name}: recovery must resolve all");
                let want = match failure {
                    Failure::BeforeDecide => Decision::Abort,
                    _ => Decision::Commit,
                };
                assert_eq!(d, want, "{name}: recovered decision");
                outcome_ns.push(t0.elapsed().as_nanos() as u64);
                blocked_ns.push(blocked);
            }
        }
    }
    CoordRun {
        name,
        txns: iters,
        outcome_ns: percentiles(outcome_ns),
        blocked_ns: percentiles(blocked_ns),
    }
}

/// Measure every cell of the sweep.
fn e17_coord_runs(scale: Scale) -> Vec<CoordRun> {
    CELLS
        .iter()
        .map(|&(acceptors, nodes, failure, name)| {
            run_cell(acceptors, nodes, failure, name, scale.n(TXNS_BASE))
        })
        .collect()
}

/// Format measured runs as the E17 table.
fn e17_table(runs: &[CoordRun]) -> Table {
    let mut table = Table::new(
        "E17: distributed commit, 2PC blocking vs Paxos Commit",
        "global txns over in-process clusters (200us link delay), one coordinator over 1 (2pc) or 3 (paxos) file-backed acceptors; outcome = stage..decision everywhere; blocked = prepared participants in doubt until recovery (2pc waits out a 10ms outage of its single acceptor, paxos reads the acceptor majority immediately)",
    )
    .headers(&[
        "cell",
        "txns",
        "outcome p50/p99",
        "blocked p50",
        "blocked p99",
    ]);
    for r in runs {
        let (o50, _, o99) = r.outcome_ns;
        let (b50, _, b99) = r.blocked_ns;
        table.row(vec![
            r.name.into(),
            r.txns.to_string(),
            format!(
                "{} / {}",
                fmt_duration(Duration::from_nanos(o50 as u64)),
                fmt_duration(Duration::from_nanos(o99 as u64)),
            ),
            fmt_duration(Duration::from_nanos(b50 as u64)),
            fmt_duration(Duration::from_nanos(b99 as u64)),
        ]);
    }
    table
}

/// E17 — run the sweep at `scale`.
pub fn e17_coord(scale: Scale) -> Table {
    e17_table(&e17_coord_runs(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_and_converges_at_tiny_scale() {
        let runs = e17_coord_runs(Scale { factor: 0.05 });
        assert_eq!(runs.len(), CELLS.len());
        for r in &runs {
            assert!(r.txns > 0, "{}: drove transactions", r.name);
        }
        // the headline asymmetry must be visible even at smoke scale:
        // 2PC's blocked time includes the coordinator outage, Paxos's
        // does not
        let blocked = |name: &str| -> f64 {
            runs.iter()
                .find(|r| r.name == name)
                .expect("cell present")
                .blocked_ns
                .0
        };
        let two_pc = blocked("coord-2pc-n3-crash-after");
        let paxos = blocked("coord-paxos-n3-crash-after");
        assert!(
            two_pc >= COORD_DOWNTIME.as_nanos() as f64,
            "2PC blocks for at least the outage ({two_pc} ns)"
        );
        assert!(
            paxos < COORD_DOWNTIME.as_nanos() as f64,
            "Paxos must not wait out the outage ({paxos} ns)"
        );
    }
}
