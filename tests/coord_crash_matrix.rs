//! The cross-node crash matrix (compiled only with `--features faults`).
//!
//! Three on-disk participant nodes, one staged write per node forming a
//! global transaction, driven by **both** commit protocols
//! ([`TwoPhase`] and [`PaxosCommit`]) through every coordinator-layer
//! failpoint plus the participant-side prepare windows:
//!
//! | failpoint | models |
//! |---|---|
//! | `prepare.after_record` (Crash) | participant dies right after forcing its `Prepared` record — the vote is durable but never sent |
//! | `decide.after_apply` (Crash) | participant dies after applying the commit decision, before its next force — its buffered `Commit` record dies with it |
//! | `coord.before_decide` (Crash) | coordinator dies with every vote in hand and nothing durable |
//! | `coord.after_decide` (Crash) | coordinator dies with the decision durable but undelivered |
//! | `coord.msg.prepare` (Error) | a prepare request is lost in the network |
//! | `coord.msg.decide` (Error) | a decide is lost — one participant stays in doubt |
//!
//! After every injected fault the harness restarts whatever crashed
//! (participant nodes reopen their directories — prepared transactions
//! must come back **in doubt**, holding locks) and runs a recovery
//! coordinator, then asserts the distributed invariant: **no mixed
//! outcomes** — every node either shows the write or shows nothing,
//! identically, with nobody left in doubt; and for 2PC-after-decide /
//! Paxos-after-quorum the recovered decision equals the original.

#![cfg(feature = "faults")]

use asset::coord::failpoints::{
    COORD_AFTER_DECIDE, COORD_BEFORE_DECIDE, MSG_DECIDE_DROP, MSG_PREPARE_DROP,
};
use asset::coord::{
    Acceptor, ChannelTransport, CommitTransport, CoordError, CoordLog, Decision, GlobalTxn,
    ParticipantNode, PaxosCommit, TwoPhase,
};
use asset::faults::{CrashPoint, FaultAction, FaultRegistry, Trigger};
use asset::{Config, Oid};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

const NODES: usize = 3;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asset-xcm-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A 3-node on-disk cluster. Every node gets its own directory and its
/// own instance-scoped fault registry, so participant failpoints can be
/// armed per node.
struct Cluster {
    _dirs: Vec<TempDir>,
    node_faults: Vec<Arc<FaultRegistry>>,
    transport: Arc<ChannelTransport>,
    oids: Vec<Oid>,
}

impl Cluster {
    fn new(tag: &str) -> Cluster {
        Cluster::with_msg_faults(tag, Arc::new(FaultRegistry::new()))
    }

    /// A cluster whose transport drops messages per `msg_faults`.
    fn with_msg_faults(tag: &str, msg_faults: Arc<FaultRegistry>) -> Cluster {
        asset::faults::silence_crash_panics();
        let mut dirs = Vec::new();
        let mut node_faults = Vec::new();
        let mut nodes = Vec::new();
        for i in 0..NODES {
            let dir = TempDir::new(&format!("{tag}-n{i}"));
            let faults = Arc::new(FaultRegistry::new());
            let config = Config::on_disk(&dir.0)
                .with_lock_timeout(Some(std::time::Duration::from_secs(5)))
                .with_faults(Arc::clone(&faults));
            nodes.push(Arc::new(ParticipantNode::open(config).unwrap()));
            dirs.push(dir);
            node_faults.push(faults);
        }
        let oids = nodes.iter().map(|n| n.db().new_oid()).collect();
        Cluster {
            _dirs: dirs,
            node_faults,
            transport: Arc::new(ChannelTransport::new(nodes).with_faults(msg_faults)),
            oids,
        }
    }

    /// Stage one finished-but-undecided write per node.
    fn stage(&self, gid: u64) -> GlobalTxn {
        let mut g = GlobalTxn::new(gid);
        for (i, oid) in self.oids.iter().enumerate() {
            let db = self.transport.node(i).db();
            let (oid, val) = (*oid, format!("g{gid}").into_bytes());
            let t = db.initiate(move |ctx| ctx.write(oid, val.clone())).unwrap();
            db.begin(t).unwrap();
            db.wait(t).unwrap();
            g.add_member(i as u32, t);
        }
        g
    }

    /// Restart every down node, asserting each comes back with
    /// `expect_in_doubt` prepared-but-undecided transactions.
    fn restart_down_nodes(&self, expect_in_doubt: usize) {
        for i in 0..NODES {
            let n = self.transport.node(i);
            if n.is_down() {
                let in_doubt = n.restart().unwrap();
                assert_eq!(
                    in_doubt.len(),
                    expect_in_doubt,
                    "node {i} restarted with the wrong in-doubt set"
                );
            }
        }
    }

    /// The distributed invariant: every node shows the same outcome for
    /// `gid` (all have the write, or none do) and nobody is in doubt.
    /// Returns the common decision.
    fn assert_converged(&self, gid: u64, label: &str) -> Decision {
        let expected = format!("g{gid}").into_bytes();
        let mut per_node = Vec::new();
        for (i, oid) in self.oids.iter().enumerate() {
            let db = self.transport.node(i).db();
            assert!(
                db.in_doubt_transactions().is_empty(),
                "{label}: node {i} still in doubt"
            );
            match db.peek(*oid).unwrap() {
                Some(v) => {
                    assert_eq!(v, expected, "{label}: node {i} has a foreign value");
                    per_node.push(Decision::Commit);
                }
                None => per_node.push(Decision::Abort),
            }
        }
        assert!(
            per_node.iter().all(|d| *d == per_node[0]),
            "{label}: MIXED OUTCOME across nodes: {per_node:?}"
        );
        per_node[0]
    }
}

/// Which protocol drives a matrix cell.
#[derive(Clone, Copy, Debug)]
enum Proto {
    TwoPc,
    Paxos,
}

const PROTOS: [Proto; 2] = [Proto::TwoPc, Proto::Paxos];

/// One coordinator pair (working + recovery) per protocol, sharing the
/// durable decision substrate (log file for 2PC, acceptors for Paxos).
struct Coordinators {
    proto: Proto,
    log_path: PathBuf,
    log: Arc<CoordLog>,
    acceptors: Vec<Arc<Acceptor>>,
}

impl Coordinators {
    fn new(proto: Proto, dir: &TempDir) -> Coordinators {
        let log_path = dir.0.join("coord.log");
        Coordinators {
            proto,
            log: Arc::new(CoordLog::at(&log_path).unwrap()),
            log_path,
            acceptors: (0..3).map(|_| Arc::new(Acceptor::new())).collect(),
        }
    }

    fn commit(
        &self,
        transport: Arc<ChannelTransport>,
        faults: Arc<FaultRegistry>,
        g: &GlobalTxn,
    ) -> Result<Decision, CoordError> {
        match self.proto {
            Proto::TwoPc => TwoPhase::new(transport, self.log.clone())
                .with_faults(faults)
                .commit(g),
            Proto::Paxos => PaxosCommit::new(transport, self.acceptors.clone())
                .with_faults(faults)
                .commit(g),
        }
    }

    /// A *fresh* recovery coordinator: for 2PC it reopens the durable
    /// log **from disk** (the dead coordinator's memory is gone); for
    /// Paxos it knows nothing but the acceptors and a higher ballot.
    fn recover(
        &self,
        transport: Arc<ChannelTransport>,
        g: &GlobalTxn,
    ) -> Result<Decision, CoordError> {
        match self.proto {
            Proto::TwoPc => {
                let log = Arc::new(CoordLog::at(&self.log_path).unwrap());
                TwoPhase::new(transport, log).recover(g)
            }
            Proto::Paxos => PaxosCommit::recovery(transport, self.acceptors.clone(), 1).recover(g),
        }
    }
}

/// Run `f`, catching an intentional `CrashPoint` unwind (the scripted
/// coordinator crash); any other panic propagates.
fn crashing<T>(f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(payload) => {
            assert!(
                payload.downcast_ref::<CrashPoint>().is_some(),
                "only scripted crashes may unwind"
            );
            None
        }
    }
}

/// The matrix's control row: with nothing injected both protocols commit
/// and converge, and so does Paxos Commit with a minority of its
/// acceptors dead from the start (F = 1 tolerates one).
#[test]
fn fault_free_commit_converges_and_a_dead_acceptor_minority_is_a_non_event() {
    let cells = [
        (Proto::TwoPc, false, "2pc/no-fault"),
        (Proto::Paxos, false, "paxos/no-fault"),
        (Proto::Paxos, true, "paxos/one-acceptor-down"),
    ];
    for (k, (proto, kill_one, label)) in cells.into_iter().enumerate() {
        let gid = 70 + k as u64;
        let c = Cluster::new(&format!("ok{k}"));
        let cdir = TempDir::new(&format!("ok{k}-coord"));
        let coords = Coordinators::new(proto, &cdir);
        if kill_one {
            coords.acceptors[2].kill();
        }
        let g = c.stage(gid);
        let d = coords
            .commit(c.transport.clone(), Arc::new(FaultRegistry::new()), &g)
            .expect(label);
        assert_eq!(d, Decision::Commit, "{label}");
        assert_eq!(c.assert_converged(gid, label), Decision::Commit);
    }
}

#[test]
fn participant_crash_after_prepare_record_converges() {
    for (k, proto) in PROTOS.iter().enumerate() {
        let gid = 10 + k as u64;
        let label = format!("{proto:?}/part-after-prepare");
        let c = Cluster::new(&format!("pap{k}"));
        let cdir = TempDir::new(&format!("pap{k}-coord"));
        let coords = Coordinators::new(*proto, &cdir);
        let g = c.stage(gid);
        // node 1 dies immediately after forcing its Prepared record:
        // the vote is durable on its disk but never reaches the
        // coordinator, which must count it as a no
        c.node_faults[1].arm(
            asset::txn::failpoints::PART_AFTER_PREPARE,
            Trigger::Once,
            FaultAction::Crash,
        );
        let d = coords
            .commit(c.transport.clone(), Arc::new(FaultRegistry::new()), &g)
            .expect(&label);
        assert_eq!(d, Decision::Abort, "{label}: lost vote counts as no");
        // the dead node restarts from disk: its Prepared record must
        // bring the transaction back IN DOUBT, not aborted
        assert!(c.transport.node(1).is_down(), "{label}: node 1 crashed");
        c.restart_down_nodes(1);
        assert_eq!(
            c.transport.node(1).db().in_doubt_transactions().len(),
            1,
            "{label}: prepared txn survives restart in doubt"
        );
        // cooperative termination finishes it with the decision
        let rd = coords.recover(c.transport.clone(), &g).expect(&label);
        assert_eq!(rd, Decision::Abort, "{label}");
        assert_eq!(c.assert_converged(gid, &label), Decision::Abort);
    }
}

/// Node 1 applies the commit decision and dies before its next force, so
/// the `Commit` record it only buffered dies with it. The decision is
/// durable at the acceptors, so the coordinator still returns Commit; the
/// node restarts with exactly its member in doubt; `recover` (given the
/// next ballot) converges everyone to Commit, and a second one changes
/// nothing — not a byte of any node's log.
fn crash_after_applied_commit_converges(
    label: &str,
    c: &Cluster,
    gid: u64,
    commit: impl FnOnce() -> Result<Decision, CoordError>,
    recover: impl Fn(u64) -> Result<Decision, CoordError>,
) {
    c.node_faults[1].arm(
        asset::txn::failpoints::PART_AFTER_DECIDE,
        Trigger::Once,
        FaultAction::Crash,
    );
    assert_eq!(commit().expect(label), Decision::Commit, "{label}");
    assert!(c.transport.node(1).is_down(), "{label}: node 1 crashed");
    c.restart_down_nodes(1);
    assert_eq!(recover(1).expect(label), Decision::Commit, "{label}");
    assert_eq!(c.assert_converged(gid, label), Decision::Commit);
    let tails = || -> Vec<_> {
        (0..NODES)
            .map(|i| c.transport.node(i).db().engine().log().tail())
            .collect()
    };
    let before = tails();
    assert_eq!(recover(2).expect(label), Decision::Commit, "{label}");
    assert_eq!(tails(), before, "{label}: a second recovery logs nothing");
    assert_eq!(c.assert_converged(gid, label), Decision::Commit);
}

#[test]
fn participant_crash_after_applying_commit_restarts_in_doubt_and_converges() {
    for (k, proto) in PROTOS.iter().enumerate() {
        let gid = 90 + k as u64;
        let label = format!("{proto:?}/part-after-decide");
        let c = Cluster::new(&format!("pad{k}"));
        let cdir = TempDir::new(&format!("pad{k}-coord"));
        let coords = Coordinators::new(*proto, &cdir);
        let g = c.stage(gid);
        crash_after_applied_commit_converges(
            &label,
            &c,
            gid,
            || coords.commit(c.transport.clone(), Arc::new(FaultRegistry::new()), &g),
            |_| coords.recover(c.transport.clone(), &g),
        );
    }
}

#[test]
fn coordinator_crash_before_decide_converges_to_abort() {
    for (k, proto) in PROTOS.iter().enumerate() {
        let gid = 20 + k as u64;
        let label = format!("{proto:?}/coord-before-decide");
        let c = Cluster::new(&format!("cbd{k}"));
        let cdir = TempDir::new(&format!("cbd{k}-coord"));
        let coords = Coordinators::new(*proto, &cdir);
        let g = c.stage(gid);
        let cf = Arc::new(FaultRegistry::new());
        cf.arm(COORD_BEFORE_DECIDE, Trigger::Once, FaultAction::Crash);
        assert!(
            crashing(|| coords.commit(c.transport.clone(), cf, &g)).is_none(),
            "{label}: the coordinator must crash"
        );
        // every participant prepared and is blocked in doubt
        for i in 0..NODES {
            assert_eq!(
                c.transport.node(i).db().in_doubt_transactions().len(),
                1,
                "{label}: node {i} in doubt"
            );
        }
        // nothing durable was decided: 2PC presumes abort from the
        // (empty) reopened log; Paxos finds every instance free
        let rd = coords.recover(c.transport.clone(), &g).expect(&label);
        assert_eq!(rd, Decision::Abort, "{label}");
        assert_eq!(c.assert_converged(gid, &label), Decision::Abort);
    }
}

#[test]
fn coordinator_crash_after_decide_recovers_the_same_decision() {
    for (k, proto) in PROTOS.iter().enumerate() {
        let gid = 30 + k as u64;
        let label = format!("{proto:?}/coord-after-decide");
        let c = Cluster::new(&format!("cad{k}"));
        let cdir = TempDir::new(&format!("cad{k}-coord"));
        let coords = Coordinators::new(*proto, &cdir);
        let g = c.stage(gid);
        let cf = Arc::new(FaultRegistry::new());
        cf.arm(COORD_AFTER_DECIDE, Trigger::Once, FaultAction::Crash);
        assert!(
            crashing(|| coords.commit(c.transport.clone(), cf, &g)).is_none(),
            "{label}: the coordinator must crash"
        );
        // the decision is durable (log / quorum) but nobody was told:
        // recovery MUST surface Commit, not presume abort
        let rd = coords.recover(c.transport.clone(), &g).expect(&label);
        assert_eq!(rd, Decision::Commit, "{label}: durable decision recovered");
        assert_eq!(c.assert_converged(gid, &label), Decision::Commit);
        // idempotent: recovering again changes nothing
        let rd2 = coords.recover(c.transport.clone(), &g).expect(&label);
        assert_eq!(rd2, Decision::Commit, "{label}: idempotent");
    }
}

#[test]
fn lost_prepare_message_aborts_everywhere() {
    for (k, proto) in PROTOS.iter().enumerate() {
        let gid = 40 + k as u64;
        let label = format!("{proto:?}/msg-prepare-drop");
        let mf = Arc::new(FaultRegistry::new());
        let c = Cluster::with_msg_faults(&format!("mpd{k}"), Arc::clone(&mf));
        let cdir = TempDir::new(&format!("mpd{k}-coord"));
        let coords = Coordinators::new(*proto, &cdir);
        let g = c.stage(gid);
        // the second node's prepare vanishes in the network; the
        // coordinator treats silence as a no vote
        mf.arm(MSG_PREPARE_DROP, Trigger::Nth(2), FaultAction::Error);
        let d = coords
            .commit(c.transport.clone(), Arc::new(FaultRegistry::new()), &g)
            .expect(&label);
        assert_eq!(d, Decision::Abort, "{label}");
        assert_eq!(c.assert_converged(gid, &label), Decision::Abort);
    }
}

#[test]
fn lost_decide_message_resolves_via_termination() {
    for (k, proto) in PROTOS.iter().enumerate() {
        let gid = 50 + k as u64;
        let label = format!("{proto:?}/msg-decide-drop");
        let mf = Arc::new(FaultRegistry::new());
        let c = Cluster::with_msg_faults(&format!("mdd{k}"), Arc::clone(&mf));
        let cdir = TempDir::new(&format!("mdd{k}-coord"));
        let coords = Coordinators::new(*proto, &cdir);
        let g = c.stage(gid);
        // the decision is made and durable, but node 0 never hears it
        mf.arm(MSG_DECIDE_DROP, Trigger::Nth(1), FaultAction::Error);
        let d = coords
            .commit(c.transport.clone(), Arc::new(FaultRegistry::new()), &g)
            .expect(&label);
        assert_eq!(d, Decision::Commit, "{label}: decision itself is commit");
        assert_eq!(
            c.transport.node(0).db().in_doubt_transactions().len(),
            1,
            "{label}: node 0 missed the decide and stays prepared"
        );
        // a termination pass re-delivers from the durable decision
        let rd = coords.recover(c.transport.clone(), &g).expect(&label);
        assert_eq!(rd, Decision::Commit, "{label}");
        assert_eq!(c.assert_converged(gid, &label), Decision::Commit);
    }
}

#[test]
fn paxos_is_nonblocking_where_twopc_blocks() {
    // The E17 headline, as an invariant rather than a number: after a
    // coordinator crash in the window where 2PC's only copy of the
    // decision is unreachable, Paxos Commit still terminates because
    // the decision lives at the acceptor quorum.
    let gid = 60;
    let c = Cluster::new("nb");
    let cdir = TempDir::new("nb-coord");
    let coords = Coordinators::new(Proto::Paxos, &cdir);
    let g = c.stage(gid);
    let cf = Arc::new(FaultRegistry::new());
    cf.arm(COORD_AFTER_DECIDE, Trigger::Once, FaultAction::Crash);
    assert!(crashing(|| coords.commit(c.transport.clone(), cf, &g)).is_none());
    // one acceptor died with the coordinator: still a majority
    coords.acceptors[0].kill();
    let rd = coords.recover(c.transport.clone(), &g).unwrap();
    assert_eq!(rd, Decision::Commit);
    assert_eq!(
        c.assert_converged(gid, "paxos/nonblocking"),
        Decision::Commit
    );
}

/// `n` file-backed acceptors in one directory. Every [`open`](Self::open)
/// is a process start: what an earlier set of acceptors promised or
/// accepted must come back from the files alone. `n = 1` is the 2PC
/// configuration (the acceptor is the coordinator log), `n = 3` survives
/// one acceptor failure.
struct AcceptorFiles {
    dir: TempDir,
    n: usize,
}

impl AcceptorFiles {
    fn open(&self) -> Vec<Arc<Acceptor>> {
        (0..self.n)
            .map(|i| {
                let path = self.dir.0.join(format!("acceptor-{i}.log"));
                Arc::new(Acceptor::at(&path).unwrap())
            })
            .collect()
    }
}

/// Stage `gid` and crash its coordinator at `point` over `n` file-backed
/// acceptors that die with it (the unwind drops them): what is left for
/// recovery is the participants and the files.
fn crash_over_files(
    tag: &str,
    gid: u64,
    n: usize,
    point: &'static str,
) -> (Cluster, AcceptorFiles, GlobalTxn) {
    let c = Cluster::new(tag);
    let files = AcceptorFiles {
        dir: TempDir::new(&format!("{tag}-acc")),
        n,
    };
    let g = c.stage(gid);
    let cf = Arc::new(FaultRegistry::new());
    cf.arm(point, Trigger::Once, FaultAction::Crash);
    let acceptors = files.open();
    let commit = || {
        PaxosCommit::new(c.transport.clone(), acceptors)
            .with_faults(cf)
            .commit(&g)
    };
    assert!(crashing(commit).is_none(), "{tag}: must crash at {point}");
    (c, files, g)
}

#[test]
fn durable_decision_survives_every_acceptor_restarting() {
    for (k, n) in [1usize, 3].into_iter().enumerate() {
        let gid = 70 + k as u64;
        let label = format!("{n} acceptor(s)/after-decide/reopen");
        let (c, files, g) = crash_over_files(&format!("dar{k}"), gid, n, COORD_AFTER_DECIDE);
        // every vote was accepted and synced before the crash: acceptors
        // reopened from their files alone MUST surface Commit
        let rd = PaxosCommit::recovery(c.transport.clone(), files.open(), 1)
            .recover(&g)
            .expect(&label);
        assert_eq!(rd, Decision::Commit, "{label}: durable decision recovered");
        assert_eq!(c.assert_converged(gid, &label), Decision::Commit);
        // recovery's own promises and accepts are durable too
        let reopened = files.open();
        for a in &reopened {
            assert_eq!(a.promised(gid), 1, "{label}: promise persisted");
        }
        let rd2 = PaxosCommit::recovery(c.transport.clone(), reopened, 2)
            .recover(&g)
            .expect(&label);
        assert_eq!(rd2, Decision::Commit, "{label}: idempotent");
    }
}

#[test]
fn reopened_acceptors_with_nothing_accepted_recover_to_abort() {
    for (k, n) in [1usize, 3].into_iter().enumerate() {
        let gid = 80 + k as u64;
        let label = format!("{n} acceptor(s)/before-decide/reopen");
        let (c, files, g) = crash_over_files(&format!("rna{k}"), gid, n, COORD_BEFORE_DECIDE);
        // the crash preceded phase 2: the files hold nothing for this
        // transaction, every instance is free, and free means no — with
        // one acceptor, 2PC's presumed abort
        let reopened = files.open();
        for a in &reopened {
            for node in 0..NODES as u32 {
                assert_eq!(a.accepted(gid, node), None, "{label}: empty-handed");
            }
        }
        let rd = PaxosCommit::recovery(c.transport.clone(), reopened, 1)
            .recover(&g)
            .expect(&label);
        assert_eq!(rd, Decision::Abort, "{label}");
        assert_eq!(c.assert_converged(gid, &label), Decision::Abort);
    }
}

#[test]
fn participant_crash_after_applying_commit_converges_over_reopened_acceptors() {
    for (k, n) in [1usize, 3].into_iter().enumerate() {
        let gid = 100 + k as u64;
        let label = format!("{n} acceptor(s)/part-after-decide/reopen");
        let c = Cluster::new(&format!("padr{k}"));
        let files = AcceptorFiles {
            dir: TempDir::new(&format!("padr{k}-acc")),
            n,
        };
        let g = c.stage(gid);
        // every acceptor is dropped with the coordinator and reopened from
        // its file for each recovery
        crash_after_applied_commit_converges(
            &label,
            &c,
            gid,
            || PaxosCommit::new(c.transport.clone(), files.open()).commit(&g),
            |ballot| PaxosCommit::recovery(c.transport.clone(), files.open(), ballot).recover(&g),
        );
    }
}

#[test]
fn transport_trait_object_is_usable() {
    // coordinators only see `dyn CommitTransport`; make sure the
    // facade exposes enough to drive one generically
    let c = Cluster::new("dyn");
    let t: Arc<dyn CommitTransport> = c.transport.clone();
    assert_eq!(t.nodes(), NODES);
}
