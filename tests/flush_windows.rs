//! Who runs a flush window (DESIGN.md §12), counted: a blocking commit
//! that finds the group flusher idle runs its own window on its own thread
//! (`flush_windows_led`); executor commits and blocking commits that arrive
//! while a window runs ride the flusher thread's next one and share its
//! sync. Either way every commit is acknowledged once, after its window is
//! durable, and survives a reopen. A participant of a global transaction
//! forces one window, its vote; the decision's `Commit` record rides the
//! node's next force.

use asset::coord::{
    Acceptor, ChannelTransport, CoordLog, Decision, GlobalTxn, ParticipantNode, PaxosCommit,
    TwoPhase,
};
use asset::{Config, Database, Oid, StepCtx, TryOp, TxnStep};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("asset-fw-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// (windows, windows run by their committer)
fn windows(db: &Database) -> (u64, u64) {
    let c = db.metrics_snapshot().counters;
    (c.flush_windows, c.flush_windows_led)
}

fn write_prog(o: Oid, val: u64) -> impl FnMut(&mut StepCtx<'_>) -> TxnStep + Send + 'static {
    move |sc| match sc.try_write(o, val.to_le_bytes().to_vec()) {
        Ok(TryOp::Done(())) => TxnStep::Done(Ok(())),
        Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
        Err(e) => TxnStep::Done(Err(e)),
    }
}

fn sequential_runs_lead_every_window(config: Config) {
    let (db, _) = Database::open(config).unwrap();
    let o = db.new_oid();
    for i in 0..1_000u64 {
        assert!(db
            .run(move |ctx| ctx.write(o, i.to_le_bytes().to_vec()))
            .unwrap());
    }
    assert_eq!(windows(&db), (1_000, 1_000), "none run by the thread");
}

#[test]
fn sequential_blocking_commits_run_their_own_windows_in_memory() {
    sequential_runs_lead_every_window(Config::in_memory());
}

#[test]
fn sequential_blocking_commits_run_their_own_windows_on_disk() {
    let dir = TempDir::new("seq");
    sequential_runs_lead_every_window(Config::on_disk(&dir.0));
}

#[test]
fn executor_commits_never_run_their_own_window() {
    let db = Database::in_memory();
    let tids: Vec<_> = (0..64)
        .map(|i| db.submit(write_prog(db.new_oid(), i)).unwrap())
        .collect();
    for t in tids {
        assert!(db.outcome(t).unwrap());
    }
    let (all, led) = windows(&db);
    assert!(all > 0);
    assert_eq!(led, 0, "every executor window is the thread's");
}

/// Four blocking committers and a stream of executor submissions on one
/// on-disk database: each commit is acknowledged once, some of them shared
/// a window, and a reopen finds every acknowledged one.
#[test]
fn blocking_and_executor_commits_share_windows_and_survive_a_reopen() {
    const COMMITTERS: u64 = 4;
    const EACH: u64 = 50;
    const SUBMITTED: u64 = 200;
    let dir = TempDir::new("mixed");
    let config = Config::on_disk(&dir.0);
    let objects: Vec<Oid>;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        objects = (0..COMMITTERS * EACH + SUBMITTED)
            .map(|_| db.new_oid())
            .collect();
        let committers: Vec<_> = (0..COMMITTERS)
            .map(|c| {
                let (db, objects) = (db.clone(), objects.clone());
                std::thread::spawn(move || {
                    for i in c * EACH..(c + 1) * EACH {
                        let o = objects[i as usize];
                        assert!(db
                            .run(move |ctx| ctx.write(o, i.to_le_bytes().to_vec()))
                            .unwrap());
                    }
                })
            })
            .collect();
        let tids: Vec<_> = (COMMITTERS * EACH..COMMITTERS * EACH + SUBMITTED)
            .map(|i| db.submit(write_prog(objects[i as usize], i)).unwrap())
            .collect();
        for t in tids {
            assert!(db.outcome(t).unwrap());
        }
        for c in committers {
            c.join().unwrap();
        }
        let snap = db.metrics_snapshot();
        let commits = COMMITTERS * EACH + SUBMITTED;
        assert_eq!(snap.counters.txn_committed, commits, "acknowledged once");
        assert_eq!(snap.flush_batch_len.sum, commits, "each in one window");
        assert!(
            snap.counters.flush_windows < commits,
            "followers share windows: {} for {commits} commits",
            snap.counters.flush_windows
        );
    }
    let (db, report) = Database::open(config).unwrap();
    assert_eq!(report.losers, 0);
    for (i, o) in objects.iter().enumerate() {
        assert_eq!(
            db.peek(*o).unwrap(),
            Some((i as u64).to_le_bytes().to_vec()),
            "acknowledged commit {i} survives the reopen"
        );
    }
}

/// A 3-node on-disk global commit, under each protocol: every node runs
/// exactly one flush window — its `Prepared` vote — and leaves the decided
/// `Commit` record buffered. The node's next local commit forces the log
/// through it, and a restart then finds the member committed, not in
/// doubt. This is the count behind `dist_commit`'s `log_bytes_per_txn`:
/// one seal per node per global transaction, not two.
#[test]
fn a_global_commit_forces_one_window_per_node_its_vote() {
    const NODES: usize = 3;
    for (gid, paxos) in [(1, false), (2, true)] {
        let dirs: Vec<TempDir> = (0..NODES)
            .map(|i| TempDir::new(&format!("global{gid}-n{i}")))
            .collect();
        let nodes: Vec<Arc<ParticipantNode>> = dirs
            .iter()
            .map(|d| Arc::new(ParticipantNode::open(Config::on_disk(&d.0)).unwrap()))
            .collect();
        let mut g = GlobalTxn::new(gid);
        let mut oids = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            let db = n.db();
            let o = db.new_oid();
            let t = db
                .initiate(move |ctx| ctx.write(o, b"global".to_vec()))
                .unwrap();
            db.begin(t).unwrap();
            db.wait(t).unwrap();
            g.add_member(i as u32, t);
            oids.push(o);
        }
        let before: Vec<u64> = nodes.iter().map(|n| windows(&n.db()).0).collect();
        let transport = Arc::new(ChannelTransport::new(nodes.clone()));
        let decision = if paxos {
            let acceptors = (0..3).map(|_| Arc::new(Acceptor::new())).collect();
            PaxosCommit::new(transport, acceptors).commit(&g)
        } else {
            TwoPhase::new(transport, Arc::new(CoordLog::in_memory())).commit(&g)
        };
        assert_eq!(decision.unwrap(), Decision::Commit);
        let pending = |db: &Database| db.engine().log().watermarks().pending_bytes;
        for (i, n) in nodes.iter().enumerate() {
            let db = n.db();
            assert_eq!(
                windows(&db).0 - before[i],
                1,
                "paxos={paxos} node {i}: the vote is the only force"
            );
            assert!(pending(&db) > 0, "node {i}: the Commit record is buffered");
            let local = db.new_oid();
            assert!(db
                .run(move |ctx| ctx.write(local, b"local".to_vec()))
                .unwrap());
            assert_eq!(pending(&db), 0, "node {i}: a local commit forces it");
            drop(db);
            n.kill();
            assert!(
                n.restart().unwrap().is_empty(),
                "node {i}: nothing in doubt"
            );
            let db = n.db();
            assert_eq!(db.peek(oids[i]).unwrap(), Some(b"global".to_vec()));
            assert_eq!(db.peek(local).unwrap(), Some(b"local".to_vec()));
        }
    }
}
