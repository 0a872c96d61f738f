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
use asset::faults::TempDir;
use asset::{Config, Database, Oid, StepCtx, TryOp, TxnStep};
use std::sync::Arc;

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
/// one seal per node per global transaction, not two, and a one-byte
/// `Prepared` and `Commit` (the member's tid, a delta from the tid of its
/// own write, rides in each record's kind byte): 7 bytes a node for the
/// decision.
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
        let tail = |db: &Database| db.engine().log().tail().0;
        let tails: Vec<u64> = nodes.iter().map(|n| tail(&n.db())).collect();
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
            let seal = asset::storage::log::SEAL_LEN as u64;
            assert_eq!(
                tail(&db) - tails[i],
                1 + seal + 1,
                "node {i}: the decision's bytes"
            );
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

/// What a node's staged write costs its log, the other half of
/// `dist_commit`'s `log_bytes_per_txn` beside the decision's 7 bytes: a
/// fresh 8-byte object created right after the node's previous one is one
/// packed `Update` of 11 bytes — its kind, a one-byte tid delta, a
/// one-byte oid delta and the 8 bytes — at an oid near 10 and after
/// `new_oid()` has taken the node past 2^21 alike, so a node's log does
/// not widen as a pass goes on.
#[test]
fn a_staged_creation_is_11_bytes_at_any_oid() {
    let dir = TempDir::new("staged");
    let node = ParticipantNode::open(Config::on_disk(&dir.0)).unwrap();
    let db = node.db();
    let tail = |db: &Database| db.engine().log().tail().0;
    // stage a write of a fresh object as `dist_commit` does, and commit
    // it: its oid and the bytes its write appended
    let stage = |db: &Database| {
        let o = db.new_oid();
        let at = tail(db);
        let t = db
            .initiate(move |ctx| ctx.write(o, 7u64.to_le_bytes().to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        assert!(db.wait(t).unwrap());
        let bytes = tail(db) - at;
        assert!(db.commit(t).unwrap());
        (o, bytes)
    };
    // the log's first write pays its marker and wide first ids
    let (first, _) = stage(&db);
    let (o, bytes) = stage(&db);
    assert!(o.0 < 10, "{o}");
    assert_eq!((o.0, bytes), (first.0 + 1, 11), "next to the previous");
    while db.new_oid().0 < 1 << 21 {}
    // the jump past 2^21 costs its width once
    let (far, _) = stage(&db);
    let (o, bytes) = stage(&db);
    assert_eq!((o.0, bytes), (far.0 + 1, 11), "past 2^21");
}

/// Early lock release, counted (`--features faults`): a commit frees its
/// locks once its record has an LSN, and is acknowledged only once a
/// window has synced the log through it. A failpoint hook holds one window
/// open; what commits behind it is counted, and none of it may be
/// acknowledged before the window syncs.
#[cfg(feature = "faults")]
mod early_release {
    use super::write_prog;
    use asset::faults::{FaultRegistry, TempDir};
    use asset::obs::{Event, EventKind};
    use asset::storage::failpoints::FLUSH_WINDOW_SYNC;
    use asset::{Config, Database, Oid, StepCtx, Tid, TryOp, TxnStatus, TxnStep};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// An on-disk database, traced, whose first flush window waits at its
    /// failpoint: `at` says it is open, a send on `go` lets it sync. A lock
    /// wait is bounded, so a reader behind a lock held across the window
    /// fails instead of hanging.
    fn held_window(tag: &str) -> (TempDir, Database, Receiver<()>, Sender<()>) {
        let dir = TempDir::new(tag);
        let faults = Arc::new(FaultRegistry::new());
        let (at_tx, at) = channel::<()>();
        let (go, go_rx) = channel::<()>();
        let gate = Mutex::new(Some((at_tx, go_rx)));
        faults.on_hit(FLUSH_WINDOW_SYNC, move || {
            if let Some((at, go)) = gate.lock().unwrap().take() {
                at.send(()).unwrap();
                let _ = go.recv();
            }
        });
        let config = Config::on_disk(&dir.0)
            .with_faults(faults)
            .with_lock_timeout(Some(Duration::from_secs(5)));
        let (db, _) = Database::open(config).unwrap();
        db.obs().enable_tracing(1 << 16);
        (dir, db, at, go)
    }

    /// Drain the trace into `seen` until every one of `tids` has parked
    /// for a flush window — within a bound, since at a commit that holds
    /// its locks across its window they never would.
    fn until_parked_on_flush(db: &Database, seen: &mut Vec<Event>, tids: &[Tid]) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let parked = |seen: &[Event], t: Tid| {
            let on_flush = |e: &Event| matches!(e.kind, EventKind::ExecPark { tid, reason: "flush" } if tid == t);
            seen.iter().any(on_flush)
        };
        while !tids.iter().all(|&t| parked(seen, t)) {
            assert!(
                Instant::now() < deadline,
                "a writer never waited for a window"
            );
            seen.extend(db.obs().trace());
            std::thread::yield_now();
        }
    }

    /// The window of each commit in `seen`, by tid.
    fn windows_of(seen: &[Event], tids: &[Tid]) -> Vec<u64> {
        let window = |t: Tid| {
            seen.iter().find_map(|e| match e.kind {
                EventKind::CommitFlushed { tid, window } if tid == t => Some(window),
                _ => None,
            })
        };
        tids.iter()
            .map(|&t| window(t).expect("a flushed commit"))
            .collect()
    }

    /// The ROADMAP puzzle "is an `exec_hot` lock's hold time about one
    /// window?", answered with a count: while one writer's window is held
    /// open, N more executor writers of the same object each take the lock,
    /// append their record and release it — and all N commit in the next
    /// window, one flush of N. Were the lock held across the window, that
    /// would take N windows.
    #[test]
    fn n_writers_of_one_object_commit_in_the_window_after_the_held_one() {
        const N: usize = 8;
        let (_dir, db, at, go) = held_window("elr-count");
        let o = db.new_oid();
        let first = db.submit(write_prog(o, 0)).unwrap();
        at.recv().unwrap();
        let writers: Vec<Tid> = (1..=N as u64)
            .map(|i| db.submit(write_prog(o, i)).unwrap())
            .collect();
        let mut seen = Vec::new();
        until_parked_on_flush(&db, &mut seen, &writers);
        for &t in std::iter::once(&first).chain(&writers) {
            assert_eq!(
                db.status(t).unwrap(),
                TxnStatus::Committing,
                "{t} not acknowledged"
            );
        }
        go.send(()).unwrap();
        for &t in std::iter::once(&first).chain(&writers) {
            assert!(db.outcome(t).unwrap());
        }
        seen.extend(db.obs().trace());
        let held = windows_of(&seen, &[first])[0];
        assert_eq!(
            windows_of(&seen, &writers),
            [held + 1; N],
            "all N in the next window"
        );
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counters.flush_windows, 2);
        assert_eq!(
            (snap.flush_batch_len.count, snap.flush_batch_len.sum),
            (2, 1 + N as u64)
        );
        let groups = &snap.commit_group_size;
        assert_eq!((groups.count, groups.sum), (1 + N as u64, 1 + N as u64));
        let last = u64::from_le_bytes(db.peek(o).unwrap().unwrap().try_into().unwrap());
        assert!((1..=N as u64).contains(&last), "one writer's value: {last}");
    }

    /// A commit pinned in a held window has released its locks and
    /// permits already: a permit from it, or to it, would outlive that
    /// release, and is refused; once the window syncs, the permit table
    /// is as empty as before.
    #[test]
    fn a_permit_from_or_to_a_pinned_committer_is_refused() {
        use asset::{AssetError, ObSet, OpSet};
        let (_dir, db, at, go) = held_window("elr-permit");
        let o = db.new_oid();
        let w = db.submit(write_prog(o, 0)).unwrap();
        at.recv().unwrap();
        let live = db.initiate(|_| Ok(())).unwrap();
        let refused = |r: asset::Result<()>| {
            let pinned = TxnStatus::Committing;
            matches!(r, Err(AssetError::InvalidState { tid, status, op: "permit" })
                if tid == w && status == pinned)
        };
        assert!(refused(db.permit(w, None, ObSet::All, OpSet::ALL)));
        assert!(refused(db.permit(live, Some(w), ObSet::one(o), OpSet::ALL)));
        assert!(refused(db.permit_accessed(w, Some(live), OpSet::ALL)));
        go.send(()).unwrap();
        assert!(db.outcome(w).unwrap());
        assert!(db.abort(live).unwrap());
        assert_eq!(db.introspect().permits, 0);
    }

    fn read_prog(o: Oid) -> impl FnMut(&mut StepCtx<'_>) -> TxnStep + Send + 'static {
        move |sc| match sc.try_read(o) {
            Ok(TryOp::Done(_)) => TxnStep::Done(Ok(())),
            Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
            Err(e) => TxnStep::Done(Err(e)),
        }
    }

    /// A read-only reader of an early-released write logs nothing, but is
    /// acknowledged only once the writer's record is durable: executor
    /// driver. The writer's own window covers it.
    #[test]
    fn a_read_only_reader_waits_for_the_writers_window_executor() {
        let (_dir, db, at, go) = held_window("elr-ro-exec");
        let o = db.new_oid();
        let w = db.submit(write_prog(o, 7)).unwrap();
        at.recv().unwrap();
        let r = db.submit(read_prog(o)).unwrap();
        let mut seen = Vec::new();
        until_parked_on_flush(&db, &mut seen, &[r]);
        assert_eq!(
            db.status(r).unwrap(),
            TxnStatus::Committing,
            "not acknowledged"
        );
        go.send(()).unwrap();
        assert!(db.outcome(w).unwrap() && db.outcome(r).unwrap());
        seen.extend(db.obs().trace());
        let windows = windows_of(&seen, &[w, r]);
        assert_eq!(windows[0], windows[1], "at most one window: the writer's");
    }

    /// The same on the blocking driver: the writer runs its own window,
    /// and the reader waits behind it for the flusher thread's.
    #[test]
    fn a_read_only_reader_waits_for_the_writers_window_blocking() {
        let (_dir, db, at, go) = held_window("elr-ro-blocking");
        let o = db.new_oid();
        let w = {
            let db = db.clone();
            std::thread::spawn(move || db.run(move |ctx| ctx.write(o, b"w".to_vec())))
        };
        at.recv().unwrap();
        let r = db.initiate(move |ctx| ctx.read(o).map(drop)).unwrap();
        db.begin(r).unwrap();
        db.wait(r).unwrap();
        let (done_tx, done) = channel();
        let committer = {
            let db = db.clone();
            std::thread::spawn(move || done_tx.send(db.commit(r)).unwrap())
        };
        // the reader's lock goes at its commit point, before it waits
        while db.locks().holders(o).iter().any(|l| l.tid == r) {
            std::thread::yield_now();
        }
        // only strengthens the check: a reader that did not wait would
        // be acknowledged by now
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            done.try_recv().is_err(),
            "acknowledged before the window synced"
        );
        assert_eq!(db.status(r).unwrap(), TxnStatus::Committing);
        go.send(()).unwrap();
        assert!(w.join().unwrap().unwrap());
        assert!(done.recv().unwrap().unwrap());
        committer.join().unwrap();
    }
}
