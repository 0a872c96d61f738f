//! Unit tests for the transaction manager: every §2 primitive, the §4.2
//! commit/abort protocols, delegation, permits, and crash recovery.

use crate::{Database, DepType, Introspection, ObSet, Oid, OpSet, Tid, TxnStatus};
use asset_common::AssetError;
use asset_faults::TempDir;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn db() -> Database {
    Database::in_memory()
}

/// Spin until `cond` holds. The deadline orders nothing: it only fails a
/// test that is stuck.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let stuck = std::time::Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(
            std::time::Instant::now() < stuck,
            "stuck waiting until {what}"
        );
        std::thread::yield_now();
    }
}

/// Seed an object with committed bytes.
fn seed(db: &Database, bytes: &[u8]) -> Oid {
    let oid = db.new_oid();
    let b = bytes.to_vec();
    assert!(db.run(move |ctx| ctx.write(oid, b)).unwrap());
    oid
}

#[test]
fn atomic_transaction_lifecycle() {
    let db = db();
    let oid = db.new_oid();
    let t = db
        .initiate(move |ctx| ctx.write(oid, b"hello".to_vec()))
        .unwrap();
    assert_eq!(db.status(t).unwrap(), TxnStatus::Initiated);
    db.begin(t).unwrap();
    assert!(db.commit(t).unwrap());
    assert_eq!(db.status(t).unwrap(), TxnStatus::Committed);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"hello");
}

#[test]
fn completion_is_not_commit() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t = db
        .initiate(move |ctx| ctx.write(oid, b"new".to_vec()))
        .unwrap();
    db.begin(t).unwrap();
    assert!(db.wait(t).unwrap(), "completed");
    // completed but uncommitted: the lock is still held — another
    // transaction's read must block
    let db2 = db.clone();
    let reader = db2
        .initiate(move |ctx| {
            ctx.read(oid)?;
            Ok(())
        })
        .unwrap();
    db2.begin(reader).unwrap();
    while !db.locks().pending(oid).iter().any(|p| p.tid == reader) {
        std::thread::yield_now();
    }
    assert_eq!(
        db.status(reader).unwrap(),
        TxnStatus::Running,
        "reader blocked"
    );
    assert!(db.commit(t).unwrap());
    assert!(db.commit(reader).unwrap());
}

#[test]
fn abort_restores_before_images() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t = db
        .initiate(move |ctx| {
            ctx.write(oid, b"dirty".to_vec())?;
            ctx.write(oid, b"dirtier".to_vec())?;
            Ok(())
        })
        .unwrap();
    db.begin(t).unwrap();
    db.wait(t).unwrap();
    assert!(db.abort(t).unwrap());
    assert_eq!(db.status(t).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
}

#[test]
fn abort_of_creation_deletes() {
    let db = db();
    let created: Arc<asset_common::sync::Mutex<Option<Oid>>> =
        Arc::new(asset_common::sync::Mutex::new(None));
    let c2 = Arc::clone(&created);
    let t = db
        .initiate(move |ctx| {
            let oid = ctx.create(b"temp".to_vec())?;
            *c2.lock() = Some(oid);
            Ok(())
        })
        .unwrap();
    db.begin(t).unwrap();
    db.wait(t).unwrap();
    db.abort(t).unwrap();
    let oid = created.lock().unwrap();
    assert_eq!(db.peek(oid).unwrap(), None);
}

#[test]
fn failing_job_aborts() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t = db
        .initiate(move |ctx| {
            ctx.write(oid, b"doomed".to_vec())?;
            Err(AssetError::TxnAborted(ctx.id()))
        })
        .unwrap();
    db.begin(t).unwrap();
    assert!(!db.wait(t).unwrap());
    assert!(!db.commit(t).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
}

#[test]
fn panicking_job_aborts() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t = db
        .initiate(move |ctx| {
            ctx.write(oid, b"doomed".to_vec())?;
            panic!("boom");
        })
        .unwrap();
    db.begin(t).unwrap();
    assert!(!db.commit(t).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
    assert_eq!(db.status(t).unwrap(), TxnStatus::Aborted);
}

#[test]
fn commit_twice_returns_true_abort_after_commit_fails() {
    let db = db();
    let t = db.initiate(|_| Ok(())).unwrap();
    db.begin(t).unwrap();
    assert!(db.commit(t).unwrap());
    assert!(db.commit(t).unwrap(), "commit of committed returns 1");
    assert!(!db.abort(t).unwrap(), "abort of committed returns 0");
    assert!(
        db.abort(db.initiate(|_| Ok(())).unwrap()).unwrap(),
        "abort of initiated ok"
    );
}

#[test]
fn wait_semantics() {
    let db = db();
    let t = db.initiate(|_| Ok(())).unwrap();
    db.begin(t).unwrap();
    assert!(db.wait(t).unwrap());
    db.commit(t).unwrap();
    assert!(db.wait(t).unwrap(), "wait on committed returns 1");

    let a = db
        .initiate(|ctx| ctx.abort_self::<()>().map(|_| ()))
        .unwrap();
    db.begin(a).unwrap();
    assert!(!db.wait(a).unwrap(), "wait on aborted returns 0");
}

#[test]
fn parent_tracking() {
    let db = db();
    let observed: Arc<asset_common::sync::Mutex<(Tid, Tid)>> =
        Arc::new(asset_common::sync::Mutex::new((Tid::NULL, Tid::NULL)));
    let o2 = Arc::clone(&observed);
    let t = db
        .initiate(move |ctx| {
            let child = ctx.initiate(|_| Ok(()))?;
            ctx.begin(child)?;
            ctx.wait(child)?;
            *o2.lock() = (ctx.parent(), ctx.db().parent_of(child)?);
            ctx.commit(child)?;
            Ok(())
        })
        .unwrap();
    db.begin(t).unwrap();
    assert!(db.commit(t).unwrap());
    let (top_parent, child_parent) = *observed.lock();
    assert_eq!(top_parent, Tid::NULL, "top-level parent is null");
    assert_eq!(child_parent, t, "child's parent is the initiator");
}

/// The cap counts live transactions: one that ends frees its place, and
/// its TD with it.
#[test]
fn resource_exhaustion() {
    let db = Database::open(asset_common::Config::in_memory().with_max_transactions(2))
        .unwrap()
        .0;
    let a = db.initiate(|_| Ok(())).unwrap();
    let _b = db.initiate(|_| Ok(())).unwrap();
    let err = db.initiate(|_| Ok(())).unwrap_err();
    assert!(matches!(err, AssetError::ResourceExhausted { limit: 2 }));
    db.begin(a).unwrap();
    assert!(db.commit(a).unwrap());
    assert_eq!((db.live_transactions(), db.introspect().live), (1, 1));
    let c = db.initiate(|_| Ok(())).unwrap();
    db.begin(c).unwrap();
    assert!(db.commit(c).unwrap());
}

#[test]
fn unknown_tid_errors() {
    let db = db();
    assert!(matches!(
        db.commit(Tid(999)),
        Err(AssetError::TxnNotFound(_))
    ));
    assert!(matches!(
        db.begin(Tid(999)),
        Err(AssetError::TxnNotFound(_))
    ));
    assert!(matches!(
        db.status(Tid(999)),
        Err(AssetError::TxnNotFound(_))
    ));
}

#[test]
fn begin_twice_is_invalid() {
    let db = db();
    let t = db.initiate(|_| Ok(())).unwrap();
    db.begin(t).unwrap();
    let err = db.begin(t).unwrap_err();
    assert!(matches!(err, AssetError::InvalidState { op: "begin", .. }));
}

// --- dependencies ---------------------------------------------------------

#[test]
fn commit_dependency_orders_commits() {
    let db = db();
    let t1 = db.initiate(|_| Ok(())).unwrap();
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.form_dependency(DepType::CD, t1, t2).unwrap(); // t2 after t1
    db.begin_many(&[t1, t2]).unwrap();
    db.wait(t2).unwrap();

    // t2's commit blocks until t1 terminates
    let db2 = db.clone();
    let committed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&committed);
    let h = std::thread::spawn(move || {
        assert!(db2.commit(t2).unwrap());
        flag.store(true, Ordering::SeqCst);
    });
    wait_until("t2's commit reaches its gate", || {
        db.status(t2).unwrap() == TxnStatus::Committing
    });
    assert!(!committed.load(Ordering::SeqCst), "t2 gated by CD");
    assert!(db.commit(t1).unwrap());
    h.join().unwrap();
    assert!(committed.load(Ordering::SeqCst));
}

#[test]
fn commit_dependency_survives_dependee_abort() {
    let db = db();
    let t1 = db.initiate(|_| Ok(())).unwrap();
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.form_dependency(DepType::CD, t1, t2).unwrap();
    db.begin_many(&[t1, t2]).unwrap();
    db.wait(t1).unwrap();
    db.wait(t2).unwrap();
    db.abort(t1).unwrap();
    assert!(db.commit(t2).unwrap(), "CD allows commit after ti aborts");
}

#[test]
fn abort_dependency_propagates() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t1 = db.initiate(|_| Ok(())).unwrap();
    let t2 = db
        .initiate(move |ctx| ctx.write(oid, b"by-t2".to_vec()))
        .unwrap();
    db.form_dependency(DepType::AD, t1, t2).unwrap(); // t1 aborts → t2 aborts
    db.begin_many(&[t1, t2]).unwrap();
    db.wait(t1).unwrap();
    db.wait(t2).unwrap();
    db.abort(t1).unwrap();
    assert_eq!(db.status(t2).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig", "t2's write undone");
    assert!(!db.commit(t2).unwrap());
}

#[test]
fn abort_dependency_chain() {
    let db = db();
    let ts: Vec<Tid> = (0..4).map(|_| db.initiate(|_| Ok(())).unwrap()).collect();
    for w in ts.windows(2) {
        db.form_dependency(DepType::AD, w[0], w[1]).unwrap();
    }
    db.begin_many(&ts).unwrap();
    for t in &ts {
        db.wait(*t).unwrap();
    }
    db.abort(ts[0]).unwrap();
    for t in &ts {
        assert_eq!(db.status(*t).unwrap(), TxnStatus::Aborted, "{t} in chain");
    }
}

#[test]
fn group_commit_commits_together() {
    let db = db();
    let a = seed(&db, b"0");
    let b = seed(&db, b"0");
    let t1 = db.initiate(move |ctx| ctx.write(a, b"1".to_vec())).unwrap();
    let t2 = db.initiate(move |ctx| ctx.write(b, b"2".to_vec())).unwrap();
    db.form_dependency(DepType::GC, t1, t2).unwrap();
    db.begin_many(&[t1, t2]).unwrap();
    // committing t1 commits the whole group (after t2 completes)
    assert!(db.commit(t1).unwrap());
    assert_eq!(db.status(t2).unwrap(), TxnStatus::Committed);
    assert!(db.commit(t2).unwrap(), "later commit returns 1");
    assert_eq!(db.peek(a).unwrap().unwrap(), b"1");
    assert_eq!(db.peek(b).unwrap().unwrap(), b"2");
}

#[test]
fn group_abort_aborts_all() {
    let db = db();
    let a = seed(&db, b"0");
    let t1 = db.initiate(move |ctx| ctx.write(a, b"1".to_vec())).unwrap();
    let t2 = db
        .initiate(|ctx| ctx.abort_self::<()>().map(|_| ()))
        .unwrap();
    db.form_dependency(DepType::GC, t1, t2).unwrap();
    db.begin_many(&[t1, t2]).unwrap();
    assert!(
        !db.commit(t1).unwrap(),
        "group member aborted → group aborts"
    );
    assert_eq!(db.status(t1).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(a).unwrap().unwrap(), b"0");
}

#[test]
fn dependency_cycle_rejected() {
    let db = db();
    let t1 = db.initiate(|_| Ok(())).unwrap();
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.form_dependency(DepType::CD, t1, t2).unwrap();
    let err = db.form_dependency(DepType::AD, t2, t1).unwrap_err();
    assert!(matches!(err, AssetError::DependencyCycle { .. }));
}

// --- permits & delegation --------------------------------------------------

#[test]
fn permit_allows_conflicting_access() {
    let db = db();
    let oid = seed(&db, b"v0");
    let holder = db
        .initiate(move |ctx| ctx.write(oid, b"v1".to_vec()))
        .unwrap();
    db.begin(holder).unwrap();
    db.wait(holder).unwrap();
    // holder is completed, uncommitted, holding the write lock
    db.permit(holder, None, ObSet::one(oid), OpSet::READ)
        .unwrap();
    let seen: Arc<asset_common::sync::Mutex<Vec<u8>>> =
        Arc::new(asset_common::sync::Mutex::new(vec![]));
    let s2 = Arc::clone(&seen);
    let reader = db
        .initiate(move |ctx| {
            *s2.lock() = ctx.read(oid)?.unwrap();
            Ok(())
        })
        .unwrap();
    db.begin(reader).unwrap();
    assert!(db.commit(reader).unwrap());
    assert_eq!(*seen.lock(), b"v1", "dirty read via permit — by design");
    db.commit(holder).unwrap();
}

/// A permit whose grantor or named grantee has ended would never be
/// released: the release that drops a party's PDs has run. It is refused,
/// from the fate, and a hundred transactions later the table is empty.
#[test]
fn a_permit_from_or_to_an_ended_transaction_is_refused() {
    let db = db();
    let oid = seed(&db, b"v0");
    let t = db
        .initiate(move |ctx| ctx.write(oid, b"v1".to_vec()))
        .unwrap();
    db.begin(t).unwrap();
    assert!(db.commit(t).unwrap());
    let aborted = db.initiate(|_| Ok(())).unwrap();
    assert!(db.abort(aborted).unwrap());
    let live = db.initiate(|_| Ok(())).unwrap();
    let refused = |r: asset_common::Result<()>, ended: Tid| matches!(r, Err(AssetError::InvalidState { tid, op: "permit", .. }) if tid == ended);
    assert!(refused(db.permit(t, None, ObSet::All, OpSet::ALL), t));
    assert!(refused(
        db.permit(live, Some(t), ObSet::one(oid), OpSet::READ),
        t
    ));
    assert!(refused(db.permit_accessed(t, None, OpSet::ALL), t));
    assert!(refused(
        db.permit(aborted, Some(live), ObSet::All, OpSet::ALL),
        aborted
    ));
    assert!(refused(
        db.permit_accessed(live, Some(aborted), OpSet::ALL),
        aborted
    ));
    for _ in 0..100 {
        assert!(db.run(move |ctx| ctx.write(oid, b"v".to_vec())).unwrap());
    }
    assert_eq!(db.introspect().permits, 0);
    // a live pair still may, and the grantor's end drops the PD
    db.permit(live, None, ObSet::All, OpSet::ALL).unwrap();
    assert_eq!(db.introspect().permits, 1);
    assert!(db.abort(live).unwrap());
    assert_eq!(db.introspect().permits, 0);
}

#[test]
fn delegation_moves_responsibility_for_undo_and_commit() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t1 = db
        .initiate(move |ctx| ctx.write(oid, b"t1-write".to_vec()))
        .unwrap();
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.begin(t1).unwrap();
    db.wait(t1).unwrap();
    db.delegate(t1, t2, None).unwrap();
    // t1 aborts — but it delegated everything, so nothing is undone
    db.abort(t1).unwrap();
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"t1-write");
    // t2 commits the delegated work
    db.begin(t2).unwrap();
    assert!(db.commit(t2).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"t1-write");
}

#[test]
fn delegated_work_dies_with_delegatee() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t1 = db
        .initiate(move |ctx| ctx.write(oid, b"t1-write".to_vec()))
        .unwrap();
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.begin(t1).unwrap();
    db.wait(t1).unwrap();
    db.delegate(t1, t2, None).unwrap();
    db.commit(t1).unwrap(); // commits nothing of substance
    db.begin(t2).unwrap();
    db.wait(t2).unwrap();
    db.abort(t2).unwrap();
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig", "undo moved to t2");
}

#[test]
fn partial_delegation_by_object_set() {
    let db = db();
    let a = seed(&db, b"a0");
    let b = seed(&db, b"b0");
    let t1 = db
        .initiate(move |ctx| {
            ctx.write(a, b"a1".to_vec())?;
            ctx.write(b, b"b1".to_vec())
        })
        .unwrap();
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.begin(t1).unwrap();
    db.wait(t1).unwrap();
    db.delegate(t1, t2, Some(ObSet::one(a))).unwrap();
    // t1 aborts: only its remaining object (b) is undone
    db.abort(t1).unwrap();
    assert_eq!(db.peek(a).unwrap().unwrap(), b"a1");
    assert_eq!(db.peek(b).unwrap().unwrap(), b"b0");
    db.begin(t2).unwrap();
    assert!(db.commit(t2).unwrap());
    assert_eq!(db.peek(a).unwrap().unwrap(), b"a1");
}

#[test]
fn delegate_to_initiated_transaction_before_begin() {
    // the paper's motivation for separating initiate from begin
    let db = db();
    let oid = seed(&db, b"orig");
    let t2 = db
        .initiate(move |ctx| {
            // sees the delegated lock as its own: can update without conflict
            ctx.write(oid, b"t2-continues".to_vec())
        })
        .unwrap();
    let t1 = db
        .initiate(move |ctx| {
            ctx.write(oid, b"t1-started".to_vec())?;
            ctx.delegate_to(t2)
        })
        .unwrap();
    db.begin(t1).unwrap();
    db.wait(t1).unwrap();
    db.commit(t1).unwrap();
    db.begin(t2).unwrap();
    assert!(db.commit(t2).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"t2-continues");
}

// --- concurrency & isolation ------------------------------------------------

#[test]
fn serialized_increments_are_lost_update_free() {
    let db = db();
    let oid = seed(&db, &0u64.to_le_bytes());
    let mut tids = vec![];
    for _ in 0..8 {
        let t = db
            .initiate(move |ctx| {
                for _ in 0..10 {
                    ctx.update(oid, |cur| {
                        let v = u64::from_le_bytes(cur.unwrap().try_into().unwrap());
                        (v + 1).to_le_bytes().to_vec()
                    })?;
                }
                Ok(())
            })
            .unwrap();
        tids.push(t);
    }
    // serialized by write locks: each txn holds the lock until commit, so
    // begin+commit them one by one (a concurrent variant lives in the
    // workspace integration tests)
    for t in &tids {
        db.begin(*t).unwrap();
        assert!(db.commit(*t).unwrap());
    }
    let v = u64::from_le_bytes(db.peek(oid).unwrap().unwrap().try_into().unwrap());
    assert_eq!(v, 80);
}

#[test]
fn concurrent_disjoint_transactions_commit() {
    let db = db();
    let oids: Vec<Oid> = (0..16)
        .map(|i| seed(&db, format!("{i}").as_bytes()))
        .collect();
    let tids: Vec<Tid> = oids
        .iter()
        .map(|&oid| {
            db.initiate(move |ctx| ctx.write(oid, b"done".to_vec()))
                .unwrap()
        })
        .collect();
    db.begin_many(&tids).unwrap();
    for t in &tids {
        assert!(db.commit(*t).unwrap());
    }
    for oid in &oids {
        assert_eq!(db.peek(*oid).unwrap().unwrap(), b"done");
    }
}

#[test]
fn deadlock_victim_aborts_other_proceeds() {
    let db = db();
    let a = seed(&db, b"a");
    let b = seed(&db, b"b");
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let (ba, bb) = (Arc::clone(&barrier), Arc::clone(&barrier));
    let t1 = db
        .initiate(move |ctx| {
            ctx.write(a, b"t1".to_vec())?;
            ba.wait();
            ctx.write(b, b"t1".to_vec())
        })
        .unwrap();
    let t2 = db
        .initiate(move |ctx| {
            ctx.write(b, b"t2".to_vec())?;
            bb.wait();
            ctx.write(a, b"t2".to_vec())
        })
        .unwrap();
    db.begin_many(&[t1, t2]).unwrap();
    let r1 = db.commit(t1).unwrap();
    let r2 = db.commit(t2).unwrap();
    assert!(
        r1 ^ r2,
        "exactly one of the deadlocked pair commits: {r1} {r2}"
    );
}

#[test]
fn aborting_a_blocked_transaction_unblocks_it() {
    let db = db();
    let oid = seed(&db, b"v");
    let (held_tx, held) = std::sync::mpsc::channel();
    let (release, release_rx) = std::sync::mpsc::channel::<()>();
    let holder = db
        .initiate(move |ctx| {
            ctx.write(oid, b"held".to_vec())?;
            held_tx.send(()).unwrap();
            // a timeout, not a sleep: it runs out only if the test is stuck
            let _ = release_rx.recv_timeout(Duration::from_secs(30));
            Ok(())
        })
        .unwrap();
    db.begin(holder).unwrap();
    held.recv().unwrap();
    let waiter = db
        .initiate(move |ctx| ctx.write(oid, b"waiter".to_vec()))
        .unwrap();
    db.begin(waiter).unwrap();
    wait_until("the waiter is queued on the holder's lock", || {
        db.locks().pending(oid).iter().any(|p| p.tid == waiter)
    });
    // waiter is blocked on the lock; abort must wake and kill it promptly
    let start = std::time::Instant::now();
    db.abort(waiter).unwrap();
    assert!(!db.commit(waiter).unwrap());
    assert!(
        start.elapsed() < Duration::from_millis(400),
        "no timeout wait"
    );
    release.send(()).unwrap();
    assert!(db.commit(holder).unwrap());
}

// --- recovery ----------------------------------------------------------------

#[test]
fn committed_work_survives_crash() {
    let dir = TempDir::new("core-rec");
    let config = asset_common::Config::on_disk(&*dir);
    let oid;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        oid = db.new_oid();
        let o = oid;
        assert!(db
            .run(move |ctx| ctx.write(o, b"committed".to_vec()))
            .unwrap());
        // uncommitted overwrite by another transaction, left in flight
        let t = db
            .initiate(move |ctx| ctx.write(o, b"in-flight".to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        // crash: drop the db without committing/aborting t
    }
    let (db, report) = Database::open(config).unwrap();
    assert_eq!(report.winners, 1);
    assert!(report.losers >= 1);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"committed");
    // new tids don't collide with logged ones
    let t = db.initiate(|_| Ok(())).unwrap();
    assert!(t.raw() > report.max_tid);
}

/// Which transactions a checkpoint runs beside: only those that append
/// nothing while it holds the table. A running body writes; an `Aborting`
/// one still has its rollback — its CLRs and its `Abort` record — to
/// append with no table shard held, and a record appended between the
/// checkpoint's fold and its rewrite would be lost. Every other state
/// appends only under a shard the checkpoint holds. (The `Aborting` row
/// failed when log compaction was a routine of its own.)
#[test]
fn checkpoint_admits_only_transactions_that_cannot_append() {
    use TxnStatus::*;
    for (state, admitted) in [
        (Initiated, true),
        (Running, false),
        (Completed, true),
        (Aborting, false),
        (Prepared, true),
        (Committed, true),
    ] {
        let db = db();
        let x = seed(&db, b"x0");
        let gate = Arc::new(AtomicBool::new(!matches!(state, Running | Aborting)));
        let (wrote, written) = std::sync::mpsc::channel();
        let g = Arc::clone(&gate);
        let t = db
            .initiate(move |ctx| {
                ctx.write(x, b"x1".to_vec())?;
                let _ = wrote.send(());
                while !g.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(())
            })
            .unwrap();
        if state != Initiated {
            db.begin(t).unwrap();
            written.recv().unwrap();
        }
        match state {
            Completed => assert!(db.wait(t).unwrap()),
            Aborting => assert!(db.abort(t).unwrap()),
            Prepared => {
                assert!(db.wait(t).unwrap());
                db.prepare_group(&[t]).unwrap();
            }
            Committed => assert!(db.commit(t).unwrap()),
            _ => {}
        }
        assert_eq!(db.status(t).unwrap(), state);
        match db.checkpoint() {
            Ok(()) => assert!(admitted, "[{state:?}] admitted"),
            Err(e) => assert!(
                !admitted
                    && matches!(
                        e,
                        AssetError::InvalidState {
                            op: "checkpoint",
                            ..
                        }
                    ),
                "[{state:?}] {e}"
            ),
        }
        // the transaction ends as it would have, and a checkpoint follows
        gate.store(true, Ordering::SeqCst);
        if state == Initiated {
            db.begin(t).unwrap();
        }
        match state {
            Prepared => db.decide_commit_group(&[t]).unwrap(),
            Aborting => wait_until("the rollback ends", || db.status(t).unwrap() == Aborted),
            _ => assert!(db.commit(t).unwrap()),
        }
        db.checkpoint().unwrap();
        let expect: &[u8] = if state == Aborting { b"x0" } else { b"x1" };
        assert_eq!(db.peek(x).unwrap().unwrap(), expect, "[{state:?}]");
    }
}

#[test]
fn run_helper_reports_abort() {
    let db = db();
    let committed = db.run(|ctx| ctx.abort_self::<()>().map(|_| ())).unwrap();
    assert!(!committed);
}

#[test]
fn checkpoint_drops_settled_history() {
    let db = db();
    let oid = seed(&db, b"v0");
    // a pile of committed history
    for i in 0..50u8 {
        assert!(db.run(move |ctx| ctx.write(oid, vec![i])).unwrap());
    }
    // one long-lived transaction, completed but uncommitted
    let live_oid = seed(&db, b"live0");
    let t = db
        .initiate(move |ctx| ctx.write(live_oid, b"live1".to_vec()))
        .unwrap();
    db.begin(t).unwrap();
    db.wait(t).unwrap();

    assert!(db.engine().log().scan().unwrap().len() > 50);
    db.checkpoint().unwrap();
    let kinds: Vec<_> = db.engine().log().scan().unwrap();
    let kinds: Vec<_> = kinds.iter().map(|(_, r)| r.name()).collect();
    assert_eq!(
        kinds,
        ["checkpoint", "update"],
        "the marker, 1 pending update"
    );

    // the live transaction still commits
    assert!(db.commit(t).unwrap());
    assert_eq!(db.peek(live_oid).unwrap().unwrap(), b"live1");
    assert_eq!(db.peek(oid).unwrap().unwrap(), vec![49]);
}

#[test]
fn checkpoint_preserves_live_undo_across_crash() {
    let dir = TempDir::new("compact");
    let config = asset_common::Config::on_disk(&*dir);
    let (live_oid, settled_oid);
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        settled_oid = db.new_oid();
        let s = settled_oid;
        assert!(db
            .run(move |ctx| ctx.write(s, b"settled".to_vec()))
            .unwrap());
        live_oid = db.new_oid();
        let l = live_oid;
        // live txn overwrites the settled object, then a checkpoint
        let t = db
            .initiate(move |ctx| {
                ctx.write(s, b"live-overwrite".to_vec())?;
                ctx.write(l, b"live-new".to_vec())
            })
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        db.checkpoint().unwrap();
        // crash without committing t
    }
    let (db, report) = Database::open(config).unwrap();
    assert!(report.losers >= 1, "the live txn is a loser");
    assert_eq!(
        db.peek(settled_oid).unwrap().unwrap(),
        b"settled",
        "before image survived the checkpoint and undid the live write"
    );
    assert_eq!(db.peek(live_oid).unwrap(), None);
}

#[test]
fn checkpoint_folds_delegation_into_ownership() {
    let db = db();
    let oid = seed(&db, b"orig");
    let receiver = db.initiate(|_| Ok(())).unwrap();
    let worker = db
        .initiate(move |ctx| ctx.write(oid, b"worked".to_vec()))
        .unwrap();
    db.begin(worker).unwrap();
    db.wait(worker).unwrap();
    db.delegate(worker, receiver, None).unwrap();
    db.commit(worker).unwrap();

    db.checkpoint().unwrap();
    let records = db.engine().log().scan().unwrap();
    // checkpoint + 1 update, under the receiver
    assert_eq!(records.len(), 2);
    let owners: Vec<Tid> = records
        .iter()
        .filter_map(|(_, r)| match r {
            asset_storage::LogRecord::Update { tid, .. } => Some(*tid),
            _ => None,
        })
        .collect();
    assert_eq!(
        owners,
        vec![receiver],
        "update re-attributed to the delegatee"
    );

    // and the delegated work still commits durably
    db.begin(receiver).unwrap();
    assert!(db.commit(receiver).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"worked");
}

#[test]
fn status_query_primitives() {
    let db = db();
    let t = db.initiate(|_| Ok(())).unwrap();
    assert!(!db.is_active(t).unwrap(), "initiated is not active");
    db.begin(t).unwrap();
    db.wait(t).unwrap();
    assert!(db.is_active(t).unwrap(), "completed is still active");
    assert!(!db.is_committed(t).unwrap());
    assert!(!db.is_aborted(t).unwrap());
    db.commit(t).unwrap();
    assert!(db.is_committed(t).unwrap());
    assert!(!db.is_active(t).unwrap());

    let a = db.initiate(|_| Ok(())).unwrap();
    db.abort(a).unwrap();
    assert!(db.is_aborted(a).unwrap());
}

#[test]
fn explicit_lock_primitives() {
    let db = db();
    let oid = seed(&db, b"v");
    // two txns race a read-check-write; with lock_exclusive up front there
    // is no upgrade deadlock — both commit, serialized
    let mut tids = vec![];
    for i in 0..2u8 {
        let t = db
            .initiate(move |ctx| {
                ctx.lock_exclusive(oid)?;
                let mut v = ctx.read(oid)?.unwrap();
                v.push(i);
                ctx.write(oid, v)
            })
            .unwrap();
        tids.push(t);
    }
    db.begin_many(&tids).unwrap();
    // commit from two threads: whichever transaction lost the race for the
    // lock completes only once the winner's commit releases it
    std::thread::scope(|s| {
        for t in &tids {
            s.spawn(|| assert!(db.commit(*t).unwrap()));
        }
    });
    assert_eq!(
        db.peek(oid).unwrap().unwrap().len(),
        3,
        "both appends landed"
    );

    // lock_shared allows concurrent readers
    let t1 = db
        .initiate(move |ctx| {
            ctx.lock_shared(oid)?;
            Ok(())
        })
        .unwrap();
    let t2 = db
        .initiate(move |ctx| {
            ctx.lock_shared(oid)?;
            Ok(())
        })
        .unwrap();
    db.begin_many(&[t1, t2]).unwrap();
    assert!(db.commit(t1).unwrap());
    assert!(db.commit(t2).unwrap());
}

#[test]
fn permit_accessed_materializes_paper_form() {
    // the paper's permit(ti, tj, operations): object set computed at call
    // time from ti's accessed objects
    let db = db();
    let a = seed(&db, b"a");
    let b = seed(&db, b"b");
    let holder = db
        .initiate(move |ctx| {
            ctx.write(a, b"ha".to_vec())?;
            ctx.write(b, b"hb".to_vec())
        })
        .unwrap();
    db.begin(holder).unwrap();
    db.wait(holder).unwrap();
    db.permit_accessed(holder, None, OpSet::READ).unwrap();
    // any transaction may now read both accessed objects, dirty
    assert!(db
        .run(move |ctx| {
            assert_eq!(ctx.read(a)?.unwrap(), b"ha");
            assert_eq!(ctx.read(b)?.unwrap(), b"hb");
            Ok(())
        })
        .unwrap());
    // but not write them
    let db2 = Database::open(
        asset_common::Config::in_memory().with_lock_timeout(Some(Duration::from_millis(50))),
    )
    .unwrap()
    .0;
    let _ = db2; // (writes tested against the same db with short-lived txn)
    let t = db
        .initiate(move |ctx| ctx.write(a, b"nope".to_vec()))
        .unwrap();
    db.begin(t).unwrap();
    wait_until("the writer is queued on the holder's lock", || {
        db.locks().pending(a).iter().any(|p| p.tid == t)
    });
    assert_eq!(
        db.status(t).unwrap(),
        TxnStatus::Running,
        "writer still blocked"
    );
    db.abort(t).unwrap();
    db.commit(holder).unwrap();
}

#[test]
fn delegation_into_gc_group_commits_atomically() {
    // delegated work + group commit compose: the receiver is half of a GC
    // pair; the delegated update becomes durable exactly when the group
    // commits
    let db = db();
    let oid = seed(&db, b"orig");
    let receiver = db.initiate(|_| Ok(())).unwrap();
    let partner = db.initiate(|_| Ok(())).unwrap();
    db.form_dependency(DepType::GC, receiver, partner).unwrap();
    let worker = db
        .initiate(move |ctx| {
            ctx.write(oid, b"delegated".to_vec())?;
            ctx.delegate_to(receiver)
        })
        .unwrap();
    db.begin(worker).unwrap();
    db.wait(worker).unwrap();
    db.commit(worker).unwrap();
    db.begin_many(&[receiver, partner]).unwrap();
    assert!(db.commit(partner).unwrap(), "commit via the partner");
    assert_eq!(db.status(receiver).unwrap(), TxnStatus::Committed);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"delegated");
}

#[test]
fn clr_protocol_keeps_later_commits_after_runtime_abort() {
    // end-to-end regression for the CLR design (see DESIGN.md): abort,
    // then commit an overwrite, then crash — the overwrite must survive
    let dir = TempDir::new("clr");
    let config = asset_common::Config::on_disk(&*dir);
    let oid;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        oid = db.new_oid();
        let o = oid;
        assert!(db.run(move |ctx| ctx.write(o, b"v0".to_vec())).unwrap());
        // t1 writes and aborts
        let t1 = db
            .initiate(move |ctx| ctx.write(o, b"t1".to_vec()))
            .unwrap();
        db.begin(t1).unwrap();
        db.wait(t1).unwrap();
        db.abort(t1).unwrap();
        // t2 commits an overwrite afterwards
        assert!(db
            .run(move |ctx| ctx.write(o, b"t2-final".to_vec()))
            .unwrap());
        db.engine().log().flush().unwrap();
    }
    let (db, _) = Database::open(config).unwrap();
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"t2-final");
}

/// `introspect` counts live transactions by status; what has terminated
/// is counted by `metrics_snapshot`.
#[test]
fn introspect_counts_live_transactions_by_status() {
    let db = db();
    let oid = seed(&db, b"x");
    let t = db
        .initiate(move |ctx| ctx.write(oid, b"y".to_vec()))
        .unwrap();
    let by_status = |i: Introspection| (i.live, i.initiated, i.running, i.completed);
    assert_eq!(by_status(db.introspect()), (1, 1, 0, 0));
    db.begin(t).unwrap();
    db.wait(t).unwrap();
    assert_eq!(by_status(db.introspect()), (1, 0, 0, 1));
    db.commit(t).unwrap();
    assert_eq!(by_status(db.introspect()), (0, 0, 0, 0));
    let c = db.metrics_snapshot().counters;
    assert_eq!(c.txn_committed, 2, "seed txn + t");
    assert!(c.lock_grants >= 2, "seed + txn writes took locks");
}

// --- distributed commit participant (§14) ------------------------------------

/// Two completed transactions in one GC group, ready to prepare.
fn completed_pair(db: &Database) -> (Tid, Tid, Oid, Oid) {
    let (a, b) = (db.new_oid(), db.new_oid());
    let t1 = db
        .initiate(move |ctx| ctx.write(a, b"one".to_vec()))
        .unwrap();
    let t2 = db
        .initiate(move |ctx| ctx.write(b, b"two".to_vec()))
        .unwrap();
    db.form_dependency(DepType::GC, t1, t2).unwrap();
    db.begin_many(&[t1, t2]).unwrap();
    assert!(db.wait(t1).unwrap());
    assert!(db.wait(t2).unwrap());
    (t1, t2, a, b)
}

#[test]
fn prepare_then_decide_commit() {
    let db = db();
    let (t1, t2, a, b) = completed_pair(&db);
    let group = db.prepare_group(&[t1]).unwrap();
    assert_eq!(
        group
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>(),
        [t1, t2].into_iter().collect()
    );
    assert_eq!(db.status(t1).unwrap(), TxnStatus::Prepared);
    assert_eq!(db.status(t2).unwrap(), TxnStatus::Prepared);
    // a prepared participant's fate belongs to the coordinator
    assert!(matches!(
        db.commit(t1),
        Err(AssetError::InvalidState { op: "commit", .. })
    ));
    // idempotent re-prepare
    assert_eq!(db.prepare_group(&[t2]).unwrap().len(), 2);
    db.decide_commit_group(&group).unwrap();
    assert_eq!(db.status(t1).unwrap(), TxnStatus::Committed);
    assert_eq!(db.status(t2).unwrap(), TxnStatus::Committed);
    assert_eq!(db.peek(a).unwrap().unwrap(), b"one");
    assert_eq!(db.peek(b).unwrap().unwrap(), b"two");
    // idempotent re-decide
    db.decide_commit_group(&group).unwrap();
}

#[test]
fn prepare_then_decide_abort() {
    let db = db();
    let (t1, t2, a, b) = completed_pair(&db);
    let group = db.prepare_group(&[t1]).unwrap();
    db.decide_abort_group(&group).unwrap();
    assert_eq!(db.status(t1).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.status(t2).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(a).unwrap(), None, "creation rolled back");
    assert_eq!(db.peek(b).unwrap(), None);
    // idempotent re-decide
    db.decide_abort_group(&group).unwrap();
}

#[test]
fn prepared_locks_stay_held_until_decision() {
    let db = Database::open(
        asset_common::Config::in_memory().with_lock_timeout(Some(Duration::from_millis(50))),
    )
    .unwrap()
    .0;
    let oid = seed(&db, b"orig");
    let t = db
        .initiate(move |ctx| ctx.write(oid, b"prepared".to_vec()))
        .unwrap();
    db.begin(t).unwrap();
    db.wait(t).unwrap();
    let group = db.prepare_group(&[t]).unwrap();
    // the X lock is retained: a conflicting writer times out
    let blocked = db
        .run(move |ctx| ctx.write(oid, b"blocked".to_vec()))
        .unwrap();
    assert!(!blocked, "conflicting writer must abort on lock timeout");
    db.decide_commit_group(&group).unwrap();
    // decision releases the lock
    assert!(db
        .run(move |ctx| ctx.write(oid, b"after".to_vec()))
        .unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"after");
}

#[test]
fn prepare_votes_no_on_aborted_member() {
    let db = db();
    let (t1, t2, _, _) = completed_pair(&db);
    db.abort(t2).unwrap();
    let err = db.prepare_group(&[t1]).unwrap_err();
    assert!(matches!(err, AssetError::TxnAborted(_)));
    // the vote-no aborted the group locally
    assert_eq!(db.status(t1).unwrap(), TxnStatus::Aborted);
}

#[test]
fn decide_commit_rejects_unprepared_members() {
    let db = db();
    let (t1, _, _, _) = completed_pair(&db);
    // never prepared: decide must refuse rather than invent a commit
    let err = db.decide_commit_group(&[t1]).unwrap_err();
    assert!(matches!(
        err,
        AssetError::InvalidState {
            op: "decide-commit",
            ..
        }
    ));
}

#[test]
fn prepared_survives_crash_and_commits_after_restart() {
    let dir = TempDir::new("core-prep-commit");
    let config =
        asset_common::Config::on_disk(&*dir).with_lock_timeout(Some(Duration::from_millis(50)));
    let (oid, group, settled) = {
        let (db, _) = Database::open(config.clone()).unwrap();
        let oid = seed(&db, b"orig");
        let t = db
            .initiate(move |ctx| ctx.write(oid, b"prepared".to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        let group = db.prepare_group(&[t]).unwrap();
        // a later tid that settles before the crash, so not in doubt
        let other = db.new_oid();
        let settled = db
            .initiate(move |ctx| ctx.write(other, b"settled".to_vec()))
            .unwrap();
        db.begin(settled).unwrap();
        assert!(db.commit(settled).unwrap());
        (oid, group, settled)
        // crash: drop the db with the group prepared, no decision
    };
    let (db, report) = Database::open(config.clone()).unwrap();
    assert_eq!(
        report.in_doubt.len(),
        1,
        "recovery surfaces the in-doubt group"
    );
    assert_eq!(db.in_doubt_transactions(), group);
    // still undecided: the restored participant holds its X lock
    let blocked = db
        .run(move |ctx| ctx.write(oid, b"blocked".to_vec()))
        .unwrap();
    assert!(!blocked, "in-doubt lock must still be held after restart");
    // local commit still refused
    assert!(db.commit(group[0]).is_err());
    // the coordinator's decision arrives: commit
    db.decide_commit_group(&group).unwrap();
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"prepared");
    // the restored tid, below this open's first, ended with its TD: its
    // fate still answers, and a redelivered decision is "already decided"
    assert_eq!(table_tids(&db), Default::default());
    assert_eq!(db.status(group[0]).unwrap(), TxnStatus::Committed);
    db.decide_commit_group(&group).unwrap();
    // ...but not its parent: an ended TD keeps only its fate
    assert!(matches!(
        db.parent_of(group[0]),
        Err(AssetError::TxnNotFound(_))
    ));
    // a pre-restart tid that was not in doubt is unknown, as it was
    assert!(settled > group[0]);
    assert!(matches!(
        db.status(settled),
        Err(AssetError::TxnNotFound(_))
    ));
    assert!(
        db.initiate(|_| Ok(())).unwrap() > settled,
        "this open's first tid"
    );
    drop(db);
    // a second restart finds nothing in doubt
    let (db, report) = Database::open(config).unwrap();
    assert!(report.in_doubt.is_empty());
    assert!(db.in_doubt_transactions().is_empty());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"prepared");
}

#[test]
fn prepared_survives_crash_and_aborts_after_restart() {
    let dir = TempDir::new("core-prep-abort");
    let config = asset_common::Config::on_disk(&*dir);
    let (oid, group) = {
        let (db, _) = Database::open(config.clone()).unwrap();
        let oid = seed(&db, b"orig");
        let t = db
            .initiate(move |ctx| ctx.write(oid, b"prepared".to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        let group = db.prepare_group(&[t]).unwrap();
        (oid, group)
    };
    let (db, report) = Database::open(config.clone()).unwrap();
    assert_eq!(report.in_doubt.len(), 1);
    // the coordinator's decision arrives: abort — the restored undo chain
    // rolls the update back
    db.decide_abort_group(&group).unwrap();
    assert_eq!(db.status(group[0]).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
    drop(db);
    let (db, report) = Database::open(config).unwrap();
    assert!(report.in_doubt.is_empty());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
}

#[test]
fn in_doubt_group_restores_its_gc_links() {
    let dir = TempDir::new("core-prep-gc");
    let config = asset_common::Config::on_disk(&*dir);
    let (a, b, group) = {
        let (db, _) = Database::open(config.clone()).unwrap();
        let (t1, t2, a, b) = completed_pair(&db);
        let group = db.prepare_group(&[t1]).unwrap();
        assert_eq!(group.len(), 2);
        let _ = t2;
        (a, b, group)
    };
    let (db, report) = Database::open(config).unwrap();
    assert_eq!(report.in_doubt.len(), 2);
    for d in &report.in_doubt {
        assert_eq!(d.group.len(), 2, "each member knows its full group");
    }
    // one decision resolves the whole restored group, atomically
    db.decide_commit_group(&group).unwrap();
    assert_eq!(db.peek(a).unwrap().unwrap(), b"one");
    assert_eq!(db.peek(b).unwrap().unwrap(), b"two");
}

// --- one record per transaction: fates live in the TD ---------------------

/// A transaction that wrote `bytes` to a fresh object and completed.
fn completed_writer(db: &Database, bytes: &'static [u8]) -> (Tid, Oid) {
    let oid = db.new_oid();
    let t = db.initiate(move |ctx| ctx.write(oid, bytes.to_vec()));
    let t = t.unwrap();
    db.begin(t).unwrap();
    assert!(db.wait(t).unwrap());
    (t, oid)
}

/// Run `a` on a spawned thread and `b` on this one, released together by
/// a barrier; nothing sleeps.
fn race<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    let go = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            go.wait();
            a()
        });
        go.wait();
        let b = b();
        (a.join().unwrap(), b)
    })
}

/// A prepared participant's fate is the coordinator's (DESIGN.md §14.2):
/// no local primitive may resolve it or bind it to another transaction's
/// fate. Each row is refused with `InvalidState`; the commit decision
/// then applies the prepared write whatever `x` does.
#[test]
fn a_prepared_participant_cannot_be_resolved_locally() {
    type Row = fn(&Database, Tid, Tid) -> asset_common::Result<()>;
    let rows: [Row; 7] = [
        |db, p, _| db.abort(p).map(drop),
        |db, p, x| db.form_dependency(DepType::CD, x, p),
        |db, p, x| db.form_dependency(DepType::AD, x, p),
        |db, p, x| db.form_dependency(DepType::GC, x, p),
        |db, p, x| db.form_dependency(DepType::GC, p, x),
        |db, p, x| db.delegate(p, x, None),
        |db, p, x| db.delegate(x, p, None),
    ];
    for (row, op) in rows.iter().enumerate() {
        let db = db();
        let (p, oid) = completed_writer(&db, b"p");
        let x = db.initiate(|_| Ok(())).unwrap();
        let group = db.prepare_group(&[p]).unwrap();
        let refused = op(&db, p, x).unwrap_err();
        assert!(
            matches!(refused, AssetError::InvalidState { tid, status: TxnStatus::Prepared, .. } if tid == p),
            "row {row}: {refused:?}"
        );
        assert!(db.abort(x).unwrap());
        db.decide_commit_group(&group).unwrap();
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"p", "row {row}");
    }
}

/// Delegation to a terminated or aborting party, or from a terminated
/// one, is refused like one with a prepared party: no commit or abort
/// would release or undo what it received. An aborting delegator may hand
/// its locks on, but not its writes, which its abort must undo. After each
/// row, the guard holds no write and a later writer of both objects
/// commits.
#[test]
fn a_delegation_past_a_partys_fate_is_refused() {
    // (the party's status, it delegates (else it receives), it wrote its
    // guard (else only locked it), refused)
    let rows = [
        (TxnStatus::Committed, false, false, true),
        (TxnStatus::Aborted, false, false, true),
        (TxnStatus::Committed, true, false, true),
        (TxnStatus::Aborting, false, false, true),
        (TxnStatus::Aborting, true, false, false),
        (TxnStatus::Aborting, true, true, true),
    ];
    for row @ (status, delegates, wrote, refused) in rows {
        let db = db();
        let ((w, ob), guard) = (completed_writer(&db, b"w"), db.new_oid());
        let ((locked, held), (go, gate)) = (std::sync::mpsc::channel(), std::sync::mpsc::channel());
        let party = db.initiate(move |ctx| {
            if wrote {
                ctx.write(guard, b"p".to_vec())?;
            } else {
                ctx.lock_exclusive(guard)?;
            }
            locked.send(()).unwrap();
            gate.recv().map_err(|_| AssetError::TxnAborted(ctx.id()))
        });
        let party = party.unwrap();
        db.begin(party).unwrap();
        held.recv().unwrap();
        if status != TxnStatus::Committed {
            assert!(db.abort(party).unwrap(), "{row:?}: marked");
        }
        if status != TxnStatus::Aborting {
            go.send(()).unwrap();
            assert_eq!(db.commit(party).unwrap(), status == TxnStatus::Committed);
        }
        assert_eq!(db.status(party).unwrap(), status, "{row:?}");
        let (from, to) = if delegates { (party, w) } else { (w, party) };
        match db.delegate(from, to, None) {
            Err(AssetError::InvalidState { tid, status: s, .. }) => {
                assert!(refused && (tid, s) == (party, status), "{row:?}");
            }
            other => assert!(!refused && other.is_ok(), "{row:?}: {other:?}"),
        }
        let _ = go.send(());
        assert!(!db.wait(party).unwrap() || status == TxnStatus::Committed);
        assert!(db.commit(w).unwrap(), "{row:?}");
        assert_eq!(db.peek(guard).unwrap(), None, "{row:?}");
        // a lock left behind would time this writer out
        let later = db.run(move |ctx| {
            ctx.write(ob, b"l".to_vec())
                .and(ctx.write(guard, b"l".to_vec()))
        });
        assert!(later.unwrap(), "{row:?}");
    }
}

/// `form_dependency` with a terminated party resolves at once from the
/// statuses in the TDs (the graph keeps no fates): an aborted `on` dooms a
/// live AD dependent or GC partner; a committed `on`, an aborted CD `on`
/// and a terminated dependent leave nothing.
#[test]
fn a_dependency_on_a_terminated_party_resolves_at_once() {
    // (kind, the terminated party aborted (else committed), it is `ti`,
    // the live party is doomed)
    let rows = [
        (DepType::AD, true, true, true),
        (DepType::GC, true, true, true),
        (DepType::GC, true, false, true),
        (DepType::CD, true, true, false),
        (DepType::AD, false, true, false),
        (DepType::AD, true, false, false),
        (DepType::GC, false, true, false),
    ];
    for row @ (kind, aborted, first, doomed) in rows {
        let db = db();
        let [dead, live] = [(); 2].map(|_| db.initiate(|_| Ok(())).unwrap());
        if aborted {
            assert!(db.abort(dead).unwrap());
        } else {
            db.begin(dead).unwrap();
            assert!(db.commit(dead).unwrap());
        }
        let (ti, tj) = if first { (dead, live) } else { (live, dead) };
        db.form_dependency(kind, ti, tj).unwrap();
        let intro = db.introspect();
        assert!(intro.dep_edges.is_empty(), "{row:?}: {:?}", intro.dep_edges);
        assert_eq!(intro.deps.doomed, doomed as usize, "{row:?}");
        db.begin(live).unwrap();
        assert_eq!(db.commit(live).unwrap(), !doomed, "{row:?}");
        assert_eq!(db.introspect().deps.doomed, 0, "{row:?}: the doom ends");
    }
    // and a self-dependency is a cycle whatever the party's fate
    let db = db();
    let t = db.initiate(|_| Ok(())).unwrap();
    assert!(db.abort(t).unwrap());
    let res = db.form_dependency(DepType::AD, t, t);
    assert!(
        matches!(res, Err(AssetError::DependencyCycle { .. })),
        "{res:?}"
    );
}

/// `abort(t)` racing `prepare_group(&[t])`: either the abort wins and the
/// vote fails, or the vote wins and the abort is refused in the visit
/// that would claim `t` — a member that voted yes is never rolled back
/// locally (§14.2). A barrier releases the two each round; nothing sleeps.
#[test]
fn a_local_abort_racing_the_prepare_never_undoes_a_yes_vote() {
    let db = db();
    for round in 0..400 {
        let (t, oid) = completed_writer(&db, b"t");
        match race(|| db.prepare_group(&[t]), || db.abort(t)) {
            (Ok(group), Err(AssetError::InvalidState { tid, .. })) if tid == t => {
                assert_eq!(db.status(t).unwrap(), TxnStatus::Prepared, "round {round}");
                db.decide_commit_group(&group).unwrap();
                assert_eq!(db.peek(oid).unwrap().unwrap(), b"t", "round {round}");
            }
            (Err(_), Ok(true)) => {
                assert_eq!(db.status(t).unwrap(), TxnStatus::Aborted, "round {round}");
                assert_eq!(db.peek(oid).unwrap(), None, "round {round}");
            }
            other => panic!("round {round}: {other:?}"),
        }
    }
}

/// A termination drops every edge and link of the transaction, and
/// `dep_edges_resolved` counts them (`asset-dep`'s unit tests pin the
/// commit side), and the TD itself: only the fate is left.
#[test]
fn a_terminated_transaction_leaves_the_graph_and_its_slot() {
    let db = db();
    let [t1, t2, t3, t4] = [(); 4].map(|_| db.initiate(|_| Ok(())).unwrap());
    for (kind, t) in [(DepType::GC, t2), (DepType::AD, t3), (DepType::CD, t4)] {
        db.form_dependency(kind, t1, t).unwrap();
    }
    assert!(db.abort(t1).unwrap());
    assert!(db.introspect().dep_edges.is_empty());
    assert_eq!(db.metrics_snapshot().counters.dep_edges_resolved, 3);
    let aborted = [t2, t3, t4].map(|t| db.status(t).unwrap() == TxnStatus::Aborted);
    assert_eq!(aborted, [true, true, false], "GC, AD doomed; CD released");
    assert_eq!(db.status(t1).unwrap(), TxnStatus::Aborted);
    assert_eq!(table_tids(&db), [t4].into());
    assert_eq!(db.introspect().deps, asset_dep::DepSummary::default());
}

/// Random initiate / form (CD, AD, GC) / abort / begin / commit
/// schedules: after every step the dependency graph names only
/// transactions that have not terminated — it holds edges between live
/// work, nothing of history — the TD table holds exactly those, and every
/// tid still answers `status`, an ended one with its fate. Commits are
/// single non-blocking passes (a closed gate or an unfinished partner
/// answers `Wait`), and every begun body has finished before the check, so
/// no other thread moves a status.
#[test]
fn the_dependency_graph_names_only_live_transactions() {
    asset_faults::cases(0x0DE9_0005, 32, |rng| {
        let db = db();
        let mut ts: Vec<Tid> = vec![db.initiate(|_| Ok(())).unwrap()];
        for _ in 0..rng.below(60) {
            let t = *rng.pick(&ts);
            match rng.below(5) {
                0 => ts.push(db.initiate(|_| Ok(())).unwrap()),
                1 => {
                    let kind = *rng.pick(&[DepType::CD, DepType::AD, DepType::GC]);
                    let _ = db.form_dependency(kind, t, *rng.pick(&ts)); // may be a cycle
                }
                2 => assert!(db.abort(t).is_ok()),
                3 => {
                    if db.begin(t).is_ok() {
                        db.wait(t).unwrap(); // `false` if doomed before it began
                    }
                }
                _ => drop(db.commit_pass(t).unwrap()),
            }
            for (_, a, b) in db.introspect().dep_edges {
                for t in [a, b] {
                    assert!(!db.status(t).unwrap().is_terminated(), "{t} in the graph");
                }
            }
            let live = ts
                .iter()
                .filter(|t| !db.status(**t).unwrap().is_terminated());
            assert_eq!(table_tids(&db), live.copied().collect());
        }
    });
}

/// The tids that hold a TD.
fn table_tids(db: &Database) -> std::collections::BTreeSet<Tid> {
    let mut tids = std::collections::BTreeSet::new();
    db.inner.txns.for_each(|t, _| {
        tids.insert(t);
    });
    tids
}

/// `form_dependency(AD, x, y)` racing `abort(x)`: either the edge is in
/// the graph when x's abort drops x (which dooms y), or the status read
/// under x's shard is `Aborted` and the form dooms y itself. A barrier
/// releases the two each round; nothing sleeps.
#[test]
fn an_ad_edge_racing_its_parents_abort_always_dooms_the_child() {
    let db = db();
    for _ in 0..400 {
        let (x, _) = completed_writer(&db, b"x");
        let y = db.initiate(|_| Ok(())).unwrap();
        let form = || db.form_dependency(DepType::AD, x, y).unwrap();
        race(form, || assert!(db.abort(x).unwrap()));
        db.begin(y).unwrap();
        assert!(!db.commit(y).unwrap(), "{y} committed though {x} aborted");
    }
}

// --- nudge on stale / unknown tids (documented no-op) ------------------------

#[test]
fn nudge_unknown_tid_is_a_noop() {
    let db = db();
    // executor never spawned: nudge must not panic or spawn anything
    db.nudge(Tid(12345));
    // spawn the executor, then nudge a tid it has never seen
    let t = db.submit(|_| crate::TxnStep::Done(Ok(()))).unwrap();
    assert!(db.outcome(t).unwrap());
    db.nudge(Tid(999_999));
    db.nudge(Tid::NULL);
}

#[test]
fn nudge_after_done_is_a_noop() {
    let db = db();
    let oid = db.new_oid();
    let t = db.submit(write_step(oid, true)).unwrap();
    assert!(db.outcome(t).unwrap(), "committed");
    // the task is DONE and its TD ended: late nudges (the server-session race)
    // must be silent no-ops and must not disturb the terminal state
    for _ in 0..16 {
        db.nudge(t);
    }
    assert_eq!(db.status(t).unwrap(), TxnStatus::Committed);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"v");
    // a plain (non-submitted) transaction can also be nudged harmlessly
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.nudge(t2);
    db.begin(t2).unwrap();
    assert!(db.commit(t2).unwrap());
}

// --- WaitLock with nothing queued ---------------------------------------

/// A hand-rolled program returns `WaitLock` before it has tried for the
/// lock: no request is queued, so nothing would ever wake a park. It is
/// stepped again instead; its try-op then queues the request, the task
/// parks, and the holder's release wakes it.
#[test]
fn wait_lock_without_a_queued_request_is_stepped_again() {
    let db = db();
    let oid = seed(&db, b"orig");
    let holder = db
        .initiate(move |ctx| ctx.write(oid, b"held".to_vec()))
        .unwrap();
    db.begin(holder).unwrap();
    assert!(db.wait(holder).unwrap());
    let mut announced = false;
    let t = db
        .submit(move |sc| {
            if !std::mem::replace(&mut announced, true) {
                return crate::TxnStep::WaitLock { ob: oid };
            }
            match sc.try_write(oid, b"late".to_vec()) {
                Ok(crate::TryOp::Done(())) => crate::TxnStep::Done(Ok(())),
                Ok(crate::TryOp::WouldBlock) => crate::TxnStep::WaitLock { ob: oid },
                Err(e) => crate::TxnStep::Done(Err(e)),
            }
        })
        .unwrap();
    while !db.locks().pending(oid).iter().any(|p| p.tid == t) {
        std::thread::yield_now();
    }
    assert!(db.commit(holder).unwrap());
    assert!(db.outcome(t).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"late");
}

// --- the pin rule: what a commit point in flight excludes -----------------

/// Commit `t1` on a database whose flush windows stop at
/// `flush.window.sync`, and issue `op` from a second thread while `t1` is
/// pinned, its commit record held in the window; the window is let go once
/// `op` has been issued. `stage` sets the scene: the transaction to commit
/// and whatever else `op` needs, which is handed back with the database
/// once both have finished.
#[cfg(feature = "faults")]
fn issue_inside_the_flush_window<X: Copy + Send>(
    stage: impl FnOnce(&Database) -> (Tid, X),
    op: impl FnOnce(&Database, Tid, X) + Send,
) -> (Database, X) {
    use std::sync::mpsc::channel;
    let faults = Arc::new(asset_faults::FaultRegistry::new());
    let (at_sync_tx, at_sync) = channel();
    let (release, release_rx) = channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    faults.on_hit(asset_storage::failpoints::FLUSH_WINDOW_SYNC, move || {
        at_sync_tx.send(()).unwrap();
        // a timeout, not a sleep: it runs out only if the test is stuck
        let _ = release_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(10));
    });
    let config = asset_common::Config::in_memory().with_faults(faults);
    let db = Database::open(config).unwrap().0;
    let (t1, x) = stage(&db);
    db.begin(t1).unwrap();
    assert!(db.wait(t1).unwrap());
    std::thread::scope(|s| {
        let db = &db;
        let committer = s.spawn(move || db.commit(t1).unwrap());
        at_sync.recv().unwrap(); // t1 is pinned, its record in the window
        let (issued_tx, issued) = channel();
        let issuer = s.spawn(move || {
            issued_tx.send(()).unwrap();
            op(db, t1, x);
            db.status(t1).unwrap()
        });
        issued.recv().unwrap();
        release.send(()).unwrap();
        assert!(committer.join().unwrap());
        // whatever `op` did, it did to a terminated transaction
        assert_eq!(issuer.join().unwrap(), TxnStatus::Committed);
    });
    (db, x)
}

/// `delegate(from = pinned)` issued while the delegator's commit record is
/// in the flush window must not splice the undo chain and locks of what is
/// about to be committed data: it waits the window out and then meets a
/// `Committed` delegator, which it refuses.
#[cfg(feature = "faults")]
#[test]
fn delegate_issued_inside_the_flush_window_is_refused_after_it() {
    let (db, (t2, oid)) = issue_inside_the_flush_window(
        |db| {
            let oid = db.new_oid();
            let t1 = db.initiate(move |ctx| ctx.write(oid, b"v".to_vec()));
            (t1.unwrap(), (db.initiate(|_| Ok(())).unwrap(), oid))
        },
        |db, t1, (t2, _)| {
            let refused = db.delegate(t1, t2, None).unwrap_err();
            assert!(matches!(
                refused,
                AssetError::InvalidState {
                    status: TxnStatus::Committed,
                    ..
                }
            ));
        },
    );
    // t2 took over nothing: aborting it leaves the committed write alone
    assert!(db.locked_objects(t2).is_empty());
    db.begin(t2).unwrap();
    assert!(db.wait(t2).unwrap());
    assert!(db.abort(t2).unwrap());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"v");
}

/// `form_dependency(GC, aborted, pinned)` issued inside the window would
/// doom a transaction whose commit record is in flight; it waits the
/// window out and meets a `Committed` partner, which is never doomed.
#[cfg(feature = "faults")]
#[test]
fn form_dependency_issued_inside_the_flush_window_takes_effect_after_it() {
    let (db, _) = issue_inside_the_flush_window(
        |db| {
            let dead = db.initiate(|_| Ok(())).unwrap();
            assert!(db.abort(dead).unwrap());
            // a writer: a commit with nothing to make durable has no record
            // and no window to be pinned in
            let oid = db.new_oid();
            let t1 = db.initiate(move |ctx| ctx.write(oid, b"v".to_vec()));
            (t1.unwrap(), dead)
        },
        |db, t1, dead| db.form_dependency(DepType::GC, dead, t1).unwrap(),
    );
    assert_eq!(
        db.introspect().deps.doomed,
        0,
        "a committed txn is never doomed"
    );
}

// --- WAL: what a transaction costs the log ----------------------------

/// The log's record count and tail, and the flusher's window count.
fn log_marks(db: &Database) -> (u64, u64, u64) {
    let marks = db.engine().log().watermarks();
    (
        marks.records_appended,
        marks.tail.0,
        db.metrics_snapshot().counters.flush_windows,
    )
}

fn records_since(db: &Database, lsn: u64) -> Vec<asset_storage::LogRecord> {
    let records = db.engine().log().scan().unwrap();
    records
        .into_iter()
        .filter(|(at, _)| at.0 >= lsn)
        .map(|(_, rec)| rec)
        .collect()
}

#[test]
fn a_two_write_commit_over_logged_objects_is_three_records() {
    use asset_storage::LogRecord;
    let db = db();
    let (a, b) = (
        seed(&db, &100i64.to_le_bytes()),
        seed(&db, &100i64.to_le_bytes()),
    );
    let (frames, tail, _) = log_marks(&db);
    let t = db
        .initiate(move |ctx| {
            ctx.write(a, 58i64.to_le_bytes().to_vec())?;
            ctx.write(b, 142i64.to_le_bytes().to_vec())
        })
        .unwrap();
    db.begin(t).unwrap();
    assert!(db.commit(t).unwrap());
    let (frames_after, tail_after, _) = log_marks(&db);
    assert_eq!(frames_after - frames, 3, "three appends, no Begin");
    let expected = [
        LogRecord::Overwrite {
            tid: t,
            oid: a,
            after: Some(58i64.to_le_bytes().to_vec()),
        },
        LogRecord::Overwrite {
            tid: t,
            oid: b,
            after: Some(142i64.to_le_bytes().to_vec()),
        },
        LogRecord::Commit { tids: vec![t] },
    ];
    assert_eq!(records_since(&db, tail), expected);
    // the log holds each balance's one changed byte, packed over its
    // base, `t` as a one-byte tid delta, and the commit as one byte, the
    // delta of its tid in its kind
    let mut bytes = Vec::new();
    let mut cursor = asset_storage::log::IdCursor::default();
    for (oid, after) in [(a, 58i64), (b, 142)] {
        asset_storage::RecordRef::Overwrite {
            tid: t,
            oid,
            after: Some(asset_storage::log::Patch::between(
                Some(&100i64.to_le_bytes()),
                &after.to_le_bytes(),
            )),
        }
        .encode_into(&mut bytes, &mut cursor);
    }
    expected[2].as_ref().encode_into(&mut bytes, &mut cursor);
    assert_eq!((bytes.len(), tail_after - tail), (9, bytes.len() as u64));
}

#[test]
fn a_transaction_that_wrote_nothing_costs_the_log_nothing() {
    let db = db();
    let oid = seed(&db, b"v");
    let before = log_marks(&db);
    // read-only: commits with no record and no flush window
    assert!(db.run(move |ctx| ctx.read(oid).map(|_| ())).unwrap());
    // aborted before its first write
    let t = db
        .initiate(|ctx| ctx.abort_self::<()>().map(|_| ()))
        .unwrap();
    db.begin(t).unwrap();
    assert!(!db.commit(t).unwrap());
    // never begun
    let t = db.initiate(|_| Ok(())).unwrap();
    assert!(db.abort(t).unwrap());
    assert_eq!(log_marks(&db), before);
    assert_eq!(db.metrics_snapshot().counters.txn_committed, 2);
}

#[test]
fn an_aborted_two_write_transaction_logs_its_rollback() {
    use asset_storage::LogRecord;
    let db = db();
    let (a, b) = (seed(&db, b"a0"), seed(&db, b"b0"));
    let (_, tail, windows) = log_marks(&db);
    let t = db
        .initiate(move |ctx| {
            ctx.write(a, b"a1".to_vec())?;
            ctx.write(b, b"b1".to_vec())
        })
        .unwrap();
    db.begin(t).unwrap();
    assert!(db.wait(t).unwrap());
    assert!(db.abort(t).unwrap());
    let image = |v: &[u8]| Some(v.to_vec());
    assert_eq!(
        records_since(&db, tail),
        [
            LogRecord::Overwrite {
                tid: t,
                oid: a,
                after: image(b"a1")
            },
            LogRecord::Overwrite {
                tid: t,
                oid: b,
                after: image(b"b1")
            },
            LogRecord::Clr {
                oid: b,
                image: image(b"b0")
            },
            LogRecord::Clr {
                oid: a,
                image: image(b"a0")
            },
            LogRecord::Abort { tid: t },
        ]
    );
    assert_eq!(log_marks(&db).2, windows, "an abort waits for no window");
    assert_eq!(db.peek(a).unwrap().unwrap(), b"a0");
}

/// A group that delegated all of its work away commits without a record;
/// the delegatee's commit carries the work.
#[test]
fn a_delegator_left_with_nothing_commits_without_a_record() {
    use asset_storage::LogRecord;
    let db = db();
    let oid = seed(&db, b"orig");
    let receiver = db.initiate(|_| Ok(())).unwrap();
    let worker = db
        .initiate(move |ctx| ctx.write(oid, b"worked".to_vec()))
        .unwrap();
    db.begin(worker).unwrap();
    db.wait(worker).unwrap();
    db.delegate(worker, receiver, None).unwrap();
    let (frames, ..) = log_marks(&db);
    assert!(db.commit(worker).unwrap());
    assert_eq!(log_marks(&db).0, frames);
    db.begin(receiver).unwrap();
    assert!(db.commit(receiver).unwrap());
    let records = db.engine().log().scan().unwrap();
    assert_eq!(
        records.last().unwrap().1,
        LogRecord::Commit {
            tids: vec![receiver]
        }
    );
}

/// A body aborted after `begin` but before any thread claimed it is never
/// run: its claimer (here `wait`) drops it and finalizes the abort, which
/// undoes what the transaction owns and releases its locks.
#[test]
fn an_aborted_body_nobody_claimed_is_dropped_unrun() {
    let db = db();
    let oid = seed(&db, b"orig");
    // the transaction owns a write it never made: delegated before begin
    let writer = db
        .initiate(move |ctx| ctx.write(oid, b"dirty".to_vec()))
        .unwrap();
    let ran = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&ran);
    let t = db
        .initiate(move |_| {
            r.store(true, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
    db.begin(writer).unwrap();
    assert!(db.wait(writer).unwrap());
    db.delegate(writer, t, None).unwrap();
    assert!(db.commit(writer).unwrap());
    // begun but handed to no thread: only a claimer can run it
    assert!(db.start(t).unwrap());
    assert!(db.abort(t).unwrap());
    assert_eq!(db.status(t).unwrap(), TxnStatus::Aborting, "marked only");
    assert!(!db.wait(t).unwrap());
    assert!(!ran.load(Ordering::SeqCst), "skipped at claim");
    assert_eq!(db.status(t).unwrap(), TxnStatus::Aborted);
    assert!(db.locked_objects(t).is_empty());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
}

/// `commit` runs a begun body no thread has taken; the body's panic is
/// its abort, not the committer's.
#[test]
fn a_committer_that_claims_a_panicking_body_reports_its_abort() {
    let db = db();
    let oid = seed(&db, b"orig");
    let t = db
        .initiate(move |ctx| {
            ctx.write(oid, b"doomed".to_vec())?;
            panic!("boom");
        })
        .unwrap();
    assert!(db.start(t).unwrap());
    assert!(!db.commit(t).unwrap());
    assert_eq!(db.status(t).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
}

// --- the data-write path ----------------------------------------------------

/// Write `a`, let the test abort the transaction, then write `b`: the
/// abort poisoned the body's lock requests (no status probe precedes a
/// lock), so the second write is refused, and the abort's undo, run when
/// the body ends, takes back the first. Returns whether the second write
/// was refused with `TxnAborted`.
fn abort_between_two_writes(db: &Database, a: Oid, b: Oid, executor: bool) -> bool {
    use std::sync::mpsc::channel;
    let (wrote, wrote_rx) = channel();
    let (go, go_rx) = channel::<Tid>();
    let (refused, refused_rx) = channel();
    let two_writes = move |write: &mut dyn FnMut(Oid, &[u8]) -> crate::Result<()>| {
        write(a, b"a1")?;
        wrote.send(()).unwrap();
        let t = go_rx.recv().unwrap();
        let second = write(b, b"b1");
        refused
            .send(matches!(second, Err(AssetError::TxnAborted(x)) if x == t))
            .unwrap();
        second
    };
    let t = if executor {
        let mut body = Some(two_writes);
        db.submit(move |sc| {
            let body = body.take().expect("one step");
            let mut write = |ob: Oid, v: &[u8]| sc.try_write(ob, v.to_vec()).map(|_| ());
            crate::TxnStep::Done(body(&mut write))
        })
        .unwrap()
    } else {
        let t = db
            .initiate(move |ctx| two_writes(&mut |ob, v| ctx.write(ob, v.to_vec())))
            .unwrap();
        db.begin(t).unwrap();
        t
    };
    wrote_rx.recv().unwrap();
    assert!(db.abort(t).unwrap(), "the running body is marked");
    go.send(t).unwrap();
    let refused = refused_rx.recv().unwrap();
    assert!(!db.outcome(t).unwrap());
    refused
}

#[test]
fn an_abort_between_two_writes_refuses_the_second_and_undoes_both() {
    for executor in [false, true] {
        let db = db();
        let (a, b) = (seed(&db, b"a0"), seed(&db, b"b0"));
        assert!(abort_between_two_writes(&db, a, b, executor), "{executor}");
        assert_eq!(db.peek(a).unwrap().unwrap(), b"a0", "{executor}");
        assert_eq!(db.peek(b).unwrap().unwrap(), b"b0", "{executor}");
    }
}

/// The (generation, LSN) of every update record of `tids`, in log order.
fn update_places(db: &Database, tids: &[Tid]) -> Vec<asset_storage::LogPlace> {
    let gen = db.engine().log().generation();
    let records = db.engine().log().scan().unwrap().into_iter();
    records
        .filter_map(|(lsn, rec)| match rec {
            asset_storage::LogRecord::Update { tid, .. }
            | asset_storage::LogRecord::Overwrite { tid, .. } => {
                tids.contains(&tid).then_some((gen, lsn))
            }
            _ => None,
        })
        .collect()
}

/// Undo order is log order: each undo entry's sequence is its record's
/// place in the log, so the chain a permitted cooperating writer's
/// delegation splices in is the log's order, and the abort that undoes it
/// newest first lands on the oldest before image.
#[test]
fn undo_order_is_log_order_under_a_permitted_writer_and_a_delegation() {
    let db = db();
    let (x, y) = (seed(&db, b"x0"), seed(&db, b"y0"));
    let t1 = db
        .initiate(move |ctx| ctx.write(x, b"x1".to_vec()))
        .unwrap();
    db.begin(t1).unwrap();
    assert!(db.wait(t1).unwrap());
    db.permit(t1, None, ObSet::one(x), OpSet::ALL).unwrap();
    // t2 overwrites t1's x, then writes y, and hands it all to t1
    let t2 = db
        .initiate(move |ctx| {
            ctx.write(x, b"x2".to_vec())?;
            ctx.write(y, b"y2".to_vec())
        })
        .unwrap();
    db.begin(t2).unwrap();
    assert!(db.wait(t2).unwrap());
    db.delegate(t2, t1, None).unwrap();
    let chain = db.inner.txns.with(t1, |td| {
        let slot = td.and_then(crate::txns::Td::live);
        slot.map(|s| s.held.undo.iter().map(|u| u.seq).collect::<Vec<_>>())
    });
    assert_eq!(chain, Some(update_places(&db, &[t1, t2])));
    assert!(db.abort(t1).unwrap());
    assert_eq!(db.peek(x).unwrap().unwrap(), b"x0");
    assert_eq!(db.peek(y).unwrap().unwrap(), b"y0");
}

/// A checkpoint cuts the log, so LSNs start over; a chain that spans the
/// cut still undoes in log order (the generation comes first).
#[test]
fn undo_order_is_log_order_across_a_checkpoint() {
    let db = db();
    let x = seed(&db, b"x0");
    let t1 = db
        .initiate(move |ctx| ctx.write(x, b"x1".to_vec()))
        .unwrap();
    db.begin(t1).unwrap();
    assert!(db.wait(t1).unwrap());
    db.permit(t1, None, ObSet::one(x), OpSet::ALL).unwrap();
    db.checkpoint().unwrap();
    let t2 = db
        .initiate(move |ctx| ctx.write(x, b"x2".to_vec()))
        .unwrap();
    db.begin(t2).unwrap();
    assert!(db.wait(t2).unwrap());
    db.delegate(t2, t1, None).unwrap();
    assert!(db.abort(t1).unwrap());
    assert_eq!(db.peek(x).unwrap().unwrap(), b"x0");
}

/// The counters the lock table and the log keep themselves read, through
/// `metrics_snapshot`, as the hand count of one transaction that writes two
/// new objects and reads one back on an on-disk database.
#[test]
fn write_path_counters_equal_hand_counts() {
    let dir = TempDir::new("core-counts");
    let (db, _) = Database::open(asset_common::Config::on_disk(&*dir)).unwrap();
    let (a, b) = (db.new_oid(), db.new_oid());
    let before = db.metrics_snapshot();
    assert!(db
        .run(move |ctx| {
            ctx.write(a, b"a".to_vec())?;
            ctx.write(b, b"b".to_vec())?;
            ctx.read(a).map(|_| ())
        })
        .unwrap());
    let c = db.metrics_snapshot().delta(&before).counters;
    // two X grants; the read is covered by the X lock on `a`
    assert_eq!(c.lock_grants, 2);
    let grants: u64 = db.locks().stripe_stats().iter().map(|s| s.grants).sum();
    assert_eq!(grants, before.counters.lock_grants + 2);
    // two Updates and the Commit, all appended unforced (the commit's
    // flush window drains it afterwards)
    assert_eq!((c.log_appends, c.log_coalesced), (3, 3));
    // two X latches and one S latch, none of them spun
    assert_eq!((c.latch_acquires, c.latch_contended), (3, 0));
    // the new objects are misses, filled in one shard visit; the read hits
    assert_eq!((c.cache_misses, c.cache_hits), (2, 1));
    drop(db);
}

/// A transaction-table shard ranks below a lock-table stripe: a waker
/// built under the stripe mutex that visits a TD panics.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "lock order")]
fn a_txn_shard_taken_under_a_lock_stripe_panics() {
    let (db, ob) = (db(), Oid(1));
    db.inner
        .locks
        .lock(Tid(1), ob, asset_common::Operation::Write, None)
        .expect("free");
    let waker = || {
        db.inner.txns.with(Tid(2), |_| ());
        std::task::Waker::noop().clone()
    };
    let _ = (db.inner.locks).request(Tid(2), ob, asset_common::Operation::Write, Some(&waker));
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "Committed -> Running is not a status transition")]
fn a_status_store_outside_the_machine_panics() {
    let mut slot = crate::database::TxnSlot {
        status: TxnStatus::Committed,
        ..Default::default()
    };
    slot.set_status(Tid(1), TxnStatus::Running);
}

/// `Prepared` is entered only behind a `Prepared` record naming the
/// transaction: a store with none before it panics (debug builds).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "a change before its Prepared record naming 1")]
fn entering_prepared_with_no_record_panics() {
    let mut slot = crate::database::TxnSlot {
        status: TxnStatus::Completed,
        ..Default::default()
    };
    slot.set_status(Tid(1), TxnStatus::Prepared);
}

/// Executor steps run flagged: a blocking primitive called from a step
/// program panics (debug builds), and the panic aborts the transaction.
#[test]
fn a_blocking_call_inside_a_step_aborts_its_transaction() {
    let db = db();
    let t = db
        .submit(|_| {
            asset_common::sync::may_block();
            crate::TxnStep::Done(Ok(()))
        })
        .unwrap();
    assert_eq!(db.outcome(t).unwrap(), !cfg!(debug_assertions));
}

// --- state proportional to live work ----------------------------------

/// 10⁴ and 10⁵ transactions leave the same TD slots, dependency edges and
/// permit descriptors: those of the two live transactions set up first
/// (a GC pair, one permit), whichever driver ran them — `run`, the
/// executor's `submit`, or `prepare_group` then `decide_commit_group`.
/// Each blocking one also forms a CD edge to the pair and grants a permit
/// while it lives. What does grow is the fate store: two bits per tid it
/// covers, and it covers at most twice the tids issued plus one segment.
#[test]
fn ten_times_the_transactions_leave_the_same_state() {
    fn body(anchor: Tid, key: Oid) -> impl FnOnce(&crate::TxnCtx) -> asset_common::Result<()> {
        move |ctx| {
            ctx.write(key, b"v".to_vec())?;
            ctx.permit(ctx.id(), None, ObSet::one(key), OpSet::READ)?;
            ctx.form_dependency(DepType::CD, ctx.id(), anchor)
        }
    }
    type Drive = fn(&Database, Tid, Oid);
    let paths: [(&str, Drive); 3] = [
        ("run", |db, anchor, key| {
            assert!(db.run(body(anchor, key)).unwrap());
        }),
        ("submit", |db, _, key| {
            let t = db.submit(write_step(key, true)).unwrap();
            assert!(db.outcome(t).unwrap());
        }),
        ("prepare, decide", |db, anchor, key| {
            let t = db.initiate(body(anchor, key)).unwrap();
            db.begin(t).unwrap();
            assert!(db.wait(t).unwrap());
            let group = db.prepare_group(&[t]).unwrap();
            db.decide_commit_group(&group).unwrap();
        }),
    ];
    for (path, drive) in paths {
        let left = [10_000u64, 100_000].map(|n| {
            let db = db();
            let [anchor, partner] = [(); 2].map(|_| db.initiate(|_| Ok(())).unwrap());
            db.form_dependency(DepType::GC, anchor, partner).unwrap();
            db.permit(anchor, Some(partner), ObSet::All, OpSet::READ)
                .unwrap();
            let keys: Vec<Oid> = (0..64).map(|_| db.new_oid()).collect();
            for i in 0..n as usize {
                drive(&db, anchor, keys[i % keys.len()]);
            }
            let (covered, bytes) = db.inner.txns.fate_footprint();
            assert_eq!(bytes as u64 * 8, 2 * covered, "{path}: two bits a tid");
            assert!(
                covered <= 2 * (n + 2) + 4096,
                "{path}: {covered} tids for {n}"
            );
            let seen = db.introspect();
            (table_tids(&db).len(), seen.dep_edges.len(), seen.permits)
        });
        assert_eq!(left, [(2, 1, 1); 2], "{path}: slots, edges, permits");
    }
}

/// A poller reads `status` and `outcome` of the newest tids while the
/// executor commits half of them and aborts the rest: it meets each one
/// live or ended, never unknown — the visit that ends a TD writes its fate
/// before the shard lock lets the slot go.
#[test]
fn a_tid_ending_under_a_poller_is_never_unknown() {
    use std::sync::atomic::AtomicU64;
    let db = db();
    let key = db.new_oid();
    let newest = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut polls = 0u64;
            while !done.load(Ordering::Acquire) {
                let top = newest.load(Ordering::Acquire);
                for t in (top.saturating_sub(32).max(1)..=top).map(Tid) {
                    match db.status(t) {
                        Ok(s) if s.is_terminated() => {
                            assert_eq!(db.outcome(t).unwrap(), s == TxnStatus::Committed)
                        }
                        Ok(_) => {}
                        Err(e) => panic!("{t}: {e}"),
                    }
                    polls += 1;
                }
            }
            polls
        });
        for i in 0..20_000u32 {
            let t = db.submit(write_step(key, i % 2 == 0)).unwrap();
            newest.store(t.raw(), Ordering::Release);
            if i % 64 == 63 {
                db.outcome(t).unwrap();
            }
        }
        done.store(true, Ordering::Release);
        assert!(poller.join().unwrap() > 0);
    });
}

/// A step program that writes `v` over `key`, then commits, or aborts
/// when `commit` is false.
fn write_step(key: Oid, commit: bool) -> impl FnMut(&mut crate::StepCtx<'_>) -> crate::TxnStep {
    move |sc| match sc.try_write(key, b"v".to_vec()) {
        Ok(crate::TryOp::Done(())) if commit => crate::TxnStep::Done(Ok(())),
        Ok(crate::TryOp::Done(())) => crate::TxnStep::Done(Err(AssetError::TxnAborted(sc.id()))),
        Ok(crate::TryOp::WouldBlock) => crate::TxnStep::WaitLock { ob: key },
        Err(e) => crate::TxnStep::Done(Err(e)),
    }
}
