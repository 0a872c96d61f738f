//! Unit tests for the transaction manager: every §2 primitive, the §4.2
//! commit/abort protocols, delegation, permits, and crash recovery.

use crate::{Database, DepType, ObSet, Oid, OpSet, Tid, TxnStatus};
use asset_common::AssetError;
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

#[test]
fn resource_exhaustion() {
    let db = Database::open(asset_common::Config::in_memory().with_max_transactions(2))
        .unwrap()
        .0;
    let _a = db.initiate(|_| Ok(())).unwrap();
    let _b = db.initiate(|_| Ok(())).unwrap();
    let err = db.initiate(|_| Ok(())).unwrap_err();
    assert!(matches!(err, AssetError::ResourceExhausted { limit: 2 }));
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
    let dir = std::env::temp_dir().join(format!("asset-core-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = asset_common::Config::on_disk(&dir);
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
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_requires_quiescence() {
    let db = db();
    let t = db.initiate(|_| Ok(())).unwrap();
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(
        err,
        AssetError::InvalidState {
            op: "checkpoint",
            ..
        }
    ));
    db.begin(t).unwrap();
    db.commit(t).unwrap();
    db.checkpoint().unwrap();
}

#[test]
fn retire_terminated_frees_slots() {
    let db = Database::open(asset_common::Config::in_memory().with_max_transactions(4))
        .unwrap()
        .0;
    for _ in 0..4 {
        let t = db.initiate(|_| Ok(())).unwrap();
        db.begin(t).unwrap();
        db.commit(t).unwrap();
    }
    assert_eq!(db.live_transactions(), 0);
    let retired = db.retire_terminated();
    assert_eq!(retired, 4);
    // slots are free again
    let t = db.initiate(|_| Ok(())).unwrap();
    db.begin(t).unwrap();
    assert!(db.commit(t).unwrap());
}

#[test]
fn run_helper_reports_abort() {
    let db = db();
    let committed = db.run(|ctx| ctx.abort_self::<()>().map(|_| ())).unwrap();
    assert!(!committed);
}

#[test]
fn compact_log_drops_settled_history() {
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

    let records_before = db.engine().log().records_appended();
    let report = db.compact_log().unwrap();
    assert!(report.records_before > 50);
    assert!(
        report.records_after <= 3,
        "checkpoint + begin + 1 pending update, got {}",
        report.records_after
    );
    let _ = records_before;

    // the live transaction still commits
    assert!(db.commit(t).unwrap());
    assert_eq!(db.peek(live_oid).unwrap().unwrap(), b"live1");
    assert_eq!(db.peek(oid).unwrap().unwrap(), vec![49]);
}

#[test]
fn compact_log_preserves_live_undo_across_crash() {
    let dir = std::env::temp_dir().join(format!("asset-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = asset_common::Config::on_disk(&dir);
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
        // live txn overwrites the settled object, then the log is compacted
        let t = db
            .initiate(move |ctx| {
                ctx.write(s, b"live-overwrite".to_vec())?;
                ctx.write(l, b"live-new".to_vec())
            })
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        db.compact_log().unwrap();
        // crash without committing t
    }
    let (db, report) = Database::open(config).unwrap();
    assert!(report.losers >= 1, "the live txn is a loser");
    assert_eq!(
        db.peek(settled_oid).unwrap().unwrap(),
        b"settled",
        "before image survived compaction and undid the live write"
    );
    assert_eq!(db.peek(live_oid).unwrap(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compact_log_folds_delegation_into_ownership() {
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
    db.retire_terminated();

    let report = db.compact_log().unwrap();
    // checkpoint + 1 update, under the receiver
    assert_eq!(report.records_after, 2);
    let records = db.engine().log().scan().unwrap();
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
fn compact_log_rejects_running_transactions() {
    let db = db();
    let gate = Arc::new(AtomicBool::new(false));
    let g2 = Arc::clone(&gate);
    let t = db
        .initiate(move |_| {
            while !g2.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Ok(())
        })
        .unwrap();
    db.begin(t).unwrap();
    let err = db.compact_log().unwrap_err();
    assert!(matches!(
        err,
        AssetError::InvalidState {
            op: "compact_log",
            ..
        }
    ));
    gate.store(true, Ordering::SeqCst);
    assert!(db.commit(t).unwrap());
    db.compact_log().unwrap();
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
    let dir = std::env::temp_dir().join(format!("asset-clr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = asset_common::Config::on_disk(&dir);
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
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn database_stats_snapshot() {
    let db = db();
    let oid = seed(&db, b"x");
    let t = db
        .initiate(move |ctx| ctx.write(oid, b"y".to_vec()))
        .unwrap();
    let s = db.stats();
    assert_eq!(s.initiated, 1);
    db.begin(t).unwrap();
    db.wait(t).unwrap();
    let s = db.stats();
    assert_eq!(s.completed, 1);
    assert!(s.locks.grants >= 2, "seed + txn writes took locks");
    assert!(s.log_records >= 3, "begin + update records logged");
    db.commit(t).unwrap();
    let s = db.stats();
    assert_eq!(s.committed, 2, "seed txn + t");
    // renders without panicking and mentions the headline counters
    let text = s.to_string();
    assert!(text.contains("committed"));
    assert!(text.contains("log records"));
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
    db.decide_abort_group(&group);
    assert_eq!(db.status(t1).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.status(t2).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(a).unwrap(), None, "creation rolled back");
    assert_eq!(db.peek(b).unwrap(), None);
    // idempotent re-decide
    db.decide_abort_group(&group);
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
    let dir = std::env::temp_dir().join(format!("asset-core-prep-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        asset_common::Config::on_disk(&dir).with_lock_timeout(Some(Duration::from_millis(50)));
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
    drop(db);
    // a second restart finds nothing in doubt
    let (db, report) = Database::open(config).unwrap();
    assert!(report.in_doubt.is_empty());
    assert!(db.in_doubt_transactions().is_empty());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"prepared");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prepared_survives_crash_and_aborts_after_restart() {
    let dir = std::env::temp_dir().join(format!("asset-core-prep-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = asset_common::Config::on_disk(&dir);
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
    db.decide_abort_group(&group);
    assert_eq!(db.status(group[0]).unwrap(), TxnStatus::Aborted);
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
    drop(db);
    let (db, report) = Database::open(config).unwrap();
    assert!(report.in_doubt.is_empty());
    assert_eq!(db.peek(oid).unwrap().unwrap(), b"orig");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn in_doubt_group_restores_its_gc_links() {
    let dir = std::env::temp_dir().join(format!("asset-core-prep-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = asset_common::Config::on_disk(&dir);
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
    std::fs::remove_dir_all(&dir).unwrap();
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
    let t = db
        .submit(move |ctx| match ctx.try_write(oid, b"v".to_vec()) {
            Ok(crate::TryOp::Done(_)) => crate::TxnStep::Done(Ok(())),
            Ok(crate::TryOp::WouldBlock) => crate::TxnStep::WaitLock { ob: oid },
            Err(e) => crate::TxnStep::Done(Err(e)),
        })
        .unwrap();
    assert!(db.outcome(t).unwrap(), "committed");
    // the task is DONE and retired: late nudges (the server-session race)
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
/// about to be committed data: it waits the window out and then delegates
/// from a `Committed` transaction, i.e. nothing.
#[cfg(feature = "faults")]
#[test]
fn delegate_issued_inside_the_flush_window_takes_effect_after_it() {
    let (db, (t2, oid)) = issue_inside_the_flush_window(
        |db| {
            let oid = db.new_oid();
            let t1 = db.initiate(move |ctx| ctx.write(oid, b"v".to_vec()));
            (t1.unwrap(), (db.initiate(|_| Ok(())).unwrap(), oid))
        },
        |db, t1, (t2, _)| db.delegate(t1, t2, None).unwrap(),
    );
    // t2 took over nothing: aborting it leaves the committed write alone
    assert!(db.locks().locked_objects(t2).is_empty());
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
        db.engine().flusher().windows_flushed(),
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
    let bytes: usize = expected.iter().map(|r| r.encode().len()).sum();
    assert_eq!(tail_after - tail, bytes as u64);
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
    assert!(db.locks().locked_objects(t).is_empty());
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
