//! Integration tests for the state-machine transaction executor
//! (DESIGN.md §12): `Database::submit` drives a resumable program on the
//! worker pool, parks on lock conflicts, commits through the batched
//! group-commit flusher, and leaves a causal trace whose commit flows
//! terminate on shared flush-window spans.

use asset::faults::within;
use asset::lock::StripeStats;
use asset::obs::{EventKind, MetricsSnapshot};
use asset::trace::{chrome, CausalGraph};
use asset::{AssetError, Config, Database, LockMode, Oid, StepCtx, Tid, TryOp, TxnStep};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Wait until `tid`'s request on `ob` is on the pending list: it blocked,
/// and (an executor task) has parked or is about to.
fn await_pending(db: &Database, ob: Oid, tid: Tid) {
    while !db.locks().pending(ob).iter().any(|p| p.tid == tid) {
        std::thread::yield_now();
    }
}

/// A blocking transaction that wrote `o` and completed: it holds X on `o`
/// until it is committed or aborted.
fn holder_of(db: &Database, o: Oid) -> Tid {
    let t = db
        .initiate(move |ctx| ctx.write(o, b"held".to_vec()))
        .unwrap();
    db.begin(t).unwrap();
    assert!(db.wait(t).unwrap());
    t
}

fn waiting(db: &Database) -> usize {
    db.introspect().stripes.iter().map(|s| s.waiting).sum()
}

/// The one book of lock counts: since `before`, `metrics_snapshot()`
/// moved `[lock_waits, deadlock_sweeps, deadlocks, lock_grants]` by
/// exactly `moved`; its totals are the stripes' own sums; and every wait
/// was timed once.
fn assert_lock_counts(db: &Database, before: &MetricsSnapshot, moved: [u64; 4], what: &str) {
    let snap = db.metrics_snapshot();
    let c = snap.delta(before).counters;
    let got = [c.lock_waits, c.deadlock_sweeps, c.deadlocks, c.lock_grants];
    assert_eq!(
        got, moved,
        "{what}: waits, blocked passes, deadlocks, grants"
    );
    let stripes = db.locks().stripe_stats();
    let sum = |f: fn(&StripeStats) -> u64| stripes.iter().map(f).sum::<u64>();
    let c = snap.counters;
    assert_eq!(
        [c.lock_waits, c.deadlock_sweeps, c.deadlocks, c.lock_grants],
        [
            sum(|s| s.waits),
            sum(|s| s.blocks),
            sum(|s| s.deadlocks),
            sum(|s| s.grants)
        ],
        "{what}: the snapshot reads the stripes"
    );
    assert_eq!(
        snap.lock_wait_ns.count, c.lock_waits,
        "{what}: one duration per wait"
    );
}

/// A resumable one-write program: re-entered from the top on every step,
/// it re-attempts the write until the lock is granted.
fn write_prog(
    o: Oid,
    val: &'static [u8],
) -> impl FnMut(&mut StepCtx<'_>) -> TxnStep + Send + 'static {
    move |sc| match sc.try_write(o, val.to_vec()) {
        Ok(TryOp::Done(())) => TxnStep::Done(Ok(())),
        Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
        Err(e) => TxnStep::Done(Err(e)),
    }
}

/// A resumable read-modify-write increment taking the exclusive lock
/// first (no S→X upgrade, so contending copies cannot deadlock).
fn incr_prog(o: Oid) -> impl FnMut(&mut StepCtx<'_>) -> TxnStep + Send + 'static {
    move |sc| {
        match sc.try_lock_exclusive(o) {
            Ok(TryOp::Done(())) => {}
            Ok(TryOp::WouldBlock) => return TxnStep::WaitLock { ob: o },
            Err(e) => return TxnStep::Done(Err(e)),
        }
        let cur = match sc.try_read(o) {
            Ok(TryOp::Done(v)) => v
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte counter")))
                .unwrap_or(0),
            Ok(TryOp::WouldBlock) => return TxnStep::WaitLock { ob: o },
            Err(e) => return TxnStep::Done(Err(e)),
        };
        match sc.try_write(o, (cur + 1).to_le_bytes().to_vec()) {
            Ok(TryOp::Done(())) => TxnStep::Done(Ok(())),
            Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
            Err(e) => TxnStep::Done(Err(e)),
        }
    }
}

#[test]
fn submitted_transaction_commits_and_is_visible() {
    let db = Database::in_memory();
    let o = db.new_oid();
    let t = db.submit(write_prog(o, b"v1")).unwrap();
    assert!(db.outcome(t).unwrap());
    assert_eq!(db.peek(o).unwrap().unwrap(), b"v1");
    let snap = db.metrics_snapshot();
    assert!(snap.counters.exec_steps >= 1, "steps were counted");
    assert_eq!(snap.counters.txn_committed, 1);
    assert_eq!(snap.counters.txn_aborted, 0);
}

#[test]
fn a_submission_batch_shares_flush_windows() {
    let db = Database::open(Config::in_memory().with_commit_flush_window(Duration::from_millis(2)))
        .unwrap()
        .0;
    let n = 32;
    let oids: Vec<Oid> = (0..n).map(|_| db.new_oid()).collect();
    let tids: Vec<_> = oids
        .iter()
        .map(|&o| db.submit(write_prog(o, b"w")).unwrap())
        .collect();
    for t in tids {
        assert!(db.outcome(t).unwrap());
    }
    for o in oids {
        assert_eq!(db.peek(o).unwrap().unwrap(), b"w");
    }
    let windows = db.metrics_snapshot().counters.flush_windows;
    assert!(
        windows < n as u64,
        "{n} concurrent commits within a 2ms window must share flushes, got {windows} windows"
    );
    assert_eq!(db.metrics_snapshot().counters.txn_committed, n as u64);
}

#[test]
fn contended_increments_serialize_through_the_pool() {
    let db = Database::in_memory();
    let o = db.new_oid();
    let n = 24;
    let tids: Vec<_> = (0..n).map(|_| db.submit(incr_prog(o)).unwrap()).collect();
    for t in tids {
        assert!(db.outcome(t).unwrap(), "contended increment must commit");
    }
    let v = db.peek(o).unwrap().unwrap();
    assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), n as u64);
}

#[test]
fn a_failing_program_aborts_and_rolls_back() {
    let db = Database::in_memory();
    let o = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(o, b"keep".to_vec())).unwrap());
    let t = db
        .submit(move |sc| match sc.try_write(o, b"dirty".to_vec()) {
            Ok(TryOp::Done(())) => TxnStep::Done(Err(AssetError::TxnAborted(sc.id()))),
            Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
            Err(e) => TxnStep::Done(Err(e)),
        })
        .unwrap();
    assert!(!db.outcome(t).unwrap(), "failing program must abort");
    assert_eq!(db.peek(o).unwrap().unwrap(), b"keep");
    assert_eq!(db.metrics_snapshot().counters.txn_aborted, 1);
}

/// A blocking-path transaction holds the exclusive lock while an executor
/// transaction is submitted against the same object: the task parks (no
/// worker thread is consumed by the wait) and the lock table's wake
/// requeues it after the blocking commit releases — so the executor write
/// always lands second, and its trace has a `lock-wait` span over the park.
#[test]
fn executor_parks_behind_a_blocking_writer_and_is_requeued() {
    let db = Database::in_memory();
    db.obs().enable_tracing(4096);
    let o = db.new_oid();
    let (locked_tx, locked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let tb = db
        .initiate(move |ctx| {
            ctx.write(o, b"block".to_vec())?;
            let _ = locked_tx.send(());
            let _ = release_rx.recv();
            Ok(())
        })
        .unwrap();
    db.begin(tb).unwrap();
    locked_rx.recv().unwrap(); // the blocking txn now holds X on o
    let te = db.submit(write_prog(o, b"exec")).unwrap();
    await_pending(&db, o, te);
    release_tx.send(()).unwrap();
    assert!(db.commit(tb).unwrap());
    assert!(db.outcome(te).unwrap());
    assert_eq!(
        db.peek(o).unwrap().unwrap(),
        b"exec",
        "the parked executor write must land after the blocking commit"
    );
    let trace = db.obs().trace();
    let parked_at = trace
        .iter()
        .find_map(|e| match e.kind {
            EventKind::ExecPark {
                tid,
                reason: "lock",
            } if tid == te => Some(e.at_ns),
            _ => None,
        })
        .expect("the task parked on the lock");
    let g = CausalGraph::from_events(&trace);
    let waits: Vec<_> = g.tracks[&te]
        .spans
        .iter()
        .filter(|s| s.kind.label() == "lock-wait")
        .collect();
    assert_eq!(waits.len(), 1, "one request blocked, one span");
    assert!(
        waits[0].start_ns <= parked_at && parked_at <= waits[0].end_ns,
        "the span runs from the first block to the grant, over the park"
    );
}

/// The acceptance shape of the one lock-request protocol: whichever driver
/// waits — `TxnCtx::write` sleeping in `LockTable::lock`, or a task parked
/// after `StepCtx::try_write` — the wait is listed, counted and traced the
/// same way. A wait that ends in a grant is one wait, one blocked pass and
/// one grant.
#[test]
fn a_blocked_request_is_observable_the_same_way_under_both_drivers() {
    for driver in ["blocking", "executor"] {
        let db = Database::in_memory();
        db.obs().enable_tracing(4096);
        let o = db.new_oid();
        let holder = holder_of(&db, o);
        let before = db.metrics_snapshot();
        let waiter = match driver {
            "blocking" => {
                let t = db.initiate(move |ctx| ctx.write(o, b"w".to_vec())).unwrap();
                db.begin(t).unwrap();
                t
            }
            _ => db.submit(write_prog(o, b"w")).unwrap(),
        };
        await_pending(&db, o, waiter);
        let pending = db.locks().pending(o);
        assert_eq!(pending.len(), 1, "{driver}");
        assert_eq!(pending[0].tid, waiter);
        assert_eq!(pending[0].mode, LockMode::Write);
        assert!(!pending[0].upgrading);
        assert_eq!(waiting(&db), 1, "{driver}");
        assert!(db.introspect().waits[&waiter].contains(&holder), "{driver}");

        assert!(db.commit(holder).unwrap());
        match driver {
            "blocking" => assert!(db.commit(waiter).unwrap()),
            _ => assert!(db.outcome(waiter).unwrap()),
        }
        assert_eq!(db.peek(o).unwrap().unwrap(), b"w");
        assert!(db.locks().pending(o).is_empty(), "{driver}");
        assert_lock_counts(&db, &before, [1, 1, 0, 1], driver);
        let intro = db.introspect();
        let stripe = intro.stripe_stats.iter().find(|s| s.waits > 0).unwrap();
        assert!(stripe.wait_ns_total > 0, "{driver}");
        assert!(stripe.queue_peak >= 1, "{driver}");
        let events = db
            .obs()
            .trace()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LockWait { tid, ob, .. } if tid == waiter && ob == o))
            .count();
        assert_eq!(events, 1, "{driver}: one LockWait event for the one wait");
    }
}

/// Two step programs write the same two objects in opposite orders. `b`'s
/// second write is held back until `a`'s request is listed, so `b` closes
/// the cycle and is the victim. The executor's deadlock is counted once,
/// where the blocking driver's is (see the next test): two waits, two
/// blocked passes, one deadlock and three grants.
#[test]
fn an_executor_deadlock_is_counted_once_everywhere() {
    let db = Database::in_memory();
    db.obs().enable_tracing(4096);
    let before = db.metrics_snapshot();
    let (x, y) = (db.new_oid(), db.new_oid());
    let two_writes = |first: Oid, second: Oid, go: Option<Arc<AtomicBool>>| {
        move |sc: &mut StepCtx<'_>| {
            for o in [first, second] {
                if o == second && go.as_ref().is_some_and(|g| !g.load(Ordering::SeqCst)) {
                    return TxnStep::WaitExternal;
                }
                match sc.try_write(o, b"d".to_vec()) {
                    Ok(TryOp::Done(())) => {}
                    Ok(TryOp::WouldBlock) => return TxnStep::WaitLock { ob: o },
                    Err(e) => return TxnStep::Done(Err(e)),
                }
            }
            TxnStep::Done(Ok(()))
        }
    };
    let go = Arc::new(AtomicBool::new(false));
    let b = db.submit(two_writes(y, x, Some(Arc::clone(&go)))).unwrap();
    while !db.locks().holds(b, y, LockMode::Write) {
        std::thread::yield_now();
    }
    let a = db.submit(two_writes(x, y, None)).unwrap();
    await_pending(&db, y, a);
    go.store(true, Ordering::SeqCst);
    db.nudge(b);
    assert!(
        !db.outcome(b).unwrap(),
        "the requester that closed the cycle"
    );
    assert!(
        db.outcome(a).unwrap(),
        "the survivor gets y once b is undone"
    );

    assert_lock_counts(&db, &before, [2, 2, 1, 3], "executor deadlock");
    assert!(
        db.obs()
            .trace()
            .iter()
            .any(|e| matches!(e.kind, EventKind::LockWait { tid, ob, .. } if tid == a && ob == y)),
        "a LockWait event names the parked transaction"
    );
    assert_eq!(waiting(&db), 0);
    assert!(db.introspect().waits.is_empty());
}

/// The blocking driver's deadlock and timeout, in the same book: `b`
/// holds `y`, `a` takes `x` and waits for `y`, and `b`'s request for `x`
/// closes the cycle. Then a request waits out its lock timeout: one wait
/// and one blocked pass, no grant, and the stripe's `timeouts`.
#[test]
fn a_blocking_deadlock_and_timeout_are_counted_once() {
    let db = Database::in_memory();
    let before = db.metrics_snapshot();
    let (x, y) = (db.new_oid(), db.new_oid());
    let (locked_tx, locked_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let b = db
        .initiate(move |ctx| {
            ctx.write(y, b"b".to_vec())?;
            let _ = locked_tx.send(());
            let _ = go_rx.recv();
            ctx.write(x, b"b".to_vec())
        })
        .unwrap();
    db.begin(b).unwrap();
    locked_rx.recv().unwrap();
    let a = db
        .initiate(move |ctx| {
            ctx.write(x, b"a".to_vec())?;
            ctx.write(y, b"a".to_vec())
        })
        .unwrap();
    db.begin(a).unwrap();
    await_pending(&db, y, a);
    go_tx.send(()).unwrap();
    assert!(!db.wait(b).unwrap(), "the requester that closed the cycle");
    assert!(
        db.commit(a).unwrap(),
        "the survivor gets y once b is undone"
    );
    assert_lock_counts(&db, &before, [2, 2, 1, 3], "blocking deadlock");

    let db = Database::open(Config::in_memory().with_lock_timeout(Some(Duration::from_millis(20))))
        .unwrap()
        .0;
    let o = db.new_oid();
    let holder = holder_of(&db, o);
    let before = db.metrics_snapshot();
    let t = db.initiate(move |ctx| ctx.write(o, b"t".to_vec())).unwrap();
    db.begin(t).unwrap();
    assert!(!db.wait(t).unwrap(), "the request timed out");
    assert_lock_counts(&db, &before, [1, 1, 0, 0], "blocking timeout");
    let timeouts: u64 = db.locks().stripe_stats().iter().map(|s| s.timeouts).sum();
    assert_eq!(timeouts, 1);
    assert!(db.commit(holder).unwrap());
}

/// A task parked on an object it holds no lock on is aborted: nothing of
/// its request survives it — the release used to prune pending entries
/// only on objects the transaction held.
#[test]
fn aborting_a_parked_task_leaves_nothing_of_its_request() {
    let db = Database::in_memory();
    let o = db.new_oid();
    let holder = holder_of(&db, o);
    let parked = db.submit(write_prog(o, b"never")).unwrap();
    await_pending(&db, o, parked);
    assert!(db.locks().holders(o).iter().all(|l| l.tid != parked));
    assert!(db.abort(parked).unwrap());
    assert!(!db.outcome(parked).unwrap());
    assert!(db.locks().pending(o).is_empty());
    assert!(db.introspect().stripes.iter().all(|s| s.waiting == 0));
    assert!(!db.locks().waits_snapshot().contains_key(&parked));
    let snap = db.metrics_snapshot();
    assert_eq!(snap.lock_wait_ns.count, snap.counters.lock_waits);
    // the holder's release finds no stale request to wake
    let steps = snap.counters.exec_steps;
    assert!(db.commit(holder).unwrap());
    assert_eq!(db.metrics_snapshot().counters.exec_steps, steps);
    assert_eq!(db.peek(o).unwrap().unwrap(), b"held");
}

/// A task parked on `WaitExternal` has no wake registry — only a nudge
/// runs it. An abort that merely marks it `Aborting` would leave it
/// parked, holding its locks, until somebody happened to nudge: the abort
/// itself must get the task run so its worker finalizes it.
#[test]
fn aborting_a_task_parked_on_external_finalizes_it() {
    let db = Database::in_memory();
    let o = db.new_oid();
    let wrote = Arc::new(AtomicBool::new(false));
    let w = Arc::clone(&wrote);
    let idle = db
        .submit(move |sc| match sc.try_write(o, b"idle".to_vec()) {
            Ok(TryOp::Done(())) => {
                w.store(true, Ordering::Release);
                TxnStep::WaitExternal
            }
            Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
            Err(e) => TxnStep::Done(Err(e)),
        })
        .unwrap();
    // the write landed and the worker parked the task (the only one)
    while !(wrote.load(Ordering::Acquire) && db.metrics_snapshot().counters.exec_parks > 0) {
        std::thread::yield_now();
    }
    assert!(db.abort(idle).unwrap());
    // no nudge. The waits below block for good if the task stays parked,
    // so they run within a bounded wait
    let db2 = db.clone();
    let waits = "an aborted idle task finalized without a nudge";
    let (aborted, next_committed) = within(Duration::from_secs(30), waits, move || {
        let aborted = !db2.outcome(idle).unwrap();
        let next = db2.submit(write_prog(o, b"next")).unwrap();
        (aborted, db2.outcome(next).unwrap())
    });
    assert!(aborted);
    assert!(next_committed, "its lock on the object was released");
    assert_eq!(db.peek(o).unwrap().unwrap(), b"next");
}

/// The acceptance shape for the whole feature: every executor commit in
/// the trace is a flow terminating on a flush-window span of the storage
/// lane, and (pigeonhole over the window count) flows genuinely share
/// windows when the flusher coalesced.
#[test]
fn commit_flows_terminate_on_shared_flush_windows() {
    let db = Database::open(Config::in_memory().with_commit_flush_window(Duration::from_millis(2)))
        .unwrap()
        .0;
    db.obs().enable_tracing(16384);
    let n = 8usize;
    let tids: Vec<_> = (0..n)
        .map(|_| {
            let o = db.new_oid();
            db.submit(write_prog(o, b"f")).unwrap()
        })
        .collect();
    for t in tids {
        assert!(db.outcome(t).unwrap());
    }
    let windows = db.metrics_snapshot().counters.flush_windows;

    let trace = db.obs().trace();
    let g = CausalGraph::from_events(&trace);
    assert_eq!(
        g.flush_flows.len(),
        n,
        "every executor commit terminates on a flush window"
    );
    let mut per_window: HashMap<u64, usize> = HashMap::new();
    for f in &g.flush_flows {
        *per_window.entry(f.window).or_default() += 1;
        assert!(
            g.storage.iter().any(|s| matches!(
                s.kind,
                asset::trace::SpanKind::FlushWindow { window, records, .. }
                    if window == f.window && records >= 1
            )),
            "flow window {} has a matching flush-window span",
            f.window
        );
    }
    if windows < n as u64 {
        assert!(
            per_window.values().any(|&c| c >= 2),
            "coalesced windows must carry multiple commit flows"
        );
    }
    let doc = chrome::render(&g);
    assert!(
        doc.contains("flush-window"),
        "chrome export renders the shared flush lane"
    );
}
