//! The crash-recovery matrix (compiled only with `--features faults`).
//!
//! Scripted workloads — an atomic transaction, a GC group commit, a saga
//! with compensation, a delegation/permit hand-off, the executor's flush
//! window and a second checkpoint — each run against every registered
//! failpoint ([`asset::storage::failpoints::ALL`] and
//! [`asset::txn::failpoints::ALL`]) under four fault shapes:
//!
//! * **Crash** — process-local crash at the failpoint (unwind to the
//!   harness; the registry refuses all further durable writes, modeling
//!   a dead process);
//! * **Torn** — a prefix of the buffer reaches the file, then crash
//!   (models a torn sector on power loss);
//! * **Error** — the operation reports failure (models `EIO`): at a write
//!   or sync of the live log, or a failed force, it stops the database;
//!   at a checkpoint refused before its rename the database lives on;
//! * **Panic** — a plain panic at the failpoint, a bug in system code: it
//!   stops the database.
//!
//! The workload runs on a thread of its own within [`LIMIT`]: every waiter
//! of a stopped or crashed database returns (an error) instead of hanging.
//! After each injected fault the harness resets the registry, reopens the
//! database (running recovery), and asserts the workload's invariant:
//! durably-acknowledged commits survive, losers are rolled back, GC
//! groups are all-or-nothing, delegated undo follows the delegatee, and
//! a second recovery reproduces the same state (idempotence).

#![cfg(feature = "faults")]

use asset::faults::{within, FaultAction, FaultRegistry, TempDir, Trigger};
use asset::{storage, txn, AssetError, Config, Database, DepType, ObSet, Oid, OpSet, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a faulted workload may take before the matrix calls it hung.
const LIMIT: Duration = Duration::from_secs(60);

/// Every failpoint in the storage and transaction layers.
fn all_failpoints() -> Vec<&'static str> {
    storage::failpoints::ALL
        .iter()
        .chain(txn::failpoints::ALL.iter())
        .copied()
        .collect()
}

/// One cell of the matrix: a directory, a fault registry, and a config
/// wired to both. Each case is fully isolated (instance-scoped registry),
/// so cells run in parallel without cross-talk.
struct Case {
    _dir: TempDir,
    faults: Arc<FaultRegistry>,
    config: Config,
}

impl Case {
    fn new(tag: &str) -> Case {
        asset::faults::silence_crash_panics();
        let dir = TempDir::new(tag);
        let faults = Arc::new(FaultRegistry::new());
        let config = Config::on_disk(&dir.0)
            .with_lock_timeout(Some(std::time::Duration::from_secs(5)))
            .with_faults(Arc::clone(&faults));
        Case {
            _dir: dir,
            faults,
            config,
        }
    }

    fn open(&self) -> Database {
        Database::open(self.config.clone()).expect("open").0
    }

    /// Open the case's database on a thread of its own and run `workload`
    /// on it: what it returns, or the injected fault it unwinds with, comes
    /// back — within [`LIMIT`], or the test fails naming `point`. Any other
    /// panic is a bug the fault uncovered, and fails the test.
    fn run<T: Send + 'static>(
        &self,
        point: &str,
        workload: impl FnOnce(Database) -> Result<T> + Send + 'static,
    ) -> std::thread::Result<Result<T>> {
        let config = self.config.clone();
        within(LIMIT, point, move || {
            match catch_unwind(AssertUnwindSafe(move || {
                workload(Database::open(config)?.0)
            })) {
                Err(panic) if !asset::faults::is_injected(&*panic) => {
                    std::panic::resume_unwind(panic)
                }
                ran => ran,
            }
        })
    }

    /// Disarm everything (including a tripped crash flag) and reopen:
    /// this is the "restart after the crash" edge of the matrix.
    fn reopen_clean(&self) -> Database {
        self.faults.reset();
        self.open()
    }
}

/// Commit `val` under `oid` in its own atomic transaction, asserting
/// success. Used for fault-free baseline setup.
fn put(db: &Database, oid: Oid, val: &[u8]) {
    let v = val.to_vec();
    assert!(db.run(move |ctx| ctx.write(oid, v)).unwrap());
}

fn get(db: &Database, oid: Oid) -> Vec<u8> {
    db.peek(oid).unwrap().expect("object exists")
}

// ---------------------------------------------------------------------------
// Workload 1: a single atomic transaction.
// Invariant: the object holds either the baseline or the new value; if the
// commit was acknowledged, it MUST hold the new value.
// ---------------------------------------------------------------------------

fn atomic_sweep(action: FaultAction) {
    for point in all_failpoints() {
        let case = Case::new("w1");
        let o;
        {
            let db = case.open();
            o = db.new_oid();
            put(&db, o, b"base");
        }

        case.faults.arm(point, Trigger::Once, action);
        let outcome = case.run(point, move |db| -> Result<bool> {
            let t = db.initiate(move |ctx| ctx.write(o, b"new".to_vec()))?;
            db.begin(t)?;
            db.wait(t)?;
            let committed = db.commit(t)?;
            db.checkpoint()?; // exercises store/checkpoint failpoints
            Ok(committed)
        });
        let acknowledged = matches!(&outcome, Ok(Ok(true)));

        let db = case.reopen_clean();
        let v = get(&db, o);
        if acknowledged {
            assert_eq!(&v[..], b"new", "[{point}] acknowledged commit lost");
        } else {
            assert!(
                v == b"base" || v == b"new",
                "[{point}] atomic txn left torn state {v:?}"
            );
        }
        drop(db);

        // recovery must be idempotent: a second restart sees the same state
        let db = case.reopen_clean();
        assert_eq!(get(&db, o), v, "[{point}] recovery not idempotent");
    }
}

#[test]
fn crash_matrix_atomic() {
    atomic_sweep(FaultAction::Crash);
}

#[test]
fn panic_matrix_atomic() {
    atomic_sweep(FaultAction::Panic);
}

#[test]
fn torn_matrix_atomic() {
    atomic_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

// ---------------------------------------------------------------------------
// Workload 2: GC group commit (paper §2.2) — two transactions, one forced
// commit record. Invariant: all-or-nothing, across any crash point. This is
// the torn-group-commit regression surface.
// ---------------------------------------------------------------------------

fn group_commit_sweep(action: FaultAction) {
    for point in all_failpoints() {
        let case = Case::new("w2");
        let (oa, ob);
        {
            let db = case.open();
            oa = db.new_oid();
            ob = db.new_oid();
            put(&db, oa, b"ga0");
            put(&db, ob, b"gb0");
        }

        case.faults.arm(point, Trigger::Once, action);
        let outcome = case.run(point, move |db| -> Result<bool> {
            let t1 = db.initiate(move |ctx| ctx.write(oa, b"ga1".to_vec()))?;
            let t2 = db.initiate(move |ctx| ctx.write(ob, b"gb1".to_vec()))?;
            db.form_dependency(DepType::GC, t1, t2)?;
            db.begin_many(&[t1, t2])?;
            db.wait(t1)?;
            db.wait(t2)?;
            db.commit(t1)
        });
        let acknowledged = matches!(&outcome, Ok(Ok(true)));

        let db = case.reopen_clean();
        let (va, vb) = (get(&db, oa), get(&db, ob));
        if acknowledged {
            assert_eq!(
                (&va[..], &vb[..]),
                (&b"ga1"[..], &b"gb1"[..]),
                "[{point}] acknowledged group commit lost a member"
            );
        } else {
            let both_old = va == b"ga0" && vb == b"gb0";
            let both_new = va == b"ga1" && vb == b"gb1";
            assert!(
                both_old || both_new,
                "[{point}] torn group commit: ({va:?}, {vb:?})"
            );
        }
        drop(db);

        let db = case.reopen_clean();
        assert_eq!(
            (get(&db, oa), get(&db, ob)),
            (va, vb),
            "[{point}] recovery not idempotent"
        );
    }
}

#[test]
fn crash_matrix_group_commit() {
    group_commit_sweep(FaultAction::Crash);
}

#[test]
fn panic_matrix_group_commit() {
    group_commit_sweep(FaultAction::Panic);
}

#[test]
fn torn_matrix_group_commit() {
    group_commit_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

// ---------------------------------------------------------------------------
// Workload 3: a saga with compensation (paper §3.3) — step 1 commits, step 2
// rolls back, a compensating transaction commits. Invariant: the object only
// ever holds a prefix-consistent saga state ("s0" → "s1" → "comp"), never
// the rolled-back step's value, and never regresses past an acknowledged
// commit.
// ---------------------------------------------------------------------------

fn saga_sweep(action: FaultAction) {
    let order = |v: &[u8]| -> usize {
        match v {
            b"s0" => 0,
            b"s1" => 1,
            b"comp" => 2,
            other => panic!("saga reached invalid state {other:?}"),
        }
    };
    for point in all_failpoints() {
        let case = Case::new("w3");
        let o;
        {
            let db = case.open();
            o = db.new_oid();
            put(&db, o, b"s0");
        }

        // highest saga state whose commit was acknowledged before the fault
        let acked = Arc::new(Mutex::new(b"s0".to_vec()));
        let acked2 = Arc::clone(&acked);
        case.faults.arm(point, Trigger::Once, action);
        let _ = case.run(point, move |db| -> Result<()> {
            // step 1
            if db.run(move |ctx| ctx.write(o, b"s1".to_vec()))? {
                *acked2.lock().unwrap() = b"s1".to_vec();
            }
            // step 2 runs, then the saga decides to roll it back
            let t2 = db.initiate(move |ctx| ctx.write(o, b"s2".to_vec()))?;
            db.begin(t2)?;
            db.wait(t2)?;
            db.abort(t2)?;
            // compensation for step 1
            if db.run(move |ctx| ctx.write(o, b"comp".to_vec()))? {
                *acked2.lock().unwrap() = b"comp".to_vec();
            }
            db.checkpoint()?;
            Ok(())
        });

        let db = case.reopen_clean();
        let v = get(&db, o);
        let last = acked.lock().unwrap().clone();
        assert!(
            order(&v) >= order(&last),
            "[{point}] recovery regressed past acknowledged commit: {v:?} < {last:?}"
        );
        drop(db);

        let db = case.reopen_clean();
        assert_eq!(get(&db, o), v, "[{point}] recovery not idempotent");
    }
}

#[test]
fn crash_matrix_saga() {
    saga_sweep(FaultAction::Crash);
}

#[test]
fn panic_matrix_saga() {
    saga_sweep(FaultAction::Panic);
}

#[test]
fn torn_matrix_saga() {
    saga_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

// ---------------------------------------------------------------------------
// Workload 4: delegation + permit (paper §2.1) — t1 writes, permits, then
// delegates its locks and undo responsibility to t2; t1 commits (its undo
// set is empty after delegation) and t2 aborts, restoring the baseline.
// Invariant: the write NEVER survives — whichever side of whichever crash
// point we land on, the delegated undo follows the delegatee, so either the
// rollback ran (live or during recovery) or the write was never durable.
// ---------------------------------------------------------------------------

fn delegation_sweep(action: FaultAction) {
    for point in all_failpoints() {
        let case = Case::new("w4");
        let o;
        {
            let db = case.open();
            o = db.new_oid();
            put(&db, o, b"d0");
        }

        case.faults.arm(point, Trigger::Once, action);
        let _ = case.run(point, move |db| -> Result<()> {
            let t1 = db.initiate(move |ctx| ctx.write(o, b"d1".to_vec()))?;
            db.begin(t1)?;
            if !db.wait(t1)? {
                return Ok(()); // t1 aborted under the fault; nothing to hand off
            }
            let t2 = db.initiate(|_| Ok(()))?;
            db.permit(t1, Some(t2), ObSet::one(o), OpSet::ALL)?;
            db.delegate(t1, t2, None)?;
            db.commit(t1)?; // empty after delegation: commits nothing of o
                            // t2 now owns the undo; abort it from this thread so a crash in
                            // the undo loop unwinds into the harness, not a worker thread
            db.abort(t2)?;
            Ok(())
        });

        let db = case.reopen_clean();
        assert_eq!(
            &get(&db, o)[..],
            b"d0",
            "[{point}] delegated undo did not follow the delegatee"
        );
        drop(db);

        let db = case.reopen_clean();
        assert_eq!(&get(&db, o)[..], b"d0", "[{point}] recovery not idempotent");
    }
}

#[test]
fn crash_matrix_delegation() {
    delegation_sweep(FaultAction::Crash);
}

#[test]
fn panic_matrix_delegation() {
    delegation_sweep(FaultAction::Panic);
}

#[test]
fn torn_matrix_delegation() {
    delegation_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

// ---------------------------------------------------------------------------
// Workload 5: the executor's batched flush window (DESIGN.md §12) — three
// transactions submitted to the worker-pool executor while the group
// flusher's window failpoint is armed. The executor path never unwinds
// into the submitter: a window that fails, crashes or panics stops the
// database, and every outcome returns the stop. Invariant: `outcome ==
// true` is a durable acknowledgement (the value survives recovery);
// anything else recovers to exactly the baseline or the new value; and an
// executor commit acknowledged *before* the fault always survives it.
// ---------------------------------------------------------------------------

use asset::{TryOp, TxnStep};

const WINDOW_POINTS: [&str; 1] = [storage::failpoints::FLUSH_WINDOW_SYNC];

/// A resumable one-write executor program: re-entered from the top on
/// every step, it simply re-attempts the write until granted.
fn write_prog(
    o: Oid,
    val: &'static [u8],
) -> impl FnMut(&mut asset::StepCtx<'_>) -> TxnStep + Send + 'static {
    move |sc| match sc.try_write(o, val.to_vec()) {
        Ok(TryOp::Done(())) => TxnStep::Done(Ok(())),
        Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: o },
        Err(e) => TxnStep::Done(Err(e)),
    }
}

fn exec_window_sweep(action: FaultAction) {
    for point in WINDOW_POINTS {
        let mut case = Case::new("w5");
        // a non-zero window so concurrent submissions coalesce into the
        // faulted flush
        case.config = case
            .config
            .clone()
            .with_commit_flush_window(std::time::Duration::from_millis(2));
        let (o0, others);
        {
            // fault-free baseline: one executor commit acknowledged
            // before the fault is armed
            let db = case.open();
            o0 = db.new_oid();
            others = [db.new_oid(), db.new_oid(), db.new_oid()];
            for o in others {
                put(&db, o, b"e0");
            }
            let t = db.submit(write_prog(o0, b"acked")).unwrap();
            assert!(db.outcome(t).unwrap(), "[{point}] fault-free submit");
        }

        case.faults.arm(point, Trigger::Once, action);
        let acked = Arc::new(Mutex::new([false; 3]));
        let acked2 = Arc::clone(&acked);
        let _ = case.run(point, move |db| -> Result<()> {
            let tids: Vec<_> = others
                .iter()
                .map(|&o| db.submit(write_prog(o, b"e1")))
                .collect::<Result<_>>()?;
            for (i, t) in tids.into_iter().enumerate() {
                if db.outcome(t)? {
                    acked2.lock().unwrap()[i] = true;
                }
            }
            Ok(())
        });

        let db = case.reopen_clean();
        assert_eq!(
            &get(&db, o0)[..],
            b"acked",
            "[{point}] pre-fault acknowledged executor commit lost"
        );
        let acked = *acked.lock().unwrap();
        let vals: Vec<Vec<u8>> = others.iter().map(|&o| get(&db, o)).collect();
        for (i, v) in vals.iter().enumerate() {
            if acked[i] {
                assert_eq!(&v[..], b"e1", "[{point}] acknowledged window commit lost");
            } else {
                assert!(
                    v == b"e0" || v == b"e1",
                    "[{point}] torn flush window left mixed state {v:?}"
                );
            }
        }
        drop(db);

        let db = case.reopen_clean();
        let again: Vec<Vec<u8>> = others.iter().map(|&o| get(&db, o)).collect();
        assert_eq!(again, vals, "[{point}] recovery not idempotent");
    }
}

#[test]
fn crash_matrix_exec_flush_window() {
    exec_window_sweep(FaultAction::Crash);
}

#[test]
fn torn_matrix_exec_flush_window() {
    exec_window_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

#[test]
fn error_matrix_exec_flush_window() {
    exec_window_sweep(FaultAction::Error);
}

#[test]
fn panic_matrix_exec_flush_window() {
    exec_window_sweep(FaultAction::Panic);
}

/// A crash at the window fires before its drain, so no record the window
/// would carry reaches the file and there is no ambiguity to tolerate: the
/// crash on the flusher thread stops the database, every outcome and later
/// submission returns the stop — within the bounded wait — and every
/// commit in the crashed window MUST be undone at recovery.
#[test]
fn exec_crash_at_the_window_undoes_every_unacked_commit() {
    let case = Case::new("w5a");
    let (db0, oids) = {
        let db = case.open();
        let oids = [db.new_oid(), db.new_oid(), db.new_oid()];
        for o in oids {
            put(&db, o, b"e0");
        }
        (db, oids)
    };
    case.faults.arm(
        storage::failpoints::FLUSH_WINDOW_SYNC,
        Trigger::Once,
        FaultAction::Crash,
    );
    within(LIMIT, "outcomes", move || {
        for o in oids {
            let outcome = db0
                .submit(write_prog(o, b"e1"))
                .and_then(|t| db0.outcome(t));
            assert_stopped(outcome, "no commit is acknowledged once the window crashed");
        }
    });

    let db = case.reopen_clean();
    for o in oids {
        assert_eq!(
            &get(&db, o)[..],
            b"e0",
            "unacknowledged commit in the crashed window must be undone"
        );
    }
}

/// A blocking commit on an idle flusher runs its own flush window on the
/// committing thread. A crash in that window — with its block torn, or
/// before any of it is written — unwinds right there with the window's `CrashPoint`, acknowledges
/// nothing, and restart lacks exactly that commit: every commit
/// acknowledged before it survives.
#[test]
fn a_crash_in_a_committer_run_window_unwinds_on_the_committer_and_loses_only_its_commit() {
    use asset::faults::CrashPoint;
    let points = [
        (
            storage::failpoints::FLUSH_WINDOW_SYNC,
            FaultAction::Torn {
                keep_per_mille: 500,
            },
        ),
        (storage::failpoints::FLUSH_WINDOW_SYNC, FaultAction::Crash),
    ];
    for (point, action) in points {
        let case = Case::new("led-window");
        let db = case.open();
        let (o, p) = (db.new_oid(), db.new_oid());
        put(&db, o, b"o1");
        put(&db, p, b"p1");
        let before = db.metrics_snapshot().counters;
        case.faults.arm(point, Trigger::Once, action);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            db.run(move |ctx| ctx.write(o, b"lost".to_vec()))
        }));
        let payload = crashed.expect_err("the window's crash unwinds on the committer");
        assert_eq!(
            payload.downcast_ref::<CrashPoint>().map(|c| c.0),
            Some(point),
            "[{point}] the window's own crash point"
        );
        let after = db.metrics_snapshot().counters;
        assert_eq!(
            after.flush_windows_led,
            before.flush_windows_led + 1,
            "[{point}] the committer ran the window"
        );
        assert_eq!(after.flush_windows, before.flush_windows + 1, "[{point}]");
        assert_eq!(
            after.txn_committed, before.txn_committed,
            "[{point}] nothing acknowledged"
        );
        drop(db);

        for _ in 0..2 {
            let db = case.reopen_clean();
            assert_eq!(
                &get(&db, o)[..],
                b"o1",
                "[{point}] the crashed commit is gone"
            );
            assert_eq!(&get(&db, p)[..], b"p1", "[{point}] earlier acks survive");
        }
    }
}

/// Early lock release: writer W's commit frees W's lock on `o` once its
/// record is appended, so writer R commits over `o` while W's window is
/// still open. W's window then crashes — before its drain, or with its
/// block torn. R's record follows W's in the log, so it dies with it:
/// neither writer is acknowledged, and restart, twice, finds neither.
fn released_writer_window_sweep(action: FaultAction) {
    use asset::faults::CrashPoint;
    let case = Case::new("elr");
    let o = {
        let db = case.open();
        let o = db.new_oid();
        put(&db, o, b"base");
        o
    };
    let window = storage::failpoints::FLUSH_WINDOW_SYNC;
    let faults = Arc::clone(&case.faults);
    let ran = case.run(window, move |db| -> Result<()> {
        // W's window waits, open, until R's records are in the log
        let (at_tx, at_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(Some((at_tx, go_rx)));
        faults.on_hit(window, move || {
            if let Some((at, go)) = gate.lock().unwrap().take() {
                at.send(()).unwrap();
                let _ = go.recv();
            }
        });
        faults.arm(window, Trigger::Once, action);
        let w = {
            let db = db.clone();
            std::thread::spawn(move || db.run(move |ctx| ctx.write(o, b"w".to_vec())))
        };
        at_rx.recv().unwrap();
        let appended = || db.engine().log().records_appended();
        let before = appended();
        let r = {
            let db = db.clone();
            std::thread::spawn(move || db.run(move |ctx| ctx.write(o, b"r".to_vec())))
        };
        // R took the lock W released: its write and its Commit record
        while appended() < before + 2 {
            std::thread::yield_now();
        }
        go_tx.send(()).unwrap();
        let crash = w.join().expect_err("W's window crashes on W");
        assert_eq!(
            crash.downcast_ref::<CrashPoint>().map(|c| c.0),
            Some(window)
        );
        assert_stopped(r.join().unwrap(), "R is not acknowledged");
        Ok(())
    });
    assert!(matches!(ran, Ok(Ok(()))), "{:?}", ran.map(|r| r.is_ok()));
    for _ in 0..2 {
        let db = case.reopen_clean();
        assert_eq!(&get(&db, o)[..], b"base", "neither W nor R survives");
    }
}

#[test]
fn crash_matrix_released_writer_window() {
    released_writer_window_sweep(FaultAction::Crash);
}

#[test]
fn torn_matrix_released_writer_window() {
    released_writer_window_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

// ---------------------------------------------------------------------------
// Workload 6: a second checkpoint. The first has moved `a` out of the log
// into the store, so the store's file holds the only copy of it. The faulted
// run commits `b` and checkpoints again. Invariant: restart opens and finds
// `a`, and `b` if its commit was acknowledged; a second restart agrees. (The
// page store wrote pages in place: a torn page left a store that would not
// open, and `a` was on that page.)
// ---------------------------------------------------------------------------

fn second_checkpoint_sweep(action: FaultAction) {
    for point in all_failpoints() {
        let case = Case::new("w6");
        let (a, b);
        {
            let db = case.open();
            (a, b) = (db.new_oid(), db.new_oid());
            put(&db, a, b"a");
            db.checkpoint().unwrap();
        }

        case.faults.arm(point, Trigger::Once, action);
        let acked = Arc::new(AtomicBool::new(false));
        let acked2 = Arc::clone(&acked);
        let _ = case.run(point, move |db| -> Result<()> {
            let committed = db.run(move |ctx| ctx.write(b, b"b".to_vec()))?;
            acked2.store(committed, Ordering::Relaxed);
            db.checkpoint()
        });
        let acknowledged = acked.load(Ordering::Relaxed);
        if point.starts_with("store.") {
            assert_eq!(case.faults.fired(point), 1, "[{point}] never reached");
        }

        let seen = |db: &Database| (db.peek(a).unwrap(), db.peek(b).unwrap());
        let db = case.reopen_clean();
        let after = seen(&db);
        assert_eq!(after.0.as_deref(), Some(&b"a"[..]), "[{point}] lost a");
        if acknowledged {
            assert_eq!(after.1.as_deref(), Some(&b"b"[..]), "[{point}] lost b");
        }
        drop(db);
        let db = case.reopen_clean();
        assert_eq!(seen(&db), after, "[{point}] recovery not idempotent");
    }
}

#[test]
fn crash_matrix_second_checkpoint() {
    second_checkpoint_sweep(FaultAction::Crash);
}

#[test]
fn torn_matrix_second_checkpoint() {
    second_checkpoint_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

#[test]
fn error_matrix_second_checkpoint() {
    second_checkpoint_sweep(FaultAction::Error);
}

#[test]
fn panic_matrix_second_checkpoint() {
    second_checkpoint_sweep(FaultAction::Panic);
}

// ---------------------------------------------------------------------------
// Error sweep. At a checkpoint refused before its rename the process and the
// database live on: once the workload drives every transaction to a terminal
// state, the live in-memory state must agree with what a restart recovers.
// At a write or sync of the live log, or a failed force, the database
// stops: every primitive returns the stop, and restart — twice — finds the
// GC group all-or-nothing with an acknowledged commit kept.
// ---------------------------------------------------------------------------

/// The failpoints whose `Error` stops the database when it fires.
const STOP_SITES: &[&str] = &[
    storage::failpoints::LOG_APPEND,
    storage::failpoints::LOG_FLUSH,
    storage::failpoints::LOG_SYNC,
    storage::failpoints::FLUSH_WINDOW_SYNC,
    storage::failpoints::LOG_REWRITE_AFTER_RENAME,
    txn::failpoints::COMMIT_RECORD,
    txn::failpoints::COMMIT_AFTER_RECORD,
    txn::failpoints::ABORT_CLR,
    txn::failpoints::DELEGATE_RECORD,
    txn::failpoints::PREPARE_RECORD,
];

#[test]
fn error_matrix_live_state_agrees_with_recovery() {
    use asset::TxnStatus;
    for point in all_failpoints() {
        let case = Case::new("err");
        let (oa, ob);
        {
            let db = case.open();
            oa = db.new_oid();
            ob = db.new_oid();
            put(&db, oa, b"ga0");
            put(&db, ob, b"gb0");
        }

        case.faults.arm(point, Trigger::Once, FaultAction::Error);
        let config = case.config.clone();
        // only a failed open takes the recovery branch; a panic fails the row
        let ran = within(LIMIT, point, move || {
            let db = Database::open(config).ok()?.0;
            let t1 = db.initiate(move |ctx| ctx.write(oa, b"ga1".to_vec()));
            let t2 = db.initiate(move |ctx| ctx.write(ob, b"gb1".to_vec()));
            let (t1, t2) = (t1.unwrap(), t2.unwrap());
            let _ = db.form_dependency(DepType::GC, t1, t2);
            let b1 = db.begin(t1).is_ok();
            let b2 = db.begin(t2).is_ok();
            if b1 {
                let _ = db.wait(t1);
            }
            if b2 {
                let _ = db.wait(t2);
            }
            let acked = b1 && b2 && matches!(db.commit(t1), Ok(true));
            let _ = db.checkpoint();
            // drive anything still live to a terminal state, as an
            // operator would
            for t in [t1, t2] {
                if !db.is_committed(t).unwrap_or(false) {
                    let _ = db.abort(t);
                }
            }
            Some((db, [t1, t2], acked))
        });
        let Some((db, ts, acked)) = ran else {
            // the fault fired during recovery itself; a clean retry
            // must succeed and land on the pre-fault state
            let db = case.reopen_clean();
            assert_eq!(
                (&get(&db, oa)[..], &get(&db, ob)[..]),
                (&b"ga0"[..], &b"gb0"[..]),
                "[{point}] failed recovery attempt must be harmless"
            );
            continue;
        };
        let fired = case.faults.fired(point) > 0;
        let stopped = matches!(db.status(ts[0]), Err(AssetError::Stopped(_)));
        assert_eq!(
            stopped,
            fired && STOP_SITES.contains(&point),
            "[{point}] stops exactly at a live-log write or a failed force"
        );
        if stopped {
            for t in ts {
                assert_stopped(db.status(t), point);
            }
            drop(db);
            let seen = |db: Database| (get(&db, oa), get(&db, ob));
            let (va, vb) = seen(case.reopen_clean());
            let both_new = va == b"ga1" && vb == b"gb1";
            let old = va == b"ga0" && vb == b"gb0" && !acked;
            assert!(both_new || old, "[{point}] ({va:?}, {vb:?})");
            assert_eq!(
                seen(case.reopen_clean()),
                (va, vb),
                "[{point}] not idempotent"
            );
            continue;
        }
        for t in ts {
            let st = db.status(t).unwrap();
            assert!(
                st == TxnStatus::Committed || st == TxnStatus::Aborted,
                "[{point}] transaction stranded non-terminal: {st:?}"
            );
        }
        let (live_a, live_b) = (get(&db, oa), get(&db, ob));
        drop(db);

        let db = case.reopen_clean();
        assert_eq!(
            (get(&db, oa), get(&db, ob)),
            (live_a, live_b),
            "[{point}] live state disagrees with recovered state"
        );
    }
}

// ---------------------------------------------------------------------------
// WAL rule at compaction: `checkpoint` writes the cache to the store, the
// uncommitted images of live transactions included, so the `Update` records
// that undo them must be stable *first*, and must *stay* in the log until
// the records that replace them are: the compacted log is built beside the
// old one and renamed over it. Crash between the store flush and the
// rewrite, before the rename or after it, and the live transaction must
// still roll back. (v3 cut the log and then re-logged: the crash after the
// cut found an empty log and the uncommitted image in the store.)
// ---------------------------------------------------------------------------

#[test]
fn crash_anywhere_in_compaction_still_undoes_the_live_txn() {
    for point in [
        storage::failpoints::STORE_SYNC,
        storage::failpoints::LOG_TRUNCATE,
        storage::failpoints::LOG_REWRITE_BEFORE_RENAME,
        storage::failpoints::LOG_REWRITE_AFTER_RENAME,
    ] {
        let case = Case::new("w6");
        let db = case.open();
        let o = db.new_oid();
        put(&db, o, b"base");
        // the store is now the only holder of `base`: no earlier record of
        // `o` is left in the log for redo to paper over the hole with
        db.checkpoint().unwrap();
        // completed, never committed: still live when the log is compacted
        let t = db
            .initiate(move |ctx| ctx.write(o, b"live".to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();

        case.faults.arm(point, Trigger::Once, FaultAction::Crash);
        let outcome = catch_unwind(AssertUnwindSafe(|| db.checkpoint()));
        assert!(outcome.is_err(), "[{point}] compaction crashed");
        drop(db);

        let db = case.reopen_clean();
        assert_eq!(
            &get(&db, o)[..],
            b"base",
            "[{point}] an uncommitted image reached the store ahead of its log record"
        );
        drop(db);
        let db = case.reopen_clean();
        assert_eq!(&get(&db, o)[..], b"base", "[{point}] not idempotent");
    }
}

// ---------------------------------------------------------------------------
// The torn-window contract, across two restarts. A `Torn` at any of the
// three log failpoints leaves a byte prefix of a block with no seal behind
// it: the first recovery must see *none* of it (not even the records that
// happen to be whole — a flush window is in the log whole or not at all)
// and must chop it off the file, or the next run appends after it and the
// run after that cannot read what was acknowledged in between.
// ---------------------------------------------------------------------------

#[test]
fn a_torn_block_is_invisible_and_chopped_so_an_acked_commit_survives_a_second_restart() {
    for point in [
        storage::failpoints::LOG_APPEND,
        storage::failpoints::LOG_FLUSH,
        storage::failpoints::FLUSH_WINDOW_SYNC,
    ] {
        let case = Case::new("torn-tail");
        let wal = case._dir.0.join("wal.log");
        let (a, b);
        {
            let db = case.open();
            a = db.new_oid();
            b = db.new_oid();
            put(&db, a, b"10");
            put(&db, b, b"0");
        }
        let sealed_len = std::fs::metadata(&wal).unwrap().len();
        // run 1 dies writing a block: 0.9 of it reaches the file — the
        // write of `a`, whole, among it (at the append's own failpoint,
        // 0.9 of that record)
        case.faults.arm(
            point,
            Trigger::Once,
            FaultAction::Torn {
                keep_per_mille: 900,
            },
        );
        let _ = case.run(point, move |db| {
            db.run(move |ctx| ctx.write(a, b"torn".to_vec()))
        });
        let torn_len = std::fs::metadata(&wal).unwrap().len();
        assert!(sealed_len < torn_len, "[{point}] run 1 left a torn block");
        // run 2 recovers, then commits one transfer (acked, synced)
        let first_lsn;
        {
            case.faults.reset();
            let (db, report) = Database::open(case.config.clone()).expect("first restart");
            assert_eq!(
                (report.winners, report.losers),
                (2, 0),
                "[{point}] none of the torn block was replayed"
            );
            assert_eq!(&get(&db, a)[..], b"10", "[{point}]");
            first_lsn = db.engine().log().tail();
            assert_eq!(first_lsn.0, sealed_len, "[{point}] back to the last seal");
            assert_eq!(std::fs::metadata(&wal).unwrap().len(), sealed_len);
            assert!(db
                .run(move |ctx| {
                    ctx.write(a, b"9".to_vec())?;
                    ctx.write(b, b"1".to_vec())
                })
                .unwrap());
        }
        // run 3: the transfer is a winner, found at the LSNs it was given:
        // its first record one byte past the last seal, behind the reset
        // entry that opens the first block run 2 wrote
        let (db, report) = Database::open(case.config.clone()).expect("second restart");
        assert_eq!(report.winners, 3, "[{point}] both seeds and the transfer");
        assert_eq!(&get(&db, a)[..], b"9");
        assert_eq!(&get(&db, b)[..], b"1");
        let records = db.engine().log().scan().unwrap();
        assert!(records.iter().any(|(lsn, rec)| lsn.0 == first_lsn.0 + 1
            && matches!(rec, storage::LogRecord::Overwrite { oid, .. } if *oid == a)));
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            db.engine().log().tail().0,
            "[{point}] the file ends in a seal"
        );
    }
}

// ---------------------------------------------------------------------------
// WAL v9's id cursor runs across blocks, and each manager that opens the
// log starts both its halves over with a reset entry. Commits across
// several drains, then a torn tail at each log failpoint, a reopen that
// chops it, more commits across drains, and two more reopens: every
// restart finds the acknowledged commits, and the second restart reads the
// log the first left. The objects take turns between three small oids and
// three past 2^21, so the oids written before and after each tear and
// each reopen are far apart.
// ---------------------------------------------------------------------------

#[test]
fn torn_matrix_reopened_log_keeps_the_cursor_across_blocks() {
    /// Each object's acknowledged value, and the acknowledged tids.
    type Model = Arc<Mutex<(std::collections::HashMap<Oid, u64>, Vec<asset::Tid>)>>;
    // `n` one-object transactions at growing values: each forced, a drain
    // apiece, and each acknowledged one noted in `model`
    fn commits(db: &Database, oids: &[Oid], from: u64, n: u64, model: &Model) -> Result<()> {
        for i in from..from + n {
            let o = oids[i as usize % oids.len()];
            let t = db.initiate(move |ctx| ctx.write(o, i.to_le_bytes().to_vec()))?;
            db.begin(t)?;
            if db.commit(t)? {
                let mut model = model.lock().unwrap();
                model.0.insert(o, i);
                model.1.push(t);
            }
        }
        Ok(())
    }
    for (point, nth) in [
        (storage::failpoints::LOG_APPEND, 7),
        (storage::failpoints::LOG_FLUSH, 3),
        (storage::failpoints::FLUSH_WINDOW_SYNC, 3),
    ] {
        let case = Case::new("cursor");
        let model = Model::default();
        let oids: Vec<Oid> = {
            let db = case.open();
            let small = (0..3).map(|_| db.new_oid());
            let oids: Vec<Oid> = small.flat_map(|o| [o, Oid(o.0 + (1 << 21))]).collect();
            commits(&db, &oids, 0, 6, &model).unwrap();
            oids
        };
        case.faults.arm(
            point,
            Trigger::Nth(nth),
            FaultAction::Torn {
                keep_per_mille: 500,
            },
        );
        let (run_oids, run_model) = (oids.clone(), Arc::clone(&model));
        let ran = case.run(point, move |db| commits(&db, &run_oids, 100, 6, &run_model));
        assert!(!matches!(ran, Ok(Ok(()))), "[{point}] the tear fired");
        // the objects hold the acknowledged values, and the log commits
        // every acknowledged tid — under its own tid, not one a cursor
        // out of step made of it
        let check = |db: &Database, what: &str| {
            let model = model.lock().unwrap();
            for o in &oids {
                let v = u64::from_le_bytes(get(db, *o)[..8].try_into().unwrap());
                assert_eq!(v, model.0[o], "[{point}] {what}: {o}");
            }
            let committed: Vec<asset::Tid> = log_records(db)
                .into_iter()
                .filter_map(|rec| match rec {
                    LogRecord::Commit { tids } => Some(tids),
                    _ => None,
                })
                .flatten()
                .collect();
            let lost = model.1.iter().filter(|t| !committed.contains(t));
            assert_eq!(lost.count(), 0, "[{point}] {what}: {committed:?}");
        };
        {
            let db = case.reopen_clean();
            check(&db, "first restart");
            commits(&db, &oids, 200, 6, &model).unwrap();
        }
        let mut logs = Vec::new();
        for restart in 0..2 {
            let db = case.reopen_clean();
            check(&db, &format!("restart {restart}"));
            logs.push(log_records(&db));
        }
        assert_eq!(
            logs[0], logs[1],
            "[{point}] the second restart reads the first's log"
        );
    }
}

// ---------------------------------------------------------------------------
// Elided syncs: `sync_data` lies (returns Ok without forcing). Within one
// OS lifetime the bytes are still in the page cache, so recovery must still
// see them — this exercises the ElideSync plumbing and the
// `unsynced_bytes` accounting fixed in the buffered-bytes bug.
// ---------------------------------------------------------------------------

#[test]
fn elided_syncs_leave_bytes_unsynced_but_readable() {
    let case = Case::new("elide");
    case.faults.arm(
        storage::failpoints::LOG_SYNC,
        Trigger::Always,
        FaultAction::ElideSync,
    );
    case.faults.arm(
        storage::failpoints::STORE_SYNC,
        Trigger::Always,
        FaultAction::ElideSync,
    );
    let o;
    {
        let db = case.open();
        o = db.new_oid();
        put(&db, o, b"v");
        assert!(
            db.engine().log().unsynced_bytes() > 0,
            "elided sync must leave the commit record unsynced"
        );
    }
    let db = case.reopen_clean();
    assert_eq!(&get(&db, o)[..], b"v");
}

// ---------------------------------------------------------------------------
// WAL v3: the log is a self-contained redo history, and restart finishes
// its losers through the runtime's own logged undo.
// ---------------------------------------------------------------------------

use storage::LogRecord;

fn log_records(db: &Database) -> Vec<LogRecord> {
    let records = db.engine().log().scan().unwrap();
    records.into_iter().map(|(_, rec)| rec).collect()
}

/// Every `Overwrite` follows a record of this log that carries an image
/// of its object: the before image is in the log, not only in the store.
fn assert_self_contained(records: &[LogRecord], what: &str) {
    let mut imaged = std::collections::HashSet::new();
    for rec in records {
        match rec {
            LogRecord::Update { oid, .. } | LogRecord::Clr { oid, .. } => {
                imaged.insert(*oid);
            }
            LogRecord::Overwrite { oid, .. } => assert!(
                imaged.contains(oid),
                "[{what}] overwrite of {oid} with no earlier image in the log: {records:?}"
            ),
            LogRecord::Checkpoint => imaged.clear(),
            _ => {}
        }
    }
}

/// A completed, uncommitted write of `val` to each of `oids` whose records
/// are forced: the loser the next restart will find.
fn leave_a_forced_loser(db: &Database, oids: &[Oid], val: &'static [u8]) {
    let oids = oids.to_vec();
    let t = db
        .initiate(move |ctx| oids.iter().try_for_each(|o| ctx.write(*o, val.to_vec())))
        .unwrap();
    db.begin(t).unwrap();
    assert!(db.wait(t).unwrap());
    db.engine().log().flush().unwrap();
}

/// Regression (reproduced at the parent of WAL v3): restart undid its
/// losers in the cache and logged nothing, so the loser was a loser again
/// at the next restart and its before image went over whatever had
/// committed since — an acknowledged commit lost at the second restart.
#[test]
fn a_commit_acknowledged_after_a_restart_survives_the_next_two() {
    let case = Case::new("dbl-restart");
    let x;
    {
        let db = case.open();
        x = db.new_oid();
        put(&db, x, b"base");
        leave_a_forced_loser(&db, &[x], b"loser");
    }
    {
        let (db, report) = Database::open(case.config.clone()).unwrap();
        assert_eq!((report.losers, report.undone), (1, 1));
        assert_eq!(&get(&db, x)[..], b"base");
        let kinds: Vec<_> = log_records(&db).iter().map(LogRecord::name).collect();
        assert_eq!(
            kinds,
            ["update", "commit", "overwrite", "clr", "abort"],
            "the rollback is in the log"
        );
        put(&db, x, b"winner");
    }
    for restart in 2..=3 {
        let (db, report) = Database::open(case.config.clone()).unwrap();
        assert_eq!(
            (report.losers, report.undone, report.winners),
            (0, 0, 2),
            "restart {restart}"
        );
        assert_eq!(&get(&db, x)[..], b"winner", "restart {restart}");
    }
}

/// Crash inside restart's own undo phase — after some CLRs reached the
/// file, before any `Abort` did: the next restart converges to the same
/// state, finishes the rollback in the log, and a commit acknowledged
/// after it survives a further restart.
#[test]
fn crash_inside_restart_undo_converges_and_later_commits_survive() {
    // hits 1, 2: before each of the two undo steps; hit 3: before the Abort
    for hit in 1..=3 {
        let mut case = Case::new("undo-crash");
        // write through, so what restart appends before it dies is on disk
        case.config = case.config.clone().with_flush_watermark(1);
        let (a, b);
        {
            let db = case.open();
            a = db.new_oid();
            b = db.new_oid();
            put(&db, a, b"a0");
            put(&db, b, b"b0");
            leave_a_forced_loser(&db, &[a, b], b"lost");
        }
        case.faults.arm(
            storage::failpoints::RECOVERY_UNDO,
            Trigger::Nth(hit),
            FaultAction::Crash,
        );
        let crashed = catch_unwind(AssertUnwindSafe(|| Database::open(case.config.clone())));
        assert!(crashed.is_err(), "[hit {hit}] restart crashed in its undo");
        {
            let db = case.reopen_clean();
            let records = log_records(&db);
            let clrs = records.iter().filter(|r| r.name() == "clr").count();
            assert_eq!(
                clrs as u64,
                (hit - 1) + 2,
                "[hit {hit}] the first restart's CLRs, then the full rollback"
            );
            assert_eq!(records.last().unwrap().name(), "abort");
            assert_self_contained(&records, "undo-crash");
            assert_eq!(
                (&get(&db, a)[..], &get(&db, b)[..]),
                (&b"a0"[..], &b"b0"[..])
            );
            put(&db, a, b"a-winner");
        }
        for _ in 0..2 {
            let (db, report) = Database::open(case.config.clone()).unwrap();
            assert_eq!(report.losers, 0, "[hit {hit}] the rollback is done");
            assert_eq!(
                (&get(&db, a)[..], &get(&db, b)[..]),
                (&b"a-winner"[..], &b"b0"[..]),
                "[hit {hit}]"
            );
        }
    }
}

/// A checkpoint that dies (or fails) on either side of the rename that
/// replaces its log: the writes that follow log an explicit before image
/// exactly when the log no longer holds one, and recovery — which checks
/// the invariant — accepts the result.
#[test]
fn writes_after_a_broken_checkpoint_keep_the_log_self_contained() {
    let points = [
        (storage::failpoints::CHECKPOINT_BEFORE_TRUNCATE, "overwrite"),
        (storage::failpoints::LOG_REWRITE_BEFORE_RENAME, "overwrite"),
        (storage::failpoints::LOG_REWRITE_AFTER_RENAME, "update"),
    ];
    for (point, first_write) in points {
        for action in [FaultAction::Crash, FaultAction::Error] {
            let what = format!("{point} {action:?}");
            let case = Case::new("ckpt");
            let db = case.open();
            let x = db.new_oid();
            put(&db, x, b"v1");
            case.faults.arm(point, Trigger::Once, action);
            let outcome = catch_unwind(AssertUnwindSafe(|| db.checkpoint()));
            assert!(!matches!(outcome, Ok(Ok(()))), "[{what}] checkpoint broke");
            // the process died, or the database stopped (an error after
            // the rename, when the log has moved): restart; it lived:
            // carry on in it
            let stopped = point == storage::failpoints::LOG_REWRITE_AFTER_RENAME;
            let db = if action == FaultAction::Crash || stopped {
                drop(db);
                case.reopen_clean()
            } else {
                case.faults.reset();
                db
            };
            let before = log_records(&db).len();
            put(&db, x, b"v2");
            let records = log_records(&db);
            assert_eq!(records[before].name(), first_write, "[{what}] {records:?}");
            if let LogRecord::Update { before, .. } = &records[before] {
                assert_eq!(before.as_deref(), Some(&b"v1"[..]), "[{what}]");
            }
            assert_self_contained(&records, &what);
            drop(db);
            let db = case.reopen_clean();
            assert_eq!(&get(&db, x)[..], b"v2", "[{what}]");
        }
    }
}

/// A `checkpoint` beside a live transaction refused before its rename:
/// nothing has moved — the log and its generation stand, so the next write
/// of an object the log covers still finds its before image there (v3 cut
/// the log in place and had to move the generation on first, paying an
/// explicit before image).
#[test]
fn a_refused_compaction_leaves_the_log_and_its_generation_standing() {
    let case = Case::new("compact-refused");
    let db = case.open();
    let (x, y) = (db.new_oid(), db.new_oid());
    put(&db, x, b"x0");
    put(&db, y, b"y0");
    put(&db, y, b"y1");
    // completed, never committed: live across the compaction
    let t = db
        .initiate(move |ctx| ctx.write(x, b"live".to_vec()))
        .unwrap();
    db.begin(t).unwrap();
    db.wait(t).unwrap();
    let kinds = |db: &Database| -> Vec<_> { log_records(db).iter().map(LogRecord::name).collect() };
    let before = kinds(&db);
    assert_eq!(
        before,
        [
            "update",
            "commit",
            "update",
            "commit",
            "overwrite",
            "commit",
            "overwrite"
        ]
    );
    for point in [
        storage::failpoints::LOG_TRUNCATE,
        storage::failpoints::LOG_REWRITE_BEFORE_RENAME,
    ] {
        case.faults.arm(point, Trigger::Once, FaultAction::Error);
        assert!(db.checkpoint().is_err(), "[{point}]");
        assert_eq!(kinds(&db), before, "[{point}]");
    }
    put(&db, y, b"y2");
    assert_eq!(kinds(&db)[before.len()..], ["overwrite", "commit"]);
    // and a compaction that goes through starts a generation of its own
    db.checkpoint().unwrap();
    put(&db, y, b"y3");
    let records = log_records(&db);
    let kinds: Vec<_> = records.iter().map(LogRecord::name).collect();
    assert_eq!(kinds, ["checkpoint", "update", "update", "commit"]);
    assert_self_contained(&records, "compacted");
    drop(db);
    let db = case.reopen_clean();
    assert_eq!(
        (&get(&db, x)[..], &get(&db, y)[..]),
        (&b"x0"[..], &b"y3"[..])
    );
}

/// An `Overwrite` whose object no earlier record of the log installed has
/// no before image anywhere: the database refuses to open. One that no
/// seal follows is a torn tail, and just the end of the log.
#[test]
fn an_orphan_overwrite_is_corrupt_and_an_unsealed_one_is_end_of_log() {
    use std::io::Write;
    let orphan = LogRecord::Overwrite {
        tid: asset::Tid(900),
        oid: Oid(900),
        after: Some(b"orphan".to_vec()),
    };

    let case = Case::new("orphan");
    let wal = case._dir.0.join("wal.log");
    let x;
    {
        let db = case.open();
        x = db.new_oid();
        put(&db, x, b"kept");
    }
    let whole = std::fs::metadata(&wal).unwrap().len();
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&orphan.encode()).unwrap();
    }
    {
        let db = case.open();
        assert_eq!(&get(&db, x)[..], b"kept");
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), whole, "chopped");
    }
    // sealed in a block of its own, it is part of the log
    storage::LogManager::open(&wal, asset::Durability::Strict)
        .unwrap()
        .append_forced(&orphan)
        .unwrap();
    match Database::open(case.config.clone()) {
        Err(asset::AssetError::Corrupt(msg)) => assert!(msg.contains("overwrite"), "{msg}"),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("a log with an orphan overwrite opened"),
    }
}

/// An in-doubt participant whose updates were `Overwrite`s: restart takes
/// its before images from the records that installed them, restores them
/// as the undo chain — twice — and the coordinator's abort lands on them.
#[test]
fn in_doubt_overwrites_abort_to_the_right_images_after_two_reopens() {
    let case = Case::new("in-doubt-ow");
    let (a, b, t);
    {
        let db = case.open();
        a = db.new_oid();
        b = db.new_oid();
        put(&db, a, b"a0");
        put(&db, b, b"b0");
        t = db
            .initiate(move |ctx| {
                ctx.write(a, b"a1".to_vec())?;
                ctx.write(a, b"a2".to_vec())?;
                ctx.write(b, b"b1".to_vec())
            })
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        assert_eq!(db.prepare_group(&[t]).unwrap(), [t]);
        let kinds: Vec<_> = log_records(&db).iter().map(LogRecord::name).collect();
        assert_eq!(
            kinds[4..],
            ["overwrite", "overwrite", "overwrite", "prepared"],
            "no before image was logged for the prepared writes"
        );
    }
    for _ in 0..2 {
        let (db, report) = Database::open(case.config.clone()).unwrap();
        assert_eq!(report.losers, 0, "prepared is not a loser");
        assert_eq!(db.in_doubt_transactions(), [t]);
        let befores: Vec<_> = report.in_doubt[0]
            .updates
            .iter()
            .map(|u| u.before.clone().unwrap())
            .collect();
        assert_eq!(befores, [&b"a0"[..], &b"a1"[..], &b"b0"[..]]);
        assert_eq!(
            (&get(&db, a)[..], &get(&db, b)[..]),
            (&b"a2"[..], &b"b1"[..])
        );
    }
    {
        let db = case.open();
        db.decide_abort_group(&[t]).unwrap();
        assert_eq!(
            (&get(&db, a)[..], &get(&db, b)[..]),
            (&b"a0"[..], &b"b0"[..])
        );
    }
    let (db, report) = Database::open(case.config.clone()).unwrap();
    assert!(report.in_doubt.is_empty());
    assert_eq!(report.losers, 0, "the decided abort is in the log");
    assert_eq!(
        (&get(&db, a)[..], &get(&db, b)[..]),
        (&b"a0"[..], &b"b0"[..])
    );
}

// ---------------------------------------------------------------------------
// Panics in system code stop the database, and every waiter returns: the
// two hangs a panic used to cause, each beside a waiter that must come back
// with the stop within the bounded wait.
// ---------------------------------------------------------------------------

/// `r` is the stop.
fn assert_stopped<T: std::fmt::Debug>(r: Result<T>, what: &str) {
    assert!(matches!(r, Err(AssetError::Stopped(_))), "[{what}] {r:?}");
}

/// Yield until `cond` holds, within [`LIMIT`].
fn spin_until(what: &str, cond: impl Fn() -> bool + Send + 'static) {
    within(LIMIT, what, move || {
        while !cond() {
            std::thread::yield_now();
        }
    });
}

/// `abort(t)` of a completed writer panics in its undo step while another
/// thread sits in `commit(t)`, gated on a CD dependency that never opens:
/// the panic stops the database, and the committer returns the stop.
#[test]
fn a_panic_in_an_abort_undo_step_frees_a_waiting_committer() {
    let case = Case::new("abort-panic");
    let db = case.open();
    let o = db.new_oid();
    put(&db, o, b"base");
    let gate = db.initiate(|_| Ok(())).unwrap(); // never begun
    let t = db.initiate(move |ctx| ctx.write(o, b"new".to_vec()));
    let t = t.unwrap();
    db.form_dependency(DepType::CD, gate, t).unwrap();
    db.begin(t).unwrap();
    assert!(db.wait(t).unwrap());
    let (committer, db2) = (db.clone(), db.clone());
    let committing = std::thread::spawn(move || committer.commit(t));
    let committing_now = move || db2.status(t).unwrap() == asset::TxnStatus::Committing;
    spin_until("commit(t) to block", committing_now);
    let abort_clr = txn::failpoints::ABORT_CLR;
    case.faults
        .arm(abort_clr, Trigger::Once, FaultAction::Panic);
    assert!(catch_unwind(AssertUnwindSafe(|| db.abort(t))).is_err());
    let committed = within(LIMIT, "commit(t)", move || committing.join().unwrap());
    assert_stopped(committed, "commit(t)");
    assert_stopped(db.wait(gate), "wait(gate)");
    drop(db);
    for _ in 0..2 {
        assert_eq!(&get(&case.reopen_clean(), o)[..], b"base");
    }
}

/// A step's `try_write` panics at the log append while a second submission,
/// parked on the lock the first holds, sits in `outcome`: the panic stops
/// the database, and both outcomes return the stop.
#[test]
fn a_panic_in_a_steps_write_frees_a_waiting_outcome() {
    use std::sync::mpsc::channel;
    let case = Case::new("step-panic");
    let db = case.open();
    let a = db.new_oid();
    put(&db, a, b"base");
    // the first write, at its append, waits for the second to park
    let ((at_tx, at_rx), (go_tx, go_rx)) = (channel::<()>(), channel::<()>());
    let gate = Mutex::new(Some((at_tx, go_rx)));
    let append = storage::failpoints::LOG_APPEND;
    case.faults.on_hit(append, move || {
        if let Some((at, go)) = gate.lock().unwrap().take() {
            at.send(()).unwrap();
            go.recv().unwrap();
        }
    });
    case.faults.arm(append, Trigger::Once, FaultAction::Panic);
    let first = db.submit(write_prog(a, b"first")).unwrap();
    at_rx.recv_timeout(LIMIT).unwrap();
    // (the obs counters, not `metrics_snapshot`: the first writer holds
    // the log's append lock at its failpoint)
    let parks = db.obs().snapshot().counters.exec_parks;
    let second = db.submit(write_prog(a, b"second")).unwrap();
    let db2 = db.clone();
    spin_until("the second to park", move || {
        db2.obs().snapshot().counters.exec_parks > parks
    });
    let (waiter, (done_tx, done)) = (db.clone(), channel());
    std::thread::spawn(move || done_tx.send(waiter.outcome(second)));
    go_tx.send(()).unwrap();
    assert_stopped(done.recv_timeout(LIMIT).unwrap(), "outcome(second)");
    let db2 = db.clone();
    let first = within(LIMIT, "outcome(first)", move || db2.outcome(first));
    assert_stopped(first, "outcome(first)");
    drop(db);
    for _ in 0..2 {
        assert_eq!(&get(&case.reopen_clean(), a)[..], b"base");
    }
}
