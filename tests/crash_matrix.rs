//! The crash-recovery matrix (compiled only with `--features faults`).
//!
//! Four scripted workloads — an atomic transaction, a GC group commit, a
//! saga with compensation, and a delegation/permit hand-off — each run
//! against every registered failpoint ([`asset::storage::failpoints::ALL`]
//! and [`asset::txn::failpoints::ALL`]) under three fault shapes:
//!
//! * **Crash** — process-local crash at the failpoint (unwind to the
//!   harness; the registry refuses all further durable writes, modeling
//!   a dead process);
//! * **Torn** — a prefix of the buffer reaches the file, then crash
//!   (models a torn sector on power loss);
//! * **Error** — the operation reports failure but the process lives on
//!   (models `EIO`); the workload's error paths must leave every
//!   transaction terminal and the live state in agreement with what a
//!   restart would recover.
//!
//! After each injected fault the harness resets the registry, reopens the
//! database (running recovery), and asserts the workload's invariant:
//! durably-acknowledged commits survive, losers are rolled back, GC
//! groups are all-or-nothing, delegated undo follows the delegatee, and
//! a second recovery reproduces the same state (idempotence).

#![cfg(feature = "faults")]

use asset::faults::{FaultAction, FaultRegistry, Trigger};
use asset::{storage, txn, Config, Database, DepType, ObSet, Oid, OpSet, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asset-cm-{tag}-{}-{}",
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
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<bool> {
            let db = case.open();
            let t = db.initiate(move |ctx| ctx.write(o, b"new".to_vec()))?;
            db.begin(t)?;
            db.wait(t)?;
            let committed = db.commit(t)?;
            db.checkpoint()?; // exercises store/checkpoint failpoints
            Ok(committed)
        }));
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
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<bool> {
            let db = case.open();
            let t1 = db.initiate(move |ctx| ctx.write(oa, b"ga1".to_vec()))?;
            let t2 = db.initiate(move |ctx| ctx.write(ob, b"gb1".to_vec()))?;
            db.form_dependency(DepType::GC, t1, t2)?;
            db.begin_many(&[t1, t2])?;
            db.wait(t1)?;
            db.wait(t2)?;
            db.commit(t1)
        }));
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
        let _ = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            let db = case.open();
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
        }));

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
        let _ = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            let db = case.open();
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
        }));

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
fn torn_matrix_delegation() {
    delegation_sweep(FaultAction::Torn {
        keep_per_mille: 500,
    });
}

// ---------------------------------------------------------------------------
// Workload 5: the executor's batched flush window (DESIGN.md §12) — three
// transactions submitted to the worker-pool executor while the group
// flusher's window failpoints are armed. The executor path never unwinds
// into the submitter: a crashed window acknowledges the callback with an
// error and the members are driven through the ambiguous-commit abort
// path, so every outcome is observable here. Invariant: `outcome == true`
// is a durable acknowledgement (the value survives recovery); anything
// else recovers to exactly the baseline or the new value; and an executor
// commit acknowledged *before* the fault always survives it.
// ---------------------------------------------------------------------------

use asset::{TryOp, TxnStep};

const WINDOW_POINTS: [&str; 2] = [
    storage::failpoints::FLUSH_WINDOW_ASSEMBLE,
    storage::failpoints::FLUSH_WINDOW_SYNC,
];

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
        let _ = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            let db = case.open();
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
        }));

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

/// Crash at window *assembly* fires before any record of the window
/// reaches the log, so there is no ambiguity to tolerate: every commit in
/// the torn window is unacknowledged and MUST be undone at recovery.
#[test]
fn exec_crash_at_window_assembly_undoes_every_unacked_commit() {
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
        storage::failpoints::FLUSH_WINDOW_ASSEMBLE,
        Trigger::Once,
        FaultAction::Crash,
    );
    for o in oids {
        let t = db0.submit(write_prog(o, b"e1")).unwrap();
        assert!(
            !db0.outcome(t).unwrap(),
            "no commit can be acknowledged once the registry is crashed"
        );
    }
    drop(db0);

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
/// committing thread. A crash in that window — torn at assembly, or at the
/// sync — unwinds right there with the window's `CrashPoint`, acknowledges
/// nothing, and restart lacks exactly that commit: every commit
/// acknowledged before it survives.
#[test]
fn a_crash_in_a_committer_run_window_unwinds_on_the_committer_and_loses_only_its_commit() {
    use asset::faults::CrashPoint;
    let points = [
        (
            storage::failpoints::FLUSH_WINDOW_ASSEMBLE,
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

// ---------------------------------------------------------------------------
// Error sweep: the process survives the fault. After the workload drives
// every transaction to a terminal state, the live in-memory state must agree
// with what a restart recovers — the property the torn-group-commit bug
// violated (commit-record failure used to strand the group non-terminal).
// ---------------------------------------------------------------------------

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
        let db = match Database::open(case.config.clone()) {
            Ok((db, _)) => db,
            Err(_) => {
                // the fault fired during recovery itself; a clean retry
                // must succeed and land on the pre-fault state
                let db = case.reopen_clean();
                assert_eq!(
                    (&get(&db, oa)[..], &get(&db, ob)[..]),
                    (&b"ga0"[..], &b"gb0"[..]),
                    "[{point}] failed recovery attempt must be harmless"
                );
                continue;
            }
        };
        let t1 = db
            .initiate(move |ctx| ctx.write(oa, b"ga1".to_vec()))
            .unwrap();
        let t2 = db
            .initiate(move |ctx| ctx.write(ob, b"gb1".to_vec()))
            .unwrap();
        let _ = db.form_dependency(DepType::GC, t1, t2);
        let b1 = db.begin(t1).is_ok();
        let b2 = db.begin(t2).is_ok();
        if b1 {
            let _ = db.wait(t1);
        }
        if b2 {
            let _ = db.wait(t2);
        }
        if b1 && b2 {
            let _ = db.commit(t1);
        }
        let _ = db.checkpoint();
        // drive anything still live to a terminal state, as an operator would
        for t in [t1, t2] {
            if !db.is_committed(t).unwrap_or(false) {
                let _ = db.abort(t);
            }
        }
        for t in [t1, t2] {
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
// WAL rule at compaction: `compact_log` flushes the cache to the store, the
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
        let outcome = catch_unwind(AssertUnwindSafe(|| db.compact_log()));
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
        storage::failpoints::FLUSH_WINDOW_ASSEMBLE,
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
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let db = case.open();
            db.run(move |ctx| ctx.write(a, b"torn".to_vec()))
        }));
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
        // run 3: the transfer is a winner, found at the LSNs it was given
        let (db, report) = Database::open(case.config.clone()).expect("second restart");
        assert_eq!(report.winners, 3, "[{point}] both seeds and the transfer");
        assert_eq!(&get(&db, a)[..], b"9");
        assert_eq!(&get(&db, b)[..], b"1");
        let records = db.engine().log().scan().unwrap();
        assert!(records.iter().any(|(lsn, rec)| *lsn == first_lsn
            && matches!(rec, storage::LogRecord::Overwrite { oid, .. } if *oid == a)));
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            db.engine().log().tail().0,
            "[{point}] the file ends in a seal"
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
// Determinism: the same seed fires the same probabilistic trigger at the
// same hit, so two identical runs produce identical fault schedules.
// ---------------------------------------------------------------------------

#[test]
fn probabilistic_triggers_are_deterministic_across_runs() {
    let fired = |seed: u64| -> Vec<u64> {
        let reg = FaultRegistry::new();
        reg.arm(
            "det.point",
            Trigger::Prob {
                per_mille: 300,
                seed,
            },
            FaultAction::Error,
        );
        (0..64)
            .filter_map(|i| reg.check("det.point").map(|_| i))
            .collect()
    };
    assert_eq!(fired(42), fired(42), "same seed must replay identically");
    assert_ne!(fired(42), fired(43), "different seeds must diverge");
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
            // the process died: restart; it lived: carry on in it
            let db = if action == FaultAction::Crash {
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

/// `compact_log` refused before its rename: nothing has moved — the log
/// and its generation stand, so the next write of an object the log covers
/// still finds its before image there (v3 cut the log in place and had to
/// move the generation on first, paying an explicit before image).
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
        assert!(db.compact_log().is_err(), "[{point}]");
        assert_eq!(kinds(&db), before, "[{point}]");
    }
    put(&db, y, b"y2");
    assert_eq!(kinds(&db)[before.len()..], ["overwrite", "commit"]);
    // and a compaction that goes through starts a generation of its own
    db.compact_log().unwrap();
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
        db.decide_abort_group(&[t]);
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
