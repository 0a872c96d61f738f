//! Crash-recovery integration tests over the on-disk engine: committed
//! work survives, in-flight work rolls back, delegation is honored across
//! restarts, checkpoints truncate, and recovery is idempotent.

use asset::{Config, Database, Oid};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asset-it-{tag}-{}-{}",
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

/// Two live cooperating writers of one object across a `compact_log`
/// (regression: pending updates used to be re-logged grouped by owner in
/// tid order): the re-logged updates keep the order they were written in,
/// whichever tid is lower, so a restart reads what the runtime read — the
/// later write if both commit, the image before the earlier one if neither.
#[test]
fn compaction_with_two_live_cooperating_writers_keeps_their_order() {
    use asset::storage::LogRecord;
    use asset::{ObSet, OpSet};
    for commit in [true, false] {
        let dir = TempDir::new("compact-coop");
        let config = Config::on_disk(&dir.0);
        let (db, _) = Database::open(config.clone()).unwrap();
        let x = db.new_oid();
        assert!(db.run(move |ctx| ctx.write(x, b"base".to_vec())).unwrap());
        // `second` gets the lower tid and writes last, under `first`'s permit
        let second = db
            .initiate(move |ctx| ctx.write(x, b"second".to_vec()))
            .unwrap();
        let first = db
            .initiate(move |ctx| ctx.write(x, b"first".to_vec()))
            .unwrap();
        assert!(second < first);
        db.begin(first).unwrap();
        db.wait(first).unwrap();
        db.permit(first, Some(second), ObSet::one(x), OpSet::ALL)
            .unwrap();
        db.begin(second).unwrap();
        db.wait(second).unwrap();
        assert_eq!(db.peek(x).unwrap().unwrap(), b"second");
        db.compact_log().unwrap();
        let owners: Vec<_> = db
            .engine()
            .log()
            .scan()
            .unwrap()
            .into_iter()
            .filter_map(|(_, rec)| match rec {
                LogRecord::Update { tid, .. } => Some(tid),
                _ => None,
            })
            .collect();
        assert_eq!(owners, [first, second], "re-logged in the order written");
        if commit {
            assert!(db.commit(first).unwrap());
            assert!(db.commit(second).unwrap());
        } else {
            db.engine().log().flush().unwrap();
        }
        drop(db);
        let (db, _) = Database::open(config).unwrap();
        let expect: &[u8] = if commit { b"second" } else { b"base" };
        assert_eq!(db.peek(x).unwrap().unwrap(), expect, "commit = {commit}");
    }
}

#[test]
fn full_lifecycle_across_restarts() {
    let dir = TempDir::new("lifecycle");
    let config = Config::on_disk(&dir.0);
    let mut surviving: Vec<(Oid, Vec<u8>)> = vec![];

    // session 1: commit a batch, leave one in flight
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        for i in 0..10u8 {
            let oid = db.new_oid();
            let val = vec![i; 16];
            let v2 = val.clone();
            assert!(db.run(move |ctx| ctx.write(oid, v2)).unwrap());
            surviving.push((oid, val));
        }
        let victim = surviving[0].0;
        let t = db
            .initiate(move |ctx| ctx.write(victim, b"never committed".to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        // crash without terminating t
    }

    // session 2: everything committed is there; the in-flight write is not
    {
        let (db, report) = Database::open(config.clone()).unwrap();
        assert_eq!(report.winners, 10);
        assert_eq!(report.losers, 1);
        for (oid, val) in &surviving {
            assert_eq!(db.peek(*oid).unwrap().unwrap(), *val);
        }
        // more committed work on top
        let oid = db.new_oid();
        assert!(db
            .run(move |ctx| ctx.write(oid, b"second life".to_vec()))
            .unwrap());
        surviving.push((oid, b"second life".to_vec()));
        db.checkpoint().unwrap();
    }

    // session 3: checkpoint settled everything; log replay is empty
    {
        let (db, report) = Database::open(config).unwrap();
        assert_eq!(report.redone, 0, "post-checkpoint recovery replays nothing");
        for (oid, val) in &surviving {
            assert_eq!(db.peek(*oid).unwrap().unwrap(), *val);
        }
    }
}

#[test]
fn delegation_respected_across_crash() {
    let dir = TempDir::new("delegation");
    let config = Config::on_disk(&dir.0);
    let kept: Oid;
    let dropped: Oid;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        kept = db.new_oid();
        dropped = db.new_oid();
        let receiver = db.initiate(|_| Ok(())).unwrap();
        let worker = db
            .initiate(move |ctx| {
                ctx.write(kept, b"delegated then committed".to_vec())?;
                ctx.write(dropped, b"kept by worker".to_vec())?;
                // hand `kept` to the receiver
                ctx.delegate(ctx.id(), receiver, Some(asset::ObSet::one(kept)))
            })
            .unwrap();
        db.begin(worker).unwrap();
        db.wait(worker).unwrap();
        db.begin(receiver).unwrap();
        assert!(db.commit(receiver).unwrap());
        // worker never terminates: crash. Its remaining write (dropped)
        // must roll back; the delegated one (kept) must survive because
        // the receiver committed it.
    }
    let (db, _) = Database::open(config).unwrap();
    assert_eq!(db.peek(kept).unwrap().unwrap(), b"delegated then committed");
    assert_eq!(db.peek(dropped).unwrap(), None);
}

#[test]
fn group_commit_is_atomic_across_crash() {
    let dir = TempDir::new("gc");
    let config = Config::on_disk(&dir.0);
    let a: Oid;
    let b: Oid;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        a = db.new_oid();
        b = db.new_oid();
        let t1 = db
            .initiate(move |ctx| ctx.write(a, b"left".to_vec()))
            .unwrap();
        let t2 = db
            .initiate(move |ctx| ctx.write(b, b"right".to_vec()))
            .unwrap();
        db.form_dependency(asset::DepType::GC, t1, t2).unwrap();
        db.begin_many(&[t1, t2]).unwrap();
        assert!(db.commit(t1).unwrap());
    }
    let (db, report) = Database::open(config).unwrap();
    assert_eq!(report.winners, 2, "one commit record covers the group");
    assert_eq!(db.peek(a).unwrap().unwrap(), b"left");
    assert_eq!(db.peek(b).unwrap().unwrap(), b"right");
}

#[test]
fn aborted_saga_compensations_are_durable() {
    let dir = TempDir::new("saga");
    let config = Config::on_disk(&dir.0);
    let ledger: Oid;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        ledger = db.new_oid();
        assert!(db
            .run(move |ctx| ctx.write(ledger, 100i64.to_le_bytes().to_vec()))
            .unwrap());
        let saga = asset::Saga::new()
            .step(
                "debit",
                move |ctx: &asset::TxnCtx| {
                    ctx.update(ledger, |cur| {
                        let v = i64::from_le_bytes(cur.unwrap().try_into().unwrap());
                        (v - 40).to_le_bytes().to_vec()
                    })
                },
                move |ctx: &asset::TxnCtx| {
                    ctx.update(ledger, |cur| {
                        let v = i64::from_le_bytes(cur.unwrap().try_into().unwrap());
                        (v + 40).to_le_bytes().to_vec()
                    })
                },
            )
            .final_step("fail", |ctx: &asset::TxnCtx| {
                ctx.abort_self::<()>().map(|_| ())
            });
        let (outcome, _) = saga.run(&db).unwrap();
        assert_eq!(outcome, asset::SagaOutcome::Compensated { failed_step: 1 });
    }
    let (db, _) = Database::open(config).unwrap();
    let v = i64::from_le_bytes(db.peek(ledger).unwrap().unwrap().try_into().unwrap());
    assert_eq!(v, 100, "debit and its compensation both replayed");
}

#[test]
fn repeated_crashes_converge() {
    let dir = TempDir::new("repeat");
    let config = Config::on_disk(&dir.0);
    let oid: Oid;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        oid = db.new_oid();
        assert!(db
            .run(move |ctx| ctx.write(oid, b"stable".to_vec()))
            .unwrap());
        let t = db
            .initiate(move |ctx| ctx.write(oid, b"churn".to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
    }
    // recover five times in a row; state must be identical each time
    for round in 0..5 {
        let (db, _) = Database::open(config.clone()).unwrap();
        assert_eq!(
            db.peek(oid).unwrap().unwrap(),
            b"stable",
            "round {round} diverged"
        );
    }
}

#[test]
fn many_transactions_large_log_replay() {
    let dir = TempDir::new("large");
    // Buffered durability: this test measures correctness of a long log,
    // not fsync throughput.
    let mut config = Config::on_disk(&dir.0);
    config.durability = asset::Durability::Buffered;
    let mut oids = vec![];
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        for i in 0..200u64 {
            let oid = db.new_oid();
            let committed = db
                .run(move |ctx| ctx.write(oid, i.to_le_bytes().to_vec()))
                .unwrap();
            assert!(committed);
            oids.push(oid);
        }
        // rewrite half of them
        for (i, oid) in oids.iter().enumerate().take(100) {
            let o = *oid;
            let v = (i as u64 + 1_000).to_le_bytes().to_vec();
            assert!(db.run(move |ctx| ctx.write(o, v)).unwrap());
        }
        db.engine().log().flush().unwrap();
    }
    let (db, report) = Database::open(config).unwrap();
    assert_eq!(report.winners, 300);
    for (i, oid) in oids.iter().enumerate() {
        let expect = if i < 100 { i as u64 + 1_000 } else { i as u64 };
        let got = u64::from_le_bytes(db.peek(*oid).unwrap().unwrap().try_into().unwrap());
        assert_eq!(got, expect, "object {i}");
    }
}

/// Fault-injected crash sweeps and per-bugfix regressions (compiled only
/// with `--features faults`; the broader matrix lives in
/// `tests/crash_matrix.rs`).
#[cfg(feature = "faults")]
mod faulted {
    use super::TempDir;
    use asset::faults::{FaultAction, FaultRegistry, Trigger};
    use asset::{Config, Database, DepType, TxnStatus};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn faulted_config(dir: &TempDir) -> (Config, Arc<FaultRegistry>) {
        asset::faults::silence_crash_panics();
        let faults = Arc::new(FaultRegistry::new());
        let config = Config::on_disk(&dir.0).with_faults(Arc::clone(&faults));
        (config, faults)
    }

    /// Regression for the torn-group-commit bug: a commit-record append
    /// failure used to strand every member of the GC group in the
    /// non-terminal `Committing` state with their effects still visible,
    /// while a restart would have rolled them back. The fix drives the
    /// group through abort, so the live outcome is terminal and agrees
    /// with recovery.
    #[test]
    fn commit_record_failure_leaves_group_terminal_and_agreeing() {
        let dir = TempDir::new("bug2");
        let (config, faults) = faulted_config(&dir);
        let (oa, ob);
        {
            let (db, _) = Database::open(config.clone()).unwrap();
            oa = db.new_oid();
            ob = db.new_oid();
            let t1 = db
                .initiate(move |ctx| ctx.write(oa, b"a1".to_vec()))
                .unwrap();
            let t2 = db
                .initiate(move |ctx| ctx.write(ob, b"b1".to_vec()))
                .unwrap();
            db.form_dependency(DepType::GC, t1, t2).unwrap();
            db.begin_many(&[t1, t2]).unwrap();
            db.wait(t1).unwrap();
            db.wait(t2).unwrap();

            faults.arm(
                asset::txn::failpoints::COMMIT_RECORD,
                Trigger::Once,
                FaultAction::Error,
            );
            let err = db.commit(t1).expect_err("injected commit-record failure");
            assert!(
                err.to_string().contains("commit.record"),
                "unexpected error: {err}"
            );
            // both members must be driven to a terminal state...
            assert_eq!(db.status(t1).unwrap(), TxnStatus::Aborted);
            assert_eq!(db.status(t2).unwrap(), TxnStatus::Aborted);
            // ...with their effects rolled back while the process lives
            assert_eq!(db.peek(oa).unwrap(), None);
            assert_eq!(db.peek(ob).unwrap(), None);
            // and the ambiguity must be observable
            assert_eq!(db.metrics_snapshot().counters.commit_log_failures, 1);
        }
        // a restart agrees: nothing committed
        faults.reset();
        let (db, _) = Database::open(config).unwrap();
        assert_eq!(db.peek(oa).unwrap(), None);
        assert_eq!(db.peek(ob).unwrap(), None);
    }

    /// Crash-point sweep over the GC group-commit path: wherever the
    /// process dies, a restart sees the group all-or-nothing.
    #[test]
    fn group_commit_crash_sweep_is_all_or_nothing() {
        let points = [
            asset::storage::failpoints::LOG_APPEND,
            asset::storage::failpoints::LOG_SYNC,
            asset::txn::failpoints::COMMIT_RECORD,
            asset::txn::failpoints::COMMIT_AFTER_RECORD,
        ];
        for point in points {
            let dir = TempDir::new("gc-sweep");
            let (config, faults) = faulted_config(&dir);
            let (oa, ob);
            {
                let (db, _) = Database::open(config.clone()).unwrap();
                oa = db.new_oid();
                ob = db.new_oid();
                let v = b"a0".to_vec();
                assert!(db.run(move |ctx| ctx.write(oa, v)).unwrap());
                let v = b"b0".to_vec();
                assert!(db.run(move |ctx| ctx.write(ob, v)).unwrap());
            }
            faults.arm(point, Trigger::Once, FaultAction::Crash);
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let (db, _) = Database::open(config.clone()).unwrap();
                let t1 = db
                    .initiate(move |ctx| ctx.write(oa, b"a1".to_vec()))
                    .unwrap();
                let t2 = db
                    .initiate(move |ctx| ctx.write(ob, b"b1".to_vec()))
                    .unwrap();
                db.form_dependency(DepType::GC, t1, t2).unwrap();
                db.begin_many(&[t1, t2]).unwrap();
                let _ = db.wait(t1);
                let _ = db.wait(t2);
                let _ = db.commit(t1);
            }));
            faults.reset();
            let (db, _) = Database::open(config).unwrap();
            let va = db.peek(oa).unwrap().unwrap();
            let vb = db.peek(ob).unwrap().unwrap();
            let both_old = va == b"a0" && vb == b"b0";
            let both_new = va == b"a1" && vb == b"b1";
            assert!(
                both_old || both_new,
                "[{point}] group commit torn across crash: ({va:?}, {vb:?})"
            );
        }
    }

    /// Crash-point sweep over delegation: once `delegate(t1, t2)` is on
    /// disk, the undo responsibility follows the delegatee through any
    /// crash — aborting t2 (live or during recovery) restores the
    /// baseline, and t1's commit never re-exposes the write.
    #[test]
    fn delegation_crash_sweep_undo_follows_delegatee() {
        let points = [
            asset::storage::failpoints::LOG_APPEND,
            asset::txn::failpoints::DELEGATE_RECORD,
            asset::txn::failpoints::ABORT_CLR,
        ];
        for point in points {
            let dir = TempDir::new("del-sweep");
            let (config, faults) = faulted_config(&dir);
            let o;
            {
                let (db, _) = Database::open(config.clone()).unwrap();
                o = db.new_oid();
                let v = b"d0".to_vec();
                assert!(db.run(move |ctx| ctx.write(o, v)).unwrap());
            }
            faults.arm(point, Trigger::Once, FaultAction::Crash);
            let _ = catch_unwind(AssertUnwindSafe(|| -> asset::Result<()> {
                let (db, _) = Database::open(config.clone()).unwrap();
                let t1 = db.initiate(move |ctx| ctx.write(o, b"d1".to_vec()))?;
                db.begin(t1)?;
                if !db.wait(t1)? {
                    return Ok(());
                }
                let t2 = db.initiate(|_| Ok(()))?;
                db.delegate(t1, t2, None)?;
                db.commit(t1)?;
                db.abort(t2)?;
                Ok(())
            }));
            faults.reset();
            let (db, _) = Database::open(config).unwrap();
            assert_eq!(
                db.peek(o).unwrap().unwrap(),
                b"d0",
                "[{point}] delegated undo lost across crash"
            );
        }
    }

    /// Regression companion for the LSN-desync bug at the integration
    /// level: a failed append must leave the next successful append (and
    /// recovery) aligned. The unit-level regression lives in the log
    /// module; this exercises it through the whole engine.
    #[test]
    fn failed_append_does_not_desync_recovery() {
        let dir = TempDir::new("bug1-it");
        let (config, faults) = faulted_config(&dir);
        let (oa, ob);
        {
            let (db, _) = Database::open(config.clone()).unwrap();
            oa = db.new_oid();
            ob = db.new_oid();
            let v = b"first".to_vec();
            assert!(db.run(move |ctx| ctx.write(oa, v)).unwrap());
            // one doomed transaction: its first record fails to append
            faults.arm(
                asset::storage::failpoints::LOG_APPEND,
                Trigger::Once,
                FaultAction::Error,
            );
            let t = db
                .initiate(move |ctx| ctx.write(oa, b"never".to_vec()))
                .unwrap();
            db.begin(t).unwrap();
            assert!(!db.commit(t).unwrap(), "the refused write aborted it");
            // the log must still be perfectly usable afterwards
            let v = b"second".to_vec();
            assert!(db.run(move |ctx| ctx.write(ob, v)).unwrap());
        }
        faults.reset();
        let (db, report) = Database::open(config).unwrap();
        assert_eq!(report.winners, 2, "both committed txns must replay");
        assert_eq!(db.peek(oa).unwrap().unwrap(), b"first");
        assert_eq!(db.peek(ob).unwrap().unwrap(), b"second");
    }
}
