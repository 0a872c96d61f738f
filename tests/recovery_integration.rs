//! Crash-recovery integration tests over the on-disk engine: committed
//! work survives, in-flight work rolls back, delegation is honored across
//! restarts, checkpoints truncate, and recovery is idempotent.

use asset::faults::TempDir;
use asset::{Config, Database, Oid};

/// Two live cooperating writers of one object across a `checkpoint`
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
        db.checkpoint().unwrap();
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

/// Objects bigger than a page (regression: the slotted-page store refused
/// a record over one page, so one committed 5 000-byte object made every
/// later `checkpoint` and `compact_log` fail): both cut the log, and each
/// restart reads the objects back from the store's image.
#[test]
fn objects_bigger_than_a_page_survive_checkpoint_compaction_and_reopen() {
    let dir = TempDir::new("big");
    let config = Config::on_disk(&dir.0);
    let image = |len: usize| (0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>();
    let objects: Vec<(Oid, Vec<u8>)>;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        objects = vec![(db.new_oid(), image(1 << 20)), (db.new_oid(), image(5_000))];
        for (oid, bytes) in objects.clone() {
            assert!(db.run(move |ctx| ctx.write(oid, bytes)).unwrap());
        }
        db.checkpoint().unwrap();
        db.checkpoint().unwrap();
    }
    for _ in 0..2 {
        let (db, report) = Database::open(config.clone()).unwrap();
        assert_eq!(report.redone, 0, "nothing left in the log to redo");
        for (oid, bytes) in &objects {
            assert_eq!(&db.peek(*oid).unwrap().unwrap(), bytes);
        }
    }
}

/// Fault-injected regressions (compiled only with `--features faults`;
/// the crash sweeps live in `tests/crash_matrix.rs`).
#[cfg(feature = "faults")]
mod faulted {
    use super::TempDir;
    use asset::faults::{within, FaultAction, FaultRegistry, Trigger};
    use asset::{AssetError, Config, Database, DepType};
    use std::sync::Arc;

    fn faulted_config(dir: &TempDir) -> (Config, Arc<FaultRegistry>) {
        asset::faults::silence_crash_panics();
        let faults = Arc::new(FaultRegistry::new());
        let config = Config::on_disk(&dir.0).with_faults(Arc::clone(&faults));
        (config, faults)
    }

    /// A commit-record failure stops the database (it once stranded the
    /// GC group `Committing`, then was reconciled by logging an abort
    /// after the record): the committer and a waiter for the partner
    /// return the stop, every later primitive does, and restart —
    /// twice — finds the group all-or-nothing: here nothing, since the
    /// record was refused before it was written.
    #[test]
    fn commit_record_failure_stops_and_restart_agrees() {
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
            let stopped = |r: asset::Result<bool>| matches!(r, Err(AssetError::Stopped(m)) if m.contains("commit.record"));
            assert!(stopped(Err(err)));
            let db2 = db.clone();
            let limit = std::time::Duration::from_secs(30);
            assert!(within(limit, "commit(t2)", move || stopped(db2.commit(t2))));
            assert!(stopped(db.status(t1).map(|_| true)));
            assert!(stopped(db.abort(t2)));
        }
        for _ in 0..2 {
            faults.reset();
            let (db, _) = Database::open(config.clone()).unwrap();
            assert_eq!(db.peek(oa).unwrap(), None);
            assert_eq!(db.peek(ob).unwrap(), None);
        }
    }
}
