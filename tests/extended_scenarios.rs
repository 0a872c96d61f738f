//! Cross-model integration scenarios: the extended transaction models
//! composed the way a real application would, plus a mixed-workload soak
//! test with log compaction and crash recovery at the end.

use asset::faults::Rng;
use asset::models::mlt::{run_mlt, EscrowCounter, MltOutcome};
use asset::models::{required_subtransaction, run_atomic, run_nested, Saga, SagaOutcome};
use asset::{Config, Database, Oid};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

fn enc(v: i64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> i64 {
    i64::from_le_bytes(b.try_into().unwrap())
}

/// A design office: each "project" is a nested transaction whose
/// subtransactions reserve a workstation (escrow), produce a design
/// document, and file a billing record — with MLT budget tracking running
/// alongside classic nested semantics.
#[test]
fn design_office_end_to_end() {
    let db = Database::in_memory();
    let budget = EscrowCounter::create(&db, 10_000).unwrap();

    let billing = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(billing, enc(0))).unwrap());

    let completed = Arc::new(AtomicI64::new(0));
    std::thread::scope(|scope| {
        for p in 0..6i64 {
            let db = db.clone();
            let completed = Arc::clone(&completed);
            scope.spawn(move || {
                // spend from the shared budget under MLT...
                let cost = 500 + p * 100;
                let spend = run_mlt(&db, move |mlt| {
                    budget.sub_bounded(mlt, cost, 0)?;
                    Ok(())
                })
                .unwrap();
                assert_eq!(spend, MltOutcome::Committed);
                // ...then run the project as a nested transaction
                let doc = db.new_oid();
                let committed = run_nested(&db, move |ctx| {
                    required_subtransaction(ctx, move |c| {
                        c.write(doc, format!("design-{p}").into_bytes())
                    })?;
                    required_subtransaction(ctx, move |c| {
                        c.update(billing, move |cur| enc(dec(&cur.unwrap()) + cost))
                    })?;
                    Ok(())
                })
                .unwrap();
                assert!(committed);
                completed.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(completed.load(Ordering::SeqCst), 6);
    let spent: i64 = (0..6).map(|p| 500 + p * 100).sum();
    assert_eq!(budget.peek(&db), 10_000 - spent);
    assert_eq!(dec(&db.peek(billing).unwrap().unwrap()), spent);
}

/// A saga whose steps are themselves nested transactions; a late failure
/// compensates the earlier nested commits.
#[test]
fn saga_of_nested_transactions() {
    let db = Database::in_memory();
    let warehouse = db.new_oid();
    let manifest = db.new_oid();
    assert!(db
        .run(move |ctx| {
            ctx.write(warehouse, enc(100))?;
            ctx.write(manifest, Vec::new())
        })
        .unwrap());

    let pick = move |units: i64| {
        move |ctx: &asset::TxnCtx| {
            // nested: decrement stock and append to manifest, atomically
            required_subtransaction(ctx, move |c| {
                c.update(warehouse, move |cur| enc(dec(&cur.unwrap()) - units))
            })?;
            required_subtransaction(ctx, move |c| {
                c.update(manifest, move |cur| {
                    let mut v = cur.unwrap_or_default();
                    v.push(units as u8);
                    v
                })
            })
        }
    };
    let unpick = move |units: i64| {
        move |ctx: &asset::TxnCtx| {
            ctx.update(warehouse, move |cur| enc(dec(&cur.unwrap()) + units))?;
            ctx.update(manifest, |cur| {
                let mut v = cur.unwrap_or_default();
                v.pop();
                v
            })
        }
    };

    let saga = Saga::new()
        .step("pick-10", pick(10), unpick(10))
        .step("pick-20", pick(20), unpick(20))
        .final_step("ship", |ctx: &asset::TxnCtx| {
            ctx.abort_self::<()>().map(|_| ())
        });
    let (outcome, trace) = saga.run(&db).unwrap();
    assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 2 });
    assert_eq!(
        trace.events,
        vec!["pick-10", "pick-20", "~pick-20", "~pick-10"]
    );
    assert_eq!(
        dec(&db.peek(warehouse).unwrap().unwrap()),
        100,
        "stock restored"
    );
    assert!(
        db.peek(manifest).unwrap().unwrap().is_empty(),
        "manifest emptied"
    );
}

/// Soak: hundreds of mixed transactions (transfers, aborts, delegations,
/// nested work) interleaved with log compaction; totals hold and a final
/// crash-recovery pass converges to the same state.
#[test]
fn mixed_workload_soak_with_compaction_and_recovery() {
    let dir = asset::faults::TempDir::new("soak");
    let mut config = Config::on_disk(&*dir);
    config.durability = asset::Durability::Buffered;

    let n_accounts = 6usize;
    let initial = 1_000i64;
    let accounts: Vec<Oid>;
    let expected_total = (n_accounts as i64) * initial;
    {
        let (db, _) = Database::open(config.clone()).unwrap();
        accounts = (0..n_accounts).map(|_| db.new_oid()).collect();
        let seed = accounts.clone();
        assert!(db
            .run(move |ctx| {
                for a in &seed {
                    ctx.write(*a, enc(initial))?;
                }
                Ok(())
            })
            .unwrap());

        let mut rng = Rng::new(0xABCD, 0);
        for round in 0..300 {
            let from = *rng.pick(&accounts);
            let to = *rng.pick(&accounts);
            if from == to {
                continue;
            }
            let amount = rng.below(40) as i64;
            let style = rng.below(4);
            match style {
                0 => {
                    // plain transfer
                    let _ = run_atomic(&db, move |ctx| {
                        let (a, b) = if from.raw() < to.raw() {
                            (from, to)
                        } else {
                            (to, from)
                        };
                        ctx.lock_exclusive(a)?;
                        ctx.lock_exclusive(b)?;
                        let vf = dec(&ctx.read(from)?.unwrap());
                        if vf < amount {
                            return ctx.abort_self();
                        }
                        ctx.write(from, enc(vf - amount))?;
                        let vt = dec(&ctx.read(to)?.unwrap());
                        ctx.write(to, enc(vt + amount))
                    })
                    .unwrap();
                }
                1 => {
                    // transfer inside a nested transaction
                    let _ = run_nested(&db, move |ctx| {
                        required_subtransaction(ctx, move |c| {
                            let (a, b) = if from.raw() < to.raw() {
                                (from, to)
                            } else {
                                (to, from)
                            };
                            c.lock_exclusive(a)?;
                            c.lock_exclusive(b)?;
                            let vf = dec(&c.read(from)?.unwrap());
                            if vf < amount {
                                return c.abort_self();
                            }
                            c.write(from, enc(vf - amount))?;
                            let vt = dec(&c.read(to)?.unwrap());
                            c.write(to, enc(vt + amount))
                        })
                    })
                    .unwrap();
                }
                2 => {
                    // start, write, then abort — must leave no trace
                    let t = db
                        .initiate(move |ctx| {
                            ctx.update(from, move |cur| enc(dec(&cur.unwrap()) - 999))
                        })
                        .unwrap();
                    db.begin(t).unwrap();
                    db.wait(t).unwrap();
                    db.abort(t).unwrap();
                }
                _ => {
                    // delegated hand-off that commits via the receiver
                    let receiver = db.initiate(|_| Ok(())).unwrap();
                    let worker = db
                        .initiate(move |ctx| {
                            ctx.update(from, move |cur| enc(dec(&cur.unwrap())))?;
                            ctx.delegate_to(receiver)
                        })
                        .unwrap();
                    db.begin(worker).unwrap();
                    db.wait(worker).unwrap();
                    db.commit(worker).unwrap();
                    db.begin(receiver).unwrap();
                    db.commit(receiver).unwrap();
                }
            }
            if round % 60 == 59 {
                db.checkpoint().unwrap();
            }
        }
        let total: i64 = accounts
            .iter()
            .map(|a| dec(&db.peek(*a).unwrap().unwrap()))
            .sum();
        assert_eq!(total, expected_total, "conserved before crash");
        db.engine().log().flush().unwrap();
        // crash here
    }
    let (db, _) = Database::open(config).unwrap();
    let total: i64 = accounts
        .iter()
        .map(|a| dec(&db.peek(*a).unwrap().unwrap()))
        .sum();
    assert_eq!(
        total, expected_total,
        "conserved across compactions and crash"
    );
}

/// A multi-level transaction whose commit path fails after its body ran
/// stops the database (run with `--features faults`): the logical undo
/// cannot run in the process any more, and restart keeps the committed
/// child operations — the compensation across a restart that ROADMAP
/// names.
#[cfg(feature = "faults")]
mod mlt_errors {
    use asset::faults::{within, FaultAction, FaultRegistry, TempDir, Trigger};
    use asset::models::mlt::{run_mlt, EscrowCounter, MltOutcome};
    use asset::txn::failpoints::COMMIT_RECORD;
    use asset::{AssetError, Config, Database, Oid};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    const LIMIT: Duration = Duration::from_secs(30);

    fn faulted(dir: &TempDir) -> (Config, Arc<FaultRegistry>) {
        asset::faults::silence_crash_panics();
        let faults = Arc::new(FaultRegistry::new());
        (
            Config::on_disk(&**dir).with_faults(Arc::clone(&faults)),
            faults,
        )
    }

    /// What a later observer of `counter` sees.
    fn observe(db: &Database, counter: EscrowCounter) -> i64 {
        let (seen, value) = mpsc::channel();
        let out = run_mlt(db, move |mlt| {
            let _ = seen.send(counter.observe(mlt)?);
            Ok(())
        });
        assert_eq!(out.unwrap(), MltOutcome::Committed);
        value.recv().unwrap()
    }

    /// `err` is the stop `commit.record` caused; a later MLT on `db`
    /// returns the stop too, at once; then restart, twice, finds
    /// `counter` at `value` and `note` (if any) unwritten.
    fn stopped_then_restart(
        err: AssetError,
        db: Database,
        (config, faults): (Config, Arc<FaultRegistry>),
        counter: EscrowCounter,
        (value, note): (i64, Option<Oid>),
    ) {
        assert!(
            matches!(&err, AssetError::Stopped(m) if m.contains("commit.record")),
            "{err}"
        );
        let db2 = db.clone();
        let later = within(LIMIT, "a later MLT", move || {
            run_mlt(&db2, move |mlt| counter.observe(mlt).map(drop))
        });
        assert!(matches!(later, Err(AssetError::Stopped(_))), "{later:?}");
        drop(db);
        for _ in 0..2 {
            faults.reset();
            let (db, _) = Database::open(config.clone()).unwrap();
            assert_eq!(observe(&db, counter), value);
            if let Some(note) = note {
                assert_eq!(db.peek(note).unwrap(), None);
            }
        }
    }

    #[test]
    fn a_failed_inverse_stops_and_restart_keeps_the_committed_add() {
        let dir = TempDir::new("mlt-inverse");
        let (config, faults) = faulted(&dir);
        let (db, _) = Database::open(config.clone()).unwrap();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let armed = Arc::clone(&faults);
        let err = run_mlt(&db, move |mlt| {
            counter.add(mlt, 1)?;
            // the next commit record is the inverse's
            armed.arm(COMMIT_RECORD, Trigger::Once, FaultAction::Error);
            mlt.ctx().abort_self()
        })
        .expect_err("the inverse's commit record fails");
        stopped_then_restart(err, db, (config, faults), counter, (1, None));
    }

    #[test]
    fn a_failed_parent_commit_record_stops_before_the_inverses_run() {
        let dir = TempDir::new("mlt-parent");
        let (config, faults) = faulted(&dir);
        let (db, _) = Database::open(config.clone()).unwrap();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let note = db.new_oid();
        let armed = Arc::clone(&faults);
        let err = run_mlt(&db, move |mlt| {
            counter.add(mlt, 1)?;
            mlt.ctx().write(note, b"x".to_vec())?; // the parent's own record
            armed.arm(COMMIT_RECORD, Trigger::Once, FaultAction::Error);
            Ok(())
        })
        .expect_err("the parent's commit record fails");
        stopped_then_restart(err, db, (config, faults), counter, (1, Some(note)));
    }
}
