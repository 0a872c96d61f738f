//! Concurrency stress tests: many threads, real contention, invariants
//! that only hold if locking, undo and the commit protocol are correct.

use asset::faults::Rng;
use asset::models::run_atomic_retrying;
use asset::{Config, Database, Oid, TxnCtx};
use std::sync::Arc;
use std::time::Duration;

fn balance(db: &Database, acct: Oid) -> i64 {
    i64::from_le_bytes(db.peek(acct).unwrap().unwrap().try_into().unwrap())
}

fn setup_accounts(db: &Database, n: usize, initial: i64) -> Vec<Oid> {
    let oids: Vec<Oid> = (0..n).map(|_| db.new_oid()).collect();
    let o2 = oids.clone();
    assert!(db
        .run(move |ctx| {
            for oid in &o2 {
                ctx.write(*oid, initial.to_le_bytes().to_vec())?;
            }
            Ok(())
        })
        .unwrap());
    oids
}

/// Random transfers between accounts, run from many threads, with
/// deadlock-victim retry. Total balance must be conserved — the classic
/// serializability smoke invariant.
#[test]
fn bank_transfers_conserve_total() {
    let db =
        Database::open(Config::in_memory().with_lock_timeout(Some(Duration::from_millis(200))))
            .unwrap()
            .0;
    let n_accounts = 8;
    let initial = 1_000i64;
    let accounts = Arc::new(setup_accounts(&db, n_accounts, initial));

    let threads = 6;
    let transfers_per_thread = 40;
    let mut handles = vec![];
    for tno in 0..threads {
        let db = db.clone();
        let accounts = Arc::clone(&accounts);
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15, tno as u64);
            for _ in 0..transfers_per_thread {
                let from = *rng.pick(&accounts);
                let to = *rng.pick(&accounts);
                if from == to {
                    continue;
                }
                let amount = rng.below(50) as i64;
                // lock accounts in oid order to reduce (not eliminate)
                // deadlocks; retries absorb the rest
                let (first, second) = if from < to { (from, to) } else { (to, from) };
                let outcome = run_atomic_retrying(
                    &db,
                    Arc::new(move |ctx: &TxnCtx| {
                        let f = i64::from_le_bytes(ctx.read(first)?.unwrap().try_into().unwrap());
                        let s = i64::from_le_bytes(ctx.read(second)?.unwrap().try_into().unwrap());
                        let (nf, ns) = if first == from {
                            (f - amount, s + amount)
                        } else {
                            (f + amount, s - amount)
                        };
                        ctx.write(first, nf.to_le_bytes().to_vec())?;
                        ctx.write(second, ns.to_le_bytes().to_vec())?;
                        Ok(())
                    }),
                    20,
                )
                .unwrap();
                let _ = outcome;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = accounts.iter().map(|a| balance(&db, *a)).sum();
    assert_eq!(
        total,
        n_accounts as i64 * initial,
        "money conserved under contention"
    );
}

/// Increment contention on a single hot object: every committed increment
/// must be visible (no lost updates under exclusive locking).
#[test]
fn hot_counter_no_lost_updates() {
    let db = Database::open(Config::in_memory().with_lock_timeout(Some(Duration::from_secs(5))))
        .unwrap()
        .0;
    let counter = setup_accounts(&db, 1, 0)[0];
    let threads = 8;
    let increments = 25;
    let mut handles = vec![];
    for _ in 0..threads {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..increments {
                let out = run_atomic_retrying(
                    &db,
                    Arc::new(move |ctx: &TxnCtx| {
                        // ctx.update takes the write lock up front, so there
                        // is no read→write upgrade and no upgrade deadlock
                        ctx.update(counter, |cur| {
                            let v = i64::from_le_bytes(cur.unwrap().try_into().unwrap());
                            (v + 1).to_le_bytes().to_vec()
                        })
                    }),
                    50,
                )
                .unwrap();
                assert!(
                    matches!(out, asset::models::RetryOutcome::Committed { .. }),
                    "write-first increments serialize cleanly: {out:?}"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(balance(&db, counter), (threads * increments) as i64);
}

/// Aborted transactions under concurrency leave no partial effects.
#[test]
fn aborts_leave_no_partial_writes() {
    let db = Database::in_memory();
    let pair = setup_accounts(&db, 2, 100);
    let (a, b) = (pair[0], pair[1]);
    let mut handles = vec![];
    for i in 0..6 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for j in 0..20 {
                let fail = (i + j) % 3 == 0;
                let _ = run_atomic_retrying(
                    &db,
                    Arc::new(move |ctx: &TxnCtx| {
                        let va = i64::from_le_bytes(ctx.read(a)?.unwrap().try_into().unwrap());
                        ctx.write(a, (va - 7).to_le_bytes().to_vec())?;
                        if fail {
                            return ctx.abort_self();
                        }
                        let vb = i64::from_le_bytes(ctx.read(b)?.unwrap().try_into().unwrap());
                        ctx.write(b, (vb + 7).to_le_bytes().to_vec())
                    }),
                    30,
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        balance(&db, a) + balance(&db, b),
        200,
        "either both writes of a transfer landed or neither"
    );
}

/// Sagas hammered concurrently: the inventory counter never goes negative
/// and every committed saga holds exactly one unit.
#[test]
fn concurrent_sagas_respect_inventory() {
    use asset::models::{Saga, SagaOutcome};
    let db = Database::in_memory();
    let stock = setup_accounts(&db, 1, 10)[0];
    let sold = Arc::new(std::sync::atomic::AtomicI64::new(0));
    let mut handles = vec![];
    for _ in 0..4 {
        let db = db.clone();
        let sold = Arc::clone(&sold);
        handles.push(std::thread::spawn(move || {
            for round in 0..8u32 {
                let reserve = move |ctx: &TxnCtx| {
                    let v = i64::from_le_bytes(ctx.read(stock)?.unwrap().try_into().unwrap());
                    if v == 0 {
                        return ctx.abort_self();
                    }
                    ctx.write(stock, (v - 1).to_le_bytes().to_vec())
                };
                let release = move |ctx: &TxnCtx| {
                    let v = i64::from_le_bytes(ctx.read(stock)?.unwrap().try_into().unwrap());
                    ctx.write(stock, (v + 1).to_le_bytes().to_vec())
                };
                // half the sagas fail at the confirm step, forcing
                // compensation of the committed reservation
                let fail = round % 2 == 0;
                let saga = Saga::new().step("reserve", reserve, release).final_step(
                    "confirm",
                    move |ctx: &TxnCtx| {
                        if fail {
                            ctx.abort_self::<()>().map(|_| ())
                        } else {
                            Ok(())
                        }
                    },
                );
                match saga.run(&db).unwrap().0 {
                    SagaOutcome::Committed => {
                        sold.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                    SagaOutcome::Compensated { .. } => {}
                }
                let current = balance(&db, stock);
                assert!(current >= 0, "inventory never negative, saw {current}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let final_stock = balance(&db, stock);
    let sold = sold.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(
        final_stock + sold,
        10,
        "units conserved: stock {final_stock} + sold {sold}"
    );
}

/// Transaction table hygiene: thousands of short transactions do not
/// exhaust the configured cap, since each one's TD ends with it.
#[test]
fn churn_with_retirement() {
    let db = Database::open(Config::in_memory().with_max_transactions(64))
        .unwrap()
        .0;
    let oid = setup_accounts(&db, 1, 0)[0];
    for batch in 0..20 {
        for _ in 0..32 {
            assert!(db
                .run(move |ctx| {
                    let v = i64::from_le_bytes(ctx.read(oid)?.unwrap().try_into().unwrap());
                    ctx.write(oid, (v + 1).to_le_bytes().to_vec())
                })
                .unwrap());
        }
        assert_eq!(
            db.introspect().live,
            0,
            "batch {batch}: a TD outlived its transaction"
        );
    }
    assert_eq!(balance(&db, oid), 20 * 32);
}
