//! Property and stress tests for the lock manager.
//!
//! The central invariant of §4.2: at no time may two *unsuspended* granted
//! locks on the same object conflict. Permits relax blocking, but the
//! suspension machinery must preserve that invariant.

use asset_common::{AssetError, ObSet, Oid, OpSet, Operation, Tid};
use asset_faults::{cases, Rng};
use asset_lock::LockTable;
use std::sync::Arc;
use std::time::Duration;

/// After any sequence of operations, no two unsuspended granted locks on
/// one object conflict, and every transaction's TD-side list names each
/// object it holds an LRD on exactly once.
fn check_invariant(table: &LockTable, oids: &[Oid], tids: &[Tid]) -> Result<(), String> {
    for &ob in oids {
        let holders = table.holders(ob);
        for (i, a) in holders.iter().enumerate() {
            for b in holders.iter().skip(i + 1) {
                if !a.suspended && !b.suspended && a.mode.conflicts(b.mode) {
                    return Err(format!(
                        "conflicting unsuspended locks on {ob}: {a:?} vs {b:?}"
                    ));
                }
            }
        }
    }
    for &tid in tids {
        let mut listed = table.locked_objects(tid);
        listed.sort_unstable();
        let held: Vec<Oid> = oids
            .iter()
            .copied()
            .filter(|&ob| table.holders(ob).iter().any(|l| l.tid == tid))
            .collect();
        if listed != held {
            return Err(format!("{tid} lists {listed:?} but holds {held:?}"));
        }
    }
    Ok(())
}

#[derive(Clone, Debug)]
enum LockOp {
    Lock(u64, u64, bool), // tid, oid, write?
    Release(u64),
    Permit(u64, u64, u64),      // grantor, grantee, oid
    Delegate(u64, u64),         // from, to (all objects)
    DelegateOne(u64, u64, u64), // from, to, oid
}

fn arb_lock_op(rng: &mut Rng) -> LockOp {
    let tid = |rng: &mut Rng| 1 + rng.below(5);
    let oid = |rng: &mut Rng| 1 + rng.below(7);
    match rng.below(5) {
        0 => LockOp::Lock(tid(rng), oid(rng), rng.below(2) == 1),
        1 => LockOp::Release(tid(rng)),
        2 => LockOp::Permit(tid(rng), tid(rng), oid(rng)),
        3 => LockOp::Delegate(tid(rng), tid(rng)),
        _ => LockOp::DelegateOne(tid(rng), tid(rng), oid(rng)),
    }
}

/// Cases per property.
const CASES: u64 = 96;

/// Random single-threaded op sequences — grants, re-grants and upgrades,
/// whole and partial delegations, releases — never violate the invariant
/// (failed/blocked acquisitions simply error with the tiny timeout — that
/// is fine; the invariant is about what is *granted*), on one stripe and
/// on the default count.
#[test]
fn no_conflicting_unsuspended_grants() {
    cases(0x010C_0001, CASES, |rng| {
        let ops: Vec<LockOp> = (0..rng.below(60)).map(|_| arb_lock_op(rng)).collect();
        let oids: Vec<Oid> = (1..8).map(Oid).collect();
        let tids: Vec<Tid> = (1..6).map(Tid).collect();
        for shards in [1, 0] {
            let table = LockTable::with_shards(shards);
            for op in ops.iter().cloned() {
                match op {
                    LockOp::Lock(t, o, w) => {
                        let op_kind = if w { Operation::Write } else { Operation::Read };
                        let _ = table.lock(Tid(t), Oid(o), op_kind, Some(Duration::from_millis(1)));
                    }
                    LockOp::Release(t) => {
                        table.release_all(Tid(t));
                    }
                    LockOp::Permit(a, b, o) => {
                        if a != b {
                            table.permit(Tid(a), Some(Tid(b)), ObSet::one(Oid(o)), OpSet::ALL);
                        }
                    }
                    LockOp::Delegate(a, b) => {
                        if a != b {
                            table.delegate(Tid(a), Tid(b), None);
                        }
                    }
                    LockOp::DelegateOne(a, b, o) => {
                        if a != b {
                            table.delegate(Tid(a), Tid(b), Some(&ObSet::one(Oid(o))));
                        }
                    }
                }
                if let Err(msg) = check_invariant(&table, &oids, &tids) {
                    panic!("{shards} stripes: {msg}");
                }
            }
        }
    });
}

/// Delegating an object to a transaction that already holds it merges the
/// two LRDs and lists the object once; releasing the delegatee then
/// leaves no object descriptor behind.
#[test]
fn delegating_to_a_holder_lists_the_object_once() {
    for shards in [1, 0] {
        for scope in [None, Some(ObSet::one(Oid(1)))] {
            let table = LockTable::with_shards(shards);
            for t in [Tid(1), Tid(2)] {
                table.lock(t, Oid(1), Operation::Read, None).unwrap();
            }
            table.lock(Tid(1), Oid(2), Operation::Write, None).unwrap();
            table.delegate(Tid(1), Tid(2), scope.as_ref());
            assert_eq!(
                table
                    .locked_objects(Tid(2))
                    .iter()
                    .filter(|&&ob| ob == Oid(1))
                    .count(),
                1
            );
            assert_eq!(table.holders(Oid(1)).len(), 1, "merged into one LRD");
            check_invariant(&table, &[Oid(1), Oid(2)], &[Tid(1), Tid(2)]).unwrap();
            table.release_all(Tid(1));
            table.release_all(Tid(2));
            let ods: usize = table.stripe_occupancy().iter().map(|s| s.objects).sum();
            assert_eq!(
                ods, 0,
                "{shards} stripes, scope {scope:?}: an OD left behind"
            );
        }
    }
}

/// Delegation preserves the total set of (object, mode) grants —
/// nothing is lost or duplicated, only re-owned (modes may merge).
#[test]
fn delegation_conserves_objects() {
    cases(0x010C_0002, CASES, |rng| {
        let locks: Vec<(u64, u64)> = (0..rng.below(20))
            .map(|_| (1 + rng.below(4), 1 + rng.below(9)))
            .collect();
        // two distinct transactions out of 1..5
        let from = 1 + rng.below(4);
        let to = 1 + (from + rng.below(3)) % 4;
        assert_ne!(from, to);
        let table = LockTable::new();
        for (t, o) in &locks {
            let _ = table.lock(
                Tid(*t),
                Oid(*o),
                Operation::Write,
                Some(Duration::from_millis(1)),
            );
        }
        let unsuspended = |table: &LockTable| -> usize {
            (1..10)
                .map(|o| {
                    let holders = table.holders(Oid(o));
                    holders.iter().filter(|l| !l.suspended).count()
                })
                .sum()
        };
        let before = unsuspended(&table);
        let from_objects = table.locked_objects(Tid(from)).len();
        let to_objects_before = table.locked_objects(Tid(to)).len();
        table.delegate(Tid(from), Tid(to), None);
        assert!(table.locked_objects(Tid(from)).is_empty());
        let to_objects_after = table.locked_objects(Tid(to)).len();
        // objects may merge when both held a lock on the same oid
        assert!(to_objects_after <= from_objects + to_objects_before);
        assert!(to_objects_after >= from_objects.max(to_objects_before));
        assert!(unsuspended(&table) <= before);
    });
}

/// Wait until `tid`'s request on `ob` is on the pending list (it blocked).
fn await_pending(table: &LockTable, ob: Oid, tid: Tid) {
    while !table.pending(ob).iter().any(|p| p.tid == tid) {
        std::thread::yield_now();
    }
}

#[test]
fn poison_wakes_a_blocked_waiter() {
    let table = Arc::new(LockTable::new());
    table.lock(Tid(1), Oid(1), Operation::Write, None).unwrap();
    let t2 = Arc::clone(&table);
    let h = std::thread::spawn(move || {
        t2.lock(
            Tid(2),
            Oid(1),
            Operation::Write,
            Some(Duration::from_secs(10)),
        )
    });
    await_pending(&table, Oid(1), Tid(2));
    let start = std::time::Instant::now();
    table.poison(Tid(2));
    let err = h.join().unwrap().unwrap_err();
    assert!(matches!(err, AssetError::TxnAborted(Tid(2))));
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "woke promptly, not by timeout"
    );
    // release_all clears the poison: tid 2 can lock again afterwards
    table.release_all(Tid(1));
    table.release_all(Tid(2));
    table
        .lock(
            Tid(2),
            Oid(1),
            Operation::Write,
            Some(Duration::from_millis(100)),
        )
        .unwrap();
}

#[test]
fn three_way_deadlock_detected() {
    let table = Arc::new(LockTable::new());
    table.lock(Tid(1), Oid(1), Operation::Write, None).unwrap();
    table.lock(Tid(2), Oid(2), Operation::Write, None).unwrap();
    table.lock(Tid(3), Oid(3), Operation::Write, None).unwrap();
    let t_a = Arc::clone(&table);
    let h1 = std::thread::spawn(move || {
        t_a.lock(
            Tid(1),
            Oid(2),
            Operation::Write,
            Some(Duration::from_secs(5)),
        )
    });
    await_pending(&table, Oid(2), Tid(1));
    let t_b = Arc::clone(&table);
    let h2 = std::thread::spawn(move || {
        t_b.lock(
            Tid(2),
            Oid(3),
            Operation::Write,
            Some(Duration::from_secs(5)),
        )
    });
    await_pending(&table, Oid(3), Tid(2));
    // closing the cycle: t3 → ob1 held by t1 (t1 → t2 → t3 → t1)
    let err = table
        .lock(
            Tid(3),
            Oid(1),
            Operation::Write,
            Some(Duration::from_secs(5)),
        )
        .unwrap_err();
    assert!(matches!(err, AssetError::Deadlock(Tid(3))));
    // aborting the victim (releasing its locks) lets the others finish
    table.release_all(Tid(3));
    h2.join().unwrap().unwrap();
    table.release_all(Tid(2));
    h1.join().unwrap().unwrap();
}

#[test]
fn readers_stream_past_each_other_under_load() {
    let table = Arc::new(LockTable::new());
    let mut handles = vec![];
    for t in 1..=8u64 {
        let table = Arc::clone(&table);
        handles.push(std::thread::spawn(move || {
            for o in 1..=50u64 {
                table.lock(Tid(t), Oid(o), Operation::Read, None).unwrap();
            }
            table.release_all(Tid(t));
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(table.stats().deadlocks, 0);
    assert_eq!(table.stats().timeouts, 0);
}

#[test]
fn suspended_lock_regrant_cycles_under_stress() {
    // two holders ping-pong a write lock via mutual permits, thousands of
    // times, from two real threads; the invariant holds throughout and
    // both make progress
    let table = Arc::new(LockTable::new());
    table.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
    table.permit(Tid(2), Some(Tid(1)), ObSet::one(Oid(1)), OpSet::ALL);
    let mut handles = vec![];
    for t in [1u64, 2] {
        let table = Arc::clone(&table);
        handles.push(std::thread::spawn(move || {
            for _ in 0..2_000 {
                table.lock(Tid(t), Oid(1), Operation::Write, None).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let holders = table.holders(Oid(1));
    let unsuspended = holders.iter().filter(|l| !l.suspended).count();
    assert!(
        unsuspended <= 1,
        "at most one unsuspended writer at the end"
    );
    assert!(table.stats().suspensions > 0);
}
