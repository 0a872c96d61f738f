//! Property and stress tests for the lock manager.
//!
//! The central invariant of §4.2: at no time may two *unsuspended* granted
//! locks on the same object conflict. Permits relax blocking, but the
//! suspension machinery must preserve that invariant.

use asset_common::{AssetError, ObSet, Oid, OpSet, Operation, Tid};
use asset_faults::{cases, Rng};
use asset_lock::{LockTable, StripeStats};
use std::sync::Arc;
use std::time::Duration;

/// `f` summed over the table's stripes.
fn total(t: &LockTable, f: fn(&StripeStats) -> u64) -> u64 {
    t.stripe_stats().iter().map(f).sum()
}

/// Transactions' lists of their locked objects (tids below 8), held by
/// the test as asset-core holds them in its TDs and driven through the
/// table's list-taking forms.
#[derive(Default)]
struct Tds([Vec<Oid>; 8]);

impl Tds {
    fn list(&mut self, t: Tid) -> &mut Vec<Oid> {
        &mut self.0[t.raw() as usize]
    }

    fn lock(&mut self, table: &LockTable, t: Tid, ob: Oid, op: Operation, wait: Option<Duration>) {
        if let Ok(true) = table.acquire(t, ob, op, wait) {
            self.list(t).push(ob);
        }
    }

    /// Release `t`, checking every listed object was held.
    fn release(&mut self, table: &LockTable, t: Tid) {
        let mut held = std::mem::take(self.list(t));
        assert_eq!(table.release(t, &mut held), held.len());
    }

    /// Delegate `from`'s objects in `scope` to `to`.
    fn delegate(&mut self, table: &LockTable, from: Tid, to: Tid, scope: Option<&ObSet>) {
        let (mut moving, staying): (Vec<Oid>, Vec<Oid>) =
            (self.list(from).iter()).partition(|&&ob| scope.is_none_or(|s| s.contains(ob)));
        *self.list(from) = staying;
        let listed = table.delegate(from, to, &mut moving, scope);
        self.list(to).extend(listed);
    }
}

/// After any sequence of operations, no two unsuspended granted locks on
/// one object conflict, and every transaction's list names each object it
/// holds an LRD on exactly once.
fn check_invariant(table: &LockTable, tds: &Tds, oids: &[Oid], tids: &[Tid]) -> Result<(), String> {
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
        let mut listed = tds.0[tid.raw() as usize].clone();
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
            let (table, mut tds) = (LockTable::with_shards(shards), Tds::default());
            for op in ops.iter().cloned() {
                match op {
                    LockOp::Lock(t, o, w) => {
                        let op_kind = if w { Operation::Write } else { Operation::Read };
                        let wait = Some(Duration::from_millis(1));
                        tds.lock(&table, Tid(t), Oid(o), op_kind, wait);
                    }
                    LockOp::Release(t) => tds.release(&table, Tid(t)),
                    LockOp::Permit(a, b, o) => {
                        if a != b {
                            table.permit(Tid(a), Some(Tid(b)), ObSet::one(Oid(o)), OpSet::ALL);
                        }
                    }
                    LockOp::Delegate(a, b) => {
                        if a != b {
                            tds.delegate(&table, Tid(a), Tid(b), None);
                        }
                    }
                    LockOp::DelegateOne(a, b, o) => {
                        if a != b {
                            tds.delegate(&table, Tid(a), Tid(b), Some(&ObSet::one(Oid(o))));
                        }
                    }
                }
                if let Err(msg) = check_invariant(&table, &tds, &oids, &tids) {
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
            let (table, mut tds) = (LockTable::with_shards(shards), Tds::default());
            for t in [Tid(1), Tid(2)] {
                tds.lock(&table, t, Oid(1), Operation::Read, None);
            }
            tds.lock(&table, Tid(1), Oid(2), Operation::Write, None);
            tds.delegate(&table, Tid(1), Tid(2), scope.as_ref());
            let ob1 = tds.list(Tid(2)).iter().filter(|&&ob| ob == Oid(1));
            assert_eq!(ob1.count(), 1);
            assert_eq!(table.holders(Oid(1)).len(), 1, "merged into one LRD");
            check_invariant(&table, &tds, &[Oid(1), Oid(2)], &[Tid(1), Tid(2)]).unwrap();
            tds.release(&table, Tid(1));
            tds.release(&table, Tid(2));
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
        let (table, mut tds) = (LockTable::new(), Tds::default());
        for (t, o) in &locks {
            let wait = Some(Duration::from_millis(1));
            tds.lock(&table, Tid(*t), Oid(*o), Operation::Write, wait);
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
        let from_objects = tds.list(Tid(from)).len();
        let to_objects_before = tds.list(Tid(to)).len();
        tds.delegate(&table, Tid(from), Tid(to), None);
        assert!(tds.list(Tid(from)).is_empty());
        let to_objects_after = tds.list(Tid(to)).len();
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
    assert_eq!(total(&table, |s| s.deadlocks), 0);
    assert_eq!(total(&table, |s| s.timeouts), 0);
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
    assert!(total(&table, |s| s.suspensions) > 0);
}
