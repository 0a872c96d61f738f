//! Multi-level transactions — the paper's §5 future work: "exploit the
//! concurrency semantics inherent in objects ... operations to increase
//! an existing employee's salary and to add a new employee to a
//! department commute", after Weikum's multi-level transactions (the
//! paper's reference 23). Like every model here, they are built from the
//! §2 primitives alone:
//!
//! * A **semantic operation** runs as an open-nested subtransaction
//!   (`initiate`/`begin`/`commit` from inside the parent) that commits at
//!   once, releasing its object locks, and registers an *inverse*.
//! * A **semantic lock** is a transaction lock on the semantic object's
//!   *guard*: an oid allocated with the object and never written. An
//!   [`OpClass::Update`] takes it shared, so any number of parents'
//!   updates coexist; an [`OpClass::Observe`] takes it exclusive, so an
//!   observer waits for every other parent that updated, and they for it.
//!   These are `asset-lock` waits: they honour the configured lock
//!   timeout, are victims of deadlock detection, and show in the
//!   waits-for graph and the `lock.*` counters.
//! * **Logical undo keeps the guards.** When the parent's body returns,
//!   with or without an error, the parent `delegate`s its guard locks
//!   (§2.2) to a holder transaction `H` that [`run_mlt`] initiated beside
//!   it. `H` ends only after the parent has committed, or after every
//!   inverse has committed, newest first, each retried until it commits
//!   by the loop that also compensates sagas and workflows. So no other
//!   parent observes an aborted parent's committed operations.
//!
//! [`EscrowCounter`] and the paper's own [`Department`] are the semantic
//! objects.

use crate::atomic::{compensate, Action};
use asset_common::{AssetError, ObSet, Oid, Result, Tid};
use asset_core::{Database, Handle, ObjectCodec, TxnCtx};
use asset_obs::{EventKind, ModelKind};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

/// How a semantic operation locks its object's guard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// Commutes with every other update (an increment, a hire, a raise):
    /// the guard is locked shared.
    Update,
    /// Reads the exact state, so it conflicts with other parents'
    /// updates: the guard is locked exclusive.
    Observe,
}

/// The in-flight state of one MLT parent.
pub struct MltSession<'a> {
    ctx: &'a TxnCtx,
    guards: RefCell<BTreeSet<Oid>>,
    inverses: Sender<Action>,
}

impl MltSession<'_> {
    /// The parent's transaction context, for plain reads and writes
    /// (locked until the parent ends, undone physically) beside the
    /// semantic operations.
    pub fn ctx(&self) -> &TxnCtx {
        self.ctx
    }

    /// Run one semantic operation of `class` on the object that `guard`
    /// guards: lock the guard for the parent, run `action` as an
    /// open-nested subtransaction that commits at once, and register
    /// `inverse` for logical undo. An `action` that fails or aborts itself
    /// fails the operation and registers nothing; the parent decides
    /// whether to go on.
    pub fn op<R: Send + 'static>(
        &self,
        guard: Oid,
        class: OpClass,
        action: impl FnOnce(&TxnCtx) -> Result<R> + Send + 'static,
        inverse: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
    ) -> Result<R> {
        match class {
            OpClass::Update => self.ctx.lock_shared(guard)?,
            OpClass::Observe => self.ctx.lock_exclusive(guard)?,
        }
        self.guards.borrow_mut().insert(guard);
        let (out, result) = channel();
        let t = self.ctx.initiate(move |c| {
            let _ = out.send(action(c)?);
            Ok(())
        })?;
        self.ctx.begin(t)?;
        if !self.ctx.commit(t)? {
            return Err(AssetError::TxnAborted(t));
        }
        let _ = self.inverses.send(Arc::new(inverse));
        result.try_recv().map_err(|_| AssetError::TxnAborted(t))
    }
}

/// Outcome of an MLT parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MltOutcome {
    /// Parent committed; all semantic operations are durable.
    Committed,
    /// Parent aborted; every committed semantic operation was logically
    /// undone by its inverse (in reverse order).
    Undone {
        /// Number of inverse operations executed.
        inverses_run: usize,
    },
}

/// Run `body` as a multi-level transaction. Its plain `ctx()` reads and
/// writes get ordinary ASSET treatment (2PL, physical undo); its semantic
/// operations get open nesting and logical undo. An error after the body
/// ran (an inverse that cannot start, a failed commit record) is returned
/// once `H` has ended, so no guard stays locked.
pub fn run_mlt(
    db: &Database,
    body: impl FnOnce(&MltSession<'_>) -> Result<()> + Send + 'static,
) -> Result<MltOutcome> {
    let holder = db.initiate(|_| Ok(()))?;
    let outcome = run_parent(db, holder, body);
    // H has no work of its own: ending it releases the guards
    db.abort(holder)?;
    outcome
}

/// The parent and its logical undo, with `holder` as `H`.
fn run_parent(
    db: &Database,
    holder: Tid,
    body: impl FnOnce(&MltSession<'_>) -> Result<()> + Send + 'static,
) -> Result<MltOutcome> {
    let (inverses, registered) = channel();
    let parent = db.initiate(move |ctx| {
        let session = MltSession {
            ctx,
            guards: RefCell::default(),
            inverses,
        };
        let out = body(&session);
        let guards = session.guards.take();
        if !guards.is_empty() {
            ctx.delegate(ctx.id(), holder, Some(ObSet::Objects(guards)))?;
        }
        out
    })?;
    db.obs().record(EventKind::Model {
        model: ModelKind::Mlt,
        tid: parent,
        label: "parent",
    });
    db.begin(parent)?;
    let committed = db.commit(parent);
    if matches!(committed, Ok(true)) {
        return Ok(MltOutcome::Committed);
    }
    // aborted, in its body or after it (a dependency partner, a failed
    // commit record): each inverse is retried until it commits, as a saga
    // compensation is
    let inverses: Vec<Action> = registered.try_iter().collect();
    compensate(db, ModelKind::Mlt, &inverses)?;
    committed.map(|_| MltOutcome::Undone {
        inverses_run: inverses.len(),
    })
}

/// Allocate a semantic object holding `initial`, and its guard.
fn create<T: ObjectCodec + Send + 'static>(db: &Database, initial: T) -> Result<(Handle<T>, Oid)> {
    let handle = Handle::from_oid(db.new_oid());
    if !db.run(move |ctx| ctx.put(handle, &initial))? {
        return Err(AssetError::TxnAborted(Tid::NULL));
    }
    Ok((handle, db.new_oid()))
}

/// The last installed value of `h`, outside any transaction (diagnostics).
fn peek<T: ObjectCodec + Default>(db: &Database, h: Handle<T>) -> T {
    db.peek(h.oid())
        .ok()
        .flatten()
        .and_then(|b| T::decode(&b).ok())
        .unwrap_or_default()
}

/// An escrow counter. Increments and decrements are updates, so any
/// number of parents adjust it at once; only observing the exact value
/// waits for them. A bounded decrement checks and decrements in one
/// open-nested operation that write-locks the counter for that instant,
/// so the floor holds however many parents race.
#[derive(Clone, Copy, Debug)]
pub struct EscrowCounter {
    handle: Handle<i64>,
    guard: Oid,
}

impl EscrowCounter {
    /// Create a counter with `initial` value (runs its own transaction).
    pub fn create(db: &Database, initial: i64) -> Result<EscrowCounter> {
        let (handle, guard) = create(db, initial)?;
        Ok(EscrowCounter { handle, guard })
    }

    /// The underlying typed handle.
    pub fn handle(&self) -> Handle<i64> {
        self.handle
    }

    /// Add `delta`. Commutes with other adjustments.
    pub fn add(&self, mlt: &MltSession<'_>, delta: i64) -> Result<()> {
        let h = self.handle;
        mlt.op(
            self.guard,
            OpClass::Update,
            move |c| c.modify(h, |v| v + delta),
            move |c| c.modify(h, |v| v - delta),
        )
    }

    /// Subtract `delta`, failing without effect if the value would fall
    /// below `floor`.
    pub fn sub_bounded(&self, mlt: &MltSession<'_>, delta: i64, floor: i64) -> Result<()> {
        let h = self.handle;
        mlt.op(
            self.guard,
            OpClass::Update,
            move |c| {
                // write-lock first: avoids the read->write upgrade deadlock
                // between concurrent decrement operations
                c.lock_exclusive(h.oid())?;
                let v = c.get(h)?.ok_or(AssetError::ObjectNotFound(h.oid()))?;
                if v - delta < floor {
                    return c.abort_self(); // insufficient escrow
                }
                c.put(h, &(v - delta))
            },
            move |c| c.modify(h, |v| v + delta),
        )
    }

    /// Observe the exact value, once every other parent that adjusted the
    /// counter has ended.
    pub fn observe(&self, mlt: &MltSession<'_>) -> Result<i64> {
        let h = self.handle;
        mlt.op(
            self.guard,
            OpClass::Observe,
            move |c| c.get(h)?.ok_or(AssetError::ObjectNotFound(h.oid())),
            |_| Ok(()), // observation needs no undo
        )
    }

    /// Committed value, outside any transaction (diagnostics).
    pub fn peek(&self, db: &Database) -> i64 {
        peek(db, self.handle)
    }
}

type Roster = Vec<(String, u64)>;

/// The paper's §5 example: a department whose employee roster is one
/// object. Under plain locking any two updates of it conflict; here hiring
/// and raises are updates, so they run at once in different long-lived
/// parents, undone logically (fire the hire, lower the raise) if a parent
/// aborts. Reading the roster observes.
#[derive(Clone, Copy, Debug)]
pub struct Department {
    handle: Handle<Roster>,
    guard: Oid,
}

impl Department {
    /// Create an empty department.
    pub fn create(db: &Database) -> Result<Department> {
        let (handle, guard) = create(db, Roster::new())?;
        Ok(Department { handle, guard })
    }

    /// Hire `name` at `salary`. Fails if the name is taken. Inverse: fire.
    pub fn add_employee(
        &self,
        mlt: &MltSession<'_>,
        name: impl Into<String>,
        salary: u64,
    ) -> Result<()> {
        let name = name.into();
        let fired = name.clone();
        self.update(
            mlt,
            move |roster| {
                let fresh = roster.iter().all(|(n, _)| *n != name);
                if fresh {
                    roster.push((name, salary));
                }
                fresh
            },
            move |roster| roster.retain(|(n, _)| *n != fired),
        )
    }

    /// Raise `name`'s salary by `amount`. Fails if absent. Inverse: lower.
    pub fn raise_salary(
        &self,
        mlt: &MltSession<'_>,
        name: impl Into<String>,
        amount: u64,
    ) -> Result<()> {
        let name = name.into();
        let lowered = name.clone();
        self.update(
            mlt,
            move |roster| match roster.iter_mut().find(|(n, _)| *n == name) {
                Some((_, s)) => {
                    *s += amount;
                    true
                }
                None => false,
            },
            move |roster| {
                if let Some((_, s)) = roster.iter_mut().find(|(n, _)| *n == lowered) {
                    *s = s.saturating_sub(amount);
                }
            },
        )
    }

    /// One update of the roster: `apply` edits it, returning `false` to
    /// fail the operation; `undo` reverts the edit.
    fn update(
        &self,
        mlt: &MltSession<'_>,
        apply: impl FnOnce(&mut Roster) -> bool + Send + 'static,
        undo: impl Fn(&mut Roster) + Send + Sync + 'static,
    ) -> Result<()> {
        let h = self.handle;
        mlt.op(
            self.guard,
            OpClass::Update,
            move |c| {
                c.lock_exclusive(h.oid())?; // no read->write upgrade window
                let mut roster = c.get(h)?.unwrap_or_default();
                if !apply(&mut roster) {
                    return c.abort_self();
                }
                c.put(h, &roster)
            },
            move |c| {
                c.modify(h, |mut roster| {
                    undo(&mut roster);
                    roster
                })
            },
        )
    }

    /// Read the roster (payroll), once in-flight hires and raises by other
    /// parents have ended.
    pub fn roster(&self, mlt: &MltSession<'_>) -> Result<Roster> {
        let h = self.handle;
        mlt.op(
            self.guard,
            OpClass::Observe,
            move |c| Ok(c.get(h)?.unwrap_or_default()),
            |_| Ok(()),
        )
    }

    /// Committed roster, outside any transaction (diagnostics).
    pub fn peek(&self, db: &Database) -> Roster {
        peek(db, self.handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::DepType;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::{Duration, Instant};

    /// Add 1 to `counter` with an inverse that records how many
    /// transactions hold the guard while it runs.
    fn add_watching_guard(
        mlt: &MltSession<'_>,
        counter: EscrowCounter,
        holders: Arc<AtomicUsize>,
    ) -> Result<()> {
        let h = counter.handle;
        mlt.op(
            counter.guard,
            OpClass::Update,
            move |c| c.modify(h, |v| v + 1),
            move |c| {
                let held = c.db().locks().holders(counter.guard).len();
                holders.store(held, Ordering::SeqCst);
                c.modify(h, |v| v - 1)
            },
        )
    }

    #[test]
    fn committed_ops_are_durable_and_free_the_guard() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let out = run_mlt(&db, move |mlt| {
            for _ in 0..3 {
                counter.add(mlt, 10)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Committed);
        assert_eq!(counter.peek(&db), 30);
        assert!(db.locks().holders(counter.guard).is_empty());
    }

    #[test]
    fn parent_abort_runs_inverses_newest_first() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 100).unwrap();
        let trace = EscrowCounter::create(&db, 0).unwrap().handle;
        let out = run_mlt(&db, move |mlt| {
            for step in [1, 2] {
                let h = counter.handle;
                mlt.op(
                    counter.guard,
                    OpClass::Update,
                    move |c| c.modify(h, |v| v + step),
                    move |c| {
                        c.modify(h, |v| v - step)?;
                        c.modify(trace, |t| t * 10 + step)
                    },
                )?;
            }
            mlt.ctx().abort_self()
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Undone { inverses_run: 2 });
        assert_eq!(counter.peek(&db), 100, "logically undone");
        assert_eq!(peek(&db, trace), 21, "op 2's inverse ran before op 1's");
    }

    #[test]
    fn escrow_inverses_refund() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 50).unwrap();
        let out = run_mlt(&db, move |mlt| {
            counter.sub_bounded(mlt, 20, 0)?;
            counter.add(mlt, 5)?;
            mlt.ctx().abort_self()
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Undone { inverses_run: 2 });
        assert_eq!(counter.peek(&db), 50);
    }

    #[test]
    fn failed_op_registers_no_inverse_and_the_parent_goes_on() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 3).unwrap();
        let out = run_mlt(&db, move |mlt| {
            assert!(counter.sub_bounded(mlt, 10, 0).is_err(), "insufficient");
            counter.add(mlt, 2)?;
            mlt.ctx().abort_self()
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Undone { inverses_run: 1 });
        assert_eq!(counter.peek(&db), 3);
    }

    #[test]
    fn op_returns_values() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 7).unwrap();
        run_mlt(&db, move |mlt| {
            let h = counter.handle;
            let seen: i64 = mlt.op(
                counter.guard,
                OpClass::Update,
                move |c| {
                    c.modify(h, |v| v + 1)?;
                    Ok(c.get(h)?.unwrap_or_default())
                },
                move |c| c.modify(h, |v| v - 1),
            )?;
            assert_eq!(seen, 8);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn commuting_parents_interleave_ops() {
        // with a flat transaction one parent would hold the counter's lock
        // for its whole life; here each op releases it at its commit
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (db, barrier) = (db.clone(), Arc::clone(&barrier));
                scope.spawn(move || {
                    let out = run_mlt(&db, move |mlt| {
                        for _ in 0..10 {
                            counter.add(mlt, 1)?;
                            barrier.wait(); // forces true interleaving
                        }
                        Ok(())
                    });
                    assert_eq!(out.unwrap(), MltOutcome::Committed);
                });
            }
        });
        assert_eq!(counter.peek(&db), 20, "no lost updates");
    }

    #[test]
    fn one_parents_abort_leaves_anothers_committed_op() {
        // physical before-image undo would wipe B's increment (the §4.2
        // caveat); logical undo removes only A's own
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let (added, after_add) = mpsc::channel();
        let (go, gate) = mpsc::channel::<()>();
        let db_a = db.clone();
        let a = std::thread::spawn(move || {
            run_mlt(&db_a, move |mlt| {
                counter.add(mlt, 5)?;
                let _ = added.send(());
                let _ = gate.recv();
                mlt.ctx().abort_self()
            })
        });
        after_add.recv().unwrap();
        let b = run_mlt(&db, move |mlt| counter.add(mlt, 7)).unwrap();
        assert_eq!(b, MltOutcome::Committed);
        go.send(()).unwrap();
        let a = a.join().unwrap().unwrap();
        assert_eq!(a, MltOutcome::Undone { inverses_run: 1 });
        assert_eq!(counter.peek(&db), 7, "A's undo did not clobber B");
    }

    #[test]
    fn escrow_floor_holds_under_racing_parents() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 10).unwrap();
        let granted = Arc::new(AtomicI64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (db, granted) = (db.clone(), Arc::clone(&granted));
                scope.spawn(move || {
                    for _ in 0..10 {
                        let granted = Arc::clone(&granted);
                        run_mlt(&db, move |mlt| {
                            if counter.sub_bounded(mlt, 1, 0).is_ok() {
                                granted.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.peek(&db), 0, "floor never violated");
        assert_eq!(granted.load(Ordering::SeqCst), 10, "exactly the escrow");
    }

    #[test]
    fn an_observer_waits_in_the_lock_table_for_live_updaters() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let (tell, updater_tid) = mpsc::channel();
        let (go, gate) = mpsc::channel::<()>();
        let db_u = db.clone();
        let updater = std::thread::spawn(move || {
            run_mlt(&db_u, move |mlt| {
                counter.add(mlt, 1)?;
                let _ = tell.send(mlt.ctx().id());
                let _ = gate.recv();
                Ok(())
            })
        });
        let updater_tid = updater_tid.recv().unwrap();
        let db_o = db.clone();
        let observer = std::thread::spawn(move || {
            run_mlt(&db_o, move |mlt| {
                assert_eq!(counter.observe(mlt)?, 1, "saw the ended updater's op");
                Ok(())
            })
        });
        let waiter = loop {
            if let Some(p) = db.locks().pending(counter.guard).first() {
                break p.tid;
            }
            std::thread::yield_now();
        };
        assert_eq!(db.introspect().waits[&waiter], HashSet::from([updater_tid]));
        go.send(()).unwrap();
        assert_eq!(updater.join().unwrap().unwrap(), MltOutcome::Committed);
        assert_eq!(observer.join().unwrap().unwrap(), MltOutcome::Committed);
    }

    #[test]
    fn updaters_that_then_observe_deadlock_detectably() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let start = Instant::now();
        let outcomes: Vec<MltOutcome> = std::thread::scope(|scope| {
            let parents: Vec<_> = (0..2)
                .map(|_| {
                    let (db, barrier) = (db.clone(), Arc::clone(&barrier));
                    scope.spawn(move || {
                        run_mlt(&db, move |mlt| {
                            counter.add(mlt, 1)?;
                            // both hold the guard shared, then both
                            // upgrade: one is the victim, the other sees
                            // the counter after the victim's undo
                            barrier.wait();
                            assert_eq!(counter.observe(mlt)?, 1);
                            Ok(())
                        })
                    })
                })
                .collect();
            parents
                .into_iter()
                .map(|p| p.join().unwrap().unwrap())
                .collect()
        });
        assert!(outcomes.contains(&MltOutcome::Committed));
        assert!(outcomes.contains(&MltOutcome::Undone { inverses_run: 1 }));
        assert_eq!(db.metrics_snapshot().counters.deadlocks, 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "not a lock timeout"
        );
        assert_eq!(counter.peek(&db), 1);
    }

    #[test]
    fn the_guard_is_held_through_the_undo_of_a_failed_body() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let holders = Arc::new(AtomicUsize::new(0));
        let watched = Arc::clone(&holders);
        let out = run_mlt(&db, move |mlt| {
            add_watching_guard(mlt, counter, watched)?;
            mlt.ctx().abort_self()
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Undone { inverses_run: 1 });
        assert_eq!(holders.load(Ordering::SeqCst), 1, "H held the guard");
        assert!(db.locks().holders(counter.guard).is_empty());
        assert_eq!(counter.peek(&db), 0);
    }

    #[test]
    fn the_guard_is_held_through_the_undo_of_a_parent_aborted_after_its_body() {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let holders = Arc::new(AtomicUsize::new(0));
        let watched = Arc::clone(&holders);
        let (tell, parent) = mpsc::channel();
        let (go, gate) = mpsc::channel::<()>();
        let db_p = db.clone();
        let mlt = std::thread::spawn(move || {
            run_mlt(&db_p, move |mlt| {
                add_watching_guard(mlt, counter, watched)?;
                let _ = tell.send(mlt.ctx().id());
                let _ = gate.recv();
                Ok(()) // the body succeeds; its AD partner's abort dooms it
            })
        });
        let parent = parent.recv().unwrap();
        let partner = db.initiate(|_| Ok(())).unwrap();
        db.form_dependency(DepType::AD, partner, parent).unwrap();
        assert!(db.abort(partner).unwrap());
        go.send(()).unwrap();
        let out = mlt.join().unwrap().unwrap();
        assert_eq!(out, MltOutcome::Undone { inverses_run: 1 });
        assert_eq!(holders.load(Ordering::SeqCst), 1, "H held the guard");
        assert_eq!(counter.peek(&db), 0);
    }

    #[test]
    fn the_papers_commuting_pair_runs_concurrently() {
        // one parent hires, another gives a raise: the §5 example
        let db = Database::in_memory();
        let dept = Department::create(&db).unwrap();
        run_mlt(&db, move |mlt| dept.add_employee(mlt, "ada", 100)).unwrap();
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            let (db1, b1) = (db.clone(), Arc::clone(&barrier));
            scope.spawn(move || {
                let out = run_mlt(&db1, move |mlt| {
                    dept.add_employee(mlt, "grace", 110)?;
                    b1.wait(); // both parents hold their semantic locks here
                    Ok(())
                });
                assert_eq!(out.unwrap(), MltOutcome::Committed);
            });
            let (db2, b2) = (db.clone(), Arc::clone(&barrier));
            scope.spawn(move || {
                let out = run_mlt(&db2, move |mlt| {
                    dept.raise_salary(mlt, "ada", 25)?;
                    b2.wait(); // would never meet if the two conflicted
                    Ok(())
                });
                assert_eq!(out.unwrap(), MltOutcome::Committed);
            });
        });
        let roster = dept.peek(&db);
        assert_eq!(roster.len(), 2);
        assert!(roster.contains(&("ada".into(), 125)));
        assert!(roster.contains(&("grace".into(), 110)));
    }

    #[test]
    fn aborted_hiring_spree_is_fired_again() {
        let db = Database::in_memory();
        let dept = Department::create(&db).unwrap();
        run_mlt(&db, move |mlt| dept.add_employee(mlt, "ada", 100)).unwrap();
        let out = run_mlt(&db, move |mlt| {
            dept.add_employee(mlt, "bob", 90)?;
            dept.raise_salary(mlt, "ada", 50)?;
            mlt.ctx().abort_self()
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Undone { inverses_run: 2 });
        assert_eq!(dept.peek(&db), vec![("ada".to_string(), 100)]);
    }

    #[test]
    fn duplicate_hire_fails_cleanly() {
        let db = Database::in_memory();
        let dept = Department::create(&db).unwrap();
        let out = run_mlt(&db, move |mlt| {
            dept.add_employee(mlt, "ada", 100)?;
            assert!(dept.add_employee(mlt, "ada", 200).is_err());
            Ok(())
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Committed);
        assert_eq!(dept.peek(&db), vec![("ada".to_string(), 100)]);
    }

    #[test]
    fn payroll_report_is_consistent() {
        let db = Database::in_memory();
        let dept = Department::create(&db).unwrap();
        run_mlt(&db, move |mlt| {
            dept.add_employee(mlt, "ada", 100)?;
            dept.add_employee(mlt, "grace", 110)
        })
        .unwrap();
        let out = run_mlt(&db, move |mlt| {
            let total: u64 = dept.roster(mlt)?.iter().map(|(_, s)| s).sum();
            assert_eq!(total, 210);
            Ok(())
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Committed);
    }
}
