//! Multi-level transaction sessions: open nesting with logical undo.
//!
//! A *semantic operation* inside an MLT parent runs as an **open-nested
//! subtransaction** that commits immediately — its low-level object locks
//! are released at once, so other parents' commuting operations interleave
//! freely. In exchange:
//!
//! * the parent holds a **semantic lock** (non-commuting operations by
//!   other parents wait until the parent terminates), and
//! * physical before-image undo is replaced by **logical undo**: the
//!   operation registers an *inverse operation*, and a parent abort
//!   executes the inverses in reverse order (retried until they commit,
//!   like saga compensations — which is what they are, one level down).
//!
//! Everything is built from the ASSET primitives: the open-nested
//! subtransaction is `initiate`/`begin`/`commit` from inside the parent,
//! and the inverse execution mirrors the §3.1.6 compensation loop.

use crate::semantic::{CommutativityTable, OpClass, SemanticLockTable};
use asset_common::sync::Mutex;
use asset_common::{AssetError, Oid, Result};
use asset_core::{Database, TxnCtx};
use asset_obs::{EventKind, ModelKind};
use std::sync::Arc;
use std::time::Duration;

type Inverse = Box<dyn Fn(&TxnCtx) -> Result<()> + Send + Sync>;

/// The in-flight state of one MLT parent.
pub struct MltSession<'a> {
    ctx: &'a TxnCtx,
    sem: Arc<SemanticLockTable>,
    inverses: Arc<Mutex<Vec<Inverse>>>,
    lock_timeout: Option<Duration>,
}

impl<'a> MltSession<'a> {
    /// The parent's transaction context (for plain, physically-undone
    /// reads/writes alongside the semantic operations).
    pub fn ctx(&self) -> &TxnCtx {
        self.ctx
    }

    /// Number of registered inverses (== committed semantic ops).
    pub fn pending_inverses(&self) -> usize {
        self.inverses.lock().len()
    }

    /// Execute one semantic operation of `class` on `ob`.
    ///
    /// Acquires the semantic lock (blocking while non-commuting holders
    /// exist), runs `action` as an open-nested subtransaction that commits
    /// immediately, and registers `inverse` for logical undo. `action`
    /// returning an error (or aborting itself) fails the operation without
    /// registering an inverse; the parent decides whether to continue.
    pub fn op<R: Send + 'static>(
        &self,
        ob: Oid,
        class: OpClass,
        table: &CommutativityTable,
        action: impl FnOnce(&TxnCtx) -> Result<R> + Send + 'static,
        inverse: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
    ) -> Result<R> {
        self.sem
            .acquire(self.ctx.id(), ob, class, table, self.lock_timeout)?;
        // open-nested subtransaction: commits (and releases its low-level
        // locks) right away
        let out: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        let t = self.ctx.initiate(move |c| {
            let r = action(c)?;
            *out2.lock() = Some(r);
            Ok(())
        })?;
        self.ctx.begin(t)?;
        if !self.ctx.commit(t)? {
            return Err(AssetError::TxnAborted(t));
        }
        self.inverses.lock().push(Box::new(inverse));
        let r = out.lock().take().expect("committed op produced a value");
        Ok(r)
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

/// Run `body` as a multi-level transaction over `sem`.
///
/// The body's plain `ctx()` reads/writes get ordinary ASSET treatment
/// (2PL + physical undo). Its semantic ops get open nesting + logical undo.
pub fn run_mlt(
    db: &Database,
    sem: &Arc<SemanticLockTable>,
    body: impl FnOnce(&MltSession<'_>) -> Result<()> + Send + 'static,
) -> Result<MltOutcome> {
    let inverses: Arc<Mutex<Vec<Inverse>>> = Arc::new(Mutex::new(Vec::new()));
    let inv2 = Arc::clone(&inverses);
    let sem2 = Arc::clone(sem);
    let timeout = Some(Duration::from_secs(10));

    let parent = db.initiate(move |ctx| {
        let session = MltSession {
            ctx,
            sem: sem2,
            inverses: inv2,
            lock_timeout: timeout,
        };
        body(&session)
    })?;
    db.obs().record(EventKind::Model {
        model: ModelKind::Mlt,
        tid: parent,
        label: "parent",
    });
    db.begin(parent)?;
    let committed = db.commit(parent)?;

    if committed {
        sem.release_owner(parent);
        Ok(MltOutcome::Committed)
    } else {
        // logical undo: run the inverses in reverse order, each retried
        // until it commits (the §3.1.6 compensation loop). The semantic
        // locks are still held by the (dead) parent, so no non-commuting
        // operation can slip between the failure and the undo.
        let to_undo: Vec<Inverse> = {
            let mut g = inverses.lock();
            g.drain(..).rev().collect()
        };
        let n = to_undo.len();
        for inverse in to_undo {
            let inverse = Arc::new(inverse);
            loop {
                let i2 = Arc::clone(&inverse);
                let ct = db.initiate(move |c| i2(c))?;
                db.begin(ct)?;
                if db.commit(ct)? {
                    break;
                }
            }
        }
        sem.release_owner(parent);
        Ok(MltOutcome::Undone { inverses_run: n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::CommutativityTable;
    use asset_core::Handle;

    const INC: OpClass = OpClass(0);

    fn inc_table() -> CommutativityTable {
        CommutativityTable::exclusive().commuting(INC, INC)
    }

    fn setup(db: &Database, initial: i64) -> Handle<i64> {
        let h = Handle::from_oid(db.new_oid());
        assert!(db.run(move |ctx| ctx.put(h, &initial)).unwrap());
        h
    }

    fn value(db: &Database, h: Handle<i64>) -> i64 {
        i64::from_le_bytes(db.peek(h.oid()).unwrap().unwrap().try_into().unwrap())
    }

    #[test]
    fn committed_ops_are_durable() {
        let db = Database::in_memory();
        let sem = Arc::new(SemanticLockTable::new());
        let h = setup(&db, 0);
        let out = run_mlt(&db, &sem, move |mlt| {
            for _ in 0..3 {
                mlt.op(
                    h.oid(),
                    INC,
                    &inc_table(),
                    move |c| c.modify(h, |v| v + 10),
                    move |c| c.modify(h, |v| v - 10),
                )?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Committed);
        assert_eq!(value(&db, h), 30);
        assert!(sem.holders(h.oid()).is_empty(), "semantic locks released");
    }

    #[test]
    fn parent_abort_runs_inverses_in_reverse() {
        let db = Database::in_memory();
        let sem = Arc::new(SemanticLockTable::new());
        let h = setup(&db, 100);
        let trace = setup(&db, 0); // records inverse order: 1 then 2
        let out = run_mlt(&db, &sem, move |mlt| {
            mlt.op(
                h.oid(),
                INC,
                &inc_table(),
                move |c| c.modify(h, |v| v + 1),
                move |c| {
                    c.modify(h, |v| v - 1)?;
                    c.modify(trace, |t| t * 10 + 1)
                },
            )?;
            mlt.op(
                h.oid(),
                INC,
                &inc_table(),
                move |c| c.modify(h, |v| v + 2),
                move |c| {
                    c.modify(h, |v| v - 2)?;
                    c.modify(trace, |t| t * 10 + 2)
                },
            )?;
            mlt.ctx().abort_self::<()>().map(|_| ())
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Undone { inverses_run: 2 });
        assert_eq!(value(&db, h), 100, "logically undone");
        assert_eq!(
            value(&db, trace),
            21,
            "inverse of op2 ran before inverse of op1"
        );
    }

    #[test]
    fn failed_op_registers_no_inverse() {
        let db = Database::in_memory();
        let sem = Arc::new(SemanticLockTable::new());
        let h = setup(&db, 5);
        let out = run_mlt(&db, &sem, move |mlt| {
            // op aborts itself: no inverse must be registered
            let r = mlt.op(
                h.oid(),
                INC,
                &inc_table(),
                move |c| c.abort_self::<()>(),
                move |c| c.modify(h, |v| v - 999),
            );
            assert!(r.is_err());
            assert_eq!(mlt.pending_inverses(), 0);
            Ok(())
        })
        .unwrap();
        assert_eq!(out, MltOutcome::Committed);
        assert_eq!(value(&db, h), 5);
    }

    #[test]
    fn op_returns_values() {
        let db = Database::in_memory();
        let sem = Arc::new(SemanticLockTable::new());
        let h = setup(&db, 7);
        run_mlt(&db, &sem, move |mlt| {
            let seen: i64 = mlt.op(
                h.oid(),
                INC,
                &inc_table(),
                move |c| {
                    c.modify(h, |v| v + 1)?;
                    Ok(c.get(h)?.unwrap())
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
        // two MLT parents increment the same counter concurrently; with a
        // flat ASSET transaction one would block for the other's entire
        // lifetime. Here each op's low-level lock is released at op commit.
        let db = Database::in_memory();
        let sem = Arc::new(SemanticLockTable::new());
        let h = setup(&db, 0);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let db = db.clone();
                let sem = Arc::clone(&sem);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let out = run_mlt(&db, &sem, move |mlt| {
                        for _ in 0..10 {
                            mlt.op(
                                h.oid(),
                                INC,
                                &inc_table(),
                                move |c| c.modify(h, |v| v + 1),
                                move |c| c.modify(h, |v| v - 1),
                            )?;
                            barrier.wait(); // forces true interleaving
                        }
                        Ok(())
                    })
                    .unwrap();
                    assert_eq!(out, MltOutcome::Committed);
                });
            }
        });
        assert_eq!(value(&db, h), 20, "no lost updates, full interleaving");
    }

    #[test]
    fn one_parents_abort_leaves_others_work() {
        // parent A increments and aborts; parent B increments and commits.
        // Physical before-image undo would wipe B's increment (the paper's
        // §4.2 caveat); logical undo preserves it.
        let db = Database::in_memory();
        let sem = Arc::new(SemanticLockTable::new());
        let h = setup(&db, 0);
        let out_a = run_mlt(&db, &sem, move |mlt| {
            mlt.op(
                h.oid(),
                INC,
                &inc_table(),
                move |c| c.modify(h, |v| v + 5),
                move |c| c.modify(h, |v| v - 5),
            )?;
            mlt.ctx().abort_self::<()>().map(|_| ())
        })
        .unwrap();
        assert_eq!(out_a, MltOutcome::Undone { inverses_run: 1 });
        let out_b = run_mlt(&db, &sem, move |mlt| {
            mlt.op(
                h.oid(),
                INC,
                &inc_table(),
                move |c| c.modify(h, |v| v + 7),
                move |c| c.modify(h, |v| v - 7),
            )?;
            Ok(())
        })
        .unwrap();
        assert_eq!(out_b, MltOutcome::Committed);
        assert_eq!(value(&db, h), 7, "A's undo did not clobber B");
    }
}
