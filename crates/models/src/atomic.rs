//! Atomic transactions (§3.1.1) — what the O++ compiler emits for
//! `trans { ... }`:
//!
//! ```text
//! tid t;
//! if ((t = initiate(f)) != NULL) {
//!     if (begin(t)) {
//!         commit(t);
//!     }
//! }
//! ```
//!
//! Every other model here composes this sequence, and the one retry loop
//! below — the saga's `do { ct = initiate(c); begin(ct) } while
//! (!commit(ct))` — that saga, workflow and MLT undo share.

use asset_core::{Database, Result, TxnCtx};
use asset_obs::{EventKind, ModelKind};
use std::sync::Arc;

/// A transaction body that may run more than once — a workflow branch, a
/// compensation, an MLT inverse — shared via `Arc`.
pub type Action = Arc<dyn Fn(&TxnCtx) -> Result<()> + Send + Sync>;

/// Run `f` as an atomic transaction. Returns `true` if it committed.
pub fn run_atomic(
    db: &Database,
    f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static,
) -> Result<bool> {
    trans(db, ModelKind::Atomic, "step", f)
}

/// `trans { f }` on behalf of `model`: initiate → begin → commit, then
/// record `on_commit` under `model` if it committed, `failed` if not.
pub(crate) fn trans(
    db: &Database,
    model: ModelKind,
    on_commit: &'static str,
    f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static,
) -> Result<bool> {
    let tid = db.initiate(f)?;
    db.begin(tid)?;
    let committed = db.commit(tid)?;
    let label = if committed { on_commit } else { "failed" };
    db.obs().record(EventKind::Model { model, tid, label });
    Ok(committed)
}

/// Outcome of [`run_atomic_retrying`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetryOutcome {
    /// Committed after the given number of attempts (1 = first try).
    Committed {
        /// Attempts used.
        attempts: u32,
    },
    /// Still aborted after exhausting the budget.
    GaveUp {
        /// Attempts used.
        attempts: u32,
    },
}

/// Run `f` as an atomic transaction, retrying on abort (deadlock victims,
/// lock timeouts) up to `max_attempts` times. The closure runs once per
/// attempt, so it must be `Fn` and is shared via `Arc`.
pub fn run_atomic_retrying(db: &Database, f: Action, max_attempts: u32) -> Result<RetryOutcome> {
    assert!(max_attempts >= 1);
    retry(db, ModelKind::Atomic, "step", &f, max_attempts)
}

/// Run `undo` newest first, each until it commits, recording `compensate`
/// under `model` per committed compensation: the §3.1.6 rollback that
/// saga, workflow and MLT undo share.
pub(crate) fn compensate(db: &Database, model: ModelKind, undo: &[Action]) -> Result<()> {
    for c in undo.iter().rev() {
        // the paper's loop has no bound; u32::MAX attempts stands for none
        retry(db, model, "compensate", c, u32::MAX)?;
    }
    Ok(())
}

/// `trans { f }` until it commits or `max_attempts` attempts aborted.
fn retry(
    db: &Database,
    model: ModelKind,
    on_commit: &'static str,
    f: &Action,
    max_attempts: u32,
) -> Result<RetryOutcome> {
    for attempts in 1..=max_attempts {
        let g = Arc::clone(f);
        if trans(db, model, on_commit, move |ctx| g(ctx))? {
            return Ok(RetryOutcome::Committed { attempts });
        }
    }
    Ok(RetryOutcome::GaveUp {
        attempts: max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlt::{run_mlt, MltOutcome, OpClass};
    use crate::{Branch, Saga, SagaOutcome, Step, Workflow, WorkflowOutcome};
    use asset_common::Oid;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn commits() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        assert!(run_atomic(&db, move |ctx| ctx.write(oid, b"x".to_vec())).unwrap());
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"x");
    }

    #[test]
    fn abort_leaves_no_trace() {
        let db = Database::in_memory();
        let oid = db.new_oid();
        let committed = run_atomic(&db, move |ctx| {
            ctx.write(oid, b"x".to_vec())?;
            ctx.abort_self::<()>().map(|_| ())
        })
        .unwrap();
        assert!(!committed);
        assert_eq!(db.peek(oid).unwrap(), None);
    }

    #[test]
    fn retrying_succeeds_on_later_attempt() {
        let db = Database::in_memory();
        let f = flaky(Arc::new(AtomicU32::new(0)), |_| Ok(()));
        let out = run_atomic_retrying(&db, Arc::new(f), 5).unwrap();
        assert_eq!(out, RetryOutcome::Committed { attempts: 3 });
    }

    #[test]
    fn retrying_gives_up() {
        let db = Database::in_memory();
        let out = run_atomic_retrying(
            &db,
            Arc::new(|ctx: &TxnCtx| ctx.abort_self::<()>().map(|_| ())),
            3,
        )
        .unwrap();
        assert_eq!(out, RetryOutcome::GaveUp { attempts: 3 });
    }

    /// appends `tag` to the byte string at `log`
    fn append(log: Oid, tag: u8) -> impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static {
        move |ctx| {
            ctx.update(log, move |cur| {
                let mut v = cur.unwrap_or_default();
                v.push(tag);
                v
            })
        }
    }

    /// `f`, after aborting its first two attempts
    fn flaky(
        tries: Arc<AtomicU32>,
        f: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
    ) -> impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static {
        move |ctx| {
            if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                ctx.abort_self()
            } else {
                f(ctx)
            }
        }
    }

    /// The one compensation loop through each of its callers: two units
    /// commit, a third fails, and the newer compensation aborts twice.
    /// Each compensation commits exactly once, newest first.
    #[test]
    fn every_caller_retries_compensation_until_it_commits() {
        type Case = fn(&Database, Oid, &Arc<AtomicU32>);
        let cases: [(&str, Case); 3] = [
            ("saga", |db, log, tries| {
                let (outcome, trace) = Saga::new()
                    .step("a", append(log, 1), append(log, 101))
                    .step(
                        "b",
                        append(log, 2),
                        flaky(Arc::clone(tries), append(log, 102)),
                    )
                    .final_step("boom", |ctx| ctx.abort_self())
                    .run(db)
                    .unwrap();
                assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 2 });
                assert_eq!(trace.events, ["a", "b", "~b", "~a"]);
            }),
            ("workflow", |db, log, tries| {
                let comp = flaky(Arc::clone(tries), append(log, 102));
                let (outcome, _) = Workflow::new("wf")
                    .step(Step::single(
                        "a",
                        Branch::new("a", append(log, 1), append(log, 101)),
                    ))
                    .step(Step::single("b", Branch::new("b", append(log, 2), comp)))
                    .step(Step::single(
                        "boom",
                        Branch::uncompensated("boom", |ctx| ctx.abort_self()),
                    ))
                    .run(db)
                    .unwrap();
                assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 2 });
            }),
            ("mlt", |db, log, tries| {
                let (guard, tries) = (db.new_oid(), Arc::clone(tries));
                let outcome = run_mlt(db, move |s| {
                    s.op(guard, OpClass::Update, append(log, 1), append(log, 101))?;
                    s.op(
                        guard,
                        OpClass::Update,
                        append(log, 2),
                        flaky(tries, append(log, 102)),
                    )?;
                    s.ctx().abort_self()
                })
                .unwrap();
                assert_eq!(outcome, MltOutcome::Undone { inverses_run: 2 });
            }),
        ];
        for (name, run) in cases {
            let db = Database::in_memory();
            let log = db.new_oid();
            assert!(db.run(move |ctx| ctx.write(log, Vec::new())).unwrap());
            let tries = Arc::new(AtomicU32::new(0));
            run(&db, log, &tries);
            assert_eq!(
                tries.load(Ordering::SeqCst),
                3,
                "{name}: two aborts, then commit"
            );
            assert_eq!(
                db.peek(log).unwrap().unwrap(),
                [1, 2, 102, 101],
                "{name}: t1 t2 ct2 ct1, each compensation once"
            );
        }
    }
}
