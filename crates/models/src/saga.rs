//! Sagas (§3.1.6, after Garcia-Molina & Salem).
//!
//! A saga is a sequence of component transactions `t1..tn`, each with a
//! compensating transaction `ct1..ct(n-1)`. Components commit immediately
//! (exposing partial results — isolation is per component). If component
//! `k+1` fails, the committed prefix is compensated in reverse order:
//! `t1 .. tk ctk .. ct1`. A compensating transaction is retried until it
//! commits, exactly as the paper's synthesized `do { ... } while
//! (!commit(ct))` loop.
//!
//! A saga is a [`Workflow`] of single required steps, its events tagged
//! [`ModelKind::Saga`]; this module only builds it and reads its
//! [`SagaTrace`] off the workflow's result.

use crate::workflow::{Branch, Step, Workflow, WorkflowOutcome};
use asset_core::{Database, Result, TxnCtx};
use asset_obs::ModelKind;

/// The observable history of a saga run: which components committed and
/// which compensations ran, in order. Useful for asserting the paper's
/// `t1 .. tk ctk .. ct1` shape.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SagaTrace {
    /// Names of events in execution order: `"step"` for a committed
    /// component, `"~step"` for its compensation.
    pub events: Vec<String>,
}

/// Outcome of a saga.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SagaOutcome {
    /// Every component committed.
    Committed,
    /// Component `failed_step` aborted; the committed prefix was
    /// compensated in reverse order.
    Compensated {
        /// Index of the failed component.
        failed_step: usize,
    },
}

/// A saga: ordered steps executed as independent atomic transactions.
pub struct Saga {
    workflow: Workflow,
    /// Per step, whether it has a compensation.
    compensable: Vec<bool>,
}

impl Saga {
    /// Start building a saga.
    pub fn new() -> Saga {
        Saga {
            workflow: Workflow::new("saga").tagged(ModelKind::Saga),
            compensable: Vec::new(),
        }
    }

    /// Append a step.
    #[must_use]
    pub fn step(
        self,
        name: impl Into<String>,
        action: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
        compensation: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
    ) -> Saga {
        self.add(Branch::new(name, action, compensation), true)
    }

    /// Append a step with no compensation (typically the last; an earlier
    /// uncompensated step simply skips its slot during rollback).
    #[must_use]
    pub fn final_step(
        self,
        name: impl Into<String>,
        action: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
    ) -> Saga {
        self.add(Branch::uncompensated(name, action), false)
    }

    fn add(mut self, branch: Branch, compensable: bool) -> Saga {
        self.workflow = self
            .workflow
            .step(Step::single(branch.name.clone(), branch));
        self.compensable.push(compensable);
        self
    }

    /// Execute the saga. Returns the outcome and the event trace.
    pub fn run(self, db: &Database) -> Result<(SagaOutcome, SagaTrace)> {
        let (outcome, results) = self.workflow.run(db)?;
        let committed = results
            .iter()
            .zip(&self.compensable)
            .filter(|(r, _)| r.succeeded);
        let mut events: Vec<String> = committed.clone().map(|(r, _)| r.name.clone()).collect();
        let outcome = match outcome {
            WorkflowOutcome::Completed => SagaOutcome::Committed,
            WorkflowOutcome::Failed { failed_step } => {
                let undone = committed.rev().filter(|(_, c)| **c);
                events.extend(undone.map(|(r, _)| format!("~{}", r.name)));
                SagaOutcome::Compensated { failed_step }
            }
        };
        Ok((outcome, SagaTrace { events }))
    }
}

impl Default for Saga {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Oid;

    impl Saga {
        /// a step writing a tag, compensated by deleting it
        fn writes(self, name: &str, oid: Oid, tag: &'static [u8]) -> Saga {
            self.step(
                name,
                move |ctx| ctx.write(oid, tag.to_vec()),
                move |ctx| ctx.delete(oid),
            )
        }
    }

    #[test]
    fn all_steps_commit() {
        let db = Database::in_memory();
        let (a, b, c) = (db.new_oid(), db.new_oid(), db.new_oid());
        let saga = Saga::new()
            .writes("s1", a, b"1")
            .writes("s2", b, b"2")
            .final_step("s3", move |ctx| ctx.write(c, b"3".to_vec()));
        let (outcome, trace) = saga.run(&db).unwrap();
        assert_eq!(outcome, SagaOutcome::Committed);
        assert_eq!(trace.events, vec!["s1", "s2", "s3"]);
        assert_eq!(db.peek(a).unwrap().unwrap(), b"1");
        assert_eq!(db.peek(c).unwrap().unwrap(), b"3");
    }

    #[test]
    fn failure_compensates_prefix_in_reverse() {
        let db = Database::in_memory();
        let (a, b, c) = (db.new_oid(), db.new_oid(), db.new_oid());
        let saga = Saga::new()
            .writes("s1", a, b"1")
            .writes("s2", b, b"2")
            .step(
                "s3",
                move |ctx| {
                    ctx.write(c, b"3".to_vec())?;
                    ctx.abort_self::<()>().map(|_| ())
                },
                |_| Ok(()),
            )
            .final_step("s4", |_| Ok(()));
        let (outcome, trace) = saga.run(&db).unwrap();
        assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 2 });
        // the paper's shape: t1 t2 ct2 ct1
        assert_eq!(trace.events, vec!["s1", "s2", "~s2", "~s1"]);
        assert_eq!(db.peek(a).unwrap(), None, "compensated away");
        assert_eq!(db.peek(b).unwrap(), None);
        assert_eq!(
            db.peek(c).unwrap(),
            None,
            "failed step rolled back atomically"
        );
    }

    #[test]
    fn components_commit_immediately_and_are_visible() {
        // unlike a flat transaction, a saga's early components are durable
        // (and visible) before the saga finishes
        let db = Database::in_memory();
        let a = db.new_oid();
        let dbc = db.clone();
        let saga = Saga::new()
            .writes("s1", a, b"1")
            .final_step("probe", move |_| {
                // while the saga is still running, s1's commit is visible
                assert_eq!(dbc.peek(a)?.unwrap(), b"1");
                Ok(())
            });
        let (outcome, _) = saga.run(&db).unwrap();
        assert_eq!(outcome, SagaOutcome::Committed);
    }

    #[test]
    fn first_step_failure_needs_no_compensation() {
        let db = Database::in_memory();
        let saga = Saga::new()
            .step("s1", |ctx| ctx.abort_self::<()>().map(|_| ()), |_| Ok(()))
            .final_step("s2", |_| Ok(()));
        let (outcome, trace) = saga.run(&db).unwrap();
        assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 0 });
        assert!(trace.events.is_empty());
    }

    #[test]
    fn semantic_compensation_counter_example() {
        // compensation is semantic, not physical: increment compensated by
        // decrement, interleaving with other sagas' effects preserved
        let db = Database::in_memory();
        let counter = db.new_oid();
        assert!(crate::atomic::run_atomic(&db, move |ctx| {
            ctx.write(counter, 10u64.to_le_bytes().to_vec())
        })
        .unwrap());

        let bump = move |ctx: &TxnCtx, delta: i64| {
            ctx.update(counter, |cur| {
                let v = u64::from_le_bytes(cur.unwrap().try_into().unwrap());
                (v as i64 + delta).to_le_bytes().to_vec()
            })
        };
        let saga = Saga::new()
            .step("add5", move |ctx| bump(ctx, 5), move |ctx| bump(ctx, -5))
            .final_step("fail", |ctx| ctx.abort_self::<()>().map(|_| ()));
        let (outcome, _) = saga.run(&db).unwrap();
        assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 1 });
        let v = u64::from_le_bytes(db.peek(counter).unwrap().unwrap().try_into().unwrap());
        assert_eq!(v, 10, "semantically undone");
    }
}
