//! Workflows (§3.2.3 and the paper's appendix): long-lived activities with
//! transaction-like components and inter-related dependencies.
//!
//! The paper sketches workflows as hand-written primitive sequences (the
//! `X_conference` program) and notes that "it is possible to design a
//! language to specify workflows ... translated into the code given here".
//! This module is that layer: a small workflow structure whose execution
//! engine emits exactly the paper's patterns —
//!
//! * a **single** step is an atomic transaction (§3.1.1);
//! * an **alternatives** step is a contingent transaction (§3.1.3): try
//!   each in preference order, at most one commits;
//! * a **race** step begins several transactions in parallel, commits the
//!   first to complete and aborts the rest (the appendix's National/Avis
//!   pattern);
//! * a **parallel** step is a distributed transaction (§3.1.2);
//! * a failed **required** step triggers saga-style compensation (§3.1.6)
//!   of every committed step, in reverse order, each compensation retried
//!   until it commits;
//! * an **optional** step's failure is recorded and the activity proceeds
//!   (the appendix: "If a car cannot be rented, the trip can still
//!   proceed").
//!
//! A [`Saga`](crate::Saga) is a workflow of single steps. Under the
//! workflow's model, each transaction of a single or alternatives step
//! records `step` when it commits and `failed` when it aborts, and each
//! committed compensation records `compensate`.

pub mod travel;

use crate::atomic::{compensate, trans, Action};
use crate::contingent::contingent;
use crate::distributed::{run_distributed, Component};
use asset_common::{Tid, TxnStatus};
use asset_core::{Database, Result, TxnCtx};
use asset_obs::ModelKind;
use std::sync::Arc;

/// One named alternative within an alternatives/race step.
pub struct Branch {
    /// Label reported in the outcome ("Delta", "Avis", ...).
    pub name: String,
    act: Action,
    comp: Option<Action>,
}

impl Branch {
    /// A branch with a compensation.
    pub fn new(
        name: impl Into<String>,
        act: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
        comp: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
    ) -> Branch {
        Branch {
            name: name.into(),
            act: Arc::new(act),
            comp: Some(Arc::new(comp)),
        }
    }

    /// A branch without a compensation.
    pub fn uncompensated(
        name: impl Into<String>,
        act: impl Fn(&TxnCtx) -> Result<()> + Send + Sync + 'static,
    ) -> Branch {
        Branch {
            name: name.into(),
            act: Arc::new(act),
            comp: None,
        }
    }

    /// One run of the branch's action, as a transaction body.
    fn body(&self) -> impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static {
        let act = Arc::clone(&self.act);
        move |ctx| act(ctx)
    }
}

enum Runner {
    Single(Branch),
    Alternatives(Vec<Branch>),
    Race(Vec<Branch>),
    /// All branches must succeed, atomically: pairwise GC dependencies
    /// make them one distributed transaction (§3.1.2 inside a workflow).
    Parallel(Vec<Branch>),
}

/// One workflow step.
pub struct Step {
    name: String,
    required: bool,
    /// Transient-failure budget: the whole step is re-attempted this many
    /// extra times before it counts as failed.
    retries: u32,
    runner: Runner,
}

impl Step {
    fn of(name: impl Into<String>, runner: Runner) -> Step {
        Step {
            name: name.into(),
            required: true,
            retries: 0,
            runner,
        }
    }

    /// An atomic step.
    pub fn single(name: impl Into<String>, branch: Branch) -> Step {
        Step::of(name, Runner::Single(branch))
    }

    /// A contingent step: alternatives in preference order.
    pub fn alternatives(name: impl Into<String>, branches: Vec<Branch>) -> Step {
        assert!(!branches.is_empty());
        Step::of(name, Runner::Alternatives(branches))
    }

    /// A racing step: all branches start in parallel; the first to
    /// complete commits, the rest abort.
    pub fn race(name: impl Into<String>, branches: Vec<Branch>) -> Step {
        assert!(!branches.is_empty());
        Step::of(name, Runner::Race(branches))
    }

    /// A parallel step: all branches run concurrently and commit **as a
    /// group** (GC dependencies) — any branch failure aborts them all.
    /// On success, every branch's compensation joins the undo stack.
    pub fn parallel(name: impl Into<String>, branches: Vec<Branch>) -> Step {
        assert!(!branches.is_empty());
        Step::of(name, Runner::Parallel(branches))
    }

    /// Mark the step optional: its failure does not fail the activity.
    #[must_use]
    pub fn optional(mut self) -> Step {
        self.required = false;
        self
    }

    /// Re-attempt the whole step up to `n` extra times on failure —
    /// deadlock victims, lock timeouts and transient aborts get another
    /// chance before the activity fails (or skips an optional step). Each
    /// attempt is a fresh transaction; aborted attempts leave no effects.
    #[must_use]
    pub fn with_retries(mut self, n: u32) -> Step {
        self.retries = n;
        self
    }

    /// One attempt at the step: the branches that committed.
    fn attempt(&self, db: &Database, model: ModelKind) -> Result<Vec<&Branch>> {
        Ok(match &self.runner {
            Runner::Single(branch) => {
                let committed = trans(db, model, "step", branch.body())?;
                committed.then_some(branch).into_iter().collect()
            }
            Runner::Alternatives(branches) => {
                let chosen = contingent(db, model, branches.iter().map(Branch::body))?;
                chosen.map(|i| &branches[i]).into_iter().collect()
            }
            Runner::Race(branches) => run_race(db, branches)?.into_iter().collect(),
            Runner::Parallel(branches) => {
                // §3.1.2 distributed transaction: all commit together or
                // none do, and on failure every branch's rollback is over
                // before the step reports
                let components = branches
                    .iter()
                    .map(|b| Box::new(b.body()) as Component)
                    .collect();
                if run_distributed(db, components)? {
                    branches.iter().collect()
                } else {
                    vec![]
                }
            }
        })
    }
}

/// Per-step outcome in the report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StepResult {
    /// Step name.
    pub name: String,
    /// The branch that committed, if any.
    pub chosen: Option<String>,
    /// Did the step succeed?
    pub succeeded: bool,
}

/// Overall outcome of a workflow run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkflowOutcome {
    /// Every required step succeeded.
    Completed,
    /// Required step `failed_step` failed; committed steps were
    /// compensated in reverse order.
    Failed {
        /// Index of the failed step.
        failed_step: usize,
    },
}

/// A workflow: an ordered list of steps.
pub struct Workflow {
    name: String,
    steps: Vec<Step>,
    /// The model its events are tagged with.
    model: ModelKind,
}

impl Workflow {
    /// Start building a workflow.
    pub fn new(name: impl Into<String>) -> Workflow {
        Workflow {
            name: name.into(),
            steps: Vec::new(),
            model: ModelKind::Workflow,
        }
    }

    /// Tag the workflow's events with `model` (a saga's are `Saga`).
    pub(crate) fn tagged(mut self, model: ModelKind) -> Workflow {
        self.model = model;
        self
    }

    /// Append a step.
    #[must_use]
    pub fn step(mut self, step: Step) -> Workflow {
        self.steps.push(step);
        self
    }

    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execute against `db`. Returns the outcome and per-step results.
    pub fn run(self, db: &Database) -> Result<(WorkflowOutcome, Vec<StepResult>)> {
        let mut results = Vec::with_capacity(self.steps.len());
        // compensations of committed steps, in commit order
        let mut undo: Vec<Action> = Vec::new();
        for (idx, step) in self.steps.iter().enumerate() {
            let mut committed = vec![];
            for _ in 0..=step.retries {
                committed = step.attempt(db, self.model)?;
                if !committed.is_empty() {
                    break;
                }
            }
            let succeeded = !committed.is_empty();
            let names: Vec<&str> = committed.iter().map(|b| b.name.as_str()).collect();
            results.push(StepResult {
                name: step.name.clone(),
                chosen: succeeded.then(|| names.join("+")),
                succeeded,
            });
            if !succeeded && step.required {
                compensate(db, self.model, &undo)?;
                return Ok((WorkflowOutcome::Failed { failed_step: idx }, results));
            }
            undo.extend(committed.iter().filter_map(|b| b.comp.clone()));
        }
        Ok((WorkflowOutcome::Completed, results))
    }
}

/// Begin every branch; commit the first to complete, abort the rest.
/// Falls back through later completions if the first-completed aborts
/// at commit.
fn run_race<'b>(db: &Database, branches: &'b [Branch]) -> Result<Option<&'b Branch>> {
    let mut tids = Vec::with_capacity(branches.len());
    for b in branches {
        tids.push(db.initiate(b.body())?);
    }
    db.begin_many(&tids)?;
    let mut racing: Vec<(Tid, &Branch)> = tids.into_iter().zip(branches).collect();
    while !racing.is_empty() {
        let live: Vec<Tid> = racing.iter().map(|(t, _)| *t).collect();
        let (t, branch) = racing.swap_remove(db.wait_any(&live)?);
        if db.status(t)? == TxnStatus::Aborted {
            continue;
        }
        // winner: abort the other racers, then commit
        for (other, _) in &racing {
            let _ = db.abort(*other);
        }
        // rare: doomed at commit — no other racers remain
        return Ok(db.commit(t)?.then_some(branch));
    }
    Ok(None) // every racer aborted
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Oid;

    fn write_step(oid: Oid, tag: &'static [u8]) -> Branch {
        Branch::new(
            String::from_utf8_lossy(tag).to_string(),
            move |ctx: &TxnCtx| ctx.write(oid, tag.to_vec()),
            move |ctx: &TxnCtx| ctx.delete(oid),
        )
    }

    fn failing_branch(name: &str) -> Branch {
        Branch::new(
            name,
            |ctx: &TxnCtx| ctx.abort_self::<()>().map(|_| ()),
            |_| Ok(()),
        )
    }

    #[test]
    fn linear_workflow_completes() {
        let db = Database::in_memory();
        let (a, b) = (db.new_oid(), db.new_oid());
        let wf = Workflow::new("linear")
            .step(Step::single("one", write_step(a, b"A")))
            .step(Step::single("two", write_step(b, b"B")));
        let (outcome, results) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert!(results.iter().all(|r| r.succeeded));
        assert_eq!(db.peek(a).unwrap().unwrap(), b"A");
    }

    #[test]
    fn alternatives_pick_first_available() {
        let db = Database::in_memory();
        let a = db.new_oid();
        let wf = Workflow::new("alt").step(Step::alternatives(
            "choice",
            vec![
                failing_branch("first"),
                write_step(a, b"second"),
                failing_branch("third"),
            ],
        ));
        let (outcome, results) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert_eq!(results[0].chosen.as_deref(), Some("second"));
    }

    #[test]
    fn required_failure_compensates_committed_steps() {
        let db = Database::in_memory();
        let a = db.new_oid();
        let wf = Workflow::new("fail")
            .step(Step::single("one", write_step(a, b"A")))
            .step(Step::alternatives("none-work", vec![failing_branch("x")]));
        let (outcome, results) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 1 });
        assert!(!results[1].succeeded);
        assert_eq!(db.peek(a).unwrap(), None, "step one compensated");
    }

    #[test]
    fn optional_failure_is_tolerated() {
        let db = Database::in_memory();
        let (a, b) = (db.new_oid(), db.new_oid());
        let wf = Workflow::new("opt")
            .step(Step::single("one", write_step(a, b"A")))
            .step(Step::single("maybe", failing_branch("x")).optional())
            .step(Step::single("two", write_step(b, b"B")));
        let (outcome, results) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert!(!results[1].succeeded);
        assert!(results[2].succeeded);
        assert_eq!(db.peek(a).unwrap().unwrap(), b"A");
        assert_eq!(db.peek(b).unwrap().unwrap(), b"B");
    }

    #[test]
    fn race_commits_exactly_one() {
        use std::sync::{mpsc, Mutex};
        let db = Database::in_memory();
        let (a, b) = (db.new_oid(), db.new_oid());
        // the slow racer reports its tid, then holds until the race is over
        let (started, slow_tid) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        let (started, gate) = (Mutex::new(started), Mutex::new(gate));
        let wf = Workflow::new("race").step(Step::race(
            "car",
            vec![
                Branch::new(
                    "slow",
                    move |ctx: &TxnCtx| {
                        started.lock().unwrap().send(ctx.id()).unwrap();
                        let _ = gate.lock().unwrap().recv();
                        ctx.write(a, b"slow".to_vec())
                    },
                    move |ctx: &TxnCtx| ctx.delete(a),
                ),
                Branch::new(
                    "fast",
                    move |ctx: &TxnCtx| ctx.write(b, b"fast".to_vec()),
                    move |ctx: &TxnCtx| ctx.delete(b),
                ),
            ],
        ));
        let (outcome, results) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert_eq!(results[0].chosen.as_deref(), Some("fast"));
        assert_eq!(db.peek(b).unwrap().unwrap(), b"fast");
        drop(release);
        // a slow body that was aborted before it ran never reports
        if let Ok(slow) = slow_tid.recv() {
            assert!(!db.wait(slow).unwrap(), "loser aborted");
        }
        assert_eq!(db.peek(a).unwrap(), None, "loser aborted");
    }

    #[test]
    fn race_where_all_abort_fails_the_step() {
        let db = Database::in_memory();
        let wf = Workflow::new("race-fail").step(Step::race(
            "car",
            vec![failing_branch("a"), failing_branch("b")],
        ));
        let (outcome, _) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 0 });
    }

    #[test]
    fn parallel_step_commits_all_branches_atomically() {
        let db = Database::in_memory();
        let (a, b, c) = (db.new_oid(), db.new_oid(), db.new_oid());
        let wf = Workflow::new("par").step(Step::parallel(
            "book-everything",
            vec![
                write_step(a, b"A"),
                write_step(b, b"B"),
                write_step(c, b"C"),
            ],
        ));
        let (outcome, results) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert_eq!(results[0].chosen.as_deref(), Some("A+B+C"));
        assert_eq!(db.peek(a).unwrap().unwrap(), b"A");
        assert_eq!(db.peek(b).unwrap().unwrap(), b"B");
        assert_eq!(db.peek(c).unwrap().unwrap(), b"C");
    }

    #[test]
    fn parallel_step_one_failure_aborts_all() {
        let db = Database::in_memory();
        let (a, b) = (db.new_oid(), db.new_oid());
        let wf = Workflow::new("par-fail")
            .step(Step::single("pre", write_step(a, b"pre")))
            .step(Step::parallel(
                "group",
                vec![write_step(b, b"B"), failing_branch("boom")],
            ));
        let (outcome, _) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 1 });
        assert_eq!(db.peek(b).unwrap(), None, "group aborted atomically");
        assert_eq!(db.peek(a).unwrap(), None, "earlier step compensated");
    }

    #[test]
    fn parallel_step_compensations_cover_every_branch() {
        let db = Database::in_memory();
        let (a, b) = (db.new_oid(), db.new_oid());
        let wf = Workflow::new("par-comp")
            .step(Step::parallel(
                "group",
                vec![write_step(a, b"A"), write_step(b, b"B")],
            ))
            .step(Step::single("boom", failing_branch("boom")));
        let (outcome, _) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 1 });
        assert_eq!(db.peek(a).unwrap(), None, "branch A compensated");
        assert_eq!(db.peek(b).unwrap(), None, "branch B compensated");
    }

    #[test]
    fn step_retries_absorb_transient_failures() {
        let db = Database::in_memory();
        let a = db.new_oid();
        let attempts = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let at = std::sync::Arc::clone(&attempts);
        let wf = Workflow::new("retry").step(
            Step::single(
                "flaky",
                Branch::new(
                    "flaky",
                    move |ctx: &TxnCtx| {
                        // fails twice, then succeeds
                        if at.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2 {
                            ctx.abort_self::<()>().map(|_| ())
                        } else {
                            ctx.write(a, b"eventually".to_vec())
                        }
                    },
                    |_| Ok(()),
                ),
            )
            .with_retries(5),
        );
        let (outcome, _) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
        assert_eq!(attempts.load(std::sync::atomic::Ordering::SeqCst), 3);
        assert_eq!(db.peek(a).unwrap().unwrap(), b"eventually");
    }

    #[test]
    fn retries_exhausted_still_fails_and_compensates() {
        let db = Database::in_memory();
        let a = db.new_oid();
        let wf = Workflow::new("retry-fail")
            .step(Step::single("pre", write_step(a, b"A")))
            .step(Step::single("boom", failing_branch("boom")).with_retries(2));
        let (outcome, _) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 1 });
        assert_eq!(
            db.peek(a).unwrap(),
            None,
            "compensated after retries ran out"
        );
    }

    #[test]
    fn compensations_run_in_reverse_order() {
        let db = Database::in_memory();
        let log = db.new_oid();
        assert!(db.run(move |ctx| ctx.write(log, Vec::new())).unwrap());
        let appender = |tag: u8| {
            move |ctx: &TxnCtx| {
                ctx.update(log, move |cur| {
                    let mut v = cur.unwrap_or_default();
                    v.push(tag);
                    v
                })
            }
        };
        let wf = Workflow::new("order")
            .step(Step::single(
                "s1",
                Branch::new("s1", appender(1), appender(101)),
            ))
            .step(Step::single(
                "s2",
                Branch::new("s2", appender(2), appender(102)),
            ))
            .step(Step::single("boom", failing_branch("boom")));
        let (outcome, _) = wf.run(&db).unwrap();
        assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 2 });
        let v = db.peek(log).unwrap().unwrap();
        assert_eq!(v, vec![1, 2, 102, 101], "t1 t2 ct2 ct1");
    }
}
