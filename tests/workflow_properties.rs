//! Property tests for the workflow engine: random workflows are executed
//! and checked against a trivial reference interpreter over the same
//! viability assignment — the outcome, the failing step, and the final
//! object state must all match.

use asset::faults::{cases, Rng};
use asset::models::{Branch, Step, Workflow, WorkflowOutcome};
use asset::{Database, Oid, TxnCtx};

/// One randomly generated step specification.
#[derive(Clone, Debug)]
struct StepSpec {
    /// Viability of each branch.
    branches: Vec<bool>,
    /// single (1 branch), alternatives, or parallel.
    kind: u8,
    optional: bool,
}

fn arb_step(rng: &mut Rng) -> StepSpec {
    StepSpec {
        branches: (0..1 + rng.below(3)).map(|_| rng.below(2) == 1).collect(),
        kind: rng.below(3) as u8,
        optional: rng.below(2) == 1,
    }
}

/// Reference semantics: does the step succeed, and which branches commit?
fn reference_step(spec: &StepSpec) -> (bool, Vec<usize>) {
    match spec.kind {
        // single: only the first branch matters
        0 => (
            spec.branches[0],
            if spec.branches[0] { vec![0] } else { vec![] },
        ),
        // alternatives: first viable wins
        1 => match spec.branches.iter().position(|&v| v) {
            Some(i) => (true, vec![i]),
            None => (false, vec![]),
        },
        // parallel: all or nothing
        _ => {
            if spec.branches.iter().all(|&v| v) {
                (true, (0..spec.branches.len()).collect())
            } else {
                (false, vec![])
            }
        }
    }
}

/// Reference semantics for the whole workflow: Completed or Failed{k}, and
/// the set of (step, branch) writes that survive (committed and not
/// compensated).
fn reference_workflow(specs: &[StepSpec]) -> (Option<usize>, Vec<(usize, usize)>) {
    let mut surviving = vec![];
    for (i, spec) in specs.iter().enumerate() {
        let (ok, branches) = reference_step(spec);
        if ok {
            for b in branches {
                surviving.push((i, b));
            }
        } else if !spec.optional {
            // failure: all earlier committed writes are compensated
            return (Some(i), vec![]);
        }
    }
    (None, surviving)
}

#[test]
fn workflow_matches_reference_interpreter() {
    cases(0x3F10_0001, 24, |rng| {
        let specs: Vec<StepSpec> = (0..rng.below(5)).map(|_| arb_step(rng)).collect();
        let db = Database::in_memory();
        // one object per (step, branch); a committed branch writes its tag,
        // its compensation deletes it
        let oids: Vec<Vec<Oid>> = specs
            .iter()
            .map(|s| s.branches.iter().map(|_| db.new_oid()).collect())
            .collect();

        let mut wf = Workflow::new("generated");
        for (i, spec) in specs.iter().enumerate() {
            let branches: Vec<Branch> = spec
                .branches
                .iter()
                .enumerate()
                .map(|(b, &viable)| {
                    let oid = oids[i][b];
                    Branch::new(
                        format!("s{i}b{b}"),
                        move |ctx: &TxnCtx| {
                            if viable {
                                ctx.write(oid, vec![1])
                            } else {
                                ctx.abort_self::<()>().map(|_| ())
                            }
                        },
                        move |ctx: &TxnCtx| ctx.delete(oid),
                    )
                })
                .collect();
            let mut step = match spec.kind {
                0 => Step::single(format!("s{i}"), branches.into_iter().next().unwrap()),
                1 => Step::alternatives(format!("s{i}"), branches),
                _ => Step::parallel(format!("s{i}"), branches),
            };
            if spec.optional {
                step = step.optional();
            }
            wf = wf.step(step);
        }

        let (outcome, results) = wf.run(&db).unwrap();
        let (expect_fail, surviving) = reference_workflow(&specs);

        match expect_fail {
            Some(k) => {
                assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: k });
                // everything compensated: no object survives
                for row in &oids {
                    for oid in row {
                        assert_eq!(db.peek(*oid).unwrap(), None);
                    }
                }
            }
            None => {
                assert_eq!(outcome, WorkflowOutcome::Completed);
                assert_eq!(results.len(), specs.len());
                for (i, row) in oids.iter().enumerate() {
                    for (b, oid) in row.iter().enumerate() {
                        let expect = surviving.contains(&(i, b));
                        assert_eq!(
                            db.peek(*oid).unwrap().is_some(),
                            expect,
                            "step {i} branch {b} survival mismatch"
                        );
                    }
                }
            }
        }
        db.retire_terminated();
    });
}
