//! Integration tests for the observability layer: a model run emits the
//! expected lifecycle event sequence, and `MetricsSnapshot` totals
//! reconcile with the captured trace.

use asset::models::{Branch, Saga, SagaOutcome, Step, Workflow, WorkflowOutcome};
use asset::obs::{Event, EventKind, ModelKind};
use asset::Database;

/// The §3.1.6 saga shape, as seen through the event trace: component
/// commits, the failing component's abort, and the compensation — in that
/// order.
#[test]
fn saga_run_emits_expected_lifecycle_sequence() {
    let db = Database::in_memory();
    db.obs().enable_tracing(4096);
    let a = db.new_oid();

    let saga = Saga::new()
        .step(
            "reserve",
            move |ctx| ctx.write(a, b"held".to_vec()),
            move |ctx| ctx.delete(a),
        )
        .final_step("boom", |ctx| ctx.abort_self::<()>().map(|_| ()));
    let (outcome, _) = saga.run(&db).unwrap();
    assert_eq!(outcome, SagaOutcome::Compensated { failed_step: 1 });

    let trace = db.obs().trace();
    assert!(!trace.is_empty(), "tracing was on: events must be captured");

    // the saga milestones appear in paper order: step, failure, compensation
    let labels = model_labels(&trace, ModelKind::Saga);
    assert_eq!(labels, vec!["step", "failed", "compensate"]);

    // every initiated transaction also began (the saga engine always
    // begins what it initiates)
    let initiated: Vec<_> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TxnInitiate { tid, .. } => Some(tid),
            _ => None,
        })
        .collect();
    assert_eq!(
        initiated.len(),
        3,
        "component, failing component, compensation"
    );
    for tid in &initiated {
        assert!(
            trace
                .iter()
                .any(|e| e.kind == EventKind::TxnBegin { tid: *tid }),
            "{tid:?} initiated but never began"
        );
    }

    // exactly one abort (the failing component), two commits (the
    // successful component and its compensation)
    let aborts = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnAbort { .. }))
        .count();
    let commits = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnCommit { .. }))
        .count();
    assert_eq!(aborts, 1);
    assert_eq!(commits, 2);

    // the compensation commit comes after the abort
    let abort_seq = trace
        .iter()
        .find(|e| matches!(e.kind, EventKind::TxnAbort { .. }))
        .unwrap()
        .seq;
    let last_commit_seq = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnCommit { .. }))
        .map(|e| e.seq)
        .max()
        .unwrap();
    assert!(
        last_commit_seq > abort_seq,
        "compensation follows the abort"
    );
}

/// A workflow records the same milestones as a saga, tagged as a workflow:
/// one `step` per committed step, `failed` for the required step that
/// aborts, and one `compensate` per committed compensation.
#[test]
fn workflow_run_emits_step_failed_compensate() {
    let db = Database::in_memory();
    db.obs().enable_tracing(4096);
    let (a, b) = (db.new_oid(), db.new_oid());

    let (outcome, _) = Workflow::new("trip")
        .step(Step::single(
            "reserve",
            Branch::new(
                "reserve",
                move |ctx| ctx.write(a, b"held".to_vec()),
                move |ctx| ctx.delete(a),
            ),
        ))
        .step(Step::single(
            "notify",
            Branch::uncompensated("notify", move |ctx| ctx.write(b, b"sent".to_vec())),
        ))
        .step(Step::single(
            "pay",
            Branch::uncompensated("pay", |ctx| ctx.abort_self()),
        ))
        .run(&db)
        .unwrap();
    assert_eq!(outcome, WorkflowOutcome::Failed { failed_step: 2 });
    assert_eq!(db.peek(a).unwrap(), None, "reserve compensated");

    let labels = model_labels(&db.obs().trace(), ModelKind::Workflow);
    assert_eq!(labels, vec!["step", "step", "failed", "compensate"]);
}

/// The milestone labels `model` recorded, in order.
fn model_labels(trace: &[Event], model: ModelKind) -> Vec<&'static str> {
    trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Model {
                model: m, label, ..
            } if m == model => Some(label),
            _ => None,
        })
        .collect()
}

/// Counter totals and the event trace are two views of the same history;
/// with a ring large enough to avoid overwrites they must agree exactly.
#[test]
fn metrics_snapshot_reconciles_with_trace() {
    let db = Database::in_memory();
    db.obs().enable_tracing(8192);

    let oids: Vec<_> = (0..5).map(|_| db.new_oid()).collect();
    for (i, oid) in oids.iter().enumerate() {
        let oid = *oid;
        assert!(db.run(move |ctx| ctx.write(oid, vec![i as u8])).unwrap());
    }
    // one aborting transaction with two undo records
    let (x, y) = (oids[0], oids[1]);
    let t = db
        .initiate(move |ctx| {
            ctx.write(x, b"doomed".to_vec())?;
            ctx.write(y, b"doomed".to_vec())?;
            ctx.abort_self::<()>().map(|_| ())
        })
        .unwrap();
    db.begin(t).unwrap();
    assert!(!db.commit(t).unwrap());

    let snap = db.metrics_snapshot();
    let trace = db.obs().trace();
    assert_eq!(snap.events_dropped, 0, "uncontended run drops nothing");
    assert_eq!(
        snap.counters.events_recorded,
        trace.len() as u64,
        "no wraparound at this capacity: every recorded event survives"
    );

    let count =
        |pred: fn(&EventKind) -> bool| trace.iter().filter(|e| pred(&e.kind)).count() as u64;
    assert_eq!(
        snap.counters.txn_initiated,
        count(|k| matches!(k, EventKind::TxnInitiate { .. }))
    );
    assert_eq!(
        snap.counters.txn_begun,
        count(|k| matches!(k, EventKind::TxnBegin { .. }))
    );
    assert_eq!(
        snap.counters.txn_aborted,
        count(|k| matches!(k, EventKind::TxnAbort { .. }))
    );
    // each TxnCommit event carries its group size; the counter sums them
    let committed_via_trace: u64 = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TxnCommit { group, .. } => Some(group as u64),
            _ => None,
        })
        .sum();
    assert_eq!(snap.counters.txn_committed, committed_via_trace);

    // the abort rolled back two writes, visible in both views
    let undo_via_trace: u64 = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TxnAbort { undo_records, .. } => Some(undo_records as u64),
            _ => None,
        })
        .sum();
    assert_eq!(undo_via_trace, 2);
    assert_eq!(snap.undo_records.sum, 2);
    assert_eq!(snap.undo_records.count, snap.counters.txn_aborted);
}

/// A saturated recorder reports drops instead of blocking: hammer a tiny
/// ring from several writers while a drainer repeatedly holds the slot
/// locks, then check the books balance — every attempt either stored
/// (`events_recorded`) or was dropped (`events_dropped`), and drops
/// actually happened. Whether a writer really lands on a held slot is
/// scheduler-dependent (a single-CPU host can serialize the threads), so
/// the saturation pass repeats until a drop is observed; the accounting
/// invariant is checked cumulatively across passes.
#[test]
fn saturated_recorder_reports_drops() {
    use asset::obs::Obs;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let obs = Arc::new(Obs::new());
    obs.enable_tracing(8); // smallest ring: 8 slots
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20_000;
    const MAX_PASSES: u64 = 25;

    let mut passes = 0;
    while passes < MAX_PASSES {
        passes += 1;
        let done = Arc::new(AtomicBool::new(false));
        let drainer = {
            let obs = Arc::clone(&obs);
            let done = Arc::clone(&done);
            // trace() locks every slot in turn; a writer landing on a
            // held slot must drop, not wait.
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let _ = obs.trace();
                }
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let obs = Arc::clone(&obs);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        obs.record(EventKind::TxnBegin {
                            tid: asset::Tid(w * PER_WRITER + i + 1),
                        });
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        drainer.join().unwrap();
        if obs.snapshot().events_dropped > 0 {
            break;
        }
    }

    let snap = obs.snapshot();
    assert!(
        snap.events_dropped > 0,
        "8-slot ring under 4 writers + a draining reader must drop \
         (no collision in {MAX_PASSES} passes)"
    );
    assert_eq!(
        snap.counters.events_recorded + snap.events_dropped,
        WRITERS * PER_WRITER * passes,
        "every record attempt is accounted: stored or dropped"
    );
}

/// With the recorder off (the default), counters still count but the trace
/// stays empty and nothing is charged to `events_recorded`.
#[test]
fn default_off_recorder_keeps_counters_but_no_trace() {
    let db = Database::in_memory();
    let oid = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(oid, b"v".to_vec())).unwrap());

    let snap = db.metrics_snapshot();
    assert!(!snap.tracing_enabled);
    assert_eq!(snap.counters.events_recorded, 0);
    assert!(db.obs().trace().is_empty());
    assert!(snap.counters.txn_initiated >= 1, "counters are always on");
    assert!(snap.counters.txn_committed >= 1);
}
