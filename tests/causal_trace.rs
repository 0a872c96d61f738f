//! The four crash-matrix workload shapes (tests/crash_matrix.rs), run
//! fault-free with tracing enabled: the causal graph reconstructed from
//! the event ring must match the known ground truth of each shape —
//! delegation edges follow the delegatee, GC groups share one commit
//! flow, and permit chains carry the `permits_across` depth the lock
//! manager reported.

use asset::obs::EventKind;
use asset::trace::{CausalGraph, EdgeKind, Outcome};
use asset::{Database, DepType, ObSet, OpSet};

fn traced_db() -> Database {
    let db = Database::in_memory();
    db.obs().enable_tracing(16384);
    db
}

/// Workload 1 (atomic): one transaction, one committed track, a
/// single-member commit group, no causal edges.
#[test]
fn atomic_workload_reconstructs_one_committed_track() {
    let db = traced_db();
    let o = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(o, b"a1".to_vec())).unwrap());

    let g = CausalGraph::from_events(&db.obs().trace());
    let committed: Vec<_> = g
        .tracks
        .values()
        .filter(|t| t.outcome == Outcome::Committed)
        .collect();
    assert_eq!(committed.len(), 1);
    let t = committed[0];
    assert!(t.begin_ns.is_some() && t.end_ns.is_some());
    assert!(t.begin_ns <= t.end_ns);
    assert_eq!(g.commit_groups.len(), 1);
    assert_eq!(g.commit_groups[0].members, vec![t.tid]);
    assert!(g.edges.is_empty(), "an atomic run has no causal edges");
}

/// Workload 2 (GC group commit): one commit call terminates the whole
/// component — the graph shows one commit group containing every member
/// and a group-commit flow from the committer to each other member.
#[test]
fn gc_workload_shares_one_commit_flow() {
    let db = traced_db();
    let (a, b) = (db.new_oid(), db.new_oid());
    let t1 = db
        .initiate(move |ctx| ctx.write(a, b"g1".to_vec()))
        .unwrap();
    let t2 = db
        .initiate(move |ctx| ctx.write(b, b"g2".to_vec()))
        .unwrap();
    db.form_dependency(DepType::GC, t1, t2).unwrap();
    db.begin_many(&[t1, t2]).unwrap();
    assert!(db.commit(t1).unwrap(), "commits the whole group");

    let g = CausalGraph::from_events(&db.obs().trace());
    assert_eq!(g.tracks[&t1].outcome, Outcome::Committed);
    assert_eq!(g.tracks[&t2].outcome, Outcome::Committed);

    // exactly one commit group, containing both members
    let group: Vec<_> = g
        .commit_groups
        .iter()
        .filter(|cg| cg.members.len() > 1)
        .collect();
    assert_eq!(group.len(), 1, "one group commit");
    let mut members = group[0].members.clone();
    members.sort_unstable();
    let mut expect = vec![t1, t2];
    expect.sort_unstable();
    assert_eq!(members, expect);

    // both members share the committer's single commit flow (timestamp)
    assert_eq!(g.tracks[&t1].end_ns, g.tracks[&t2].end_ns);
    let flows: Vec<_> = g
        .edges
        .iter()
        .filter(|e| e.kind == EdgeKind::CommitGroup)
        .collect();
    assert_eq!(flows.len(), 1, "one fan-out edge per non-committer member");
    // plus the GC dependency edge itself
    assert_eq!(g.edges_labeled("dep-gc").len(), 1);
}

/// Workload 3 (saga): s0 commits, s1 aborts, the compensation commits
/// after the abort.
#[test]
fn saga_workload_orders_compensation_after_abort() {
    let db = traced_db();
    let o = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(o, b"s0".to_vec())).unwrap());
    let t = db
        .initiate(move |ctx| {
            ctx.write(o, b"s1".to_vec())?;
            ctx.abort_self::<()>().map(|_| ())
        })
        .unwrap();
    db.begin(t).unwrap();
    assert!(!db.commit(t).unwrap(), "failing step aborts");
    assert!(db.run(move |ctx| ctx.write(o, b"comp".to_vec())).unwrap());

    let trace = db.obs().trace();
    let g = CausalGraph::from_events(&trace);
    let committed = g
        .tracks
        .values()
        .filter(|t| t.outcome == Outcome::Committed)
        .count();
    let aborted: Vec<_> = g
        .tracks
        .values()
        .filter(|t| t.outcome == Outcome::Aborted)
        .collect();
    assert_eq!(committed, 2, "step 0 and the compensation");
    assert_eq!(aborted.len(), 1, "the failing step");
    // the aborted track rolled work back (undo milestone) and every
    // commit-flow after it is the compensation
    assert!(aborted[0].milestones.iter().any(|(_, l)| *l == "undone"));
    let abort_ns = aborted[0].end_ns.unwrap();
    let comp_commit = g.commit_groups.iter().map(|cg| cg.at_ns).max().unwrap();
    assert!(
        comp_commit >= abort_ns,
        "compensation commits after the abort"
    );
}

/// Workload 4 (delegation + permit): the delegation edge points from the
/// delegator to the delegatee, and the undo follows the delegatee — t1
/// commits nothing while t2's abort carries the rollback.
#[test]
fn delegation_workload_undo_follows_the_delegatee() {
    let db = traced_db();
    let o = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(o, b"d0".to_vec())).unwrap());

    let t1 = db
        .initiate(move |ctx| ctx.write(o, b"d1".to_vec()))
        .unwrap();
    db.begin(t1).unwrap();
    assert!(db.wait(t1).unwrap());
    let t2 = db.initiate(|_| Ok(())).unwrap();
    db.permit(t1, Some(t2), ObSet::one(o), OpSet::ALL).unwrap();
    db.delegate(t1, t2, None).unwrap();
    assert!(db.commit(t1).unwrap());
    assert!(db.abort(t2).unwrap());
    assert_eq!(db.peek(o).unwrap().unwrap(), b"d0", "baseline restored");

    let trace = db.obs().trace();
    let g = CausalGraph::from_events(&trace);

    // the delegation edge follows the delegatee
    let delegations = g.edges_labeled("delegate");
    assert_eq!(delegations.len(), 1);
    assert_eq!((delegations[0].from, delegations[0].to), (t1, t2));
    // so does the permit grant
    let permits = g.edges_labeled("permit");
    assert_eq!(permits.len(), 1);
    assert_eq!((permits[0].from, permits[0].to), (t1, t2));

    // t1 committed with nothing to undo; t2's abort carried the rollback
    assert_eq!(g.tracks[&t1].outcome, Outcome::Committed);
    assert_eq!(g.tracks[&t2].outcome, Outcome::Aborted);
    let t2_undo: u32 = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TxnAbort { tid, undo_records } if tid == t2 => Some(undo_records),
            _ => None,
        })
        .sum();
    assert!(t2_undo >= 1, "delegated undo followed t2");
    // the rollback sub-span sits on t2's track, not t1's
    assert!(g.tracks[&t2]
        .spans
        .iter()
        .any(|s| s.kind.label() == "rollback"));
    assert!(!g.tracks[&t1]
        .spans
        .iter()
        .any(|s| s.kind.label() == "rollback"));
}

/// A transitive permit chain t1 → t2 → t3: when t3's conflicting write is
/// admitted, the trace carries a permit-through edge whose chain depth is
/// exactly the `permits_across` depth (2 hops) — and the introspection
/// API reports the same maximum.
#[test]
fn permit_chain_depth_matches_permits_across() {
    let db = traced_db();
    let o = db.new_oid();
    assert!(db.run(move |ctx| ctx.write(o, b"p0".to_vec())).unwrap());

    let t1 = db
        .initiate(move |ctx| ctx.write(o, b"p1".to_vec()))
        .unwrap();
    let t2 = db.initiate(|_| Ok(())).unwrap();
    let t3 = db
        .initiate(move |ctx| ctx.write(o, b"p3".to_vec()))
        .unwrap();
    db.permit(t1, Some(t2), ObSet::one(o), OpSet::ALL).unwrap();
    db.permit(t2, Some(t3), ObSet::one(o), OpSet::ALL).unwrap();
    db.begin(t1).unwrap();
    assert!(db.wait(t1).unwrap(), "t1 completed and retains its X lock");
    // t3's write conflicts with t1's retained lock; the chain admits it
    db.begin(t3).unwrap();
    assert!(db.wait(t3).unwrap(), "admitted through the two-hop chain");
    db.begin(t2).unwrap();
    assert!(db.commit(t3).unwrap());
    assert!(db.commit(t1).unwrap());
    assert!(db.commit(t2).unwrap());

    let g = CausalGraph::from_events(&db.obs().trace());
    // the permit-through edge goes holder → requester with the DFS depth
    let through: Vec<_> = g
        .edges
        .iter()
        .filter_map(|e| match e.kind {
            EdgeKind::PermitUsed { chain } => Some((e.from, e.to, chain)),
            _ => None,
        })
        .collect();
    assert!(
        through.contains(&(t1, t3, 2)),
        "t3 admitted past t1 through a 2-hop chain, got {through:?}"
    );
    assert_eq!(g.permit_chain_max(), 2);
    assert_eq!(
        db.metrics_snapshot().permit_chain_len.max,
        2,
        "the metrics report the same permits_across depth"
    );
}
