//! Property tests for the dependency graph: gate correctness under random
//! edge sets and termination orders, cycle prevention, and group-commit
//! component algebra.

use asset_common::{DepType, Tid};
use asset_dep::{CommitGate, DepGraph, TermState};
use asset_faults::{cases, Rng};
use std::collections::HashSet;

/// Cases per property.
const CASES: u64 = 128;

#[derive(Clone, Debug)]
enum GraphOp {
    Form(u8, u64, u64), // kind (0=CD,1=AD,2=GC), ti, tj
    Commit(u64),
    Abort(u64),
}

fn arb_graph_op(rng: &mut Rng) -> GraphOp {
    let tid = |rng: &mut Rng| 1 + rng.below(7);
    match rng.below(3) {
        0 => GraphOp::Form(rng.below(3) as u8, tid(rng), tid(rng)),
        1 => GraphOp::Commit(tid(rng)),
        _ => GraphOp::Abort(tid(rng)),
    }
}

/// Whatever happens, a `Ready` gate is truthful: every member of the
/// returned group is active and no member has an unsatisfied external
/// AD/CD edge. And the CD/AD subgraph stays acyclic.
#[test]
fn gates_are_sound() {
    cases(0x0DE9_0001, CASES, |rng| {
        let ops: Vec<GraphOp> = (0..rng.below(60)).map(|_| arb_graph_op(rng)).collect();
        let mut g = DepGraph::new();
        for t in 1..8 {
            g.register(Tid(t));
        }
        for op in ops {
            match op {
                GraphOp::Form(k, a, b) => {
                    let kind = match k {
                        0 => DepType::CD,
                        1 => DepType::AD,
                        _ => DepType::GC,
                    };
                    // may fail (cycle/self) — that's the contract
                    let _ = g.form(kind, Tid(a), Tid(b));
                }
                GraphOp::Commit(t) => {
                    if g.state(Tid(t)) == TermState::Active && !g.is_doomed(Tid(t)) {
                        // only commit when the graph itself says Ready —
                        // mirroring the manager's behavior
                        if let CommitGate::Ready(group) = g.commit_gate(Tid(t)) {
                            for m in &group {
                                assert_eq!(g.state(*m), TermState::Active);
                            }
                            g.committed(&group);
                            for m in &group {
                                assert_eq!(g.state(*m), TermState::Committed);
                            }
                        }
                    }
                }
                GraphOp::Abort(t) => {
                    if g.state(Tid(t)) == TermState::Active {
                        let mut queue = g.aborted(Tid(t));
                        let mut seen = HashSet::new();
                        while let Some(v) = queue.pop() {
                            if seen.insert(v) && g.state(v) == TermState::Active {
                                queue.extend(g.aborted(v));
                            }
                        }
                    }
                }
            }
            // soundness sweep: no committed transaction is doomed
            for t in 1..8 {
                if g.state(Tid(t)) == TermState::Committed {
                    assert!(!g.is_doomed(Tid(t)), "t{t} committed but doomed");
                }
            }
        }
    });
}

/// GC components partition the registered transactions: membership is
/// symmetric and transitive.
#[test]
fn gc_components_partition() {
    cases(0x0DE9_0002, CASES, |rng| {
        let links: Vec<(u64, u64)> = (0..rng.below(15))
            .map(|_| (1 + rng.below(9), 1 + rng.below(9)))
            .collect();
        let mut g = DepGraph::new();
        for t in 1..10 {
            g.register(Tid(t));
        }
        for (a, b) in links {
            if a != b {
                g.form(DepType::GC, Tid(a), Tid(b)).unwrap();
            }
        }
        for t in 1..10u64 {
            let comp = g.gc_component(Tid(t));
            assert!(comp.contains(&Tid(t)), "reflexive");
            for m in &comp {
                let other = g.gc_component(*m);
                assert_eq!(&comp, &other, "t{t} and {m} disagree");
            }
        }
    });
}

/// Cycle prevention is exact for chains: a chain a→b→...→z accepts a
/// forward extension and rejects exactly the closing edges.
#[test]
fn chain_cycle_prevention() {
    cases(0x0DE9_0003, CASES, |rng| {
        let len = 2 + rng.below(5);
        let mut g = DepGraph::new();
        // build dependent-chain: t(i+1) waits on t(i)
        for i in 1..len {
            g.form(DepType::CD, Tid(i), Tid(i + 1)).unwrap();
        }
        // every back edge (t1 waits on t_k, k>1) closes a cycle
        for k in 2..=len {
            let err = g.form(DepType::AD, Tid(k), Tid(1));
            assert!(err.is_err(), "t1 waits on t{k} must be rejected");
        }
        // an independent transaction can hook on anywhere
        g.form(DepType::CD, Tid(len), Tid(99)).unwrap();
    });
}

/// AD chains doom everything downstream of an abort; CD chains doom
/// nothing.
#[test]
fn abort_propagation_depth() {
    cases(0x0DE9_0004, CASES, |rng| {
        let kind_ad = rng.below(2) == 1;
        let len = 2 + rng.below(6);
        let mut g = DepGraph::new();
        let kind = if kind_ad { DepType::AD } else { DepType::CD };
        for i in 1..len {
            g.form(kind, Tid(i), Tid(i + 1)).unwrap();
        }
        // abort the head; manager-style propagation loop
        let mut queue = g.aborted(Tid(1));
        let mut doomed = HashSet::new();
        while let Some(v) = queue.pop() {
            if doomed.insert(v) {
                queue.extend(g.aborted(v));
            }
        }
        if kind_ad {
            assert_eq!(doomed.len() as u64, len - 1, "whole chain doomed");
        } else {
            assert!(doomed.is_empty(), "CD dependents survive");
            // the head's direct dependent is released; the rest still wait
            // on their (live) predecessors and become ready one by one
            for t in 2..=len {
                assert_eq!(g.commit_gate(Tid(t)), CommitGate::Ready(vec![Tid(t)]));
                g.committed(&[Tid(t)]);
            }
        }
    });
}
