//! The transaction dependency graph (paper §4.1–4.2).
//!
//! Internal normalization: every CD/AD edge is stored as *(dependent,
//! on)* — the dependent's commit is gated by `on`:
//!
//! * `form_dependency(CD, ti, tj)` — "tj cannot commit before ti" — becomes
//!   `(dependent: tj, on: ti, CD)`: tj waits until ti *terminates*.
//! * `form_dependency(AD, ti, tj)` — "if ti aborts, tj aborts" — becomes
//!   `(dependent: tj, on: ti, AD)`: tj waits until ti *commits*; if ti
//!   aborts, tj is doomed. (AD covers CD, as the paper notes.)
//! * `form_dependency(GC, ti, tj)` — symmetric; stored once and evaluated
//!   as a connected component that commits or aborts as a unit. The
//!   paper's mark-based protocol discovers the same component pairwise;
//!   component discovery is our equivalent implementation.
//!
//! The graph holds edges between *live* transactions only. A fate lives
//! in the transaction's descriptor, not here: [`DepGraph::committed`] and
//! [`DepGraph::aborted`] drop every edge of the terminated transaction,
//! so an edge that is still present names two live parties, and the
//! caller — which holds the descriptors — resolves an edge to a
//! terminated party itself (no edge, or [`DepGraph::doom`]).
//!
//! `form_dependency` rejects a CD/AD edge that would close a cycle in the
//! CD/AD subgraph — the paper: "a check is performed to prevent certain
//! dependency cycles" — because such a cycle deadlocks the commit protocol.
//! GC cycles are fine; they *are* group commit.

use asset_common::{AssetError, DepType, IdMap, IdSet, Result, Tid};

/// What the commit protocol should do next for a transaction (or its GC
/// group).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CommitGate {
    /// All gates are open: commit these transactions together (the
    /// transaction itself plus its GC component).
    Ready(Vec<Tid>),
    /// Some member of the group is doomed (an AD parent aborted, or a GC
    /// partner aborted): the whole group must abort.
    Doomed(Vec<Tid>),
    /// Blocked until the named transaction terminates (CD) or commits (AD).
    WaitOn(Tid),
}

/// Aggregate dependency-graph counts, assembled by [`DepGraph::summary`]
/// for `Database::introspect()` and the `asset-top` display.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepSummary {
    /// Transactions doomed by a dependency, not yet aborted.
    pub doomed: usize,
    /// Live commit dependencies (CD).
    pub cd_edges: usize,
    /// Live abort dependencies (AD).
    pub ad_edges: usize,
    /// Group-commit links (each undirected link counted once).
    pub gc_links: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct GateEdge {
    dependent: Tid,
    on: Tid,
    kind: DepType, // CD or AD only
}

/// The dependency graph. Pure data structure — blocking/waking lives in the
/// transaction manager, which re-evaluates [`DepGraph::commit_gate`] on
/// every termination event.
#[derive(Default)]
pub struct DepGraph {
    /// CD/AD edges, doubly indexed.
    out_edges: IdMap<Tid, Vec<GateEdge>>, // keyed by dependent
    in_edges: IdMap<Tid, Vec<GateEdge>>, // keyed by `on`
    /// GC adjacency (undirected).
    gc: IdMap<Tid, IdSet<Tid>>,
    /// Live transactions doomed by a dependency (must abort when they
    /// next try to commit); a transaction leaves when it terminates.
    doomed: IdSet<Tid>,
}

impl DepGraph {
    /// An empty graph.
    pub fn new() -> DepGraph {
        DepGraph::default()
    }

    /// A no-op: the graph learns of a transaction from its first edge and
    /// forgets it at its termination, so there is nothing to register.
    /// Kept for callers written against the registering graph.
    pub fn register(&mut self, _t: Tid) {}

    /// Is `t` doomed by a dependency?
    pub fn is_doomed(&self, t: Tid) -> bool {
        self.doomed.contains(&t)
    }

    /// Doom live `t` by a dependency on a transaction that already
    /// aborted: the AD or GC edge that would have doomed it at that abort
    /// is formed too late to be stored.
    pub fn doom(&mut self, t: Tid) {
        self.doomed.insert(t);
    }

    /// Every live edge in the paper's `form_dependency(kind, ti, tj)`
    /// orientation: CD/AD edges come back as `(kind, on, dependent)` —
    /// undoing the internal normalization — and each GC link appears once
    /// with its endpoints in ascending tid order. Sorted for deterministic
    /// export (DOT, introspection).
    pub fn edges(&self) -> Vec<(DepType, Tid, Tid)> {
        let mut out: Vec<(DepType, Tid, Tid)> = self
            .out_edges
            .values()
            .flatten()
            .map(|e| (e.kind, e.on, e.dependent))
            .collect();
        for (&a, peers) in &self.gc {
            for &b in peers {
                if a < b {
                    out.push((DepType::GC, a, b));
                }
            }
        }
        out.sort_unstable_by_key(|(k, a, b)| (*k as u8, a.raw(), b.raw()));
        out
    }

    /// Aggregate counts for dashboards ([`DepSummary`]).
    pub fn summary(&self) -> DepSummary {
        let edges = self.out_edges.values().flatten();
        let ad_edges = edges.clone().filter(|e| e.kind == DepType::AD).count();
        DepSummary {
            doomed: self.doomed.len(),
            cd_edges: edges.count() - ad_edges,
            ad_edges,
            gc_links: self.gc.values().map(IdSet::len).sum::<usize>() / 2,
        }
    }

    /// `form_dependency(kind, ti, tj)` between two live transactions.
    /// The caller resolves a terminated party before asking: a terminated
    /// dependent cannot be constrained retroactively, a committed `on`
    /// satisfies AD/CD, an aborted `on` dooms an AD dependent or GC
    /// partner ([`doom`](Self::doom)).
    pub fn form(&mut self, kind: DepType, ti: Tid, tj: Tid) -> Result<()> {
        let (dependent, on) = (tj, ti);
        if ti == tj {
            return Err(AssetError::DependencyCycle { dependent, on });
        }
        if kind == DepType::GC {
            self.gc.entry(ti).or_default().insert(tj);
            self.gc.entry(tj).or_default().insert(ti);
            return Ok(());
        }
        // cycle check over the CD/AD subgraph: adding dependent -> on must
        // not close a path on ->* dependent.
        if self.reaches(on, dependent) {
            return Err(AssetError::DependencyCycle { dependent, on });
        }
        let edge = GateEdge {
            dependent,
            on,
            kind,
        };
        self.out_edges.entry(dependent).or_default().push(edge);
        self.in_edges.entry(on).or_default().push(edge);
        Ok(())
    }

    /// Is there a CD/AD path `from ->* to` (following dependent→on edges)?
    fn reaches(&self, from: Tid, to: Tid) -> bool {
        let mut stack = vec![from];
        let mut seen = IdSet::default();
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(edges) = self.out_edges.get(&t) {
                stack.extend(edges.iter().map(|e| e.on));
            }
        }
        false
    }

    /// The GC-connected component of `t` (always contains `t`).
    pub fn gc_component(&self, t: Tid) -> Vec<Tid> {
        let mut seen = IdSet::default();
        let mut stack = vec![t];
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            out.push(x);
            if let Some(nbrs) = self.gc.get(&x) {
                stack.extend(nbrs.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }

    /// Evaluate the commit gate for `t` (paper commit steps 2–3).
    ///
    /// Considers `t`'s whole GC component: edges *within* the component are
    /// satisfied by committing together; each member's CD/AD edge to the
    /// outside names a live transaction, so it gates the group until that
    /// transaction terminates (an abort that dooms the group dooms it
    /// here too, through `doomed`).
    pub fn commit_gate(&self, t: Tid) -> CommitGate {
        let group = self.gc_component(t);
        if group.iter().any(|m| self.doomed.contains(m)) {
            return CommitGate::Doomed(group);
        }
        let outside = group
            .iter()
            .filter_map(|m| self.out_edges.get(m))
            .flatten()
            .find(|e| group.binary_search(&e.on).is_err());
        match outside {
            Some(e) => CommitGate::WaitOn(e.on),
            None => CommitGate::Ready(group),
        }
    }

    /// Every member of `group` committed: drop their edges (paper commit
    /// step 5: "remove all dependencies of other transactions on ti").
    /// Returns how many edges and links were dropped.
    pub fn committed(&mut self, group: &[Tid]) -> usize {
        group.iter().map(|t| self.forget(*t)).sum()
    }

    /// `t` aborted. Returns the transactions that must now abort too
    /// (paper abort step 4: dependents via AD, GC partners) — CD
    /// dependents are simply released — and how many edges and links were
    /// dropped. The caller aborts each returned transaction, which
    /// re-enters here — transitivity via iteration.
    pub fn aborted(&mut self, t: Tid) -> (Vec<Tid>, usize) {
        let ad = self.in_edges.get(&t).into_iter().flatten();
        let ad = ad.filter(|e| e.kind == DepType::AD).map(|e| e.dependent);
        let gc = self.gc.get(&t).into_iter().flatten().copied();
        let mut victims: Vec<Tid> = ad.chain(gc).collect();
        victims.sort_unstable();
        victims.dedup();
        self.doomed.extend(victims.iter().copied());
        (victims, self.forget(t))
    }

    /// Drop every edge touching terminated `t`, and its doom; returns how
    /// many edges and links went.
    fn forget(&mut self, t: Tid) -> usize {
        self.doomed.remove(&t);
        let outs = self.out_edges.remove(&t).unwrap_or_default();
        let ins = self.in_edges.remove(&t).unwrap_or_default();
        let nbrs = self.gc.remove(&t).unwrap_or_default();
        for e in &outs {
            if let Some(v) = self.in_edges.get_mut(&e.on) {
                v.retain(|x| x.dependent != t);
            }
        }
        for e in &ins {
            if let Some(v) = self.out_edges.get_mut(&e.dependent) {
                v.retain(|x| x.on != t);
            }
        }
        for n in &nbrs {
            if let Some(s) = self.gc.get_mut(n) {
                s.remove(&t);
            }
        }
        outs.len() + ins.len() + nbrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_one(g: &DepGraph, t: Tid) {
        assert_eq!(g.commit_gate(t), CommitGate::Ready(vec![t]));
    }

    #[test]
    fn no_dependencies_is_ready() {
        ready_one(&DepGraph::new(), Tid(1));
    }

    #[test]
    fn cd_blocks_until_termination_either_way() {
        // form_dependency(CD, t1, t2): t2 cannot commit before t1.
        let mut g = DepGraph::new();
        g.form(DepType::CD, Tid(1), Tid(2)).unwrap();
        assert_eq!(g.commit_gate(Tid(2)), CommitGate::WaitOn(Tid(1)));
        ready_one(&g, Tid(1)); // t1 itself is unconstrained
        g.committed(&[Tid(1)]);
        ready_one(&g, Tid(2));
    }

    #[test]
    fn cd_released_by_abort() {
        let mut g = DepGraph::new();
        g.form(DepType::CD, Tid(1), Tid(2)).unwrap();
        let (victims, _) = g.aborted(Tid(1));
        assert!(victims.is_empty(), "CD dependents survive an abort");
        ready_one(&g, Tid(2));
    }

    #[test]
    fn ad_blocks_then_dooms_on_abort() {
        // form_dependency(AD, t1, t2): if t1 aborts, t2 aborts.
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        assert_eq!(g.commit_gate(Tid(2)), CommitGate::WaitOn(Tid(1)));
        let (victims, _) = g.aborted(Tid(1));
        assert_eq!(victims, vec![Tid(2)]);
        assert!(g.is_doomed(Tid(2)));
        assert_eq!(g.commit_gate(Tid(2)), CommitGate::Doomed(vec![Tid(2)]));
    }

    #[test]
    fn ad_satisfied_by_commit() {
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        g.committed(&[Tid(1)]);
        ready_one(&g, Tid(2));
    }

    #[test]
    fn gc_forms_component_and_commits_together() {
        let mut g = DepGraph::new();
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        g.form(DepType::GC, Tid(2), Tid(3)).unwrap();
        assert_eq!(g.gc_component(Tid(1)), vec![Tid(1), Tid(2), Tid(3)]);
        assert_eq!(
            g.commit_gate(Tid(2)),
            CommitGate::Ready(vec![Tid(1), Tid(2), Tid(3)])
        );
        assert_eq!(g.committed(&[Tid(1), Tid(2), Tid(3)]), 2);
        assert_eq!(g.summary().gc_links, 0);
    }

    #[test]
    fn gc_abort_dooms_partners() {
        let mut g = DepGraph::new();
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        g.form(DepType::GC, Tid(2), Tid(3)).unwrap();
        let (victims, _) = g.aborted(Tid(2));
        assert_eq!(victims, vec![Tid(1), Tid(3)]);
        assert_eq!(g.commit_gate(Tid(1)), CommitGate::Doomed(vec![Tid(1)]));
    }

    #[test]
    fn gc_group_gated_by_external_cd() {
        let mut g = DepGraph::new();
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        // t2 commit-depends on outside transaction t9
        g.form(DepType::CD, Tid(9), Tid(2)).unwrap();
        assert_eq!(g.commit_gate(Tid(1)), CommitGate::WaitOn(Tid(9)));
        g.committed(&[Tid(9)]);
        assert_eq!(
            g.commit_gate(Tid(1)),
            CommitGate::Ready(vec![Tid(1), Tid(2)])
        );
    }

    #[test]
    fn intra_group_gate_edges_are_satisfied() {
        let mut g = DepGraph::new();
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        // an AD inside the group: satisfied by committing together
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        assert_eq!(
            g.commit_gate(Tid(2)),
            CommitGate::Ready(vec![Tid(1), Tid(2)])
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut g = DepGraph::new();
        g.form(DepType::CD, Tid(1), Tid(2)).unwrap(); // t2 waits on t1
        let err = g.form(DepType::CD, Tid(2), Tid(1)).unwrap_err(); // t1 waits on t2
        assert!(matches!(err, AssetError::DependencyCycle { .. }));
        // longer cycle
        g.form(DepType::AD, Tid(2), Tid(3)).unwrap(); // t3 waits on t2
        let err = g.form(DepType::CD, Tid(3), Tid(1)).unwrap_err(); // t1 waits on t3
        assert!(matches!(err, AssetError::DependencyCycle { .. }));
    }

    #[test]
    fn self_dependency_rejected() {
        let mut g = DepGraph::new();
        assert!(g.form(DepType::CD, Tid(1), Tid(1)).is_err());
        assert!(g.form(DepType::GC, Tid(1), Tid(1)).is_err());
    }

    #[test]
    fn gc_cycle_is_fine() {
        let mut g = DepGraph::new();
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        g.form(DepType::GC, Tid(2), Tid(1)).unwrap(); // duplicate/reverse ok
        assert_eq!(g.gc_component(Tid(1)), vec![Tid(1), Tid(2)]);
    }

    #[test]
    fn chain_of_ads_aborts_transitively_via_manager_iteration() {
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        g.form(DepType::AD, Tid(2), Tid(3)).unwrap();
        // manager loop: abort t1 → victims [t2]; abort t2 → victims [t3]...
        let mut queue = g.aborted(Tid(1)).0;
        let mut all = vec![];
        while let Some(v) = queue.pop() {
            all.push(v);
            queue.extend(g.aborted(v).0);
        }
        all.sort_unstable();
        assert_eq!(all, vec![Tid(2), Tid(3)]);
    }

    #[test]
    fn committed_removes_edges_for_others() {
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        g.form(DepType::CD, Tid(1), Tid(3)).unwrap();
        assert_eq!(g.committed(&[Tid(1)]), 2);
        assert!(g.edges().is_empty());
        ready_one(&g, Tid(2));
        ready_one(&g, Tid(3));
    }

    #[test]
    fn edge_and_link_counts() {
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        g.form(DepType::CD, Tid(1), Tid(3)).unwrap();
        g.form(DepType::GC, Tid(4), Tid(5)).unwrap();
        let summary = g.summary();
        let counts = (summary.cd_edges, summary.ad_edges, summary.gc_links);
        assert_eq!(counts, (1, 1, 1));
    }
}
