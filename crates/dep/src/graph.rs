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
//! `form_dependency` rejects a CD/AD edge that would close a cycle in the
//! CD/AD subgraph — the paper: "a check is performed to prevent certain
//! dependency cycles" — because such a cycle deadlocks the commit protocol.
//! GC cycles are fine; they *are* group commit.

use asset_common::{AssetError, DepType, IdMap, IdSet, Result, Tid};

/// Terminal knowledge the graph keeps about each registered transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TermState {
    /// Not yet terminated.
    Active,
    /// Committed.
    Committed,
    /// Aborted.
    Aborted,
}

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
    /// Transactions the graph knows about (any terminal state).
    pub registered: usize,
    /// Registered and not yet terminated.
    pub active: usize,
    /// Registered and committed.
    pub committed: usize,
    /// Registered and aborted.
    pub aborted: usize,
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
    /// Terminal states of registered transactions.
    term: IdMap<Tid, TermState>,
    /// Transactions doomed by a dependency (must abort when they next try
    /// to commit, or immediately if the manager polls).
    doomed: IdSet<Tid>,
}

impl DepGraph {
    /// An empty graph.
    pub fn new() -> DepGraph {
        DepGraph::default()
    }

    /// Register a transaction (idempotent).
    pub fn register(&mut self, t: Tid) {
        self.term.entry(t).or_insert(TermState::Active);
    }

    /// Terminal state of `t` (`Active` if unknown).
    pub fn state(&self, t: Tid) -> TermState {
        self.term.get(&t).copied().unwrap_or(TermState::Active)
    }

    /// Is `t` doomed by a dependency?
    pub fn is_doomed(&self, t: Tid) -> bool {
        self.doomed.contains(&t)
    }

    /// Number of CD/AD edges (diagnostics).
    pub fn edge_count(&self) -> usize {
        self.out_edges.values().map(Vec::len).sum()
    }

    /// Number of GC links (diagnostics).
    pub fn gc_link_count(&self) -> usize {
        self.gc.values().map(IdSet::len).sum::<usize>() / 2
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
        let mut s = DepSummary {
            registered: self.term.len(),
            doomed: self.doomed.len(),
            gc_links: self.gc_link_count(),
            ..DepSummary::default()
        };
        for st in self.term.values() {
            match st {
                TermState::Active => s.active += 1,
                TermState::Committed => s.committed += 1,
                TermState::Aborted => s.aborted += 1,
            }
        }
        for e in self.out_edges.values().flatten() {
            match e.kind {
                DepType::AD => s.ad_edges += 1,
                _ => s.cd_edges += 1,
            }
        }
        s
    }

    /// `form_dependency(kind, ti, tj)`.
    ///
    /// Edges involving already-terminated transactions resolve immediately
    /// instead of being stored: a terminated *dependent* cannot be
    /// constrained retroactively (in particular, a committed transaction is
    /// never doomed); an already-committed `on` satisfies AD/CD; an
    /// already-aborted `on` dooms an active AD dependent / GC partner.
    pub fn form(&mut self, kind: DepType, ti: Tid, tj: Tid) -> Result<()> {
        if ti == tj {
            return Err(AssetError::DependencyCycle {
                dependent: tj,
                on: ti,
            });
        }
        self.register(ti);
        self.register(tj);
        let (si, sj) = (self.state(ti), self.state(tj));
        match kind {
            DepType::GC => {
                match (si, sj) {
                    (TermState::Active, TermState::Active) => {
                        self.gc.entry(ti).or_default().insert(tj);
                        self.gc.entry(tj).or_default().insert(ti);
                    }
                    (TermState::Aborted, TermState::Active) => {
                        self.doomed.insert(tj);
                    }
                    (TermState::Active, TermState::Aborted) => {
                        self.doomed.insert(ti);
                    }
                    // a committed or doubly-terminated pair cannot be bound
                    // retroactively
                    _ => {}
                }
                Ok(())
            }
            DepType::CD | DepType::AD => {
                let (dependent, on) = (tj, ti);
                if sj != TermState::Active {
                    // the dependent's fate is already sealed
                    return Ok(());
                }
                match si {
                    TermState::Committed => Ok(()), // gate already satisfied
                    TermState::Aborted => {
                        if kind == DepType::AD {
                            self.doomed.insert(dependent);
                        }
                        Ok(()) // CD on an aborted `on` is satisfied
                    }
                    TermState::Active => {
                        // cycle check over the CD/AD subgraph: adding
                        // dependent -> on must not close a path
                        // on ->* dependent.
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
                }
            }
        }
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
    /// satisfied by committing together; each member's CD/AD edges to the
    /// outside gate the group.
    pub fn commit_gate(&self, t: Tid) -> CommitGate {
        let group = self.gc_component(t);
        let group_set: IdSet<Tid> = group.iter().copied().collect();

        // Any doomed or aborted member dooms the group.
        for m in &group {
            if self.doomed.contains(m) || self.state(*m) == TermState::Aborted {
                return CommitGate::Doomed(group);
            }
        }
        for m in &group {
            let Some(edges) = self.out_edges.get(m) else {
                continue;
            };
            for e in edges {
                if group_set.contains(&e.on) {
                    continue; // intra-group: satisfied by committing together
                }
                match (e.kind, self.state(e.on)) {
                    // AD: wait for `on` to commit; abort if it aborts
                    (DepType::AD, TermState::Active) => return CommitGate::WaitOn(e.on),
                    (DepType::AD, TermState::Aborted) => {
                        return CommitGate::Doomed(group);
                    }
                    (DepType::AD, TermState::Committed) => {}
                    // CD: wait for `on` to terminate either way
                    (DepType::CD, TermState::Active) => return CommitGate::WaitOn(e.on),
                    (DepType::CD, _) => {}
                    (DepType::GC, _) => unreachable!("GC edges are not gate edges"),
                }
            }
        }
        CommitGate::Ready(group)
    }

    /// Mark every member of `group` committed and drop their edges (paper
    /// commit step 5: "remove all dependencies of other transactions on
    /// ti").
    pub fn committed(&mut self, group: &[Tid]) {
        for t in group {
            self.term.insert(*t, TermState::Committed);
            self.remove_edges(*t);
        }
    }

    /// Mark `t` aborted. Returns the transactions that must now abort too
    /// (paper abort step 4: dependents via AD, GC partners); CD dependents
    /// are simply released. The caller aborts each returned transaction,
    /// which re-enters here — transitivity via iteration.
    pub fn aborted(&mut self, t: Tid) -> Vec<Tid> {
        self.term.insert(t, TermState::Aborted);
        self.doomed.remove(&t);
        let mut victims: Vec<Tid> = Vec::new();
        // incoming AD edges: dependents doomed
        if let Some(edges) = self.in_edges.get(&t) {
            for e in edges {
                if e.kind == DepType::AD && self.state(e.dependent) == TermState::Active {
                    victims.push(e.dependent);
                }
            }
        }
        // GC partners doomed
        if let Some(nbrs) = self.gc.get(&t) {
            for n in nbrs {
                if self.state(*n) == TermState::Active {
                    victims.push(*n);
                }
            }
        }
        victims.sort_unstable();
        victims.dedup();
        for v in &victims {
            self.doomed.insert(*v);
        }
        self.remove_edges(t);
        victims
    }

    /// Drop every edge touching `t`.
    fn remove_edges(&mut self, t: Tid) {
        if let Some(edges) = self.out_edges.remove(&t) {
            for e in edges {
                if let Some(v) = self.in_edges.get_mut(&e.on) {
                    v.retain(|x| x.dependent != t);
                }
            }
        }
        if let Some(edges) = self.in_edges.remove(&t) {
            for e in edges {
                if let Some(v) = self.out_edges.get_mut(&e.dependent) {
                    v.retain(|x| x.on != t);
                }
            }
        }
        if let Some(nbrs) = self.gc.remove(&t) {
            for n in nbrs {
                if let Some(s) = self.gc.get_mut(&n) {
                    s.remove(&t);
                }
            }
        }
    }

    /// Forget a retired transaction entirely (manager GC).
    pub fn retire(&mut self, t: Tid) {
        self.remove_edges(t);
        self.term.remove(&t);
        self.doomed.remove(&t);
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
        let mut g = DepGraph::new();
        g.register(Tid(1));
        ready_one(&g, Tid(1));
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
        let victims = g.aborted(Tid(1));
        assert!(victims.is_empty(), "CD dependents survive an abort");
        ready_one(&g, Tid(2));
    }

    #[test]
    fn ad_blocks_then_dooms_on_abort() {
        // form_dependency(AD, t1, t2): if t1 aborts, t2 aborts.
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        assert_eq!(g.commit_gate(Tid(2)), CommitGate::WaitOn(Tid(1)));
        let victims = g.aborted(Tid(1));
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
        g.committed(&[Tid(1), Tid(2), Tid(3)]);
        assert_eq!(g.state(Tid(3)), TermState::Committed);
    }

    #[test]
    fn gc_abort_dooms_partners() {
        let mut g = DepGraph::new();
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        g.form(DepType::GC, Tid(2), Tid(3)).unwrap();
        let victims = g.aborted(Tid(2));
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
    fn ad_on_already_aborted_parent_dooms_immediately() {
        let mut g = DepGraph::new();
        g.register(Tid(1));
        g.aborted(Tid(1));
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        assert!(g.is_doomed(Tid(2)));
    }

    #[test]
    fn gc_with_already_aborted_partner_dooms() {
        let mut g = DepGraph::new();
        g.register(Tid(1));
        g.aborted(Tid(1));
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        assert!(g.is_doomed(Tid(2)));
    }

    #[test]
    fn committed_removes_edges_for_others() {
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        g.form(DepType::CD, Tid(1), Tid(3)).unwrap();
        g.committed(&[Tid(1)]);
        assert_eq!(g.edge_count(), 0);
        ready_one(&g, Tid(2));
        ready_one(&g, Tid(3));
    }

    #[test]
    fn chain_of_ads_aborts_transitively_via_manager_iteration() {
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        g.form(DepType::AD, Tid(2), Tid(3)).unwrap();
        // manager loop: abort t1 → victims [t2]; abort t2 → victims [t3]...
        let mut queue = g.aborted(Tid(1));
        let mut all = vec![];
        while let Some(v) = queue.pop() {
            all.push(v);
            queue.extend(g.aborted(v));
        }
        all.sort_unstable();
        assert_eq!(all, vec![Tid(2), Tid(3)]);
    }

    #[test]
    fn retire_cleans_everything() {
        let mut g = DepGraph::new();
        g.form(DepType::GC, Tid(1), Tid(2)).unwrap();
        g.form(DepType::AD, Tid(1), Tid(3)).unwrap();
        g.retire(Tid(1));
        assert_eq!(g.gc_component(Tid(2)), vec![Tid(2)]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.state(Tid(1)), TermState::Active, "unknown again");
    }

    #[test]
    fn edge_and_link_counts() {
        let mut g = DepGraph::new();
        g.form(DepType::AD, Tid(1), Tid(2)).unwrap();
        g.form(DepType::CD, Tid(1), Tid(3)).unwrap();
        g.form(DepType::GC, Tid(4), Tid(5)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.gc_link_count(), 1);
    }
}
