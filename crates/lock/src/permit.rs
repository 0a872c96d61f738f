//! Permit descriptors (PDs) and the permission-checking logic.
//!
//! A permit `(grantor, grantee, ob_set, operations)` lets `grantee` perform
//! the listed operations on the listed objects even when they conflict with
//! locks held by `grantor` (paper §2.2). The paper's wildcard forms map to
//! `grantee = None` ("any transaction"), `ObSet::All`, and `OpSet::ALL`.
//!
//! Permits are **transitive** with scope intersection:
//! `permit(ti,tj,S,ops)` followed by `permit(tj,tk,S',ops')` acts as
//! `permit(ti,tk,S∩S',ops∩ops')`. [`PermitTable::permits`] evaluates that
//! closure with a depth-first search whose scope shrinks along the chain.
//!
//! The table is *doubly hashed* on grantor and grantee — the paper's layout
//! — so permissions given by or to a transaction can be located efficiently
//! (needed for delegation re-attribution and commit-time cleanup). The lock
//! table keeps every permit in one such table.

use asset_common::{IdMap, IdSet, ObSet, Oid, OpSet, Operation, Tid};

/// A permit descriptor.
#[derive(Clone, Debug)]
pub struct Permit {
    /// The transaction whose locks are being relaxed.
    pub grantor: Tid,
    /// The beneficiary; `None` means any transaction.
    pub grantee: Option<Tid>,
    /// The objects covered.
    pub obs: ObSet,
    /// The operations covered.
    pub ops: OpSet,
}

/// Identifier of a permit within the table.
pub type PermitId = u64;

/// The doubly-hashed permit table.
#[derive(Default)]
pub struct PermitTable {
    permits: IdMap<PermitId, Permit>,
    by_grantor: IdMap<Tid, Vec<PermitId>>,
    /// `None`-grantee (wildcard) permits are indexed under `Tid::NULL`.
    by_grantee: IdMap<Tid, Vec<PermitId>>,
    next_id: PermitId,
}

impl PermitTable {
    /// An empty table.
    pub fn new() -> PermitTable {
        PermitTable::default()
    }

    /// Number of live permits.
    pub fn len(&self) -> usize {
        self.permits.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.permits.is_empty()
    }

    fn grantee_key(grantee: Option<Tid>) -> Tid {
        grantee.unwrap_or(Tid::NULL)
    }

    /// Record a permit; returns its id.
    pub fn insert(&mut self, permit: Permit) -> PermitId {
        let id = self.next_id;
        self.next_id += 1;
        self.by_grantor.entry(permit.grantor).or_default().push(id);
        self.by_grantee
            .entry(Self::grantee_key(permit.grantee))
            .or_default()
            .push(id);
        self.permits.insert(id, permit);
        id
    }

    fn unindex(&mut self, id: PermitId, p: &Permit) {
        if let Some(v) = self.by_grantor.get_mut(&p.grantor) {
            v.retain(|&x| x != id);
            if v.is_empty() {
                self.by_grantor.remove(&p.grantor);
            }
        }
        let gk = Self::grantee_key(p.grantee);
        if let Some(v) = self.by_grantee.get_mut(&gk) {
            v.retain(|&x| x != id);
            if v.is_empty() {
                self.by_grantee.remove(&gk);
            }
        }
    }

    /// Is `tid` the grantor or the explicit grantee of a permit?
    pub fn involves(&self, tid: Tid) -> bool {
        self.by_grantor.contains_key(&tid) || self.by_grantee.contains_key(&tid)
    }

    /// Remove every permit given *by* or *to* `tid` (paper commit step 6 /
    /// abort step 3 cleanup).
    pub fn remove_involving(&mut self, tid: Tid) -> usize {
        let mut ids: Vec<PermitId> = Vec::new();
        if let Some(v) = self.by_grantor.get(&tid) {
            ids.extend_from_slice(v);
        }
        if let Some(v) = self.by_grantee.get(&tid) {
            ids.extend_from_slice(v);
        }
        ids.sort_unstable();
        ids.dedup();
        for id in &ids {
            if let Some(p) = self.permits.remove(id) {
                self.unindex(*id, &p);
            }
        }
        ids.len()
    }

    /// Re-attribute permits granted by `from` to be granted by `to`
    /// (delegation, §4.2: "change any PD of the form (ti, tk, op) to
    /// (tj, tk, op)"). With `obs = Some(set)`, only permits whose object
    /// scope intersects the delegated set move; the intersecting portion is
    /// split off, matching object-granularity delegation. Returns how many
    /// permits moved.
    pub fn reattribute(&mut self, from: Tid, to: Tid, obs: Option<&ObSet>) -> usize {
        let ids: Vec<PermitId> = self.by_grantor.get(&from).cloned().unwrap_or_default();
        let mut moved = 0;
        for id in ids {
            let Some(p) = self.permits.get(&id).cloned() else {
                continue;
            };
            match obs {
                None => {
                    // full delegation: move the permit wholesale
                    self.permits.remove(&id);
                    self.unindex(id, &p);
                    self.insert(Permit { grantor: to, ..p });
                    moved += 1;
                }
                Some(set) => {
                    let moved_scope = p.obs.intersect(set);
                    if moved_scope.is_empty() {
                        continue;
                    }
                    // split: the moved part re-inserted under `to`; the
                    // remainder (if any) stays under `from`.
                    let remainder = match (&p.obs, set) {
                        (ObSet::All, ObSet::Objects(_)) => Some(ObSet::All), // conservative: keep full
                        (ObSet::Objects(have), ObSet::Objects(taken)) => {
                            let rest: std::collections::BTreeSet<Oid> =
                                have.difference(taken).copied().collect();
                            if rest.is_empty() {
                                None
                            } else {
                                Some(ObSet::Objects(rest))
                            }
                        }
                        (_, ObSet::All) => None,
                    };
                    self.permits.remove(&id);
                    self.unindex(id, &p);
                    self.insert(Permit {
                        grantor: to,
                        obs: moved_scope,
                        ..p.clone()
                    });
                    if let Some(rest) = remainder {
                        self.insert(Permit {
                            grantor: from,
                            obs: rest,
                            ..p
                        });
                    }
                    moved += 1;
                }
            }
        }
        moved
    }

    /// Does `holder` (the transaction whose granted lock conflicts) permit
    /// `requester` to perform `op` on `ob`, directly or through a
    /// transitive chain of permits?
    pub fn permits(&self, holder: Tid, requester: Tid, ob: Oid, op: Operation) -> bool {
        self.chain(holder, requester, ob, op).0
    }

    /// [`permits`](Self::permits), additionally reporting the length of the
    /// permit chain that settled the answer: the number of permit hops on
    /// the granting chain (1 = direct permit), or — when permission is
    /// denied — the length of the longest chain the search explored.
    /// `holder == requester` reports depth 0 (no permit consulted). The
    /// depth feeds the observability layer's `permit_chain_len` histogram.
    pub fn chain(&self, holder: Tid, requester: Tid, ob: Oid, op: Operation) -> (bool, usize) {
        if holder == requester {
            return (true, 0);
        }
        let mut on_path: IdSet<Tid> = IdSet::default();
        on_path.insert(holder);
        let mut max_depth = 0usize;
        let granted = self.dfs(holder, requester, ob, op, &mut on_path, 1, &mut max_depth);
        (granted, max_depth)
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the search state of one recursive walk"
    )]
    fn dfs(
        &self,
        from: Tid,
        target: Tid,
        ob: Oid,
        op: Operation,
        on_path: &mut IdSet<Tid>,
        depth: usize,
        max_depth: &mut usize,
    ) -> bool {
        for p in self.edges_from(from) {
            // scope check: the chain's effective scope is the intersection
            // of every hop; since we test one (ob, op) point, intersection
            // membership == membership at every hop.
            if !p.obs.contains(ob) || !p.ops.contains(op) {
                continue;
            }
            *max_depth = (*max_depth).max(depth);
            match p.grantee {
                None => {
                    *max_depth = depth;
                    return true; // wildcard: any transaction, incl. target
                }
                Some(g) if g == target => {
                    *max_depth = depth;
                    return true;
                }
                Some(g) => {
                    if on_path.insert(g) {
                        if self.dfs(g, target, ob, op, on_path, depth + 1, max_depth) {
                            return true;
                        }
                        on_path.remove(&g);
                    }
                }
            }
        }
        false
    }

    /// Permits granted by `tid`, borrowed (the DFS edge list).
    pub fn edges_from(&self, tid: Tid) -> impl Iterator<Item = &Permit> {
        self.by_grantor
            .get(&tid)
            .into_iter()
            .flatten()
            .filter_map(|id| self.permits.get(id))
    }

    /// All permits where `tid` is the explicit grantee (to materialize the
    /// paper's `permit(ti, tj, op)` form over objects `ti` has permission
    /// to access).
    pub fn granted_to(&self, tid: Tid) -> Vec<Permit> {
        self.by_grantee
            .get(&tid)
            .into_iter()
            .flatten()
            .filter_map(|id| self.permits.get(id).cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(grantor: u64, grantee: Option<u64>, obs: ObSet, ops: OpSet) -> Permit {
        Permit {
            grantor: Tid(grantor),
            grantee: grantee.map(Tid),
            obs,
            ops,
        }
    }

    #[test]
    fn direct_permit() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::one(Oid(10)), OpSet::WRITE));
        assert!(t.permits(Tid(1), Tid(2), Oid(10), Operation::Write));
        assert!(!t.permits(Tid(1), Tid(2), Oid(10), Operation::Read));
        assert!(!t.permits(Tid(1), Tid(2), Oid(11), Operation::Write));
        assert!(!t.permits(Tid(1), Tid(3), Oid(10), Operation::Write));
        assert!(
            !t.permits(Tid(2), Tid(1), Oid(10), Operation::Write),
            "not symmetric"
        );
    }

    #[test]
    fn self_is_always_permitted() {
        let t = PermitTable::new();
        assert!(t.permits(Tid(1), Tid(1), Oid(1), Operation::Write));
    }

    #[test]
    fn wildcard_grantee() {
        let mut t = PermitTable::new();
        t.insert(p(1, None, ObSet::one(Oid(5)), OpSet::ALL));
        assert!(t.permits(Tid(1), Tid(99), Oid(5), Operation::Write));
        assert!(!t.permits(Tid(1), Tid(99), Oid(6), Operation::Write));
    }

    #[test]
    fn wildcard_objects_and_ops() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::All, OpSet::ALL));
        assert!(t.permits(Tid(1), Tid(2), Oid(123), Operation::Read));
        assert!(t.permits(Tid(1), Tid(2), Oid(456), Operation::Write));
    }

    #[test]
    fn transitive_chain_intersects_scopes() {
        let mut t = PermitTable::new();
        // t1 permits t2 on {1,2} read+write; t2 permits t3 on {2,3} write.
        t.insert(p(
            1,
            Some(2),
            ObSet::from_slice(&[Oid(1), Oid(2)]),
            OpSet::ALL,
        ));
        t.insert(p(
            2,
            Some(3),
            ObSet::from_slice(&[Oid(2), Oid(3)]),
            OpSet::WRITE,
        ));
        // effective permit t1 -> t3: {2} x {write}
        assert!(t.permits(Tid(1), Tid(3), Oid(2), Operation::Write));
        assert!(
            !t.permits(Tid(1), Tid(3), Oid(1), Operation::Write),
            "ob not in 2nd hop"
        );
        assert!(
            !t.permits(Tid(1), Tid(3), Oid(3), Operation::Write),
            "ob not in 1st hop"
        );
        assert!(
            !t.permits(Tid(1), Tid(3), Oid(2), Operation::Read),
            "op intersected away"
        );
    }

    #[test]
    fn transitive_cycle_terminates() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::All, OpSet::ALL));
        t.insert(p(2, Some(1), ObSet::All, OpSet::ALL));
        // no path 1 -> 3 even though 1 and 2 permit each other
        assert!(!t.permits(Tid(1), Tid(3), Oid(1), Operation::Read));
        // but 1 -> 2 holds
        assert!(t.permits(Tid(1), Tid(2), Oid(1), Operation::Read));
    }

    #[test]
    fn chain_through_wildcard_grantee_short_circuits() {
        let mut t = PermitTable::new();
        t.insert(p(1, None, ObSet::All, OpSet::READ));
        // anyone may read anything of t1's
        assert!(t.permits(Tid(1), Tid(42), Oid(7), Operation::Read));
        assert!(!t.permits(Tid(1), Tid(42), Oid(7), Operation::Write));
    }

    #[test]
    fn remove_involving_cleans_both_sides() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::All, OpSet::ALL));
        t.insert(p(3, Some(1), ObSet::All, OpSet::ALL));
        t.insert(p(4, Some(5), ObSet::All, OpSet::ALL));
        assert_eq!(t.len(), 3);
        let removed = t.remove_involving(Tid(1));
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 1);
        assert!(!t.permits(Tid(1), Tid(2), Oid(1), Operation::Read));
        assert!(!t.permits(Tid(3), Tid(1), Oid(1), Operation::Read));
        assert!(t.permits(Tid(4), Tid(5), Oid(1), Operation::Read));
    }

    #[test]
    fn reattribute_full_delegation() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::one(Oid(9)), OpSet::ALL));
        assert_eq!(t.reattribute(Tid(1), Tid(7), None), 1);
        assert!(!t.permits(Tid(1), Tid(2), Oid(9), Operation::Read));
        assert!(t.permits(Tid(7), Tid(2), Oid(9), Operation::Read));
    }

    #[test]
    fn reattribute_partial_splits_scope() {
        let mut t = PermitTable::new();
        t.insert(p(
            1,
            Some(2),
            ObSet::from_slice(&[Oid(1), Oid(2)]),
            OpSet::ALL,
        ));
        // delegate only ob1 from t1 to t3
        t.reattribute(Tid(1), Tid(3), Some(&ObSet::one(Oid(1))));
        assert!(
            t.permits(Tid(3), Tid(2), Oid(1), Operation::Read),
            "moved part"
        );
        assert!(
            t.permits(Tid(1), Tid(2), Oid(2), Operation::Read),
            "remainder stays"
        );
        assert!(
            !t.permits(Tid(1), Tid(2), Oid(1), Operation::Read),
            "moved away"
        );
    }

    #[test]
    fn reattribute_ignores_disjoint_permits() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::one(Oid(5)), OpSet::ALL));
        assert_eq!(t.reattribute(Tid(1), Tid(3), Some(&ObSet::one(Oid(9)))), 0);
        assert!(t.permits(Tid(1), Tid(2), Oid(5), Operation::Read));
        assert!(!t.permits(Tid(3), Tid(2), Oid(5), Operation::Read));
    }

    #[test]
    fn granted_to_and_involves() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::All, OpSet::ALL));
        t.insert(p(1, Some(3), ObSet::All, OpSet::READ));
        t.insert(p(4, Some(1), ObSet::All, OpSet::ALL));
        t.insert(p(5, None, ObSet::All, OpSet::ALL));
        assert_eq!(t.granted_to(Tid(1)).len(), 1);
        assert!([1, 2, 3, 4, 5].iter().all(|&x| t.involves(Tid(x))));
        assert!(!t.involves(Tid(9)), "a wildcard grantee names no party");
    }

    #[test]
    fn chain_hops_between_scoped_and_wildcard_permits() {
        // t1 -> t2 is scoped to one object, t2 -> t3 covers every object;
        // the search stitches the chain and keeps the narrower scope.
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::one(Oid(5)), OpSet::ALL));
        t.insert(p(2, Some(3), ObSet::All, OpSet::ALL));
        assert_eq!(t.chain(Tid(1), Tid(3), Oid(5), Operation::Write), (true, 2));
        assert!(!t.permits(Tid(1), Tid(3), Oid(6), Operation::Write));
    }

    #[test]
    fn depth_reports_chain_length() {
        let mut t = PermitTable::new();
        t.insert(p(1, Some(2), ObSet::All, OpSet::ALL));
        t.insert(p(2, Some(3), ObSet::All, OpSet::ALL));
        // self: no permit consulted
        assert_eq!(t.chain(Tid(1), Tid(1), Oid(1), Operation::Read), (true, 0));
        // direct permit: one hop
        assert_eq!(t.chain(Tid(1), Tid(2), Oid(1), Operation::Read), (true, 1));
        // transitive: two hops
        assert_eq!(t.chain(Tid(1), Tid(3), Oid(1), Operation::Read), (true, 2));
        // denied: reports how far the search got
        assert_eq!(t.chain(Tid(1), Tid(9), Oid(1), Operation::Read), (false, 2));
    }
}
