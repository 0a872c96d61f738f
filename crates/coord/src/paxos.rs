//! Paxos Commit (Gray & Lamport, *Consensus on Transaction Commit*) —
//! the one atomic-commit protocol of this crate (DESIGN.md §14.5).
//!
//! One consensus **instance** per participant decides that
//! participant's vote; the global decision is a pure function of the
//! decided instances (commit iff every instance decided *yes*). An
//! instance's value is durable once a **majority of the configured
//! [`Acceptor`]s** accept it — that is the only durable state, so the
//! coordinator's death loses nothing: any recovery coordinator that can
//! reach an acceptor majority reads (or completes) each instance at a
//! higher ballot and finishes the protocol. With one acceptor this is
//! two-phase commit — the acceptor is the coordinator log, and its
//! being the one place the decision lives is exactly why 2PC blocks;
//! with 2F + 1 it survives F acceptor failures. Nothing but
//! `acceptors.len()` tells the two apart.
//!
//! The working coordinator is ballot 0's owner, so it skips phase 1 —
//! the Prepare/Vote exchange with participants plus one phase-2 round
//! to the acceptors is the whole happy path.
//!
//! A recovery coordinator runs full Paxos at a higher ballot: phase 1
//! to a majority learns any value an instance may already have decided
//! (choose the highest-ballot accepted value); a **free** instance —
//! no acceptor has accepted anything — is proposed *no* (the
//! participant may be crashed and unprepared; abort is the only safe
//! decision the protocol can force — with one acceptor, this is 2PC's
//! presumed abort). Phase 2 at the new ballot makes the choice durable.
//! Promises at the higher ballot fence the old coordinator out: its
//! ballot-0 phase 2 can no longer reach a quorum.

use crate::acceptor::{Accepted, Acceptor};
use crate::transport::{CommitTransport, CoordError};
use crate::{CoordObs, Decision, Driver, GlobalTxn};
use asset_faults::FaultRegistry;
use std::sync::Arc;

/// A Paxos Commit coordinator: participant votes decided by a majority
/// of its acceptors.
pub struct PaxosCommit {
    driver: Driver,
    /// This coordinator's ballot: 0 for the initial coordinator (which
    /// may skip phase 1), higher for recovery coordinators.
    ballot: u64,
}

impl PaxosCommit {
    /// The initial coordinator (ballot 0) over `acceptors`.
    pub fn new(transport: Arc<dyn CommitTransport>, acceptors: Vec<Arc<Acceptor>>) -> PaxosCommit {
        PaxosCommit {
            driver: Driver::new(transport, acceptors),
            ballot: 0,
        }
    }

    /// A recovery coordinator at `ballot` (must exceed every prior
    /// coordinator's — the harness picks; real systems derive it from a
    /// unique coordinator id).
    pub fn recovery(
        transport: Arc<dyn CommitTransport>,
        acceptors: Vec<Arc<Acceptor>>,
        ballot: u64,
    ) -> PaxosCommit {
        assert!(ballot > 0, "recovery coordinators need a ballot above 0");
        PaxosCommit {
            ballot,
            ..PaxosCommit::new(transport, acceptors)
        }
    }

    /// Builder-style: script coordinator crashes through `faults` (arm
    /// [`COORD_BEFORE_DECIDE`](crate::failpoints::COORD_BEFORE_DECIDE) /
    /// [`COORD_AFTER_DECIDE`](crate::failpoints::COORD_AFTER_DECIDE)).
    pub fn with_faults(mut self, faults: Arc<FaultRegistry>) -> PaxosCommit {
        self.driver.faults = faults;
        self
    }

    /// Builder-style: record coordinator-side observability into `co` —
    /// `coord_msg_*` counters, the `decision_ns` histogram, and (with
    /// tracing enabled on the hub) `MsgSend`/`MsgAck` events plus a
    /// trace context on every message (DESIGN.md §7.2).
    pub fn with_obs(mut self, co: CoordObs) -> PaxosCommit {
        self.driver.obs = Some(co);
        self
    }

    /// The configured acceptors.
    pub(crate) fn acceptors(&self) -> &[Arc<Acceptor>] {
        &self.driver.acceptors
    }

    /// Drive `txn` to a decision: collect participant votes, make every
    /// vote durable at an acceptor majority, deliver the decision.
    /// Requires a quorum — with a majority of acceptors down the
    /// protocol (correctly) cannot decide.
    pub fn commit(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        self.driver.commit(txn, self.ballot)
    }

    /// Recovery: learn (or force) every instance at this coordinator's
    /// ballot, then terminate the participants with the decision. Needs
    /// only an acceptor majority — the failed coordinator's state is
    /// irrelevant, which is the non-blocking property E17 measures.
    pub fn recover(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        assert!(self.ballot > 0, "recovery requires a ballot above 0");
        self.recover_at(txn, self.ballot)
    }

    /// [`recover`](Self::recover) at `ballot`.
    pub(crate) fn recover_at(&self, txn: &GlobalTxn, ballot: u64) -> Result<Decision, CoordError> {
        let members = txn.members();
        let nodes: Vec<u32> = members.iter().map(|(node, _)| *node).collect();
        // phase 1: a majority of promises, learning per instance the
        // accepted pair of the highest ballot (pairs order by ballot
        // first, and a ballot has one proposer, so one value)
        let mut learned: Vec<Option<Accepted>> = vec![None; nodes.len()];
        let mut promises = 0usize;
        for a in &self.driver.acceptors {
            if let Some(prior) = a.promise(txn.gid, ballot, &nodes) {
                promises += 1;
                for (best, p) in learned.iter_mut().zip(prior) {
                    *best = (*best).max(p);
                }
            }
        }
        if promises < self.driver.quorum() {
            return Err(CoordError::NoQuorum);
        }
        // the value: the learned vote, or no for a free instance (Paxos
        // Commit's abort-on-timeout rule; 2PC's presumed abort)
        let votes: Vec<(u32, bool)> = nodes
            .iter()
            .zip(learned)
            .map(|(node, a)| (*node, a.is_some_and(|(_, vote)| vote)))
            .collect();
        self.driver.accept(txn.gid, ballot, &votes)?;
        let decision = Decision::of(&votes);
        self.driver.terminate(txn.gid, members, decision)?;
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoints::{COORD_AFTER_DECIDE, COORD_BEFORE_DECIDE};
    use crate::tests::{mem_nodes, stage};
    use crate::transport::ChannelTransport;
    use asset_faults::{FaultAction, Trigger};

    fn cluster(
        nodes: usize,
        acceptors: usize,
    ) -> (
        Arc<ChannelTransport>,
        Vec<Arc<Acceptor>>,
        Vec<asset_common::Oid>,
    ) {
        let nodes = mem_nodes(nodes);
        let oids = nodes.iter().map(|n| n.db().new_oid()).collect();
        let transport = Arc::new(ChannelTransport::new(nodes));
        let acc = (0..acceptors).map(|_| Arc::new(Acceptor::new())).collect();
        (transport, acc, oids)
    }

    fn staged(transport: &ChannelTransport, oids: &[asset_common::Oid], gid: u64) -> GlobalTxn {
        let mut g = GlobalTxn::new(gid);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"pax");
            g.add_member(i as u32, t);
        }
        g
    }

    #[test]
    fn unanimous_yes_commits_through_the_quorum() {
        let (transport, acc, oids) = cluster(3, 3);
        let g = staged(&transport, &oids, 1);
        let coord = PaxosCommit::new(transport.clone(), acc);
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap().unwrap(), b"pax");
        }
    }

    #[test]
    fn minority_of_dead_acceptors_changes_nothing() {
        let (transport, acc, oids) = cluster(2, 3);
        acc[0].kill();
        let g = staged(&transport, &oids, 2);
        let coord = PaxosCommit::new(transport.clone(), acc);
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
    }

    #[test]
    fn majority_of_dead_acceptors_blocks_the_decision() {
        let (transport, acc, oids) = cluster(2, 3);
        acc[0].kill();
        acc[1].kill();
        let g = staged(&transport, &oids, 3);
        let coord = PaxosCommit::new(transport.clone(), acc.clone());
        assert!(matches!(coord.commit(&g), Err(CoordError::NoQuorum)));
        // participants are prepared and in doubt — but once a majority is
        // back, recovery completes the instances (it finds the accepted
        // yes votes from the minority, or free instances, and decides)
        acc[0].revive();
        acc[1].revive();
        let rec = PaxosCommit::recovery(transport.clone(), acc, 1);
        let d = rec.recover(&g).unwrap();
        for (i, oid) in oids.iter().enumerate() {
            let db = transport.node(i).db();
            assert!(db.in_doubt_transactions().is_empty(), "node {i} resolved");
            match d {
                Decision::Commit => {
                    assert_eq!(db.peek(*oid).unwrap().unwrap(), b"pax")
                }
                Decision::Abort => assert_eq!(db.peek(*oid).unwrap(), None),
            }
        }
    }

    #[test]
    fn coordinator_death_before_decide_recovers_to_abort() {
        let (transport, acc, oids) = cluster(2, 3);
        let g = staged(&transport, &oids, 4);
        let faults = Arc::new(FaultRegistry::new());
        faults.arm(COORD_BEFORE_DECIDE, Trigger::Once, FaultAction::Error);
        let coord = PaxosCommit::new(transport.clone(), acc.clone()).with_faults(faults);
        assert!(coord.commit(&g).is_err());
        // both participants prepared; no instance has an accepted value.
        // A recovery coordinator finds every instance free → abort.
        let rec = PaxosCommit::recovery(transport.clone(), acc, 1);
        assert_eq!(rec.recover(&g).unwrap(), Decision::Abort);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap(), None);
            assert!(transport.node(i).db().in_doubt_transactions().is_empty());
        }
    }

    #[test]
    fn coordinator_death_after_decide_recovers_to_commit() {
        let (transport, acc, oids) = cluster(2, 3);
        let g = staged(&transport, &oids, 5);
        let faults = Arc::new(FaultRegistry::new());
        faults.arm(COORD_AFTER_DECIDE, Trigger::Once, FaultAction::Error);
        let coord = PaxosCommit::new(transport.clone(), acc.clone()).with_faults(faults);
        // every instance reached a quorum with a yes vote, then the
        // coordinator died before telling anyone
        assert!(coord.commit(&g).is_err());
        for i in 0..2 {
            assert_eq!(
                transport.node(i).db().in_doubt_transactions().len(),
                1,
                "node {i} is in doubt"
            );
        }
        // the decision is already durable at the quorum: recovery MUST
        // find Commit — no participant state consulted, no old
        // coordinator needed
        let rec = PaxosCommit::recovery(transport.clone(), acc.clone(), 1);
        assert_eq!(rec.recover(&g).unwrap(), Decision::Commit);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap().unwrap(), b"pax");
        }
        // idempotent: a second recovery at a later ballot agrees
        let rec2 = PaxosCommit::recovery(transport.clone(), acc, 2);
        assert_eq!(rec2.recover(&g).unwrap(), Decision::Commit);
    }

    #[test]
    fn higher_ballot_fences_out_the_old_coordinator() {
        let acc = Acceptor::new();
        // recovery coordinator at ballot 5 takes over the instance
        assert_eq!(acc.promise(9, 5, &[0]), Some(vec![None]));
        // the old ballot-0 coordinator's phase 2 now bounces
        assert!(!acc.accept(9, 0, &[(0, true)]));
        // and the new coordinator's accept lands
        assert!(acc.accept(9, 5, &[(0, false)]));
        // a later phase 1 learns the accepted value
        assert_eq!(acc.promise(9, 6, &[0]), Some(vec![Some((5, false))]));
    }

    #[test]
    fn one_no_vote_aborts_with_no_vote_instances_durable() {
        let (transport, acc, oids) = cluster(2, 3);
        let g = staged(&transport, &oids, 7);
        // doom node 1's member before the protocol runs
        let tids1 = g.members()[1].1.clone();
        transport.node(1).db().abort(tids1[0]).unwrap();
        let coord = PaxosCommit::new(transport.clone(), acc.clone());
        assert_eq!(coord.commit(&g).unwrap(), Decision::Abort);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap(), None, "node {i}");
        }
        // the no is durable: a recovery pass reaches the same decision
        let rec = PaxosCommit::recovery(transport.clone(), acc, 1);
        assert_eq!(rec.recover(&g).unwrap(), Decision::Abort);
    }
}
