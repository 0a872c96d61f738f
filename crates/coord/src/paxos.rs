//! Paxos Commit (Gray & Lamport, *Consensus on Transaction Commit*) —
//! the non-blocking member of the protocol family (DESIGN.md §14.5).
//!
//! One consensus **instance** per participant decides that
//! participant's vote; the global decision is a pure function of the
//! decided instances (commit iff every instance decided *yes*). The
//! instance's value is durable once a **majority of acceptors** accept
//! it — there is no coordinator log, so the coordinator's death loses
//! nothing: any recovery coordinator that can reach an acceptor
//! majority reads (or completes) each instance at a higher ballot and
//! finishes the protocol. 2PC is the one-acceptor special case, and the
//! one acceptor doubling as coordinator is exactly why 2PC blocks.
//!
//! The working coordinator is ballot 0's owner, so it skips phase 1 —
//! the Prepare/Vote exchange with participants plus one phase-2 round
//! to the acceptors is the whole happy path: the same message depth as
//! 2PC with the log force replaced by a quorum round.
//!
//! A recovery coordinator runs full Paxos at a higher ballot: phase 1
//! to a majority learns any value the instance may already have decided
//! (choose the highest-ballot accepted value); a **free** instance —
//! no acceptor has accepted anything — is proposed *no* (the
//! participant may be crashed and unprepared; abort is the only safe
//! decision the protocol can force). Phase 2 at the new ballot makes
//! the choice durable. Promises at the higher ballot fence the old
//! coordinator out: its ballot-0 phase 2 can no longer reach a quorum.

use crate::transport::{CommitTransport, CoordError};
use crate::{CoordObs, Decision, Driver, GlobalTxn};
use asset_faults::FaultRegistry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One consensus instance: the vote of participant `node` in global
/// transaction `gid`.
type Instance = (u64, u32);

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Highest ballot promised (phase 1) or accepted (phase 2).
    promised: u64,
    /// The accepted (ballot, vote) pair, if any.
    accepted: Option<(u64, bool)>,
}

/// One Paxos acceptor. Real deployments would place each on its own
/// machine; here an acceptor is an in-process object that can be
/// [`kill`](Self::kill)ed to model machine failure — the protocol's
/// claim is exactly that a minority of dead acceptors changes nothing.
#[derive(Default)]
pub struct Acceptor {
    slots: Mutex<HashMap<Instance, Slot>>,
    down: AtomicBool,
}

impl Acceptor {
    /// A fresh acceptor with no state.
    pub fn new() -> Acceptor {
        Acceptor::default()
    }

    /// Take the acceptor offline: it answers nothing until
    /// [`revive`](Self::revive). Its accepted state is retained —
    /// acceptors persist their slots; only availability is lost.
    pub fn kill(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// Bring the acceptor back online.
    pub fn revive(&self) {
        self.down.store(false, Ordering::Release);
    }

    /// Phase 1 (prepare): promise not to accept below `ballot`.
    /// `Ok(accepted)` carries any value already accepted; `Err` is a
    /// nack (higher promise outstanding) or no answer (down).
    fn phase1(&self, inst: Instance, ballot: u64) -> Result<Option<(u64, bool)>, ()> {
        if self.down.load(Ordering::Acquire) {
            return Err(());
        }
        let mut slots = self.slots.lock();
        let slot = slots.entry(inst).or_default();
        if ballot >= slot.promised {
            slot.promised = ballot;
            Ok(slot.accepted)
        } else {
            Err(())
        }
    }

    /// Phase 2 (accept): accept `vote` at `ballot` unless a higher
    /// ballot was promised. `Err` is a nack or no answer.
    fn phase2(&self, inst: Instance, ballot: u64, vote: bool) -> Result<(), ()> {
        if self.down.load(Ordering::Acquire) {
            return Err(());
        }
        let mut slots = self.slots.lock();
        let slot = slots.entry(inst).or_default();
        if ballot >= slot.promised {
            slot.promised = ballot;
            slot.accepted = Some((ballot, vote));
            Ok(())
        } else {
            Err(())
        }
    }
}

/// A Paxos Commit coordinator: participant votes decided by an acceptor
/// quorum instead of a coordinator log.
pub struct PaxosCommit {
    driver: Driver,
    acceptors: Vec<Arc<Acceptor>>,
    /// This coordinator's ballot: 0 for the initial coordinator (which
    /// may skip phase 1), higher for recovery coordinators.
    ballot: u64,
}

impl PaxosCommit {
    /// The initial coordinator (ballot 0) over `acceptors`.
    pub fn new(transport: Arc<dyn CommitTransport>, acceptors: Vec<Arc<Acceptor>>) -> PaxosCommit {
        PaxosCommit {
            driver: Driver::new(transport),
            acceptors,
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

    /// Builder-style: script coordinator crashes through `faults`.
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

    fn quorum(&self) -> usize {
        self.acceptors.len() / 2 + 1
    }

    /// Phase 2 for one instance: `vote` must be accepted by a majority.
    fn decide_instance(&self, inst: Instance, vote: bool) -> Result<(), CoordError> {
        let accepts = self
            .acceptors
            .iter()
            .filter(|a| a.phase2(inst, self.ballot, vote).is_ok())
            .count();
        if accepts >= self.quorum() {
            Ok(())
        } else {
            Err(CoordError::NoQuorum { instance: inst.1 })
        }
    }

    /// Drive `txn` to a decision: collect participant votes, make each
    /// vote durable at an acceptor quorum, deliver the decision.
    /// Requires a quorum — with a majority of acceptors down the
    /// protocol (correctly) cannot decide.
    pub fn commit(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        // the decision point: every instance durable at a quorum
        self.driver.commit(txn, |_, votes| {
            votes
                .iter()
                .try_for_each(|(node, yes)| self.decide_instance((txn.gid, *node), *yes))
        })
    }

    /// Recovery: learn (or force) every instance at this coordinator's
    /// ballot, then terminate the participants with the decision. Needs
    /// only an acceptor majority — the failed coordinator's state is
    /// irrelevant, which is the non-blocking property E17 measures.
    pub fn recover(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        assert!(self.ballot > 0, "recovery requires a ballot above 0");
        let members = txn.members();
        let mut all_yes = true;
        for (node, _) in &members {
            let inst = (txn.gid, node.0);
            // phase 1: a majority of promises, learning any accepted value
            let mut accepted: Vec<(u64, bool)> = Vec::new();
            let mut promises = 0usize;
            for a in &self.acceptors {
                if let Ok(prior) = a.phase1(inst, self.ballot) {
                    promises += 1;
                    accepted.extend(prior);
                }
            }
            if promises < self.quorum() {
                return Err(CoordError::NoQuorum { instance: node.0 });
            }
            // the value: highest-ballot accepted vote, or no for a free
            // instance (Paxos Commit's abort-on-timeout rule)
            let vote = accepted
                .iter()
                .max_by_key(|(b, _)| *b)
                .map(|(_, v)| *v)
                .unwrap_or(false);
            self.decide_instance(inst, vote)?;
            all_yes &= vote;
        }
        let decision = if all_yes {
            Decision::Commit
        } else {
            Decision::Abort
        };
        self.driver.terminate(txn.gid, &members, decision)?;
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
        assert!(matches!(coord.commit(&g), Err(CoordError::NoQuorum { .. })));
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
        let inst = (9u64, 0u32);
        // recovery coordinator at ballot 5 takes over the instance
        assert_eq!(acc.phase1(inst, 5), Ok(None));
        // the old ballot-0 coordinator's phase 2 now bounces
        assert!(acc.phase2(inst, 0, true).is_err());
        // and the new coordinator's accept lands
        assert!(acc.phase2(inst, 5, false).is_ok());
        // a later phase 1 learns the accepted value
        assert_eq!(acc.phase1(inst, 6), Ok(Some((5, false))));
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
