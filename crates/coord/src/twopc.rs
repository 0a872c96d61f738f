//! Classic two-phase commit (DESIGN.md §14.4) — Paxos Commit with one
//! acceptor (F = 0), under its own name.
//!
//! The single acceptor is the **coordinator log**: the decision —
//! commit iff every vote is yes — is durable once that one store has
//! accepted the votes (one forced write), before phase 2 delivers it.
//! Presumed abort falls out of the protocol: a global transaction with
//! nothing accepted has free instances, and recovery proposes *no* for
//! those.
//!
//! 2PC is **blocking**: between a participant's yes vote and the
//! decision's arrival, the participant can do nothing but hold its
//! locks; if the coordinator (and its log) stays unreachable, that
//! window is unbounded — a majority of one acceptor is that acceptor.
//! E17 measures it; two more acceptors remove it.

use crate::transport::{CommitTransport, CoordError};
use crate::{CoordLog, CoordObs, Decision, GlobalTxn, PaxosCommit};
use asset_faults::FaultRegistry;
use std::sync::Arc;

/// A two-phase-commit coordinator: a [`PaxosCommit`] whose only acceptor
/// is its [`CoordLog`]. A constructor, not a protocol.
pub struct TwoPhase(PaxosCommit);

impl TwoPhase {
    /// A coordinator speaking through `transport`, deciding into `log`.
    pub fn new(transport: Arc<dyn CommitTransport>, log: Arc<CoordLog>) -> TwoPhase {
        TwoPhase(PaxosCommit::new(transport, vec![log]))
    }

    /// Builder-style: see [`PaxosCommit::with_faults`].
    pub fn with_faults(self, faults: Arc<FaultRegistry>) -> TwoPhase {
        TwoPhase(self.0.with_faults(faults))
    }

    /// Builder-style: see [`PaxosCommit::with_obs`].
    pub fn with_obs(self, co: CoordObs) -> TwoPhase {
        TwoPhase(self.0.with_obs(co))
    }

    /// The decision log (a recovery coordinator reuses it).
    pub fn log(&self) -> &Arc<CoordLog> {
        &self.0.acceptors()[0]
    }

    /// Drive `txn` to a decision: see [`PaxosCommit::commit`].
    pub fn commit(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        self.0.commit(txn)
    }

    /// Recovery coordinator: finish `txn` from the durable log alone, at
    /// a ballot one above what the log has promised for it — the log's
    /// owner needs no one to pick a ballot for it, and may recover again.
    pub fn recover(&self, txn: &GlobalTxn) -> Result<Decision, CoordError> {
        self.0.recover_at(txn, self.log().promised(txn.gid) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoints::{COORD_AFTER_DECIDE, COORD_BEFORE_DECIDE};
    use crate::tests::{mem_nodes, stage};
    use crate::transport::{ChannelTransport, CommitMessage};
    use crate::ParticipantState;
    use asset_faults::FaultAction;

    fn coordinator(nodes: usize) -> (TwoPhase, Arc<ChannelTransport>, Vec<asset_common::Oid>) {
        let nodes = mem_nodes(nodes);
        let oids = nodes.iter().map(|n| n.db().new_oid()).collect();
        let transport = Arc::new(ChannelTransport::new(nodes));
        let coord = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()));
        (coord, transport, oids)
    }

    #[test]
    fn unanimous_yes_commits_everywhere() {
        let (coord, transport, oids) = coordinator(3);
        let mut g = GlobalTxn::new(1);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"paid");
            g.add_member(i as u32, t);
        }
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap().unwrap(), b"paid");
        }
    }

    #[test]
    fn one_no_vote_aborts_everywhere() {
        let (coord, transport, oids) = coordinator(3);
        let mut g = GlobalTxn::new(2);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"doomed");
            g.add_member(i as u32, t);
            if i == 1 {
                // node 1's member aborts before prepare: it will vote no
                transport.node(i).db().abort(t).unwrap();
            }
        }
        assert_eq!(coord.commit(&g).unwrap(), Decision::Abort);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(
                transport.node(i).db().peek(*oid).unwrap(),
                None,
                "no effect survives a global abort (node {i})"
            );
        }
    }

    #[test]
    fn recovery_with_no_logged_decision_presumes_abort() {
        let (coord, transport, oids) = coordinator(2);
        let mut g = GlobalTxn::new(3);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"blocked");
            g.add_member(i as u32, t);
        }
        // crash before the decision: votes collected, nothing logged
        let faults = Arc::new(FaultRegistry::new());
        faults.arm(
            COORD_BEFORE_DECIDE,
            asset_faults::Trigger::Once,
            FaultAction::Error,
        );
        let coord = TwoPhase::new(transport.clone(), coord.log().clone()).with_faults(faults);
        assert!(coord.commit(&g).is_err());
        // both participants are prepared — in doubt, locks held
        for i in 0..2 {
            let db = transport.node(i).db();
            assert_eq!(db.in_doubt_transactions().len(), 1, "node {i} in doubt");
        }
        // a recovery coordinator with the same (empty) log presumes abort
        assert_eq!(coord.recover(&g).unwrap(), Decision::Abort);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(transport.node(i).db().peek(*oid).unwrap(), None);
            assert!(transport.node(i).db().in_doubt_transactions().is_empty());
        }
    }

    #[test]
    fn recovery_after_logged_decision_redelivers_commit() {
        let (coord, transport, oids) = coordinator(2);
        let mut g = GlobalTxn::new(4);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"landed");
            g.add_member(i as u32, t);
        }
        let faults = Arc::new(FaultRegistry::new());
        faults.arm(
            COORD_AFTER_DECIDE,
            asset_faults::Trigger::Once,
            FaultAction::Error,
        );
        let coord = TwoPhase::new(transport.clone(), coord.log().clone()).with_faults(faults);
        // decision logged, delivery never happened
        assert!(coord.commit(&g).is_err());
        assert_eq!(coord.log().accepted(4, 0), Some((0, true)));
        assert_eq!(coord.recover(&g).unwrap(), Decision::Commit);
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(
                transport.node(i).db().peek(*oid).unwrap().unwrap(),
                b"landed"
            );
        }
        // idempotent: a second recovery changes nothing
        assert_eq!(coord.recover(&g).unwrap(), Decision::Commit);
    }

    #[test]
    fn dropped_decide_message_leaves_node_prepared_until_recovery() {
        let nodes = mem_nodes(2);
        let oids: Vec<_> = nodes.iter().map(|n| n.db().new_oid()).collect();
        let msg_faults = Arc::new(FaultRegistry::new());
        let transport = Arc::new(ChannelTransport::new(nodes).with_faults(Arc::clone(&msg_faults)));
        let coord = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()));
        let mut g = GlobalTxn::new(5);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(transport.node(i), *oid, b"late");
            g.add_member(i as u32, t);
        }
        // drop the first decide (node 0's); node 1 still gets its
        msg_faults.arm(
            crate::failpoints::MSG_DECIDE_DROP,
            asset_faults::Trigger::Once,
            FaultAction::Error,
        );
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        let db0 = transport.node(0).db();
        assert_eq!(db0.in_doubt_transactions().len(), 1, "decide was dropped");
        assert_eq!(
            transport.node(1).db().peek(oids[1]).unwrap().unwrap(),
            b"late"
        );
        // termination re-delivers from the durable decision
        assert_eq!(coord.recover(&g).unwrap(), Decision::Commit);
        assert_eq!(db0.peek(oids[0]).unwrap().unwrap(), b"late");
    }

    #[test]
    fn a_decision_grows_the_on_disk_log_by_one_write() {
        let path = std::env::temp_dir().join(format!("asset-coordlog-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (_, transport, oids) = coordinator(3);
        let coord = TwoPhase::new(transport.clone(), Arc::new(CoordLog::at(&path).unwrap()));
        let mut g = GlobalTxn::new(8);
        for (i, oid) in oids.iter().enumerate() {
            g.add_member(i as u32, stage(transport.node(i), *oid, b"one"));
        }
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        // one record per member, appended (and synced) together: the
        // forced write 2PC owes its decision, whatever the member count
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, 3 * crate::acceptor::RECORD as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn query_state_reports_the_lifecycle() {
        let (coord, transport, oids) = coordinator(1);
        let t = stage(transport.node(0), oids[0], b"s");
        let mut g = GlobalTxn::new(6);
        g.add_member(0, t);
        let state =
            |tp: &ChannelTransport| match tp.send(0, CommitMessage::QueryState { tid: t }).unwrap()
            {
                CommitMessage::State(s) => s,
                other => panic!("unexpected reply {other:?}"),
            };
        assert_eq!(state(&transport), ParticipantState::Other);
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        assert_eq!(state(&transport), ParticipantState::Committed);
    }
}
