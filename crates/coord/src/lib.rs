//! # asset-coord — distributed commit across ASSET nodes
//!
//! The normative specification is `DESIGN.md` §14; this crate is its
//! implementation. Several [`asset_core::Database`] instances act as
//! **participant nodes**; a coordinator drives **one** atomic commit
//! protocol over one pluggable message transport — Gray & Lamport's
//! Paxos Commit ([`PaxosCommit`]): each participant's vote is an
//! instance of consensus, durable once a majority of the configured
//! [`Acceptor`]s has accepted it. The acceptor count is the whole
//! configuration:
//!
//! * **one acceptor** (F = 0) is classic two-phase commit. The acceptor
//!   is the coordinator log ([`CoordLog`]), a decision costs one forced
//!   write, a transaction with nothing accepted is presumed aborted —
//!   and the protocol is **blocking**: while that one store is
//!   unreachable, a prepared participant can only wait. [`TwoPhase`] is
//!   a constructor for this configuration.
//! * **2F + 1 acceptors** tolerate F of them failing: any recovery
//!   coordinator that can reach a majority finishes the protocol
//!   without the failed coordinator's state.
//!
//! Coordinators speak one participant vocabulary
//! ([`CommitMessage`] over a [`CommitTransport`]), which maps 1:1 onto
//! the §13 wire opcodes `PREPARE`/`PREPARED`/`COMMIT_DECIDE`/
//! `ABORT_DECIDE`:
//!
//! * **prepare**: the participant forces one `Prepared` WAL record for
//!   the union of the seed transactions' GC groups
//!   ([`Database::prepare_group`]). The yes vote rides the record's
//!   durability — a prepared transaction survives restart in doubt,
//!   holding its locks, and only a decide message resolves it.
//! * **decide**: idempotent commit/abort of the prepared group
//!   ([`Database::decide_commit_group`] /
//!   [`Database::decide_abort_group`]). Neither forces its record: the
//!   decision is durable at the acceptors, and a node that loses its
//!   decision record restarts in doubt and learns it again — so the vote
//!   is a participant's one forced write per global transaction.
//!
//! Transports: [`ChannelTransport`] calls in-process
//! [`ParticipantNode`]s directly (tests, crash matrices);
//! [`TcpTransport`] speaks the §13 wire protocol through
//! [`asset_client::Client`].
//!
//! ```
//! use asset_coord::{ChannelTransport, CoordLog, Decision, GlobalTxn, ParticipantNode, TwoPhase};
//! use asset_common::Config;
//! use std::sync::Arc;
//!
//! // two in-process participant nodes
//! let nodes: Vec<Arc<ParticipantNode>> = (0..2)
//!     .map(|_| Arc::new(ParticipantNode::open(Config::in_memory()).unwrap()))
//!     .collect();
//! // one transaction on each node, finished but neither committed nor
//! // aborted (locks held)
//! let oids: Vec<_> = nodes.iter().map(|n| n.db().new_oid()).collect();
//! let mut g = GlobalTxn::new(1);
//! for (i, n) in nodes.iter().enumerate() {
//!     let oid = oids[i];
//!     let t = n.db().initiate(move |ctx| ctx.write(oid, b"x".to_vec())).unwrap();
//!     n.db().begin(t).unwrap();
//!     n.db().wait(t).unwrap();
//!     g.add_member(i as u32, t);
//! }
//! let coord = TwoPhase::new(Arc::new(ChannelTransport::new(nodes.clone())), Arc::new(CoordLog::in_memory()));
//! assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
//! for (i, n) in nodes.iter().enumerate() {
//!     assert_eq!(n.db().peek(oids[i]).unwrap().unwrap(), b"x");
//! }
//! ```

#![warn(missing_docs)]

pub mod acceptor;
pub mod failpoints;
pub mod node;
pub mod paxos;
pub mod transport;
pub mod twopc;

pub use acceptor::{Acceptor, CoordLog};
pub use node::ParticipantNode;
pub use paxos::PaxosCommit;
pub use transport::{
    ChannelTransport, CommitMessage, CommitTransport, CoordError, ParticipantState, TcpTransport,
};
pub use twopc::TwoPhase;

use asset_common::Tid;
use asset_faults::{FaultAction, FaultRegistry};
use asset_obs::{bump, Obs, TraceCtx};
use failpoints::{COORD_AFTER_DECIDE, COORD_BEFORE_DECIDE};
use std::sync::Arc;
use std::time::Instant;

#[cfg(doc)]
use asset_core::Database;

/// Coordinator-side observability (DESIGN.md §7.2): the hub that
/// receives the coordinator's per-opcode message counters
/// (`coord_msg_*`), its `decision_ns` latency histogram, and — when
/// tracing is enabled on the hub — the `MsgSend`/`MsgAck` trace
/// events of every protocol exchange; plus the fleet node id stamped
/// as the **origin** of every propagated trace context.
///
/// Attach one to a coordinator with [`TwoPhase::with_obs`] /
/// [`PaxosCommit::with_obs`]. The root span id of each context is the
/// global transaction's `gid`, so every message of one distributed
/// commit shares a root across all node lanes of a merged trace.
pub struct CoordObs {
    node: u32,
    obs: Arc<Obs>,
}

impl CoordObs {
    /// Coordinator observability recording into `obs`, stamping `node`
    /// as the origin of outgoing trace contexts. Pick a node id
    /// distinct from every participant's, or the merged trace folds
    /// the coordinator lane into a participant's.
    pub fn new(node: u32, obs: Arc<Obs>) -> CoordObs {
        CoordObs { node, obs }
    }

    /// The coordinator's fleet node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The underlying hub (snapshot it for scraping, or enable tracing
    /// on it to capture the coordinator's event lane).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The trace context stamped onto messages of global txn `gid`.
    fn ctx(&self, gid: u64) -> TraceCtx {
        TraceCtx {
            origin: self.node,
            root: gid,
        }
    }
}

/// The coordinator's verdict on a global transaction. Durable (every
/// vote accepted by a majority of the acceptors) before any participant
/// learns it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Every participant voted yes; all members commit.
    Commit,
    /// Some participant voted no, was unreachable, or the transaction
    /// is presumed aborted; all members abort.
    Abort,
}

impl Decision {
    /// Commit iff every vote is yes.
    fn of(votes: &[(u32, bool)]) -> Decision {
        if votes.iter().all(|(_, yes)| *yes) {
            Decision::Commit
        } else {
            Decision::Abort
        }
    }

    /// The decide message that tells a participant this verdict.
    fn message(self, tids: Vec<Tid>) -> CommitMessage {
        match self {
            Decision::Commit => CommitMessage::CommitDecide { tids },
            Decision::Abort => CommitMessage::AbortDecide { tids },
        }
    }
}

/// One global transaction: an id chosen by the application plus the
/// cross-node members — transactions on several nodes that must reach
/// one outcome, the distributed analogue of a GC component.
#[derive(Clone, Debug)]
pub struct GlobalTxn {
    /// Application-chosen global transaction id; names the transaction's
    /// consensus instances at the acceptors.
    pub gid: u64,
    /// Per-node tid lists, ascending by node, tids in insertion order.
    members: Vec<(u32, Vec<Tid>)>,
}

impl GlobalTxn {
    /// An empty global transaction.
    pub fn new(gid: u64) -> GlobalTxn {
        GlobalTxn {
            gid,
            members: Vec::new(),
        }
    }

    /// Add the member `tid` on node `node` (a transport index);
    /// duplicates are ignored. Tids are only unique per node, and only
    /// seeds are needed: each participant widens its members to their
    /// local GC components during prepare.
    pub fn add_member(&mut self, node: u32, tid: Tid) {
        let at = match self.members.binary_search_by_key(&node, |(n, _)| *n) {
            Ok(at) => at,
            Err(at) => {
                self.members.insert(at, (node, Vec::new()));
                at
            }
        };
        let tids = &mut self.members[at].1;
        if !tids.contains(&tid) {
            tids.push(tid);
        }
    }

    /// The per-node membership, the unit of one prepare/decide exchange
    /// (and of one consensus instance).
    pub fn members(&self) -> &[(u32, Vec<Tid>)] {
        &self.members
    }
}

/// What a coordinator is made of: the transport, the acceptors, the
/// scripted coordinator crashes, the observability — and the one commit
/// round, phase 2 and termination loop that the initial and the recovery
/// coordinator share.
pub(crate) struct Driver {
    transport: Arc<dyn CommitTransport>,
    pub(crate) acceptors: Vec<Arc<Acceptor>>,
    pub(crate) faults: Arc<FaultRegistry>,
    pub(crate) obs: Option<CoordObs>,
}

impl Driver {
    pub(crate) fn new(
        transport: Arc<dyn CommitTransport>,
        acceptors: Vec<Arc<Acceptor>>,
    ) -> Driver {
        Driver {
            transport,
            acceptors,
            faults: Arc::new(FaultRegistry::new()),
            obs: None,
        }
    }

    /// A majority of the configured acceptors.
    pub(crate) fn quorum(&self) -> usize {
        self.acceptors.len() / 2 + 1
    }

    /// Phase 2 for every instance of `gid` at once: `votes` must be
    /// accepted at `ballot` by a majority of the acceptors.
    pub(crate) fn accept(
        &self,
        gid: u64,
        ballot: u64,
        votes: &[(u32, bool)],
    ) -> Result<(), CoordError> {
        let accepts = self
            .acceptors
            .iter()
            .filter(|a| a.accept(gid, ballot, votes));
        if accepts.count() >= self.quorum() {
            Ok(())
        } else {
            Err(CoordError::NoQuorum)
        }
    }

    /// Send `msg` for global txn `gid`, threading the coordinator's
    /// observability when present: bump the per-opcode `coord_msg_*`
    /// counter and propagate a trace context so transports mirror the
    /// exchange into the event rings on both ends.
    fn send(&self, gid: u64, node: usize, msg: CommitMessage) -> Result<CommitMessage, CoordError> {
        let Some(co) = &self.obs else {
            return self.transport.send(node, msg);
        };
        match &msg {
            CommitMessage::Prepare { .. } => bump(&co.obs.counters.coord_msg_prepare),
            CommitMessage::QueryState { .. } => bump(&co.obs.counters.coord_msg_prepared),
            CommitMessage::CommitDecide { .. } => bump(&co.obs.counters.coord_msg_commit_decide),
            CommitMessage::AbortDecide { .. } => bump(&co.obs.counters.coord_msg_abort_decide),
            _ => {}
        }
        self.transport.send_traced(node, msg, Some(co.ctx(gid)))
    }

    fn realize(&self, point: &'static str, act: FaultAction) -> CoordError {
        match act {
            FaultAction::Crash | FaultAction::Torn { .. } => self.faults.crash_now(point),
            _ => CoordError::Io(asset_faults::injected(point)),
        }
    }

    /// Drive `txn` to a decision at `ballot`: collect a vote from every
    /// member node (stopping at the first *no*; an unreachable node and a
    /// node never asked vote no), make the votes durable, deliver the
    /// decision — commit iff every vote is yes. The **decision point** is
    /// every instance accepted by a majority of the acceptors: after it
    /// no crash can change the outcome (one acceptor: the forced
    /// coordinator-log write of 2PC). Delivery is best-effort per node;
    /// `recover` re-delivers to anyone that missed it.
    pub(crate) fn commit(&self, txn: &GlobalTxn, ballot: u64) -> Result<Decision, CoordError> {
        let started = Instant::now();
        let members = txn.members();
        // --- collect votes --------------------------------------------
        let mut prepared: Vec<(u32, Vec<Tid>)> = Vec::new();
        let mut votes: Vec<(u32, bool)> = Vec::with_capacity(members.len());
        for (node, tids) in members {
            let msg = CommitMessage::Prepare { tids: tids.clone() };
            let yes = match self.send(txn.gid, *node as usize, msg) {
                Ok(CommitMessage::Vote { yes: true, group }) => {
                    prepared.push((*node, group));
                    true
                }
                Ok(CommitMessage::Vote { yes: false, .. }) => false,
                Ok(other) => return Err(CoordError::protocol("vote", &other)),
                Err(_) => false, // unreachable node: vote no on its behalf
            };
            votes.push((*node, yes));
            if !yes {
                break;
            }
        }
        for (node, _) in members.iter().skip(votes.len()) {
            votes.push((*node, false));
        }
        // --- the blocking window: votes in, nothing durable -----------
        if let Some(act) = self.faults.check(COORD_BEFORE_DECIDE) {
            return Err(self.realize(COORD_BEFORE_DECIDE, act));
        }
        let decision = Decision::of(&votes);
        // --- the decision point ---------------------------------------
        self.accept(txn.gid, ballot, &votes)?;
        if let Some(co) = &self.obs {
            // decision latency: first prepare sent → decision durable
            co.obs
                .decision_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        if let Some(act) = self.faults.check(COORD_AFTER_DECIDE) {
            return Err(self.realize(COORD_AFTER_DECIDE, act));
        }
        // --- deliver --------------------------------------------------
        for (node, group) in &prepared {
            let msg = decision.message(group.clone());
            // best-effort: a dropped decide leaves the node prepared;
            // recover() re-delivers
            // verify: allow(status_flow) — decision is durable; recover() re-delivers lost decides
            let _ = self.send(txn.gid, *node as usize, msg);
        }
        if decision == Decision::Abort {
            // members that never prepared (no-voters, unreachable
            // nodes) may still have live transactions: abort them too
            for (node, tids) in members {
                if !prepared.iter().any(|(n, _)| n == node) {
                    let msg = CommitMessage::AbortDecide { tids: tids.clone() };
                    // verify: allow(status_flow) — abort decide is best-effort; participants time out
                    let _ = self.send(txn.gid, *node as usize, msg);
                }
            }
        }
        Ok(decision)
    }

    /// Cooperative termination (DESIGN.md §14.4): given a durable
    /// decision, drive every member node to it, tolerating participants
    /// that already learned it and participants that restarted in doubt.
    /// Used by recovery and retried delivery.
    ///
    /// Per node: query the first seed's state; a committed node is done;
    /// a prepared node is re-prepared (idempotent — this recovers the
    /// full widened group, which a restarted coordinator no longer knows)
    /// and sent the decision; anything else is only legal on the abort
    /// path, where an idempotent abort-decide of the seeds suffices.
    pub(crate) fn terminate(
        &self,
        gid: u64,
        members: &[(u32, Vec<Tid>)],
        decision: Decision,
    ) -> Result<(), CoordError> {
        for (node, tids) in members {
            let n = *node as usize;
            let state = match self.send(gid, n, CommitMessage::QueryState { tid: tids[0] })? {
                CommitMessage::State(s) => s,
                other => return Err(CoordError::protocol("query-state", &other)),
            };
            match (state, decision) {
                (ParticipantState::Committed, Decision::Commit) => continue,
                (ParticipantState::Committed, Decision::Abort) => {
                    return Err(CoordError::Protocol(format!(
                        "node{node} already committed but the decision is abort"
                    )))
                }
                (ParticipantState::Prepared, _) => {
                    let prepare = CommitMessage::Prepare { tids: tids.clone() };
                    let group = match self.send(gid, n, prepare)? {
                        CommitMessage::Vote { yes: true, group } => group,
                        other => return Err(CoordError::protocol("re-prepare", &other)),
                    };
                    match self.send(gid, n, decision.message(group))? {
                        CommitMessage::Ack => {}
                        other => return Err(CoordError::protocol("decide", &other)),
                    }
                }
                (_, Decision::Abort) => {
                    // never prepared (or already aborted): abort-decide is
                    // an idempotent abort_many of whatever is still live
                    let _ = self.send(gid, n, CommitMessage::AbortDecide { tids: tids.clone() })?;
                }
                (s, Decision::Commit) => {
                    return Err(CoordError::Protocol(format!(
                        "node{node} is {s:?} on the commit path — a durable commit \
                         decision implies every participant prepared"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Config;
    use std::sync::Arc;

    /// Stage one finished-but-undecided txn writing `val` on `node`.
    pub(crate) fn stage(node: &ParticipantNode, oid: asset_common::Oid, val: &[u8]) -> Tid {
        let db = node.db();
        let v = val.to_vec();
        let t = db.initiate(move |ctx| ctx.write(oid, v.clone())).unwrap();
        db.begin(t).unwrap();
        db.wait(t).unwrap();
        t
    }

    pub(crate) fn mem_nodes(n: usize) -> Vec<Arc<ParticipantNode>> {
        (0..n)
            .map(|_| Arc::new(ParticipantNode::open(Config::in_memory()).unwrap()))
            .collect()
    }

    #[test]
    fn coordinator_obs_counts_messages_and_mirrors_trace_events() {
        let nodes = mem_nodes(2);
        for n in &nodes {
            n.db().obs().enable_tracing(64);
        }
        let oids: Vec<_> = nodes.iter().map(|n| n.db().new_oid()).collect();
        let hub = Obs::shared();
        hub.enable_tracing(64);
        let transport = Arc::new(ChannelTransport::new(nodes.clone()).with_obs(Arc::clone(&hub)));
        let coord = TwoPhase::new(transport, Arc::new(CoordLog::in_memory()))
            .with_obs(CoordObs::new(7, Arc::clone(&hub)));
        let mut g = GlobalTxn::new(41);
        for (i, oid) in oids.iter().enumerate() {
            let t = stage(&nodes[i], *oid, b"obs");
            g.add_member(i as u32, t);
        }
        assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        let snap = hub.snapshot();
        assert_eq!(snap.counters.coord_msg_prepare, 2);
        assert_eq!(snap.counters.coord_msg_commit_decide, 2);
        assert_eq!(snap.counters.coord_msg_abort_decide, 0);
        assert_eq!(snap.decision_ns.count, 1, "one decision recorded");
        // the coordinator lane has a send/ack pair per delivered message
        let events = hub.trace();
        let sends = events
            .iter()
            .filter(|e| matches!(e.kind, asset_obs::EventKind::MsgSend { root: 41, .. }))
            .count();
        let acks = events
            .iter()
            .filter(|e| matches!(e.kind, asset_obs::EventKind::MsgAck { root: 41, .. }))
            .count();
        assert_eq!(sends, 4, "2 prepares + 2 commit decides");
        assert_eq!(acks, 4);
        // each participant mirrored recv/reply pairs tagged with the
        // coordinator's origin node id
        for n in &nodes {
            let events = n.db().obs().trace();
            let recvs = events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        asset_obs::EventKind::MsgRecv {
                            origin: 7,
                            root: 41,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(recvs, 2, "prepare + commit decide received");
        }
    }

    #[test]
    fn global_txn_members_fold_per_node() {
        let mut g = GlobalTxn::new(9);
        g.add_member(1, Tid(4));
        g.add_member(0, Tid(4));
        g.add_member(1, Tid(5));
        g.add_member(1, Tid(4)); // duplicate ignored
        let m = g.members();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], (0, vec![Tid(4)]));
        assert_eq!(m[1], (1, vec![Tid(4), Tid(5)]));
    }
}
