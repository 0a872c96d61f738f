//! An in-process participant node: one [`Database`] plus the
//! participant half of the commit protocol vocabulary.
//!
//! The node wrapper exists so crash matrices can **kill** a participant
//! (simulating process death — the `Database` is dropped, its
//! executor stops, every in-memory state is gone) and **restart** it
//! from its directory, asserting that prepared transactions come back
//! in doubt with their locks held (DESIGN.md §14.3). The same handling
//! logic backs [`ChannelTransport`](crate::ChannelTransport); over TCP
//! the equivalent mapping lives in the server's dispatch.

use crate::transport::CommitMessage;
use asset_common::sync::{Mutex, Rank};
use asset_common::{Config, ParticipantState, Result, Tid};
use asset_core::Database;
use asset_obs::{EventKind, TraceCtx};

/// One participant node: a [`Database`] that can be killed and
/// restarted from its directory.
pub struct ParticipantNode {
    config: Config,
    db: Mutex<Option<Database>>,
}

impl ParticipantNode {
    /// Open a node from `config`. Use [`Config::on_disk`] if the node
    /// must survive [`kill`](Self::kill)/[`restart`](Self::restart).
    pub fn open(config: Config) -> Result<ParticipantNode> {
        let (db, _report) = Database::open(config.clone())?;
        Ok(ParticipantNode {
            config,
            db: Mutex::ranked(Some(db), Rank::SERVICE, 0),
        })
    }

    /// A handle to the node's database.
    ///
    /// # Panics
    /// If the node is down (killed and not yet restarted).
    #[expect(
        clippy::expect_used,
        reason = "documented panic: grabbing a database handle from a killed node is harness misuse, not a protocol path (transports go through handle(), which reports None)"
    )]
    pub fn db(&self) -> Database {
        self.db.lock().clone().expect("participant node is down")
    }

    /// Is the node down?
    pub fn is_down(&self) -> bool {
        self.db.lock().is_none()
    }

    /// Kill the node: drop the database (executor threads stop, all
    /// volatile state is lost). A killed node answers no message until
    /// [`restart`](Self::restart).
    pub fn kill(&self) {
        *self.db.lock() = None;
    }

    /// Restart the node from its directory: clears any tripped fault
    /// registry, replays the WAL, and returns the tids restored **in
    /// doubt** (prepared before the crash, undecided). Their locks are
    /// held again; only a decide resolves them.
    pub fn restart(&self) -> Result<Vec<Tid>> {
        let mut slot = self.db.lock();
        *slot = None; // drop the old instance before reopening the dir
        #[cfg(feature = "faults")]
        self.config.faults.reset();
        let (db, _report) = Database::open(self.config.clone())?;
        let in_doubt = db.in_doubt_transactions();
        *slot = Some(db);
        Ok(in_doubt)
    }

    /// Answer one protocol message (the participant side of §14.2).
    /// `None` means the node is down. May unwind with a panic when a
    /// participant failpoint crashes or panics — which stops the node's
    /// database; transports catch it and mark the node dead.
    pub fn handle(&self, msg: CommitMessage) -> Option<CommitMessage> {
        self.handle_traced(msg, None)
    }

    /// [`handle`](Self::handle) with a propagated trace context: the
    /// request/reply pair is mirrored as `MsgRecv`/`MsgReply` events in
    /// this node's database hub (DESIGN.md §7.2), tagged with the
    /// coordinator's origin node id and root span so the multi-node
    /// merge can pair them with the coordinator's `MsgSend`/`MsgAck`.
    pub fn handle_traced(
        &self,
        msg: CommitMessage,
        ctx: Option<TraceCtx>,
    ) -> Option<CommitMessage> {
        let db = self.db.lock().clone()?;
        if db.live().is_err() {
            self.kill(); // a stopped participant is a dead one
            return None;
        }
        let op = ctx.and_then(|_| msg.wire_opcode());
        if let (Some(ctx), Some(op)) = (ctx, op) {
            db.obs().record(EventKind::MsgRecv {
                opcode: op,
                origin: ctx.origin,
                root: ctx.root,
            });
        }
        let reply = Some(match msg {
            CommitMessage::Prepare { tids } => match db.prepare_group(&tids) {
                Ok(group) => CommitMessage::Vote { yes: true, group },
                Err(_) => CommitMessage::Vote {
                    yes: false,
                    group: Vec::new(),
                },
            },
            CommitMessage::CommitDecide { tids } => ack(db.decide_commit_group(&tids)),
            CommitMessage::AbortDecide { tids } => ack(db.decide_abort_group(&tids)),
            CommitMessage::QueryState { tid } => {
                CommitMessage::State(ParticipantState::of(db.status(tid).ok()))
            }
            other => CommitMessage::Failed {
                info: format!("participant cannot handle {other:?}"),
            },
        });
        if let (Some(ctx), Some(op)) = (ctx, op) {
            let status = match &reply {
                Some(CommitMessage::Vote { yes: false, .. })
                | Some(CommitMessage::Failed { .. }) => 1,
                _ => 0,
            };
            db.obs().record(EventKind::MsgReply {
                opcode: op,
                origin: ctx.origin,
                root: ctx.root,
                status,
            });
        }
        reply
    }
}

/// A decision's reply: `Ack` once applied, `Failed` with the refusal — the
/// stop of a participant that could not apply it.
fn ack(applied: Result<()>) -> CommitMessage {
    match applied {
        Ok(()) => CommitMessage::Ack,
        Err(e) => CommitMessage::Failed {
            info: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn killed_node_answers_nothing_until_restart() {
        let dir = asset_faults::TempDir::new("coord-node");
        let node = ParticipantNode::open(Config::on_disk(&*dir)).unwrap();
        assert!(!node.is_down());
        node.kill();
        assert!(node.is_down());
        assert!(node
            .handle(CommitMessage::QueryState { tid: Tid(1) })
            .is_none());
        assert_eq!(node.restart().unwrap(), Vec::<Tid>::new());
        assert!(!node.is_down());
    }
}
