//! The message layer between a coordinator and its participant nodes.
//!
//! One trait, two implementations: [`ChannelTransport`] calls
//! in-process [`ParticipantNode`]s directly (tests and crash matrices —
//! with scripted message drops and delivery delay), and
//! [`TcpTransport`] speaks the §13 wire protocol through
//! [`asset_client::Client`] (opcodes `PREPARE`, `PREPARED`,
//! `COMMIT_DECIDE`, `ABORT_DECIDE`). Coordinators are written against
//! the trait and cannot tell the difference.

use crate::failpoints;
use crate::node::ParticipantNode;
use asset_client::{Client, PreparedState};
use asset_common::sync::Mutex;
use asset_common::Tid;
use asset_faults::{FaultAction, FaultRegistry};
use asset_obs::{EventKind, Obs, TraceCtx};
use asset_server::protocol::opcode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// The §13 wire opcode a coordinator-originated message rides, or
/// `None` for reply-only messages (which a coordinator never sends).
/// Trace events mirror protocol messages under these opcodes so a
/// channel-transport exchange and its TCP equivalent produce the same
/// merged trace.
pub(crate) fn wire_opcode(msg: &CommitMessage) -> Option<u8> {
    match msg {
        CommitMessage::Prepare { .. } => Some(opcode::PREPARE),
        CommitMessage::QueryState { .. } => Some(opcode::PREPARED),
        CommitMessage::CommitDecide { .. } => Some(opcode::COMMIT_DECIDE),
        CommitMessage::AbortDecide { .. } => Some(opcode::ABORT_DECIDE),
        _ => None,
    }
}

/// One protocol message (request or reply). The vocabulary maps 1:1
/// onto the §13 wire opcodes; see `DESIGN.md` §14.2.
#[derive(Clone, Debug)]
pub enum CommitMessage {
    /// Coordinator → participant: prepare these seed transactions (the
    /// participant widens them to their GC components and forces one
    /// `Prepared` record).
    Prepare {
        /// Seed tids on the receiving node.
        tids: Vec<Tid>,
    },
    /// Participant → coordinator: the vote. `yes` means the `Prepared`
    /// record is durable and `group` is the full prepared group; `no`
    /// means nothing was written and the local group is aborted.
    Vote {
        /// Yes = prepared and durable; no = aborted locally.
        yes: bool,
        /// The full prepared group (yes votes only).
        group: Vec<Tid>,
    },
    /// Coordinator → participant: commit the prepared group. Idempotent.
    CommitDecide {
        /// The prepared group on the receiving node.
        tids: Vec<Tid>,
    },
    /// Coordinator → participant: abort the group. Idempotent; also
    /// legal for groups that never prepared.
    AbortDecide {
        /// The group on the receiving node.
        tids: Vec<Tid>,
    },
    /// Participant → coordinator: a decide landed.
    Ack,
    /// Coordinator → participant: what state is this transaction in?
    QueryState {
        /// The tid to query on the receiving node.
        tid: Tid,
    },
    /// Participant → coordinator: the queried state.
    State(ParticipantState),
    /// Participant → coordinator: the request failed (diagnostic only —
    /// coordinators treat it like any protocol violation).
    Failed {
        /// Human-readable cause.
        info: String,
    },
}

/// A transaction's distributed-commit state as a participant reports it
/// (the wire `PREPARED` query's payload).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParticipantState {
    /// The node does not know the tid.
    Unknown,
    /// Prepared — in doubt, awaiting a decision.
    Prepared,
    /// Committed.
    Committed,
    /// Aborted (or aborting).
    Aborted,
    /// Live but not prepared.
    Other,
}

/// Why a message exchange failed.
#[derive(Debug)]
pub enum CoordError {
    /// The node did not answer (killed, crashed mid-request, or
    /// unreachable).
    NodeDown(usize),
    /// The transport dropped the message (scripted fault).
    MessageDropped(&'static str),
    /// Fewer than a majority of the acceptors answered (down, fenced by a
    /// higher ballot, or unable to write their store).
    NoQuorum,
    /// An injected I/O fault at a coordinator failpoint.
    Io(std::io::Error),
    /// The peer answered something the protocol does not allow here.
    Protocol(String),
}

impl CoordError {
    pub(crate) fn protocol(expectation: &str, got: &CommitMessage) -> CoordError {
        CoordError::Protocol(format!("{expectation}: unexpected reply {got:?}"))
    }
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::NodeDown(n) => write!(f, "node {n} is down"),
            CoordError::MessageDropped(p) => write!(f, "message dropped at failpoint `{p}`"),
            CoordError::NoQuorum => write!(f, "no acceptor quorum"),
            CoordError::Io(e) => write!(f, "coordinator: {e}"),
            CoordError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for CoordError {}

/// How coordinators reach participants. `send` is a blocking
/// request/reply exchange; an error means the reply never arrived (the
/// request may or may not have been processed — exactly the ambiguity
/// real networks have, which is why every decide is idempotent).
pub trait CommitTransport: Send + Sync {
    /// How many participant nodes are reachable through this transport.
    fn nodes(&self) -> usize;
    /// Deliver `msg` to `node` and wait for its reply.
    fn send(&self, node: usize, msg: CommitMessage) -> Result<CommitMessage, CoordError>;
    /// Deliver `msg` to `node` carrying the trace context `ctx`
    /// (DESIGN.md §7.2). A context-propagating transport mirrors the
    /// exchange as `MsgSend`/`MsgAck` events on the coordinator's hub
    /// and `MsgRecv`/`MsgReply` on the participant's, which the
    /// multi-node trace merge pairs into cross-node flow edges. The
    /// default ignores the context and behaves exactly like
    /// [`send`](Self::send).
    fn send_traced(
        &self,
        node: usize,
        msg: CommitMessage,
        ctx: Option<TraceCtx>,
    ) -> Result<CommitMessage, CoordError> {
        let _ = ctx;
        self.send(node, msg)
    }
}

/// In-process transport: messages are direct calls into
/// [`ParticipantNode`]s, with scripted drops
/// ([`failpoints::MSG_PREPARE_DROP`] / [`failpoints::MSG_DECIDE_DROP`])
/// and optional per-message delivery delay. A participant that crashes
/// mid-request (a `CrashPoint` unwind from a participant failpoint) is
/// marked dead — later sends fail with [`CoordError::NodeDown`] until
/// the harness restarts it.
pub struct ChannelTransport {
    nodes: Vec<Arc<ParticipantNode>>,
    faults: Arc<FaultRegistry>,
    delay: Option<Duration>,
    obs: Option<Arc<Obs>>,
}

impl ChannelTransport {
    /// A transport over `nodes` with no faults armed.
    pub fn new(nodes: Vec<Arc<ParticipantNode>>) -> ChannelTransport {
        ChannelTransport {
            nodes,
            faults: Arc::new(FaultRegistry::new()),
            delay: None,
            obs: None,
        }
    }

    /// Builder-style: mirror traced exchanges as `MsgSend`/`MsgAck`
    /// events into the coordinator's hub `obs`. Participant-side
    /// `MsgRecv`/`MsgReply` events land in each node's own database
    /// hub; enable tracing on both for a mergeable fleet trace.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> ChannelTransport {
        self.obs = Some(obs);
        self
    }

    /// Builder-style: script message faults through `faults` (arm
    /// [`failpoints::MSG_PREPARE_DROP`] / [`failpoints::MSG_DECIDE_DROP`]
    /// with `FaultAction::Error` to drop).
    pub fn with_faults(mut self, faults: Arc<FaultRegistry>) -> ChannelTransport {
        self.faults = faults;
        self
    }

    /// Builder-style: delay every delivery by `d` (models link latency;
    /// E17 uses it to separate protocol latency from transport latency).
    pub fn with_delay(mut self, d: Duration) -> ChannelTransport {
        self.delay = Some(d);
        self
    }

    /// The node handles (for harnesses that kill/restart them).
    pub fn node(&self, i: usize) -> &Arc<ParticipantNode> {
        &self.nodes[i]
    }
}

impl ChannelTransport {
    fn deliver(
        &self,
        node: usize,
        msg: CommitMessage,
        ctx: Option<TraceCtx>,
    ) -> Result<CommitMessage, CoordError> {
        let point = match &msg {
            CommitMessage::Prepare { .. } => failpoints::MSG_PREPARE_DROP,
            CommitMessage::CommitDecide { .. } | CommitMessage::AbortDecide { .. } => {
                failpoints::MSG_DECIDE_DROP
            }
            _ => "",
        };
        if !point.is_empty() {
            if let Some(act) = self.faults.check(point) {
                match act {
                    FaultAction::Crash | FaultAction::Torn { .. } => self.faults.crash_now(point),
                    _ => return Err(CoordError::MessageDropped(point)),
                }
            }
        }
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
        let n = self
            .nodes
            .get(node)
            .ok_or(CoordError::NodeDown(node))?
            .clone();
        // a fault-dropped message records no event: the merge pairs the
        // k-th send with the k-th recv, so only delivered exchanges may
        // appear on the coordinator lane
        let op = ctx.and_then(|_| wire_opcode(&msg));
        if let (Some(obs), Some(ctx), Some(op)) = (&self.obs, ctx, op) {
            obs.record(EventKind::MsgSend {
                node: node as u32,
                opcode: op,
                root: ctx.root,
            });
        }
        match catch_unwind(AssertUnwindSafe(|| n.handle_traced(msg, ctx))) {
            Ok(Some(reply)) => {
                if let (Some(obs), Some(ctx), Some(op)) = (&self.obs, ctx, op) {
                    obs.record(EventKind::MsgAck {
                        node: node as u32,
                        opcode: op,
                        root: ctx.root,
                    });
                }
                Ok(reply)
            }
            Ok(None) => Err(CoordError::NodeDown(node)),
            Err(payload) => {
                if payload.downcast_ref::<asset_faults::CrashPoint>().is_some() {
                    // the participant "process" died mid-request: kill
                    // the node so later sends see it down too
                    n.kill();
                    Err(CoordError::NodeDown(node))
                } else {
                    std::panic::resume_unwind(payload)
                }
            }
        }
    }
}

impl CommitTransport for ChannelTransport {
    fn nodes(&self) -> usize {
        self.nodes.len()
    }

    fn send(&self, node: usize, msg: CommitMessage) -> Result<CommitMessage, CoordError> {
        self.deliver(node, msg, None)
    }

    fn send_traced(
        &self,
        node: usize,
        msg: CommitMessage,
        ctx: Option<TraceCtx>,
    ) -> Result<CommitMessage, CoordError> {
        self.deliver(node, msg, ctx)
    }
}

/// Wire transport: each node is an ASSET server address, reached with a
/// lazily (re)connected [`Client`] per node. A transport error closes
/// the connection so the next send reconnects — a restarted server is
/// picked up transparently (prepare and decide are idempotent). Each
/// node's connection has a mutex of its own: an exchange with one node
/// never waits for an exchange in flight with another.
pub struct TcpTransport {
    addrs: Vec<String>,
    conns: Vec<Mutex<Option<Client>>>,
    obs: Option<Arc<Obs>>,
}

impl TcpTransport {
    /// A transport over the given server addresses.
    pub fn new(addrs: Vec<String>) -> TcpTransport {
        let conns = addrs.iter().map(|_| Mutex::new(None)).collect();
        TcpTransport {
            addrs,
            conns,
            obs: None,
        }
    }

    /// Builder-style: mirror traced exchanges as `MsgSend`/`MsgAck`
    /// events into the coordinator's hub `obs` (via each node's
    /// [`Client::enable_tracing`]). Events are tagged with the
    /// transport index as the peer node id, so run each server with
    /// `--node-id` equal to its index here for a mergeable trace.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> TcpTransport {
        self.obs = Some(obs);
        self
    }

    /// Run `f` against the transport's cached wire session for `node`
    /// (connecting lazily, like a send). Distributed work must be
    /// staged on the **same** session that later votes: wire `PREPARE`
    /// only accepts transactions owned by the requesting session
    /// (DESIGN.md §14.2), and this transport holds one connection per
    /// node for the coordinator's whole run.
    pub fn with_node<T>(
        &self,
        node: usize,
        f: impl FnOnce(&mut Client) -> Result<T, asset_client::ClientError>,
    ) -> Result<T, CoordError> {
        self.with_client(node, f)
    }

    fn with_client<T>(
        &self,
        node: usize,
        f: impl FnOnce(&mut Client) -> Result<T, asset_client::ClientError>,
    ) -> Result<T, CoordError> {
        let addr = self.addrs.get(node).ok_or(CoordError::NodeDown(node))?;
        let mut conn = self.conns[node].lock();
        let c = match &mut *conn {
            Some(c) => c,
            slot => slot.insert(Client::connect(addr).map_err(|_| CoordError::NodeDown(node))?),
        };
        match f(c) {
            Ok(v) => Ok(v),
            Err(asset_client::ClientError::Io(_)) => {
                // drop the connection; the next send reconnects
                *conn = None;
                Err(CoordError::NodeDown(node))
            }
            Err(e) => Err(CoordError::Protocol(e.to_string())),
        }
    }
}

impl CommitTransport for TcpTransport {
    fn nodes(&self) -> usize {
        self.addrs.len()
    }

    fn send(&self, node: usize, msg: CommitMessage) -> Result<CommitMessage, CoordError> {
        self.send_traced(node, msg, None)
    }

    fn send_traced(
        &self,
        node: usize,
        msg: CommitMessage,
        ctx: Option<TraceCtx>,
    ) -> Result<CommitMessage, CoordError> {
        let raw = |tids: &[Tid]| tids.iter().map(|t| t.0).collect::<Vec<u64>>();
        // arm (or clear) the per-node client's frame stamping before the
        // exchange: the client records the MsgSend/MsgAck pair itself
        let trace = ctx.and_then(|c| self.obs.clone().map(|o| (c, o)));
        let armed = |c: &mut Client| match &trace {
            Some((ctx, obs)) => c.enable_tracing(*ctx, node as u32, Arc::clone(obs)),
            None => c.disable_tracing(),
        };
        match msg {
            CommitMessage::Prepare { tids } => {
                let wire = raw(&tids);
                // a server-reported error is a no vote; transport (Io)
                // errors propagate through with_client's reconnect path
                let vote = self.with_client(node, |c| {
                    armed(c);
                    match c.prepare(&wire) {
                        Ok(group) => Ok(Some(group)),
                        Err(asset_client::ClientError::Server { .. }) => Ok(None),
                        Err(e) => Err(e),
                    }
                })?;
                Ok(match vote {
                    Some(group) => CommitMessage::Vote {
                        yes: true,
                        group: group.into_iter().map(Tid).collect(),
                    },
                    None => CommitMessage::Vote {
                        yes: false,
                        group: Vec::new(),
                    },
                })
            }
            CommitMessage::CommitDecide { tids } => {
                let wire = raw(&tids);
                self.with_client(node, |c| {
                    armed(c);
                    c.commit_decide(&wire)
                })?;
                Ok(CommitMessage::Ack)
            }
            CommitMessage::AbortDecide { tids } => {
                let wire = raw(&tids);
                self.with_client(node, |c| {
                    armed(c);
                    c.abort_decide(&wire)
                })?;
                Ok(CommitMessage::Ack)
            }
            CommitMessage::QueryState { tid } => {
                let s = self.with_client(node, |c| {
                    armed(c);
                    c.prepared_state(tid.0)
                })?;
                Ok(CommitMessage::State(match s {
                    PreparedState::Unknown => ParticipantState::Unknown,
                    PreparedState::Prepared => ParticipantState::Prepared,
                    PreparedState::Committed => ParticipantState::Committed,
                    PreparedState::Aborted => ParticipantState::Aborted,
                    PreparedState::Other => ParticipantState::Other,
                }))
            }
            other => Err(CoordError::Protocol(format!(
                "transport cannot send {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_core::Database;
    use asset_server::AssetServer;
    use std::sync::mpsc::channel;

    /// An exchange in flight with node 0 — here a `with_node` closure
    /// parked on a channel, as a PREPARE waiting on locks would be — does
    /// not hold up a send to node 1.
    #[test]
    fn a_busy_node_does_not_block_sends_to_another() {
        let servers: Vec<AssetServer> = (0..2)
            .map(|i| AssetServer::spawn_node(Database::in_memory(), "127.0.0.1:0", i).unwrap())
            .collect();
        let transport =
            TcpTransport::new(servers.iter().map(|s| s.local_addr().to_string()).collect());
        let (parked_tx, parked) = channel();
        let (release, release_rx) = channel::<()>();
        let (answered_tx, answered) = channel();
        let tcp = &transport;
        std::thread::scope(|s| {
            let busy = s.spawn(move || {
                tcp.with_node(0, |_| {
                    parked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(())
                })
            });
            parked
                .recv_timeout(Duration::from_secs(10))
                .expect("node 0's exchange is in flight");
            s.spawn(move || {
                answered_tx.send(tcp.send(1, CommitMessage::QueryState { tid: Tid(1) }))
            });
            let reply = answered.recv_timeout(Duration::from_secs(10));
            release.send(()).unwrap();
            assert!(busy.join().unwrap().is_ok());
            match reply.expect("node 1 answers while node 0 is busy") {
                Ok(CommitMessage::State(ParticipantState::Unknown)) => {}
                other => panic!("unexpected reply {other:?}"),
            }
        });
        // the transport holds a connection to each server: close them
        // before asking the servers to stop
        drop(transport);
        for s in servers {
            s.shutdown();
            s.join();
        }
    }
}
