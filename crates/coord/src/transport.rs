//! The message layer between a coordinator and its participant nodes.
//!
//! One trait, two implementations: [`ChannelTransport`] calls
//! in-process [`ParticipantNode`]s directly (tests and crash matrices —
//! with scripted message drops and delivery delay), and
//! [`TcpTransport`] speaks the §13 wire protocol through
//! [`asset_client::Client`] (opcodes `PREPARE`, `PREPARED`,
//! `COMMIT_DECIDE`, `ABORT_DECIDE`). Coordinators are written against
//! the trait and cannot tell the difference.
//!
//! A protocol round goes out as one batch
//! ([`CommitTransport::send_all`]), which a transport may overlap: the
//! channel transport runs the first exchange on the calling thread and
//! the rest on reused delivery threads, the TCP transport pipelines
//! `PREPARE` frames on its per-node connections.

use crate::failpoints;
use crate::node::ParticipantNode;
use asset_client::{Client, ClientError};
use asset_common::pool::{Pool, Work};
use asset_common::sync::{Condvar, Mutex, MutexGuard, Rank};
use asset_common::{ParticipantState, Tid};
use asset_faults::{FaultAction, FaultRegistry};
use asset_obs::{EventKind, Obs, TraceCtx};
use asset_server::protocol::opcode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

impl CommitMessage {
    /// The §13 wire opcode a coordinator-originated message rides, or
    /// `None` for reply-only messages (which a coordinator never sends).
    /// Trace events mirror protocol messages under these opcodes so a
    /// channel-transport exchange and its TCP equivalent produce the same
    /// merged trace.
    pub fn wire_opcode(&self) -> Option<u8> {
        match self {
            CommitMessage::Prepare { .. } => Some(opcode::PREPARE),
            CommitMessage::QueryState { .. } => Some(opcode::PREPARED),
            CommitMessage::CommitDecide { .. } => Some(opcode::COMMIT_DECIDE),
            CommitMessage::AbortDecide { .. } => Some(opcode::ABORT_DECIDE),
            _ => None,
        }
    }
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
    /// Deliver one protocol round — every `(node, msg)` of `msgs`, one
    /// message per node in ascending node order — and wait for every
    /// reply; replies come back in the order of `msgs`. A transport may
    /// overlap the exchanges, so a round costs its slowest exchange rather
    /// than their sum; this default sends them one after another through
    /// [`send_traced`](Self::send_traced).
    fn send_all(
        &self,
        msgs: Vec<(usize, CommitMessage)>,
        ctx: Option<TraceCtx>,
    ) -> Vec<Result<CommitMessage, CoordError>> {
        msgs.into_iter()
            .map(|(node, msg)| self.send_traced(node, msg, ctx))
            .collect()
    }
}

/// In-process transport: messages are direct calls into [`ParticipantNode`]s,
/// with scripted drops ([`failpoints::MSG_PREPARE_DROP`] /
/// [`failpoints::MSG_DECIDE_DROP`]) and optional per-message delivery delay.
/// A participant that panics mid-request (a failpoint's crash among them) is
/// marked dead — later sends fail with [`CoordError::NodeDown`] until the
/// harness restarts it.
///
/// A round ([`send_all`](CommitTransport::send_all)) runs its first
/// exchange on the calling thread and hands the rest to reused delivery
/// threads, spawning one only when none is free; free threads beyond the
/// node count exit, and all of them once the transport is dropped. The
/// drop failpoints and `MsgSend` events still run on the calling thread,
/// in send order, before anything is delivered, and the `MsgAck`s after
/// every reply is in: a scripted fault hits the same message on every
/// run, and the trace merge pairs the k-th send with the k-th receive.
pub struct ChannelTransport {
    nodes: Vec<Arc<ParticipantNode>>,
    faults: Arc<FaultRegistry>,
    delay: Option<Duration>,
    obs: Option<Arc<Obs>>,
    couriers: Arc<Pool<Couriers>>,
}

impl ChannelTransport {
    /// A transport over `nodes` with no faults armed.
    pub fn new(nodes: Vec<Arc<ParticipantNode>>) -> ChannelTransport {
        let couriers = Pool::new(Couriers::default(), "asset-deliver", nodes.len());
        ChannelTransport {
            nodes,
            faults: Arc::new(FaultRegistry::new()),
            delay: None,
            obs: None,
            couriers,
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

    /// What happens on the sending thread before `msg` leaves for `node`:
    /// its drop failpoint, the node lookup, and the `MsgSend` event. A
    /// dropped message records no event: the merge pairs the k-th send
    /// with the k-th recv, so only delivered exchanges may appear on the
    /// coordinator lane.
    fn admit(
        &self,
        node: usize,
        msg: &CommitMessage,
        ctx: Option<TraceCtx>,
    ) -> Result<Arc<ParticipantNode>, CoordError> {
        let point = match msg {
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
                    FaultAction::Panic => asset_faults::panic_at(point),
                    _ => return Err(CoordError::MessageDropped(point)),
                }
            }
        }
        let n = Arc::clone(self.nodes.get(node).ok_or(CoordError::NodeDown(node))?);
        self.mirror(false, node, msg.wire_opcode(), ctx);
        Ok(n)
    }

    /// Mirror a traced exchange with `node` under opcode `op` into the
    /// coordinator's hub: its `MsgSend`, or once the reply is in its
    /// `MsgAck`.
    fn mirror(&self, ack: bool, node: usize, op: Option<u8>, ctx: Option<TraceCtx>) {
        if let (Some(obs), Some(ctx), Some(opcode)) = (&self.obs, ctx, op) {
            let (node, root) = (node as u32, ctx.root);
            obs.record(if ack {
                EventKind::MsgAck { node, opcode, root }
            } else {
                EventKind::MsgSend { node, opcode, root }
            });
        }
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.couriers.close();
    }
}

/// One exchange handed to a delivery thread.
struct Delivery {
    /// Where the reply goes: the round and the message's place in it.
    round: Arc<Round>,
    at: usize,
    n: Arc<ParticipantNode>,
    node: usize,
    msg: CommitMessage,
    ctx: Option<TraceCtx>,
    delay: Option<Duration>,
}

/// The outcomes of one round's handed-off exchanges, by place in the
/// round, as delivery threads finish them.
#[derive(Default)]
struct Round {
    landed: Mutex<Vec<(usize, Result<CommitMessage, CoordError>)>>,
    arrival: Condvar,
}

/// The delivery threads' work: one exchange per job, counting threads as
/// they come and go.
#[derive(Default)]
struct Couriers {
    spawned: AtomicU64,
    exited: AtomicU64,
}

impl Work for Couriers {
    type Job = Delivery;
    type Done = (Arc<Round>, usize, Result<CommitMessage, CoordError>);

    fn run(&self, d: Delivery) -> Self::Done {
        let outcome = exchange(&d.n, d.node, d.msg, d.ctx, d.delay);
        (d.round, d.at, outcome)
    }

    fn finish(&self, (round, at, outcome): Self::Done) {
        round.landed.lock().push((at, outcome));
        round.arrival.notify_one();
    }

    fn spawned(&self) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
    }

    fn exited(&self) {
        self.exited.fetch_add(1, Ordering::Relaxed);
    }
}

/// One request handled by `n` (transport index `node`) on this thread,
/// after the link delay: its reply, or `NodeDown` for a node that is down
/// or that panicked mid-request (which stopped its database): the node is
/// killed and later sends see it down too.
fn exchange(
    n: &ParticipantNode,
    node: usize,
    msg: CommitMessage,
    ctx: Option<TraceCtx>,
    delay: Option<Duration>,
) -> Result<CommitMessage, CoordError> {
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    match catch_unwind(AssertUnwindSafe(|| n.handle_traced(msg, ctx))) {
        Ok(reply) => reply.ok_or(CoordError::NodeDown(node)),
        Err(_) => {
            n.kill();
            Err(CoordError::NodeDown(node))
        }
    }
}

impl CommitTransport for ChannelTransport {
    fn nodes(&self) -> usize {
        self.nodes.len()
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
        self.send_all(vec![(node, msg)], ctx)
            .pop()
            .unwrap_or(Err(CoordError::NodeDown(node)))
    }

    fn send_all(
        &self,
        msgs: Vec<(usize, CommitMessage)>,
        ctx: Option<TraceCtx>,
    ) -> Vec<Result<CommitMessage, CoordError>> {
        // a slot keeps NodeDown until its reply arrives
        let mut replies: Vec<Result<CommitMessage, CoordError>> = msgs
            .iter()
            .map(|(node, _)| Err(CoordError::NodeDown(*node)))
            .collect();
        let mut sent = Vec::with_capacity(msgs.len());
        let mut deliveries = Vec::with_capacity(msgs.len());
        for (at, (node, msg)) in msgs.into_iter().enumerate() {
            match self.admit(node, &msg, ctx) {
                Ok(n) => {
                    sent.push((at, node, msg.wire_opcode()));
                    deliveries.push((at, n, node, msg));
                }
                Err(e) => replies[at] = Err(e),
            }
        }
        // the first exchange on this thread, the rest on delivery threads
        let mut deliveries = deliveries.into_iter();
        let first = deliveries.next();
        let handed = deliveries.len();
        let round = Arc::new(Round::default());
        for (at, n, node, msg) in deliveries {
            self.couriers.hand(Delivery {
                round: Arc::clone(&round),
                at,
                n,
                node,
                msg,
                ctx,
                delay: self.delay,
            });
        }
        if let Some((at, n, node, msg)) = first {
            replies[at] = exchange(&n, node, msg, ctx, self.delay);
        }
        let mut landed_rest = round.landed.lock();
        while landed_rest.len() < handed {
            round.arrival.wait(&mut landed_rest);
        }
        for (at, outcome) in landed_rest.drain(..) {
            replies[at] = outcome;
        }
        drop(landed_rest);
        for (at, node, op) in sent {
            if replies[at].is_ok() {
                self.mirror(true, node, op, ctx);
            }
        }
        replies
    }
}

/// Wire transport: each node is an ASSET server address, reached with a
/// lazily (re)connected [`Client`] per node. A transport error closes
/// the connection so the next send reconnects — a restarted server is
/// picked up transparently (prepare and decide are idempotent). Each
/// node's connection has a mutex of its own: an exchange with one node
/// never waits for an exchange in flight with another.
///
/// A round of prepares is pipelined with no thread at all: every
/// member's `PREPARE` frame is written on its node's connection, taking
/// the mutexes in ascending node order, and then the votes are read back.
pub struct TcpTransport {
    addrs: Vec<String>,
    conns: Vec<Mutex<Option<Client>>>,
    obs: Option<Arc<Obs>>,
}

impl TcpTransport {
    /// A transport over the given server addresses.
    pub fn new(addrs: Vec<String>) -> TcpTransport {
        let conns = (0..addrs.len())
            .map(|node| Mutex::ranked(None, Rank::WIRE_CONN, node))
            .collect();
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
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, CoordError> {
        on(&mut *self.connection(node)?, node, f)
    }

    /// `node`'s connection, locked, connecting it if it has none.
    fn connection(&self, node: usize) -> Result<MutexGuard<'_, Option<Client>>, CoordError> {
        let addr = self.addrs.get(node).ok_or(CoordError::NodeDown(node))?;
        let mut conn = self.conns[node].lock();
        if conn.is_none() {
            *conn = Some(Client::connect(addr).map_err(|_| CoordError::NodeDown(node))?);
        }
        Ok(conn)
    }

    /// Arm (or clear) a client's frame stamping before an exchange with
    /// `node`: the client records the `MsgSend`/`MsgAck` pair itself.
    fn arm(&self, c: &mut Client, node: usize, ctx: Option<TraceCtx>) {
        match (ctx, &self.obs) {
            (Some(ctx), Some(obs)) => c.enable_tracing(ctx, node as u32, Arc::clone(obs)),
            _ => c.disable_tracing(),
        }
    }

    /// Phase 1 as one round trip: write every node's `PREPARE`, holding
    /// each connection from its write to its vote, then read the votes.
    fn prepare_round(
        &self,
        round: Vec<(usize, Vec<u64>)>,
        ctx: Option<TraceCtx>,
    ) -> Vec<Result<CommitMessage, CoordError>> {
        let written: Vec<_> = round
            .iter()
            .map(|(node, tids)| {
                let mut conn = self.connection(*node)?;
                on(&mut conn, *node, |c| {
                    self.arm(c, *node, ctx);
                    c.send_prepare(tids)
                })?;
                Ok(conn)
            })
            .collect();
        round
            .iter()
            .zip(written)
            .map(|((node, _), conn)| on(&mut *conn?, *node, |c| vote(c.recv_prepare())))
            .collect()
    }
}

/// Run `f` on a locked connection to `node`; a transport error drops the
/// connection, so the next send reconnects.
fn on<T>(
    conn: &mut Option<Client>,
    node: usize,
    f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
) -> Result<T, CoordError> {
    let Some(c) = conn.as_mut() else {
        return Err(CoordError::NodeDown(node));
    };
    match f(c) {
        Ok(v) => Ok(v),
        Err(ClientError::Io(_)) => {
            *conn = None;
            Err(CoordError::NodeDown(node))
        }
        Err(e) => Err(CoordError::Protocol(e.to_string())),
    }
}

/// A prepare's answer as a vote: a server-reported error is a no, while a
/// transport error stays one (for [`on`]'s reconnect path).
fn vote(answer: Result<Vec<u64>, ClientError>) -> Result<CommitMessage, ClientError> {
    match answer {
        Ok(group) => Ok(CommitMessage::Vote {
            yes: true,
            group: group.into_iter().map(Tid).collect(),
        }),
        Err(ClientError::Server { .. }) => Ok(CommitMessage::Vote {
            yes: false,
            group: Vec::new(),
        }),
        Err(e) => Err(e),
    }
}

/// Tids as the wire carries them.
fn raw(tids: &[Tid]) -> Vec<u64> {
    tids.iter().map(|t| t.0).collect()
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
        match msg {
            CommitMessage::Prepare { tids } => {
                let wire = raw(&tids);
                self.with_node(node, |c| {
                    self.arm(c, node, ctx);
                    vote(c.prepare(&wire))
                })
            }
            CommitMessage::CommitDecide { tids } => {
                let wire = raw(&tids);
                self.with_node(node, |c| {
                    self.arm(c, node, ctx);
                    c.commit_decide(&wire)
                })?;
                Ok(CommitMessage::Ack)
            }
            CommitMessage::AbortDecide { tids } => {
                let wire = raw(&tids);
                self.with_node(node, |c| {
                    self.arm(c, node, ctx);
                    c.abort_decide(&wire)
                })?;
                Ok(CommitMessage::Ack)
            }
            CommitMessage::QueryState { tid } => self
                .with_node(node, |c| {
                    self.arm(c, node, ctx);
                    c.prepared_state(tid.0)
                })
                .map(CommitMessage::State),
            other => Err(CoordError::Protocol(format!(
                "transport cannot send {other:?}"
            ))),
        }
    }

    fn send_all(
        &self,
        msgs: Vec<(usize, CommitMessage)>,
        ctx: Option<TraceCtx>,
    ) -> Vec<Result<CommitMessage, CoordError>> {
        // a round of prepares to distinct nodes in ascending order is
        // pipelined; anything else goes one message at a time
        let prepares: Option<Vec<(usize, Vec<u64>)>> = msgs
            .iter()
            .map(|(node, msg)| match msg {
                CommitMessage::Prepare { tids } => Some((*node, raw(tids))),
                _ => None,
            })
            .collect();
        match prepares {
            Some(round) if round.windows(2).all(|w| w[0].0 < w[1].0) => {
                self.prepare_round(round, ctx)
            }
            _ => msgs
                .into_iter()
                .map(|(node, msg)| self.send_traced(node, msg, ctx))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{mem_nodes, stage};
    use crate::{CoordLog, Decision, GlobalTxn, TwoPhase};
    use asset_core::Database;
    use asset_server::AssetServer;
    use std::sync::mpsc::channel;

    /// Delivery threads are reused: a one-member round runs on the caller
    /// alone, a thousand sequential rounds over three nodes never need
    /// more than two threads (the caller runs the first exchange), and
    /// every thread exits once the transport is dropped.
    #[test]
    fn delivery_threads_are_bounded_and_end_with_the_transport() {
        const NODES: usize = 3;
        let nodes = mem_nodes(NODES);
        let oids: Vec<_> = nodes.iter().map(|n| n.db().new_oid()).collect();
        let transport = Arc::new(ChannelTransport::new(nodes));
        let couriers = Arc::clone(&transport.couriers);
        let spawned = || couriers.work().spawned.load(Ordering::Relaxed);
        let coord = TwoPhase::new(transport.clone(), Arc::new(CoordLog::in_memory()));

        let mut solo = GlobalTxn::new(1);
        solo.add_member(0, stage(transport.node(0), oids[0], b"solo"));
        assert_eq!(coord.commit(&solo).unwrap(), Decision::Commit);
        assert_eq!(spawned(), 0, "a one-member round spawns nothing");

        for gid in 2..1002 {
            let mut g = GlobalTxn::new(gid);
            for (i, oid) in oids.iter().enumerate() {
                g.add_member(i as u32, stage(transport.node(i), *oid, b"seq"));
            }
            assert_eq!(coord.commit(&g).unwrap(), Decision::Commit);
        }
        assert!(
            spawned() < NODES as u64,
            "{} delivery threads for {NODES} nodes",
            spawned()
        );

        drop((coord, transport));
        while couriers.work().exited.load(Ordering::Relaxed) < spawned() {
            std::thread::yield_now();
        }
    }

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
