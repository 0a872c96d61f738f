//! Causal-graph reconstruction from the flat event ring.
//!
//! `asset-obs` records flat, `Copy` [`Event`]s through the drop-don't-block
//! ring; this module folds a drained trace back into the *causal* shape
//! the paper's §3 constructions have: one [`Track`] per transaction
//! (begin → commit/abort), sub-spans for the waits inside it (lock waits,
//! the commit gate, rollback), and typed [`CausalEdge`]s for the ASSET
//! primitives that connect transactions — `delegate`, `permit` (including
//! the transitive chains `PermitTable::chain` walks), and `form_dependency`
//! CD/AD/GC edges. GC components are re-derived from the GC edges so a
//! group commit shows up as one commit flow fanning out to every member.

use asset_common::{DepType, Oid, Tid};
use asset_obs::{Event, EventKind, ModelKind, SpanName};
use std::collections::{BTreeMap, HashMap, HashSet};

/// What a [`SubSpan`] measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A lock request blocked on `ob` (stripe + queue depth at first block).
    LockWait {
        /// The contended object.
        ob: Oid,
        /// Lock-table stripe the object hashed to.
        stripe: u32,
        /// Pending-queue depth when the request first blocked.
        queue_depth: u32,
    },
    /// A cache-latch acquisition spun (storage track).
    LatchSpin {
        /// Backoff rounds before the latch was acquired.
        spins: u32,
    },
    /// The log drained to the OS / stable storage (storage track).
    LogFlush {
        /// Bytes drained from the user-space buffer.
        bytes: u64,
    },
    /// A group-commit flush window became durable (storage track): one
    /// shared write+sync covering `records` commit records. The
    /// [`CausalGraph::flush_flows`] edges from each committer terminate on
    /// this span.
    FlushWindow {
        /// Monotonic window number (per flusher).
        window: u64,
        /// Commit records coalesced into the window.
        records: u32,
        /// Log bytes accepted while the window was assembled.
        bytes: u64,
    },
    /// A named open/close span ([`SpanName`]: commit gate, rollback).
    Named(SpanName),
}

impl SpanKind {
    /// Stable lowercase label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::LockWait { .. } => "lock-wait",
            SpanKind::LatchSpin { .. } => "latch-spin",
            SpanKind::LogFlush { .. } => "log-flush",
            SpanKind::FlushWindow { .. } => "flush-window",
            SpanKind::Named(n) => n.label(),
        }
    }
}

/// One timed interval on a track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubSpan {
    /// What was measured.
    pub kind: SpanKind,
    /// Start, in nanoseconds since the `Obs` epoch.
    pub start_ns: u64,
    /// End (`>= start_ns`).
    pub end_ns: u64,
}

/// Terminal outcome of a track.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Outcome {
    /// No terminal event in the trace (still running, or it fell off the
    /// ring).
    #[default]
    Open,
    /// Committed (possibly as a GC group member).
    Committed,
    /// Aborted.
    Aborted,
}

impl Outcome {
    /// Stable lowercase label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Open => "open",
            Outcome::Committed => "committed",
            Outcome::Aborted => "aborted",
        }
    }
}

/// One transaction's timeline: lifecycle bounds, sub-spans, milestones.
#[derive(Clone, Debug)]
pub struct Track {
    /// The transaction.
    pub tid: Tid,
    /// Its initiator (`Tid::NULL` for top-level or unknown).
    pub parent: Tid,
    /// The §3 model that tagged this transaction, if any.
    pub model: Option<ModelKind>,
    /// `begin` time (ns since epoch), if seen.
    pub begin_ns: Option<u64>,
    /// Terminal time (commit/abort), if seen.
    pub end_ns: Option<u64>,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Timed sub-spans (lock waits, commit gate, rollback).
    pub spans: Vec<SubSpan>,
    /// Point milestones: `(at_ns, label)` — model milestones, completion,
    /// deadlock victimhood, ambiguous commits.
    pub milestones: Vec<(u64, &'static str)>,
}

impl Track {
    fn new(tid: Tid) -> Track {
        Track {
            tid,
            parent: Tid::NULL,
            model: None,
            begin_ns: None,
            end_ns: None,
            outcome: Outcome::Open,
            spans: Vec::new(),
            milestones: Vec::new(),
        }
    }

    /// First known timestamp on this track (begin, else earliest span or
    /// milestone, else 0).
    pub fn first_ns(&self) -> u64 {
        let mut t = self.begin_ns.or(self.end_ns).unwrap_or(u64::MAX);
        for s in &self.spans {
            t = t.min(s.start_ns);
        }
        for (at, _) in &self.milestones {
            t = t.min(*at);
        }
        if t == u64::MAX {
            0
        } else {
            t
        }
    }

    /// Last known timestamp on this track.
    pub fn last_ns(&self) -> u64 {
        let mut t = self.end_ns.or(self.begin_ns).unwrap_or(0);
        for s in &self.spans {
            t = t.max(s.end_ns);
        }
        for (at, _) in &self.milestones {
            t = t.max(*at);
        }
        t
    }
}

/// The type of a causal edge between two tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// `delegate(from, to)` moved lock responsibility over `objects`.
    Delegate {
        /// Objects whose responsibility moved.
        objects: u32,
    },
    /// `permit` registered a descriptor from grantor to grantee.
    PermitGrant {
        /// Objects in scope (0 = all).
        objects: u32,
    },
    /// A permit actually admitted a conflicting request (`chain` hops —
    /// `> 1` means a transitive permit chain took effect).
    PermitUsed {
        /// Permit-chain hops the check walked (1 = direct).
        chain: u32,
    },
    /// `form_dependency(kind, ti, tj)`.
    Dep(DepType),
    /// A group commit flow from the committing transaction to a member.
    CommitGroup,
}

impl EdgeKind {
    /// Stable lowercase label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EdgeKind::Delegate { .. } => "delegate",
            EdgeKind::PermitGrant { .. } => "permit",
            EdgeKind::PermitUsed { .. } => "permit-through",
            EdgeKind::Dep(DepType::CD) => "dep-cd",
            EdgeKind::Dep(DepType::AD) => "dep-ad",
            EdgeKind::Dep(DepType::GC) => "dep-gc",
            EdgeKind::CommitGroup => "group-commit",
        }
    }
}

/// A typed, timestamped edge between two tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalEdge {
    /// Edge type (and payload).
    pub kind: EdgeKind,
    /// Source transaction.
    pub from: Tid,
    /// Destination transaction.
    pub to: Tid,
    /// When the edge was recorded (ns since epoch).
    pub at_ns: u64,
    /// Ring sequence number of the underlying event (unique per edge).
    pub seq: u64,
}

/// Direction of a cross-node message hop on one node's timeline (§7.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgDir {
    /// This node sent a request to `peer`.
    Send,
    /// The reply from `peer` arrived back here.
    Ack,
    /// A request from `peer` arrived here.
    Recv,
    /// This node answered a request from `peer`.
    Reply,
}

/// One cross-node message hop. The k-th `Send` on the origin for a given
/// `(root, opcode, peer)` pairs with the k-th `Recv` on the destination
/// (and `Reply` with `Ack` on the way back) — that pairing is both the
/// cross-node flow edge and the clock-alignment handshake
/// [`CausalGraph::merge`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgHop {
    /// Which leg of the exchange this is.
    pub dir: MsgDir,
    /// The other node (destination for `Send`/`Ack`, origin for
    /// `Recv`/`Reply`).
    pub peer: u32,
    /// Wire opcode of the request (§13.3).
    pub opcode: u8,
    /// Root span id from the trace context (the gid for coordinator
    /// opcodes).
    pub root: u64,
    /// Reply status byte (`Reply` hops only).
    pub status: Option<u8>,
    /// When the hop was recorded (ns since this node's epoch).
    pub at_ns: u64,
    /// Ring sequence number on this node.
    pub seq: u64,
}

/// One participant-side in-doubt window (§14.2): opens when the
/// `Prepared` record is forced, closes when the coordinator's decision
/// is applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InDoubtWindow {
    /// Lowest member tid of the prepared group.
    pub tid: Tid,
    /// Size of the prepared group.
    pub group: u32,
    /// Prepare-force time (ns since epoch).
    pub start_ns: u64,
    /// Decision-applied time; `None` if the trace ends in doubt.
    pub end_ns: Option<u64>,
    /// The decision (`true` = commit); `None` while open.
    pub commit: Option<bool>,
}

/// A commit flow terminating on a shared flush window: `tid`'s commit
/// record became durable as part of window `window` on the storage lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushFlow {
    /// The committed transaction.
    pub tid: Tid,
    /// The flush window that carried its commit record (matches a
    /// [`SpanKind::FlushWindow`] span in [`CausalGraph::storage`]).
    pub window: u64,
    /// When the acknowledgement was recorded (ns since epoch).
    pub at_ns: u64,
    /// Ring sequence number of the underlying event (unique per flow).
    pub seq: u64,
}

/// One group commit: the transaction whose `commit` call carried the
/// group, and every member (committer included).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitGroup {
    /// The transaction whose commit call succeeded.
    pub committer: Tid,
    /// All members committed together (sorted; includes the committer).
    pub members: Vec<Tid>,
    /// Commit-point timestamp.
    pub at_ns: u64,
}

/// The reconstructed causal graph of one trace.
#[derive(Clone, Debug, Default)]
pub struct CausalGraph {
    /// One track per transaction, keyed by tid.
    pub tracks: BTreeMap<Tid, Track>,
    /// Sub-spans with no owning transaction (log flushes, latch spins).
    pub storage: Vec<SubSpan>,
    /// All causal edges, in ring order.
    pub edges: Vec<CausalEdge>,
    /// Group commits observed (GC components at their commit points).
    pub commit_groups: Vec<CommitGroup>,
    /// Commit flows onto shared flush windows: many transactions' commits
    /// terminating on one `flush-window` span is the group-commit flusher
    /// working as intended.
    pub flush_flows: Vec<FlushFlow>,
    /// This node's fleet id (0 for single-node traces; set by
    /// [`CausalGraph::from_node_events`]).
    pub node: u32,
    /// Cross-node message hops recorded on this node, in ring order.
    pub msgs: Vec<MsgHop>,
    /// Participant in-doubt windows (prepare-force → decision).
    pub in_doubt: Vec<InDoubtWindow>,
}

impl CausalGraph {
    /// Fold a drained trace (as returned by `Obs::trace()`, oldest first)
    /// into tracks, edges and commit groups. Tolerant of partial traces:
    /// events that fell off the ring simply leave spans unopened or tracks
    /// unterminated.
    pub fn from_events(events: &[Event]) -> CausalGraph {
        let mut g = CausalGraph::default();
        // (tid, span) → open timestamp; closes pop the matching open.
        let mut open: HashMap<(Tid, SpanName), u64> = HashMap::new();
        // GC adjacency accumulated from DepFormed edges, for component
        // discovery at commit points.
        let mut gc: HashMap<Tid, HashSet<Tid>> = HashMap::new();
        for e in events {
            let at = e.at_ns;
            match e.kind {
                EventKind::TxnInitiate { tid, parent } => {
                    let t = g.track(tid);
                    t.parent = parent;
                    t.milestones.push((at, "initiate"));
                }
                EventKind::TxnBegin { tid } => {
                    let t = g.track(tid);
                    if t.begin_ns.is_none() {
                        t.begin_ns = Some(at);
                    }
                }
                EventKind::TxnCommit { tid, group: _ } => {
                    let members = component(&gc, tid);
                    for m in &members {
                        let t = g.track(*m);
                        t.outcome = Outcome::Committed;
                        if t.end_ns.is_none() {
                            t.end_ns = Some(at);
                        }
                    }
                    for m in &members {
                        if *m != tid {
                            g.edges.push(CausalEdge {
                                kind: EdgeKind::CommitGroup,
                                from: tid,
                                to: *m,
                                at_ns: at,
                                seq: e.seq,
                            });
                        }
                    }
                    g.commit_groups.push(CommitGroup {
                        committer: tid,
                        members,
                        at_ns: at,
                    });
                }
                EventKind::TxnAbort { tid, undo_records } => {
                    let t = g.track(tid);
                    t.outcome = Outcome::Aborted;
                    if t.end_ns.is_none() {
                        t.end_ns = Some(at);
                    }
                    if undo_records > 0 {
                        t.milestones.push((at, "undone"));
                    }
                }
                EventKind::TxnComplete { tid, ok } => {
                    let label = if ok { "complete" } else { "failed" };
                    g.track(tid).milestones.push((at, label));
                }
                EventKind::LockWait {
                    tid,
                    ob,
                    stripe,
                    wait_ns,
                    queue_depth,
                } => {
                    g.track(tid).spans.push(SubSpan {
                        kind: SpanKind::LockWait {
                            ob,
                            stripe,
                            queue_depth,
                        },
                        start_ns: at.saturating_sub(wait_ns),
                        end_ns: at,
                    });
                }
                EventKind::SpanOpen { tid, span } => {
                    open.insert((tid, span), at);
                }
                EventKind::SpanClose { tid, span } => {
                    let start = open.remove(&(tid, span)).unwrap_or(at);
                    g.track(tid).spans.push(SubSpan {
                        kind: SpanKind::Named(span),
                        start_ns: start,
                        end_ns: at.max(start),
                    });
                }
                EventKind::LogFlush { bytes, dur_ns } => {
                    g.storage.push(SubSpan {
                        kind: SpanKind::LogFlush { bytes },
                        start_ns: at.saturating_sub(dur_ns),
                        end_ns: at,
                    });
                }
                EventKind::FlushWindow {
                    window,
                    records,
                    bytes,
                    dur_ns,
                } => {
                    g.storage.push(SubSpan {
                        kind: SpanKind::FlushWindow {
                            window,
                            records,
                            bytes,
                        },
                        start_ns: at.saturating_sub(dur_ns),
                        end_ns: at,
                    });
                }
                EventKind::CommitFlushed { tid, window } => {
                    g.track(tid);
                    g.flush_flows.push(FlushFlow {
                        tid,
                        window,
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::ExecPark { tid, reason } => {
                    let label = match reason {
                        "lock" => "park-lock",
                        "dep" => "park-dep",
                        "flush" => "park-flush",
                        _ => "park",
                    };
                    g.track(tid).milestones.push((at, label));
                }
                EventKind::LatchSpin { spins } => {
                    g.storage.push(SubSpan {
                        kind: SpanKind::LatchSpin { spins },
                        start_ns: at,
                        end_ns: at,
                    });
                }
                EventKind::Delegate { from, to, objects } => {
                    g.track(from);
                    g.track(to);
                    g.edges.push(CausalEdge {
                        kind: EdgeKind::Delegate { objects },
                        from,
                        to,
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::PermitGrant {
                    grantor,
                    grantee,
                    objects,
                } => {
                    g.track(grantor);
                    if grantee.is_null() {
                        // wildcard permit: no destination track to flow to
                        g.track(grantor).milestones.push((at, "permit-any"));
                    } else {
                        g.track(grantee);
                        g.edges.push(CausalEdge {
                            kind: EdgeKind::PermitGrant { objects },
                            from: grantor,
                            to: grantee,
                            at_ns: at,
                            seq: e.seq,
                        });
                    }
                }
                EventKind::PermitThrough {
                    holder,
                    requester,
                    chain,
                    ..
                } => {
                    g.track(holder);
                    g.track(requester);
                    g.edges.push(CausalEdge {
                        kind: EdgeKind::PermitUsed { chain },
                        from: holder,
                        to: requester,
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::DepFormed { kind, ti, tj } => {
                    g.track(ti);
                    g.track(tj);
                    if kind == DepType::GC {
                        gc.entry(ti).or_default().insert(tj);
                        gc.entry(tj).or_default().insert(ti);
                    }
                    g.edges.push(CausalEdge {
                        kind: EdgeKind::Dep(kind),
                        from: ti,
                        to: tj,
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::DeadlockSweep { tid, cycle } => {
                    if cycle {
                        g.track(tid).milestones.push((at, "deadlock-victim"));
                    }
                }
                EventKind::Model { model, tid, label } => {
                    if !tid.is_null() {
                        let t = g.track(tid);
                        if t.model.is_none() {
                            t.model = Some(model);
                        }
                        t.milestones.push((at, label));
                    }
                }
                EventKind::MsgSend { node, opcode, root } => {
                    g.msgs.push(MsgHop {
                        dir: MsgDir::Send,
                        peer: node,
                        opcode,
                        root,
                        status: None,
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::MsgAck { node, opcode, root } => {
                    g.msgs.push(MsgHop {
                        dir: MsgDir::Ack,
                        peer: node,
                        opcode,
                        root,
                        status: None,
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::MsgRecv {
                    opcode,
                    origin,
                    root,
                } => {
                    g.msgs.push(MsgHop {
                        dir: MsgDir::Recv,
                        peer: origin,
                        opcode,
                        root,
                        status: None,
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::MsgReply {
                    opcode,
                    origin,
                    root,
                    status,
                } => {
                    g.msgs.push(MsgHop {
                        dir: MsgDir::Reply,
                        peer: origin,
                        opcode,
                        root,
                        status: Some(status),
                        at_ns: at,
                        seq: e.seq,
                    });
                }
                EventKind::PrepareForced { tid, group } => {
                    g.track(tid).milestones.push((at, "prepare-forced"));
                    g.in_doubt.push(InDoubtWindow {
                        tid,
                        group,
                        start_ns: at,
                        end_ns: None,
                        commit: None,
                    });
                }
                EventKind::DecideApplied { tid, commit, group } => {
                    let label = if commit {
                        "decide-commit"
                    } else {
                        "decide-abort"
                    };
                    g.track(tid).milestones.push((at, label));
                    match g
                        .in_doubt
                        .iter_mut()
                        .find(|w| w.tid == tid && w.end_ns.is_none())
                    {
                        Some(w) => {
                            w.end_ns = Some(at);
                            w.commit = Some(commit);
                        }
                        None => {
                            // the prepare fell off the ring: synthesize a
                            // zero-length window so the decision survives
                            g.in_doubt.push(InDoubtWindow {
                                tid,
                                group,
                                start_ns: at,
                                end_ns: Some(at),
                                commit: Some(commit),
                            });
                        }
                    }
                }
            }
        }
        g
    }

    /// [`from_events`](Self::from_events) with the fleet node id the
    /// events came from — the per-node export half of a multi-node merge
    /// (drain each node's ring, tag it, then [`merge`](Self::merge)).
    pub fn from_node_events(node: u32, events: &[Event]) -> CausalGraph {
        let mut g = Self::from_events(events);
        g.node = node;
        g
    }

    fn track(&mut self, tid: Tid) -> &mut Track {
        self.tracks.entry(tid).or_insert_with(|| Track::new(tid))
    }

    /// Edges of one kind-class, by label (e.g. `"delegate"`).
    pub fn edges_labeled(&self, label: &str) -> Vec<&CausalEdge> {
        self.edges
            .iter()
            .filter(|e| e.kind.label() == label)
            .collect()
    }

    /// Deepest permit chain that actually admitted a request (0 when no
    /// permit was used).
    pub fn permit_chain_max(&self) -> u32 {
        self.edges
            .iter()
            .filter_map(|e| match e.kind {
                EdgeKind::PermitUsed { chain } => Some(chain),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Timestamp bounds of the whole trace `(first, last)`; `(0, 0)` when
    /// empty.
    pub fn bounds_ns(&self) -> (u64, u64) {
        let mut first = u64::MAX;
        let mut last = 0u64;
        for t in self.tracks.values() {
            first = first.min(t.first_ns());
            last = last.max(t.last_ns());
        }
        for s in &self.storage {
            first = first.min(s.start_ns);
            last = last.max(s.end_ns);
        }
        if first == u64::MAX {
            (0, 0)
        } else {
            (first, last)
        }
    }

    /// Merge per-node graphs onto one fleet timeline (§7.2).
    ///
    /// Per-node timestamps count from each process's own `Obs` epoch, so
    /// they are mutually meaningless until aligned. For every pair of
    /// nodes that exchanged traced messages, each complete request/ack
    /// handshake gives the NTP midpoint estimate of the peer clock
    /// offset — `((recv - send) + (reply - ack)) / 2` cancels the
    /// symmetric part of the network delay. Offsets are averaged over
    /// all handshakes of a pair, chained breadth-first from the first
    /// graph's node (the reference clock), and every node's timestamps
    /// are shifted onto the reference. Nodes with no traced path to the
    /// reference keep their own epoch (offset 0) — their lanes still
    /// render, just not meaningfully aligned.
    pub fn merge(graphs: Vec<CausalGraph>) -> FleetGraph {
        let mut graphs = graphs;
        let mut offsets: HashMap<u32, i64> = HashMap::new();
        if let Some(first) = graphs.first() {
            offsets.insert(first.node, 0);
        }
        // Breadth-first alignment: pick any unaligned node with
        // handshakes against an aligned one, fix its offset, repeat.
        loop {
            let mut progressed = false;
            for i in 0..graphs.len() {
                if offsets.contains_key(&graphs[i].node) {
                    continue;
                }
                for j in 0..graphs.len() {
                    let Some(&base) = offsets.get(&graphs[j].node) else {
                        continue;
                    };
                    // offset of node i relative to node j, if they talked
                    let theta = pair_offset(&graphs[j], &graphs[i])
                        .or_else(|| pair_offset(&graphs[i], &graphs[j]).map(|t| -t));
                    if let Some(theta) = theta {
                        offsets.insert(graphs[i].node, base + theta);
                        progressed = true;
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let mut applied: Vec<(u32, i64)> = Vec::new();
        for g in &mut graphs {
            let off = offsets.get(&g.node).copied().unwrap_or(0);
            g.shift_ns(-off);
            applied.push((g.node, -off));
        }
        let mut flows = Vec::new();
        for a in &graphs {
            for b in &graphs {
                if a.node != b.node {
                    match_flows(a, b, &mut flows);
                }
            }
        }
        flows.sort_by_key(|f| (f.from_ns, f.root, f.opcode));
        FleetGraph {
            nodes: graphs,
            offsets: applied,
            flows,
        }
    }

    /// Shift every timestamp in the graph by `delta` ns (negative deltas
    /// clamp at 0 rather than wrap).
    fn shift_ns(&mut self, delta: i64) {
        if delta == 0 {
            return;
        }
        let sh = |t: u64| -> u64 {
            if delta >= 0 {
                t.saturating_add(delta as u64)
            } else {
                t.saturating_sub(delta.unsigned_abs())
            }
        };
        for t in self.tracks.values_mut() {
            t.begin_ns = t.begin_ns.map(sh);
            t.end_ns = t.end_ns.map(sh);
            for s in &mut t.spans {
                s.start_ns = sh(s.start_ns);
                s.end_ns = sh(s.end_ns);
            }
            for m in &mut t.milestones {
                m.0 = sh(m.0);
            }
        }
        for s in &mut self.storage {
            s.start_ns = sh(s.start_ns);
            s.end_ns = sh(s.end_ns);
        }
        for e in &mut self.edges {
            e.at_ns = sh(e.at_ns);
        }
        for c in &mut self.commit_groups {
            c.at_ns = sh(c.at_ns);
        }
        for f in &mut self.flush_flows {
            f.at_ns = sh(f.at_ns);
        }
        for m in &mut self.msgs {
            m.at_ns = sh(m.at_ns);
        }
        for w in &mut self.in_doubt {
            w.start_ns = sh(w.start_ns);
            w.end_ns = w.end_ns.map(sh);
        }
    }

    /// This node's hops of one direction toward `peer`, grouped by
    /// `(root, opcode)` in ring order — the k-th entry of a group is the
    /// k-th exchange of that root/opcode between the two nodes.
    fn hops_toward(&self, peer: u32, dir: MsgDir) -> HashMap<(u64, u8), Vec<&MsgHop>> {
        let mut out: HashMap<(u64, u8), Vec<&MsgHop>> = HashMap::new();
        for m in &self.msgs {
            if m.peer == peer && m.dir == dir {
                out.entry((m.root, m.opcode)).or_default().push(m);
            }
        }
        out
    }
}

/// Mean NTP-midpoint offset of node `b`'s clock relative to node `a`'s,
/// over every complete `Send→Recv→Reply→Ack` handshake `a` originated
/// toward `b`. `None` if no complete handshake exists.
fn pair_offset(a: &CausalGraph, b: &CausalGraph) -> Option<i64> {
    let sends = a.hops_toward(b.node, MsgDir::Send);
    let acks = a.hops_toward(b.node, MsgDir::Ack);
    let recvs = b.hops_toward(a.node, MsgDir::Recv);
    let replies = b.hops_toward(a.node, MsgDir::Reply);
    let mut sum: i128 = 0;
    let mut n: i128 = 0;
    for (key, s_list) in &sends {
        let (Some(r_list), Some(p_list), Some(k_list)) =
            (recvs.get(key), replies.get(key), acks.get(key))
        else {
            continue;
        };
        let complete = s_list
            .len()
            .min(r_list.len())
            .min(p_list.len())
            .min(k_list.len());
        for k in 0..complete {
            let (t1, t2) = (s_list[k].at_ns as i128, r_list[k].at_ns as i128);
            let (t3, t4) = (p_list[k].at_ns as i128, k_list[k].at_ns as i128);
            sum += (t2 - t1 + (t3 - t4)) / 2;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        i64::try_from(sum / n).ok()
    }
}

/// Match `a`'s sends/acks toward `b` against `b`'s recvs/replies from
/// `a` (k-th with k-th per `(root, opcode)`), appending the resulting
/// request and response flow edges. Call after both graphs are shifted
/// onto the fleet clock.
fn match_flows(a: &CausalGraph, b: &CausalGraph, out: &mut Vec<CrossFlow>) {
    let sends = a.hops_toward(b.node, MsgDir::Send);
    let acks = a.hops_toward(b.node, MsgDir::Ack);
    let recvs = b.hops_toward(a.node, MsgDir::Recv);
    let replies = b.hops_toward(a.node, MsgDir::Reply);
    for (key, s_list) in &sends {
        if let Some(r_list) = recvs.get(key) {
            for k in 0..s_list.len().min(r_list.len()) {
                out.push(CrossFlow {
                    kind: FlowKind::Request,
                    opcode: key.1,
                    root: key.0,
                    from_node: a.node,
                    to_node: b.node,
                    from_ns: s_list[k].at_ns,
                    to_ns: r_list[k].at_ns,
                });
            }
        }
    }
    for (key, p_list) in &replies {
        if let Some(k_list) = acks.get(key) {
            for k in 0..p_list.len().min(k_list.len()) {
                out.push(CrossFlow {
                    kind: FlowKind::Response,
                    opcode: key.1,
                    root: key.0,
                    from_node: b.node,
                    to_node: a.node,
                    from_ns: p_list[k].at_ns,
                    to_ns: k_list[k].at_ns,
                });
            }
        }
    }
}

/// Which leg of a cross-node exchange a [`CrossFlow`] draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Origin's `Send` → destination's `Recv`.
    Request,
    /// Destination's `Reply` → origin's `Ack`.
    Response,
}

/// One matched cross-node flow edge on the fleet-aligned timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossFlow {
    /// Request or response leg.
    pub kind: FlowKind,
    /// Wire opcode of the exchange.
    pub opcode: u8,
    /// Root span id tying the exchange to its distributed operation.
    pub root: u64,
    /// Node the arrow leaves.
    pub from_node: u32,
    /// Node the arrow lands on.
    pub to_node: u32,
    /// Departure time on the fleet clock.
    pub from_ns: u64,
    /// Arrival time on the fleet clock.
    pub to_ns: u64,
}

/// Per-node graphs merged onto one timeline by [`CausalGraph::merge`]:
/// the shifted node graphs, the clock shift applied to each, and the
/// matched cross-node flow edges.
#[derive(Clone, Debug, Default)]
pub struct FleetGraph {
    /// The input graphs, timestamps shifted onto the reference clock.
    pub nodes: Vec<CausalGraph>,
    /// `(node, shift_ns)` actually applied to each node's timestamps.
    pub offsets: Vec<(u32, i64)>,
    /// Matched cross-node message flows, ordered by departure time.
    pub flows: Vec<CrossFlow>,
}

/// Connected GC component of `t` (always contains `t`), sorted.
fn component(gc: &HashMap<Tid, HashSet<Tid>>, t: Tid) -> Vec<Tid> {
    let mut seen: HashSet<Tid> = HashSet::new();
    let mut stack = vec![t];
    while let Some(x) = stack.pop() {
        if !seen.insert(x) {
            continue;
        }
        if let Some(peers) = gc.get(&x) {
            stack.extend(peers.iter().copied());
        }
    }
    let mut out: Vec<Tid> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, at_ns: u64, kind: EventKind) -> Event {
        Event { seq, at_ns, kind }
    }

    #[test]
    fn lifecycle_builds_a_closed_track() {
        let t1 = Tid(1);
        let trace = vec![
            ev(0, 10, EventKind::TxnBegin { tid: t1 }),
            ev(1, 90, EventKind::TxnCommit { tid: t1, group: 1 }),
        ];
        let g = CausalGraph::from_events(&trace);
        let tr = g.tracks.get(&t1).unwrap();
        assert_eq!(tr.begin_ns, Some(10));
        assert_eq!(tr.end_ns, Some(90));
        assert_eq!(tr.outcome, Outcome::Committed);
        assert_eq!(g.commit_groups.len(), 1);
        assert_eq!(g.commit_groups[0].members, vec![t1]);
    }

    #[test]
    fn gc_edges_group_the_commit() {
        let (t1, t2, t3) = (Tid(1), Tid(2), Tid(3));
        let trace = vec![
            ev(0, 1, EventKind::TxnBegin { tid: t1 }),
            ev(1, 2, EventKind::TxnBegin { tid: t2 }),
            ev(2, 3, EventKind::TxnBegin { tid: t3 }),
            ev(
                3,
                4,
                EventKind::DepFormed {
                    kind: DepType::GC,
                    ti: t1,
                    tj: t2,
                },
            ),
            ev(4, 9, EventKind::TxnCommit { tid: t1, group: 2 }),
        ];
        let g = CausalGraph::from_events(&trace);
        assert_eq!(g.commit_groups.len(), 1);
        assert_eq!(g.commit_groups[0].members, vec![t1, t2]);
        assert_eq!(g.tracks[&t2].outcome, Outcome::Committed);
        assert_eq!(g.tracks[&t3].outcome, Outcome::Open);
        // one group-commit flow edge from committer to the other member
        let flows = g.edges_labeled("group-commit");
        assert_eq!(flows.len(), 1);
        assert_eq!((flows[0].from, flows[0].to), (t1, t2));
    }

    #[test]
    fn lock_wait_becomes_a_backdated_subspan() {
        let t1 = Tid(1);
        let trace = vec![ev(
            0,
            100,
            EventKind::LockWait {
                tid: t1,
                ob: Oid(7),
                stripe: 3,
                wait_ns: 40,
                queue_depth: 2,
            },
        )];
        let g = CausalGraph::from_events(&trace);
        let s = g.tracks[&t1].spans[0];
        assert_eq!((s.start_ns, s.end_ns), (60, 100));
        assert_eq!(s.kind.label(), "lock-wait");
    }

    #[test]
    fn named_spans_pair_open_and_close() {
        let t1 = Tid(1);
        let trace = vec![
            ev(
                0,
                5,
                EventKind::SpanOpen {
                    tid: t1,
                    span: SpanName::CommitGate,
                },
            ),
            ev(
                1,
                25,
                EventKind::SpanClose {
                    tid: t1,
                    span: SpanName::CommitGate,
                },
            ),
        ];
        let g = CausalGraph::from_events(&trace);
        let s = g.tracks[&t1].spans[0];
        assert_eq!((s.start_ns, s.end_ns), (5, 25));
        assert_eq!(s.kind.label(), "commit-gate");
    }

    #[test]
    fn permit_and_delegate_edges_carry_payloads() {
        let (t1, t2) = (Tid(1), Tid(2));
        let trace = vec![
            ev(
                0,
                1,
                EventKind::PermitGrant {
                    grantor: t1,
                    grantee: t2,
                    objects: 3,
                },
            ),
            ev(
                1,
                2,
                EventKind::PermitThrough {
                    holder: t1,
                    requester: t2,
                    ob: Oid(9),
                    chain: 2,
                },
            ),
            ev(
                2,
                3,
                EventKind::Delegate {
                    from: t1,
                    to: t2,
                    objects: 5,
                },
            ),
        ];
        let g = CausalGraph::from_events(&trace);
        assert_eq!(g.edges.len(), 3);
        assert_eq!(g.permit_chain_max(), 2);
        assert_eq!(g.edges_labeled("delegate").len(), 1);
        assert_eq!(g.edges_labeled("permit").len(), 1);
    }

    #[test]
    fn prepare_and_decide_bound_the_in_doubt_window() {
        let t5 = Tid(5);
        let trace = vec![
            ev(0, 10, EventKind::PrepareForced { tid: t5, group: 2 }),
            ev(
                1,
                90,
                EventKind::DecideApplied {
                    tid: t5,
                    commit: true,
                    group: 2,
                },
            ),
        ];
        let g = CausalGraph::from_events(&trace);
        assert_eq!(g.in_doubt.len(), 1);
        let w = g.in_doubt[0];
        assert_eq!((w.start_ns, w.end_ns), (10, Some(90)));
        assert_eq!(w.commit, Some(true));
        assert_eq!(w.group, 2);
        let labels: Vec<&str> = g.tracks[&t5].milestones.iter().map(|m| m.1).collect();
        assert_eq!(labels, vec!["prepare-forced", "decide-commit"]);
    }

    #[test]
    fn merge_aligns_peer_clocks_from_handshake_pairs() {
        // Node 0 is the reference. Node 1's epoch is 100_000ns behind in
        // wall terms — its raw timestamps read 100_000ns higher. The
        // handshake: send@1000 → recv@103_000, reply@103_500 → ack@5000.
        // NTP midpoint: ((103000-1000)+(103500-5000))/2 = 100_250.
        let coord = CausalGraph::from_node_events(
            0,
            &[
                ev(
                    0,
                    1_000,
                    EventKind::MsgSend {
                        node: 1,
                        opcode: 0x40,
                        root: 9,
                    },
                ),
                ev(
                    1,
                    5_000,
                    EventKind::MsgAck {
                        node: 1,
                        opcode: 0x40,
                        root: 9,
                    },
                ),
            ],
        );
        let part = CausalGraph::from_node_events(
            1,
            &[
                ev(
                    0,
                    103_000,
                    EventKind::MsgRecv {
                        opcode: 0x40,
                        origin: 0,
                        root: 9,
                    },
                ),
                ev(
                    1,
                    103_500,
                    EventKind::MsgReply {
                        opcode: 0x40,
                        origin: 0,
                        root: 9,
                        status: 0,
                    },
                ),
            ],
        );
        let fleet = CausalGraph::merge(vec![coord, part]);
        assert_eq!(fleet.offsets, vec![(0, 0), (1, -100_250)]);
        // After alignment the participant's hops land inside the
        // coordinator's send→ack interval.
        let p = fleet.nodes.iter().find(|g| g.node == 1).unwrap();
        assert_eq!(p.msgs[0].at_ns, 2_750);
        assert_eq!(p.msgs[1].at_ns, 3_250);
        // Both flow legs matched, with causally-ordered endpoints.
        assert_eq!(fleet.flows.len(), 2);
        let req = fleet
            .flows
            .iter()
            .find(|f| f.kind == FlowKind::Request)
            .unwrap();
        assert_eq!((req.from_node, req.to_node), (0, 1));
        assert!(req.from_ns < req.to_ns);
        let resp = fleet
            .flows
            .iter()
            .find(|f| f.kind == FlowKind::Response)
            .unwrap();
        assert_eq!((resp.from_node, resp.to_node), (1, 0));
        assert!(resp.from_ns < resp.to_ns);
    }

    #[test]
    fn merge_without_handshakes_keeps_each_nodes_epoch() {
        let a = CausalGraph::from_node_events(0, &[ev(0, 10, EventKind::TxnBegin { tid: Tid(1) })]);
        let b = CausalGraph::from_node_events(3, &[ev(0, 20, EventKind::TxnBegin { tid: Tid(2) })]);
        let fleet = CausalGraph::merge(vec![a, b]);
        assert_eq!(fleet.offsets, vec![(0, 0), (3, 0)]);
        assert!(fleet.flows.is_empty());
        assert_eq!(fleet.nodes[1].tracks[&Tid(2)].begin_ns, Some(20));
    }

    #[test]
    fn storage_events_go_to_the_storage_lane() {
        let trace = vec![
            ev(
                0,
                50,
                EventKind::LogFlush {
                    bytes: 128,
                    dur_ns: 20,
                },
            ),
            ev(1, 60, EventKind::LatchSpin { spins: 4 }),
        ];
        let g = CausalGraph::from_events(&trace);
        assert!(g.tracks.is_empty());
        assert_eq!(g.storage.len(), 2);
        assert_eq!(g.storage[0].start_ns, 30);
    }
}
