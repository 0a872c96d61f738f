//! Structured events and the ring-buffer recorder.
//!
//! The recorder is a fixed-capacity ring: recording takes a ticket with one
//! `fetch_add` and writes the slot under a **`try_lock`** — a single CAS
//! that never spins or blocks. If the slot is momentarily held (a writer a
//! full lap ahead, or a reader draining the trace), the event is dropped
//! and counted instead of waiting. That makes recording safe on every hot
//! path, including while a lock-table stripe mutex is held. Once the ring
//! wraps, new events overwrite the oldest — a trace always holds the most
//! recent `capacity` events.

use asset_common::{DepType, Oid, Tid};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Default ring capacity when [`EventRecorder::enable`] is given 0.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The extended-transaction model responsible for an event (paper §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// `trans { ... }` (§3.1.1).
    Atomic,
    /// Distributed transaction with group commit (§3.1.2).
    Distributed,
    /// Contingent alternatives (§3.1.3).
    Contingent,
    /// Nested transactions (§3.1.4).
    Nested,
    /// Split/join (§3.1.5).
    Split,
    /// Sagas with compensation (§3.1.6).
    Saga,
    /// Cooperating transactions (§3.2.1).
    Coop,
    /// Cursor stability (§3.2.2).
    Cursor,
    /// Workflow / long-running activities (§3.2.3).
    Workflow,
    /// Multi-level transactions (open nesting with semantic locks).
    Mlt,
}

/// Identifies a named sub-span on a transaction's track, bracketed by
/// [`EventKind::SpanOpen`]/[`EventKind::SpanClose`] pairs.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub enum SpanName {
    /// The commit gate: group collection, re-validation under the group
    /// lock, and the forced commit record (paper §4.1).
    CommitGate,
    /// Rollback: walking the undo chain and restoring before-images.
    Rollback,
    /// A network session transaction: opened when a wire `BEGIN` maps a
    /// connection onto a transaction, closed when that transaction
    /// reaches a terminal state (DESIGN.md §13).
    Session,
}

impl SpanName {
    /// A stable lowercase label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::CommitGate => "commit-gate",
            SpanName::Rollback => "rollback",
            SpanName::Session => "session",
        }
    }
}

/// What happened. Every variant is `Copy` (labels are `&'static str`) so
/// recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// `initiate` created a transaction (paper §2).
    TxnInitiate {
        /// The new transaction.
        tid: Tid,
        /// Its initiator (`Tid::NULL` for top-level).
        parent: Tid,
    },
    /// `begin` started a transaction's execution.
    TxnBegin {
        /// The started transaction.
        tid: Tid,
    },
    /// A transaction (and its GC group) committed.
    TxnCommit {
        /// The transaction whose commit call succeeded.
        tid: Tid,
        /// Size of the group committed together (1 when ungrouped).
        group: u32,
    },
    /// A transaction aborted and rolled back.
    TxnAbort {
        /// The aborted transaction.
        tid: Tid,
        /// Undo records installed during rollback.
        undo_records: u32,
    },
    /// A transaction's body finished executing (before terminal processing).
    TxnComplete {
        /// The finished transaction.
        tid: Tid,
        /// Whether the body returned `Ok`.
        ok: bool,
    },
    /// A lock request blocked and was eventually granted or failed.
    LockWait {
        /// The waiting transaction.
        tid: Tid,
        /// The contended object.
        ob: Oid,
        /// Lock-table stripe the object hashed to.
        stripe: u32,
        /// Nanoseconds from first block to grant/failure.
        wait_ns: u64,
        /// Pending queue depth observed when the request first blocked.
        queue_depth: u32,
    },
    /// `delegate` moved lock responsibility (paper §2, §4.2).
    Delegate {
        /// The delegator.
        from: Tid,
        /// The delegatee.
        to: Tid,
        /// Objects whose responsibility moved.
        objects: u32,
    },
    /// `form_dependency` added an edge (paper §2, §4.1).
    DepFormed {
        /// CD, AD, or GC.
        kind: DepType,
        /// The `ti` argument.
        ti: Tid,
        /// The `tj` argument.
        tj: Tid,
    },
    /// `permit` registered a permit descriptor (paper §2, §4.2).
    PermitGrant {
        /// The transaction granting the permit.
        grantor: Tid,
        /// The permitted transaction (`Tid::NULL` for an any-transaction
        /// wildcard permit).
        grantee: Tid,
        /// Objects in the permit's scope (0 when the scope is "all").
        objects: u32,
    },
    /// A lock conflict was let through by the permit table — the causal
    /// moment a permit (or a transitive chain of permits) actually took
    /// effect (§4.2).
    PermitThrough {
        /// The holder whose conflicting lock was overridden.
        holder: Tid,
        /// The requester admitted past the conflict.
        requester: Tid,
        /// The contended object.
        ob: Oid,
        /// Permit-chain hops the check walked (1 = a direct permit).
        chain: u32,
    },
    /// A named sub-span opened on a transaction's track. Pairs with the
    /// next [`SpanClose`](EventKind::SpanClose) carrying the same `tid` and
    /// `span`.
    SpanOpen {
        /// The transaction whose track the span belongs to.
        tid: Tid,
        /// Which sub-span.
        span: SpanName,
    },
    /// The matching close for a [`SpanOpen`](EventKind::SpanOpen).
    SpanClose {
        /// The transaction whose track the span belongs to.
        tid: Tid,
        /// Which sub-span.
        span: SpanName,
    },
    /// The log drained buffered records to the OS / stable storage.
    LogFlush {
        /// Bytes handed to the OS by this drain: the block it sealed.
        bytes: u64,
        /// Nanoseconds the drain took.
        dur_ns: u64,
    },
    /// The group-commit flusher made the log durable through its tail in
    /// one flush window: every commit waiting on it shares this single
    /// write+sync.
    FlushWindow {
        /// Monotonic window number (per flusher).
        window: u64,
        /// Commits (waiters) the window acknowledged.
        records: u32,
        /// The window's occupancy: the bytes its one write carried — the
        /// sealed block of everything appended since the last drain (zero
        /// if a watermark drain carried it first).
        bytes: u64,
        /// Nanoseconds from the window's start to sync completion.
        dur_ns: u64,
    },
    /// A transaction's commit became durable in a flush window — the
    /// causal hand-off from the committer's track onto the shared flush
    /// lane.
    CommitFlushed {
        /// The committed transaction.
        tid: Tid,
        /// The window (matching [`FlushWindow`](EventKind::FlushWindow))
        /// that carried its commit record.
        window: u64,
    },
    /// An executor-driven transaction parked (left a worker) pending a
    /// wakeup.
    ExecPark {
        /// The parked transaction.
        tid: Tid,
        /// Why it parked: `"lock"`, `"dep"`, `"flush"`, or `"external"`
        /// (an interactive program awaiting its next request).
        reason: &'static str,
    },
    /// A cache-latch acquisition had to spin before succeeding.
    LatchSpin {
        /// Backoff rounds spent before the latch was acquired.
        spins: u32,
    },
    /// A blocked requester searched the waits-for graph for a cycle.
    DeadlockSweep {
        /// The transaction on whose behalf the sweep ran.
        tid: Tid,
        /// Whether a cycle through `tid` was found.
        cycle: bool,
    },
    /// A model-layer milestone, tagging the extended-transaction model in
    /// play (paper §3).
    Model {
        /// The model.
        model: ModelKind,
        /// The transaction involved (`Tid::NULL` when not yet assigned).
        tid: Tid,
        /// A static milestone label (e.g. `"step"`, `"compensate"`).
        label: &'static str,
    },
    /// This node sent a wire request (client→server frame or coordinator
    /// opcode) to a peer, stamped with the propagated trace context
    /// (DESIGN.md §7.2). Pairs with the peer's
    /// [`MsgRecv`](EventKind::MsgRecv) carrying the same `(root, opcode)`
    /// and, on the reply path, with this node's own
    /// [`MsgAck`](EventKind::MsgAck).
    MsgSend {
        /// The destination node id.
        node: u32,
        /// Wire opcode of the request (§13.3).
        opcode: u8,
        /// Root span id of the trace context (the gid for coordinator
        /// opcodes).
        root: u64,
    },
    /// The reply to an earlier [`MsgSend`](EventKind::MsgSend) arrived
    /// back on the sending node.
    MsgAck {
        /// The node that answered.
        node: u32,
        /// Wire opcode of the request being acknowledged.
        opcode: u8,
        /// Root span id of the trace context.
        root: u64,
    },
    /// This node received a wire request carrying a trace context.
    MsgRecv {
        /// Wire opcode of the request (§13.3).
        opcode: u8,
        /// Origin node id from the propagated trace context.
        origin: u32,
        /// Root span id from the propagated trace context.
        root: u64,
    },
    /// This node finished serving a traced wire request and is replying.
    MsgReply {
        /// Wire opcode of the request being answered.
        opcode: u8,
        /// Origin node id from the propagated trace context.
        origin: u32,
        /// Root span id from the propagated trace context.
        root: u64,
        /// Wire status byte of the reply (§13.3).
        status: u8,
    },
    /// A `Prepared` record for a distributed-commit group became durable
    /// on this participant (DESIGN.md §14.2) — the in-doubt window opens
    /// here and closes at [`DecideApplied`](EventKind::DecideApplied).
    PrepareForced {
        /// Lowest member tid of the prepared group.
        tid: Tid,
        /// Size of the prepared group.
        group: u32,
    },
    /// The coordinator's decision reached this participant and was
    /// applied, closing the in-doubt window that
    /// [`PrepareForced`](EventKind::PrepareForced) opened.
    DecideApplied {
        /// Lowest member tid of the resolved group.
        tid: Tid,
        /// `true` for a commit decision, `false` for abort.
        commit: bool,
        /// Size of the resolved group.
        group: u32,
    },
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (ring ticket; gaps mean dropped events).
    pub seq: u64,
    /// Nanoseconds since the owning `Obs` was created.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:08} +{}ns {:?}", self.seq, self.at_ns, self.kind)
    }
}

struct Ring {
    slots: Box<[Mutex<Option<Event>>]>,
    mask: usize,
    head: AtomicU64,
}

/// The ring-buffer event recorder. Disabled by default: a disabled recorder
/// costs one relaxed atomic load per [`record`](Self::record) call.
#[derive(Default)]
pub struct EventRecorder {
    enabled: AtomicBool,
    ring: RwLock<Option<Ring>>,
    dropped: AtomicU64,
}

impl EventRecorder {
    /// A disabled recorder with no ring allocated.
    pub fn new() -> EventRecorder {
        EventRecorder::default()
    }

    /// Allocate a ring of at least `capacity` slots (rounded up to a power
    /// of two, minimum 8; 0 means [`DEFAULT_TRACE_CAPACITY`]) and start
    /// recording. Re-enabling replaces the ring and restarts sequencing.
    pub fn enable(&self, capacity: usize) {
        let cap = if capacity == 0 {
            DEFAULT_TRACE_CAPACITY
        } else {
            capacity.max(8).next_power_of_two()
        };
        let slots = (0..cap)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let ring = Ring {
            slots,
            mask: cap - 1,
            head: AtomicU64::new(0),
        };
        let mut guard = self.ring.write().unwrap_or_else(|e| e.into_inner());
        *guard = Some(ring);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording. The ring is kept so [`drain`](Self::drain) can still
    /// read the trace.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Is the recorder currently accepting events?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Ring capacity, if a ring has been allocated.
    pub fn capacity(&self) -> Option<usize> {
        let guard = self.ring.read().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().map(|r| r.slots.len())
    }

    /// Events dropped because a slot was momentarily contended.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record an event. Never blocks: the slot is claimed with `try_lock`
    /// and the event is dropped (and counted) on contention. Returns
    /// whether the event was stored.
    pub fn record(&self, at_ns: u64, kind: EventKind) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let Ok(guard) = self.ring.try_read() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let Some(ring) = guard.as_ref() else {
            return false;
        };
        let seq = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[seq as usize & ring.mask];
        let stored = match slot.try_lock() {
            Ok(mut s) => {
                *s = Some(Event { seq, at_ns, kind });
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        stored
    }

    /// Copy out the surviving events, oldest first. (Events recorded while
    /// the drain holds a slot are dropped, not delayed.)
    pub fn drain(&self) -> Vec<Event> {
        let guard = self.ring.read().unwrap_or_else(|e| e.into_inner());
        let Some(ring) = guard.as_ref() else {
            return Vec::new();
        };
        let mut out: Vec<Event> = ring
            .slots
            .iter()
            .filter_map(|s| *s.lock().unwrap_or_else(|e| e.into_inner()))
            .collect();
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u64) -> EventKind {
        EventKind::TxnBegin { tid: Tid(tid) }
    }

    #[test]
    fn disabled_recorder_accepts_nothing() {
        let r = EventRecorder::new();
        assert!(!r.record(1, ev(1)));
        assert!(r.drain().is_empty());
        assert_eq!(r.capacity(), None);
    }

    #[test]
    fn records_in_order_until_capacity() {
        let r = EventRecorder::new();
        r.enable(8);
        for i in 0..5 {
            assert!(r.record(i, ev(i)));
        }
        let t = r.drain();
        assert_eq!(t.len(), 5);
        assert_eq!(
            t.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn wraparound_keeps_the_most_recent_capacity_events() {
        let r = EventRecorder::new();
        r.enable(8);
        for i in 0..20 {
            assert!(r.record(i, ev(i)));
        }
        let t = r.drain();
        assert_eq!(t.len(), 8, "ring holds exactly capacity");
        let seqs: Vec<u64> = t.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "oldest overwritten");
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let r = EventRecorder::new();
        r.enable(100);
        assert_eq!(r.capacity(), Some(128));
        let r2 = EventRecorder::new();
        r2.enable(0);
        assert_eq!(r2.capacity(), Some(DEFAULT_TRACE_CAPACITY));
    }

    #[test]
    fn disable_keeps_trace_readable() {
        let r = EventRecorder::new();
        r.enable(8);
        r.record(1, ev(1));
        r.disable();
        assert!(!r.record(2, ev(2)));
        assert_eq!(r.drain().len(), 1);
    }

    #[test]
    fn concurrent_writers_account_for_every_ticket() {
        let r = std::sync::Arc::new(EventRecorder::new());
        r.enable(1024);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        r.record(i, ev(w * 10_000 + i));
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let trace = r.drain();
        assert!(trace.len() <= 1024);
        // every surviving slot holds a distinct ticket from the final laps
        let mut seqs: Vec<u64> = trace.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), trace.len());
        assert!(seqs.iter().all(|s| *s < 8000));
        // the ring saw all 8000 tickets: the newest survivor is from the end
        assert!(seqs.last().copied().unwrap_or(0) >= 8000u64.saturating_sub(1024 + r.dropped()));
    }
}
