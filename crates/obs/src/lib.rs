//! # asset-obs
//!
//! Observability for the ASSET workspace: monotonic [`Counters`], fixed-
//! boundary [`AtomicHistogram`]s, and a ring-buffer [`EventRecorder`] for
//! structured transaction-lifecycle traces — with no dependencies beyond
//! `asset-common`.
//!
//! The paper's §4 implementation notes hinge on behavior that is invisible
//! from the outside: latch spins, lock-wait queues, permit-check chains,
//! delegation transfers, log flushes. One [`Obs`] instance per database (or
//! per standalone lock table / storage engine) makes those observable:
//!
//! * **Counters** are always on — each is a single relaxed `fetch_add`.
//! * **Histograms** are always on for slow paths (lock waits, latch spins)
//!   and gated on [`Obs::tracing_enabled`] where timing itself would cost
//!   (log append latency).
//! * **Events** go to a ring buffer that is off by default; a disabled
//!   recorder costs one relaxed load per call site.
//!
//! The cardinal rule, enforced by construction: **recording never blocks a
//! hot path.** Counters and histograms are plain atomics; the event ring
//! claims its slot with a `try_lock` (one CAS) and drops the event rather
//! than wait. It is therefore safe to record while holding a lock-table
//! stripe mutex or a cache latch.
//!
//! ```
//! use asset_obs::{Obs, EventKind};
//! use asset_common::Tid;
//!
//! let obs = Obs::new();
//! obs.enable_tracing(1024);
//! obs.record(EventKind::TxnBegin { tid: Tid(7) });
//! let snap = obs.snapshot();
//! assert_eq!(snap.counters.events_recorded, 1);
//! assert_eq!(obs.trace().len(), 1);
//! ```

#![warn(missing_docs)]

mod counters;
mod event;
mod hist;
mod snapshot;
pub mod wire;

pub use counters::{add, bump, CounterSnapshot, Counters};
pub use event::{Event, EventKind, EventRecorder, ModelKind, SpanName, DEFAULT_TRACE_CAPACITY};
pub use hist::{AtomicHistogram, HistogramSnapshot, LATENCY_NS_BOUNDS, SMALL_COUNT_BOUNDS};
pub use snapshot::MetricsSnapshot;

use asset_common::codec::{CodecError, Reader};
use std::sync::Arc;
use std::time::Instant;

/// The compact cross-node trace context propagated on wire frames and
/// coordinator messages (DESIGN.md §7.2, §13.1): which node originated
/// the distributed operation and which root span (the gid, for
/// distributed commit) it belongs to. Twelve bytes on the wire, `Copy`
/// in memory — cheap enough to stamp on every message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Originating node id (coordinator or client-assigned).
    pub origin: u32,
    /// Root span id tying every hop of the operation together.
    pub root: u64,
}

impl TraceCtx {
    /// Encoded size on the wire.
    pub const WIRE_LEN: usize = 12;

    /// The wire encoding: `origin` then `root`, little-endian.
    pub fn to_bytes(self) -> [u8; Self::WIRE_LEN] {
        let mut b = [0u8; Self::WIRE_LEN];
        b[..4].copy_from_slice(&self.origin.to_le_bytes());
        b[4..].copy_from_slice(&self.root.to_le_bytes());
        b
    }

    /// Read a wire trace context, the inverse of [`to_bytes`](Self::to_bytes).
    pub fn read(r: &mut Reader<'_>) -> Result<TraceCtx, CodecError> {
        Ok(TraceCtx {
            origin: r.u32()?,
            root: r.u64()?,
        })
    }
}

/// The observability hub: one per database (or per standalone component).
///
/// Shared as an `Arc<Obs>` by every layer of the stack; all members are
/// individually thread-safe, so no lock guards the hub itself.
pub struct Obs {
    /// Monotonic event counters (always on).
    pub counters: Counters,
    /// Nanoseconds a blocked lock request spent waiting.
    pub lock_wait_ns: AtomicHistogram,
    /// Backoff rounds spent acquiring a contended cache latch.
    pub latch_spins: AtomicHistogram,
    /// Log append latency (recorded only while tracing is enabled).
    pub log_append_ns: AtomicHistogram,
    /// Log flush latency (same gating).
    pub log_flush_ns: AtomicHistogram,
    /// Transitive permit-chain length examined per permit check.
    pub permit_chain_len: AtomicHistogram,
    /// Transactions committed together per group commit.
    pub commit_group_size: AtomicHistogram,
    /// Undo records rolled back per abort.
    pub undo_records: AtomicHistogram,
    /// End-to-end `commit` latency (recorded only while tracing is
    /// enabled).
    pub commit_ns: AtomicHistogram,
    /// Waiters (commits, prepares) acknowledged per group-commit flush
    /// window.
    pub flush_batch_len: AtomicHistogram,
    /// Nanoseconds a prepared distributed-commit group spent in doubt on
    /// this participant: from the forced `Prepared` record to the
    /// coordinator's decision being applied (DESIGN.md §14.2).
    pub in_doubt_ns: AtomicHistogram,
    /// Coordinator-side decision latency in nanoseconds: from the first
    /// `Prepare` sent to the decision becoming durable (log force or
    /// acceptor quorum).
    pub decision_ns: AtomicHistogram,
    recorder: EventRecorder,
    epoch: Instant,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// A fresh hub with all counters zero and the event recorder disabled.
    pub fn new() -> Obs {
        Obs {
            counters: Counters::default(),
            lock_wait_ns: AtomicHistogram::new(LATENCY_NS_BOUNDS),
            latch_spins: AtomicHistogram::new(SMALL_COUNT_BOUNDS),
            log_append_ns: AtomicHistogram::new(LATENCY_NS_BOUNDS),
            log_flush_ns: AtomicHistogram::new(LATENCY_NS_BOUNDS),
            permit_chain_len: AtomicHistogram::new(SMALL_COUNT_BOUNDS),
            commit_group_size: AtomicHistogram::new(SMALL_COUNT_BOUNDS),
            undo_records: AtomicHistogram::new(SMALL_COUNT_BOUNDS),
            commit_ns: AtomicHistogram::new(LATENCY_NS_BOUNDS),
            flush_batch_len: AtomicHistogram::new(SMALL_COUNT_BOUNDS),
            in_doubt_ns: AtomicHistogram::new(LATENCY_NS_BOUNDS),
            decision_ns: AtomicHistogram::new(LATENCY_NS_BOUNDS),
            recorder: EventRecorder::new(),
            epoch: Instant::now(),
        }
    }

    /// A fresh hub already wrapped in an [`Arc`] for sharing.
    pub fn shared() -> Arc<Obs> {
        Arc::new(Obs::new())
    }

    /// Nanoseconds since this hub was created (the timebase of every
    /// recorded event).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` on this hub's timebase, in nanoseconds.
    #[inline]
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Is the event recorder (and gated latency timing) on?
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Allocate the event ring (`capacity` slots, rounded up to a power of
    /// two; 0 means [`DEFAULT_TRACE_CAPACITY`]) and start recording events
    /// and gated latencies.
    pub fn enable_tracing(&self, capacity: usize) {
        self.recorder.enable(capacity);
    }

    /// Stop recording events. The captured trace stays readable.
    pub fn disable_tracing(&self) {
        self.recorder.disable();
    }

    /// Record a structured event, stamped with [`now_ns`](Self::now_ns).
    /// A no-op (one relaxed load) while tracing is disabled.
    pub fn record(&self, kind: EventKind) {
        if self.recorder.is_enabled() {
            self.record_at(Instant::now(), kind);
        }
    }

    /// [`record`](Self::record) stamped with `at` instead of a clock read
    /// of its own: an event that carries a duration ending at `at` then
    /// spans exactly `[at_ns − duration, at_ns]`.
    pub fn record_at(&self, at: Instant, kind: EventKind) {
        if !self.recorder.is_enabled() {
            return;
        }
        if self.recorder.record(self.ns_at(at), kind) {
            bump(&self.counters.events_recorded);
        }
    }

    /// The captured event trace, oldest surviving event first.
    pub fn trace(&self) -> Vec<Event> {
        self.recorder.drain()
    }

    /// Write the trace, one event per line, to `w`. Returns the number of
    /// events written.
    pub fn write_trace<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<usize> {
        let events = self.trace();
        for e in &events {
            writeln!(w, "{e}")?;
        }
        Ok(events.len())
    }

    /// A lock-free point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.snapshot(),
            lock_wait_ns: self.lock_wait_ns.snapshot(),
            latch_spins: self.latch_spins.snapshot(),
            log_append_ns: self.log_append_ns.snapshot(),
            log_flush_ns: self.log_flush_ns.snapshot(),
            permit_chain_len: self.permit_chain_len.snapshot(),
            commit_group_size: self.commit_group_size.snapshot(),
            undo_records: self.undo_records.snapshot(),
            commit_ns: self.commit_ns.snapshot(),
            flush_batch_len: self.flush_batch_len.snapshot(),
            in_doubt_ns: self.in_doubt_ns.snapshot(),
            decision_ns: self.decision_ns.snapshot(),
            events_dropped: self.recorder.dropped(),
            tracing_enabled: self.recorder.is_enabled(),
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("tracing_enabled", &self.tracing_enabled())
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Tid;

    #[test]
    fn disabled_recorder_records_nothing() {
        let obs = Obs::new();
        obs.record(EventKind::TxnBegin { tid: Tid(1) });
        assert_eq!(obs.snapshot().counters.events_recorded, 0);
        assert!(obs.trace().is_empty());
    }

    #[test]
    fn enabled_recorder_captures_and_counts() {
        let obs = Obs::new();
        obs.enable_tracing(16);
        obs.record(EventKind::TxnBegin { tid: Tid(1) });
        obs.record(EventKind::TxnCommit {
            tid: Tid(1),
            group: 1,
        });
        let snap = obs.snapshot();
        assert_eq!(snap.counters.events_recorded, 2);
        assert!(snap.tracing_enabled);
        let trace = obs.trace();
        assert_eq!(trace.len(), 2);
        assert!(trace[0].at_ns <= trace[1].at_ns);
    }

    #[test]
    fn write_trace_emits_one_line_per_event() {
        let obs = Obs::new();
        obs.enable_tracing(16);
        obs.record(EventKind::DeadlockSweep {
            tid: Tid(3),
            cycle: false,
        });
        let mut buf = Vec::new();
        let n = obs.write_trace(&mut buf).unwrap();
        assert_eq!(n, 1);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("DeadlockSweep"));
        assert_eq!(text.lines().count(), 1);
    }
}
