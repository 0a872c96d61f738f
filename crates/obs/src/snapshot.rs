//! The lock-free metrics snapshot.

use crate::counters::CounterSnapshot;
use crate::hist::HistogramSnapshot;

/// A point-in-time copy of every metric an [`Obs`](crate::Obs) maintains.
///
/// Assembled entirely from relaxed atomic loads — taking a snapshot never
/// blocks a recording thread. Totals may be mutually inconsistent by a few
/// in-flight increments under concurrency, never torn.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Every monotonic counter.
    pub counters: CounterSnapshot,
    /// Nanoseconds a blocked lock request spent waiting.
    pub lock_wait_ns: HistogramSnapshot,
    /// Backoff rounds spent acquiring a contended cache latch.
    pub latch_spins: HistogramSnapshot,
    /// Log append latency in nanoseconds (recorded only while tracing is
    /// enabled, to keep the default append path timer-free).
    pub log_append_ns: HistogramSnapshot,
    /// Log flush latency in nanoseconds (same gating as appends).
    pub log_flush_ns: HistogramSnapshot,
    /// Transitive permit-chain length examined per permit check.
    pub permit_chain_len: HistogramSnapshot,
    /// Transactions committed together per group commit.
    pub commit_group_size: HistogramSnapshot,
    /// Undo records rolled back per abort.
    pub undo_records: HistogramSnapshot,
    /// End-to-end `commit` latency in nanoseconds (recorded only while
    /// tracing is enabled, like the log latencies).
    pub commit_ns: HistogramSnapshot,
    /// Commit records coalesced per group-commit flush window.
    pub flush_batch_len: HistogramSnapshot,
    /// Nanoseconds a prepared distributed-commit group spent in doubt
    /// on this participant (prepare-force → decision applied, §14.2).
    pub in_doubt_ns: HistogramSnapshot,
    /// Coordinator decision latency in nanoseconds (first `Prepare` sent
    /// → decision durable).
    pub decision_ns: HistogramSnapshot,
    /// Events dropped by the ring recorder on slot contention.
    pub events_dropped: u64,
    /// Whether the event recorder was enabled when the snapshot was taken.
    pub tracing_enabled: bool,
}

impl MetricsSnapshot {
    /// An all-zero snapshot with the same shape `Obs::new().snapshot()`
    /// produces — the starting point for the wire decoder.
    pub fn empty() -> MetricsSnapshot {
        use crate::hist::{LATENCY_NS_BOUNDS, SMALL_COUNT_BOUNDS};
        MetricsSnapshot {
            counters: CounterSnapshot::default(),
            lock_wait_ns: HistogramSnapshot::empty(LATENCY_NS_BOUNDS),
            latch_spins: HistogramSnapshot::empty(SMALL_COUNT_BOUNDS),
            log_append_ns: HistogramSnapshot::empty(LATENCY_NS_BOUNDS),
            log_flush_ns: HistogramSnapshot::empty(LATENCY_NS_BOUNDS),
            permit_chain_len: HistogramSnapshot::empty(SMALL_COUNT_BOUNDS),
            commit_group_size: HistogramSnapshot::empty(SMALL_COUNT_BOUNDS),
            undo_records: HistogramSnapshot::empty(SMALL_COUNT_BOUNDS),
            commit_ns: HistogramSnapshot::empty(LATENCY_NS_BOUNDS),
            flush_batch_len: HistogramSnapshot::empty(SMALL_COUNT_BOUNDS),
            in_doubt_ns: HistogramSnapshot::empty(LATENCY_NS_BOUNDS),
            decision_ns: HistogramSnapshot::empty(LATENCY_NS_BOUNDS),
            events_dropped: 0,
            tracing_enabled: false,
        }
    }

    /// Mutable access to the histogram named `name` (the inverse of
    /// [`histograms`](Self::histograms), used by the wire decoder).
    /// `None` for unknown names, which decoders skip, not fail.
    pub fn histogram_mut(&mut self, name: &str) -> Option<&mut HistogramSnapshot> {
        Some(match name {
            "lock_wait_ns" => &mut self.lock_wait_ns,
            "latch_spins" => &mut self.latch_spins,
            "log_append_ns" => &mut self.log_append_ns,
            "log_flush_ns" => &mut self.log_flush_ns,
            "permit_chain_len" => &mut self.permit_chain_len,
            "commit_group_size" => &mut self.commit_group_size,
            "undo_records" => &mut self.undo_records,
            "commit_ns" => &mut self.commit_ns,
            "flush_batch_len" => &mut self.flush_batch_len,
            "in_doubt_ns" => &mut self.in_doubt_ns,
            "decision_ns" => &mut self.decision_ns,
            _ => return None,
        })
    }

    /// Every histogram as a `(name, snapshot)` pair, in declaration order —
    /// the registry exporters iterate (mirrors
    /// [`CounterSnapshot::for_each`]).
    pub fn histograms(&self) -> [(&'static str, &HistogramSnapshot); 11] {
        [
            ("lock_wait_ns", &self.lock_wait_ns),
            ("latch_spins", &self.latch_spins),
            ("log_append_ns", &self.log_append_ns),
            ("log_flush_ns", &self.log_flush_ns),
            ("permit_chain_len", &self.permit_chain_len),
            ("commit_group_size", &self.commit_group_size),
            ("undo_records", &self.undo_records),
            ("commit_ns", &self.commit_ns),
            ("flush_batch_len", &self.flush_batch_len),
            ("in_doubt_ns", &self.in_doubt_ns),
            ("decision_ns", &self.decision_ns),
        ]
    }

    /// The change between `self` (taken later) and `earlier`: counters and
    /// histograms are subtracted field-by-field (saturating), so an
    /// experiment can report exactly what one run contributed without
    /// ad-hoc subtraction at every call site. `tracing_enabled` keeps the
    /// later value; histogram `max` fields keep the later (whole-run)
    /// maximum.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.delta(&earlier.counters),
            lock_wait_ns: self.lock_wait_ns.delta(&earlier.lock_wait_ns),
            latch_spins: self.latch_spins.delta(&earlier.latch_spins),
            log_append_ns: self.log_append_ns.delta(&earlier.log_append_ns),
            log_flush_ns: self.log_flush_ns.delta(&earlier.log_flush_ns),
            permit_chain_len: self.permit_chain_len.delta(&earlier.permit_chain_len),
            commit_group_size: self.commit_group_size.delta(&earlier.commit_group_size),
            undo_records: self.undo_records.delta(&earlier.undo_records),
            commit_ns: self.commit_ns.delta(&earlier.commit_ns),
            flush_batch_len: self.flush_batch_len.delta(&earlier.flush_batch_len),
            in_doubt_ns: self.in_doubt_ns.delta(&earlier.in_doubt_ns),
            decision_ns: self.decision_ns.delta(&earlier.decision_ns),
            events_dropped: self.events_dropped.saturating_sub(earlier.events_dropped),
            tracing_enabled: self.tracing_enabled,
        }
    }
}
