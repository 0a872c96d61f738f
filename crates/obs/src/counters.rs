//! Monotonic event counters.
//!
//! A [`Counters`] is a flat struct of relaxed [`AtomicU64`]s — one per
//! countable event in the system. Incrementing one is a single relaxed
//! `fetch_add`: safe on any hot path, including inside a lock-stripe
//! critical section (no lock is taken, no allocation happens).

use std::sync::atomic::{AtomicU64, Ordering};

/// Increment `c` by one (relaxed).
#[inline]
pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Increment `c` by `n` (relaxed).
#[inline]
pub fn add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

macro_rules! define_counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Every monotonic counter the system maintains.
        ///
        /// Fields are public so instrumentation sites can increment them
        /// directly via [`bump`]/[`add`] without a method call per counter.
        #[derive(Default, Debug)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of every counter (relaxed loads; totals may
        /// be mutually inconsistent by a few in-flight increments under
        /// concurrency, never torn).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            /// Snapshot every counter with relaxed loads (lock-free).
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl CounterSnapshot {
            /// Per-counter change between `self` (taken later) and
            /// `earlier` (saturating, in case the snapshots raced
            /// in-flight increments).
            pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }

            /// Visit every counter as a `(name, value)` pair, in
            /// declaration order — the single registry exporters iterate
            /// so a new counter can never be silently missing from one.
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $(f(stringify!($name), self.$name);)*
            }

            /// Set the counter named `name` (the inverse of
            /// [`for_each`](Self::for_each), used by the wire decoder).
            /// Returns `false` for an unknown name — a peer speaking a
            /// newer snapshot revision — which callers skip, not fail.
            pub fn set(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($name) => {
                        self.$name = value;
                        true
                    })*
                    _ => false,
                }
            }
        }
    };
}

define_counters! {
    /// Transactions created via `initiate` (paper §2).
    txn_initiated,
    /// Transactions started via `begin`.
    txn_begun,
    /// Transaction threads spawned because `begin` found none free (a
    /// body run by a caller of `run`, `wait` or `commit` spawns none).
    txn_threads_spawned,
    /// Transaction threads that exited: free beyond the retained bound,
    /// or their database gone. Spawned minus exited is the live count.
    txn_threads_exited,
    /// Transactions committed (each member of a group commit counts once).
    txn_committed,
    /// Transactions aborted.
    txn_aborted,
    /// Commit attempts whose group commit record failed to append — the
    /// ambiguous outcome (the record may or may not be durable) that the
    /// commit path resolves by driving the group through abort.
    commit_log_failures,
    /// Lock requests that blocked at least once before being granted or
    /// failing.
    lock_waits,
    /// Lock requests granted.
    lock_grants,
    /// Waits-for-graph cycle searches performed by blocked requesters
    /// (the paper's deadlock check on suspension).
    deadlock_sweeps,
    /// Deadlocks detected (requests aborted as victims).
    deadlocks,
    /// Permit-table consultations during lock conflict resolution (§4.2).
    permit_checks,
    /// `delegate` calls that moved at least the responsibility record.
    delegations,
    /// Objects whose lock responsibility moved in a delegation.
    delegated_objects,
    /// CD/AD/GC edges added to the dependency graph via `form_dependency`.
    dep_edges_formed,
    /// CD/AD edges dropped when their transactions terminated.
    dep_edges_resolved,
    /// Shared-cache lookups that found the object resident.
    cache_hits,
    /// Shared-cache lookups that faulted the object in from the store.
    cache_misses,
    /// Latch acquisitions (S or X) in the shared cache.
    latch_acquires,
    /// Latch acquisitions that had to spin at least once.
    latch_contended,
    /// Log records appended.
    log_appends,
    /// Log drains to the OS / stable storage (watermark, force, or flush).
    log_flushes,
    /// Buffered appends that coalesced (stayed in user space; no write
    /// syscall issued).
    log_coalesced,
    /// Log drains nobody waited for (flush watermark, drop of the manager)
    /// that failed: the bytes stayed buffered for the next force or flush
    /// to retry and report. Nonzero means the log file is refusing writes.
    log_drain_failures,
    /// Flush windows the group-commit flusher made durable (each covers
    /// one or more commit records under a single forced sync).
    flush_windows,
    /// Of `flush_windows`, those run by their committer on its own thread
    /// (a blocking commit that found the flusher idle); the rest were the
    /// flusher thread's.
    flush_windows_led,
    /// State-machine steps executed by the transaction executor's worker
    /// pool.
    exec_steps,
    /// Executor transactions parked on a lock, dependency, or flush wait.
    exec_parks,
    /// Executor transactions re-enqueued onto a run queue after a wakeup.
    exec_requeues,
    /// Events accepted by the ring-buffer recorder.
    events_recorded,
    /// Network connections accepted by `asset-server`.
    server_connections,
    /// Wire requests decoded and dispatched by `asset-server` sessions.
    server_requests,
    /// Wire frames rejected as malformed (bad version, opcode, or body).
    server_protocol_errors,
    /// Transactions begun over the wire (`BEGIN` requests that admitted
    /// a session transaction).
    session_txns,
    /// Session drains (disconnect, shutdown, failed prepare) that found
    /// a transaction in the `CommitAmbiguous` state: its commit record
    /// may or may not be durable (§13.4). Nonzero means an operator or
    /// recovery pass must resolve the fate from the log.
    session_drain_ambiguous,
    /// Compensating deletes of a failed MINT's already-committed chunks
    /// that themselves failed, leaving funded orphan objects behind.
    /// Nonzero means a conservation audit needs a manual sweep.
    mint_rollback_failures,
    /// `PREPARE` (`0x40`) messages sent by a coordinator through its
    /// transport (DESIGN.md §14.1).
    coord_msg_prepare,
    /// `PREPARED` state queries (`0x41`) sent by a coordinator.
    coord_msg_prepared,
    /// `COMMIT_DECIDE` (`0x42`) messages sent by a coordinator.
    coord_msg_commit_decide,
    /// `ABORT_DECIDE` (`0x43`) messages sent by a coordinator.
    coord_msg_abort_decide,
    /// Wire frames received that carried a propagated trace context
    /// (version `0x02` frames, DESIGN.md §13.1).
    server_traced_frames,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_add_show_up_in_snapshot() {
        let c = Counters::default();
        bump(&c.txn_initiated);
        bump(&c.txn_initiated);
        add(&c.delegated_objects, 7);
        let s = c.snapshot();
        assert_eq!(s.txn_initiated, 2);
        assert_eq!(s.delegated_objects, 7);
        assert_eq!(s.txn_committed, 0);
    }

    #[test]
    fn delta_subtracts_per_counter() {
        let c = Counters::default();
        bump(&c.lock_grants);
        let earlier = c.snapshot();
        bump(&c.lock_grants);
        add(&c.log_appends, 3);
        let d = c.snapshot().delta(&earlier);
        assert_eq!(d.lock_grants, 1);
        assert_eq!(d.log_appends, 3);
        assert_eq!(d.txn_initiated, 0);
    }

    #[test]
    fn for_each_visits_every_counter_once() {
        let c = Counters::default();
        bump(&c.cache_hits);
        let mut names = Vec::new();
        let mut total = 0;
        c.snapshot().for_each(|name, v| {
            names.push(name);
            total += v;
        });
        assert!(names.contains(&"cache_hits"));
        assert!(names.contains(&"events_recorded"));
        assert_eq!(total, 1);
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}
