//! E9b — the lock table's stripe count, the one parameter of the §4.1
//! structures that every `asset-benchmark` workload leaves at its default.

use super::Scale;
use crate::table::{fmt_duration, fmt_rate, Table};
use asset_common::{Oid, Operation, Tid};
use asset_lock::LockTable;
use asset_obs::{Event, Obs};
use std::sync::Arc;
use std::time::Duration;

/// E9b — lock-table stripes, two questions in one table. Locks go through
/// the list-taking pair asset-core uses (`acquire`, then `release` of the
/// thread's list). **Disjoint sweep:** threads on disjoint object ranges
/// acquire 64 write locks then release them, at one stripe (every
/// acquisition on one mutex) and at the resolved default — what striping
/// buys, or on a one-core box what it costs. **Hot set:** 16 threads
/// hammer 4 objects through an
/// observability-enabled 8-stripe table, and `stripe_stats()` shows
/// *where* the waiting happened (waits, mean/max wait, queue depth peak
/// per stripe).
pub fn e9b_stripe_contention(scale: Scale) -> Table {
    e9b_stripe_contention_traced(scale).0
}

/// [`e9b_stripe_contention`] plus the hot-set run's captured event trace,
/// so the harness binary can write the trace next to the experiment output.
pub fn e9b_stripe_contention_traced(scale: Scale) -> (Table, Vec<Event>) {
    let mut table = Table::new(
        "E9b: lock-table stripes",
        "disjoint acquire/release at 1 stripe vs the default; then 16 threads over a 4-object hot set on an obs-enabled 8-stripe table: where the waiting happens",
    )
    .headers(&[
        "case",
        "stripes",
        "locks",
        "rate",
        "waits",
        "mean / max wait",
        "queue peak",
    ]);

    for threads in [1usize, 2, 4, 8, 16] {
        let per_thread = scale.n(30_000);
        let total = (threads * per_thread) as u64;
        let mut one_stripe_rate = 0f64;
        for shards in [1usize, 0] {
            let locks = LockTable::with_shards(shards);
            let elapsed = crate::workload::parallel_time(threads, |i| {
                let (tid, mut held) = (Tid(i as u64 + 1), Vec::new());
                let base = (i as u64 + 1) << 32;
                for n in 0..per_thread {
                    let ob = Oid(base + n as u64 % 64);
                    if locks.acquire(tid, ob, Operation::Write, None).unwrap() {
                        held.push(ob);
                    }
                    if n % 64 == 63 {
                        locks.release(tid, &mut held);
                        held.clear();
                    }
                }
                locks.release(tid, &mut held);
            });
            let rate = total as f64 / elapsed.as_secs_f64();
            let rate_cell = if shards == 1 {
                one_stripe_rate = rate;
                fmt_rate(total, elapsed)
            } else {
                format!(
                    "{} ({:.2}x vs 1 stripe)",
                    fmt_rate(total, elapsed),
                    rate / one_stripe_rate
                )
            };
            let waits: u64 = locks.stripe_stats().iter().map(|s| s.waits).sum();
            table.row(vec![
                format!("disjoint, {threads} threads"),
                locks.shard_count().to_string(),
                total.to_string(),
                rate_cell,
                waits.to_string(),
                "-".into(),
                "-".into(),
            ]);
        }
    }

    let obs = Obs::shared();
    obs.enable_tracing(4096);
    let locks = LockTable::with_shards_obs(8, Arc::clone(&obs));
    let threads = 16usize;
    let hot: Vec<Oid> = (0..4u64).map(Oid).collect();
    let per_thread = scale.n(2_000);
    let elapsed = crate::workload::parallel_time(threads, |i| {
        let tid = Tid(i as u64 + 1);
        for n in 0..per_thread {
            let ob = hot[n % hot.len()];
            locks.acquire(tid, ob, Operation::Write, None).unwrap();
            locks.release(tid, &mut [ob]);
        }
    });

    let mut total_waits = 0u64;
    for s in &locks.stripe_stats() {
        if s.grants == 0 && s.waits == 0 {
            continue; // cold stripe: the hot set never hashed here
        }
        total_waits += s.waits;
        table.row(vec![
            format!("hot set, stripe {}", s.stripe),
            "8".into(),
            s.grants.to_string(),
            "-".into(),
            s.waits.to_string(),
            format!(
                "{} / {}",
                fmt_duration(Duration::from_nanos(s.wait_ns_mean())),
                fmt_duration(Duration::from_nanos(s.wait_ns_max))
            ),
            s.queue_peak.to_string(),
        ]);
    }
    let snap = obs.snapshot();
    // tail behavior, not just the mean: interpolated percentiles from the
    // wait histogram
    let (p50, _, p99) = snap.lock_wait_ns.percentiles();
    let total = (threads * per_thread) as u64;
    table.row(vec![
        "hot set, total".into(),
        "8".into(),
        total.to_string(),
        fmt_rate(total, elapsed),
        total_waits.to_string(),
        format!(
            "p50 {} / p99 {}",
            fmt_duration(Duration::from_nanos(p50 as u64)),
            fmt_duration(Duration::from_nanos(p99 as u64))
        ),
        "-".into(),
    ]);
    let trace = obs.trace();
    table.row(vec![
        "hot set, trace".into(),
        "8".into(),
        format!("{} events", trace.len()),
        "-".into(),
        format!("{} dropped", snap.events_dropped),
        "-".into(),
        "-".into(),
    ]);
    (table, trace)
}
