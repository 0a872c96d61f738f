//! What every workload shares: run parameters, the timed window, the
//! seeded transfer stream, and the pieces of the sheet that are
//! computed the same way everywhere.

use crate::rng::Rng;
use crate::spec::{self, Sheet, Workload};
use crate::stats;
use crate::trace::{TraceData, Tracer};
use asset_obs::{CounterSnapshot, HistogramSnapshot, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// The benchmark's error type: a message for the operator. Any error
/// ends the run with a non-zero exit.
pub type R<T> = Result<T, String>;

/// Join driver threads, turning a panic into an error like any other.
pub fn join_drivers<T>(handles: Vec<ScopedJoinHandle<'_, R<T>>>) -> Vec<R<T>> {
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("driver thread panicked".into()))
        })
        .collect()
}

/// `map_err` adapter that prefixes what was being attempted.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Parameters of one pass of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass (per-layer sheet) or untraced pass (end-to-end).
    pub traced: bool,
    /// Smoke scale: small account space, one set-up, short probes.
    pub smoke: bool,
}

impl Params {
    /// Ledger accounts at this scale.
    pub fn accounts(&self) -> u64 {
        if self.smoke {
            spec::SMOKE_ACCOUNTS
        } else {
            spec::ACCOUNTS
        }
    }

    /// Fewest set-ups to take the median of.
    pub fn setup_builds(&self) -> usize {
        if self.smoke {
            1
        } else {
            spec::SETUP_BUILDS
        }
    }

    /// Iterations of a probe whose full-scale count is `full`.
    pub fn probe_iters(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(20)
        } else {
            full
        }
    }
}

/// What a pass hands back.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Did every correctness gate hold?
    pub correct: bool,
    /// Units attempted in the measured window.
    pub attempted: u64,
    /// Units of the measured window that did not commit.
    pub failed: u64,
    /// Every metric this pass measured.
    pub sheet: Sheet,
    /// Human-readable remarks (gate failures, percentile fallbacks).
    pub notes: Vec<String>,
    /// The system's non-zero counter deltas between the run's quiescent
    /// bounds (they go into the trace file beside the spans).
    pub counters: Vec<(String, f64)>,
    /// CPU seconds the process had consumed when the run began (after
    /// set-up, before warm-up).
    cpu_at_start: f64,
}

impl PassResult {
    /// The result of a run that begins now: no gate failed yet, and the
    /// CPU clock is read.
    pub fn begin() -> PassResult {
        PassResult {
            correct: true,
            cpu_at_start: crate::env::cpu_seconds(),
            ..Default::default()
        }
    }

    /// Record a failed correctness gate.
    pub fn gate_failed(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("GATE FAILED: {}", what.into()));
    }

    /// Check one gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failed(what());
        }
    }
}

/// Which part of the run a unit completed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up: discarded.
    Warmup,
    /// Untraced reference slice of a traced pass.
    Reference,
    /// The measured window.
    Measure,
    /// After the window closed: discarded.
    Over,
}

/// The timed window, fixed before any driver thread starts:
/// warm-up, then (traced passes only) an untraced reference slice,
/// then the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Common time origin of all driver threads.
    pub epoch: Instant,
    warm_end: Instant,
    ref_end: Instant,
    end: Instant,
    /// Length of the measured window, seconds.
    pub measure_s: f64,
    /// Length of the reference slice, seconds (0 untraced).
    pub reference_s: f64,
}

impl Window {
    /// A window of `p.seconds` starting now.
    pub fn start(p: &Params) -> Window {
        let epoch = Instant::now();
        let reference_s = if p.traced {
            p.seconds * spec::REFERENCE_FRAC
        } else {
            0.0
        };
        let warm_end = epoch + Duration::from_secs_f64(p.seconds * spec::WARMUP_FRAC);
        let ref_end = warm_end + Duration::from_secs_f64(reference_s);
        Window {
            epoch,
            warm_end,
            ref_end,
            end: ref_end + Duration::from_secs_f64(p.seconds),
            measure_s: p.seconds,
            reference_s,
        }
    }

    /// The phase a unit that completed at `done` counts towards.
    pub fn phase(&self, done: Instant) -> Phase {
        if done < self.warm_end {
            Phase::Warmup
        } else if done < self.ref_end {
            Phase::Reference
        } else if done < self.end {
            Phase::Measure
        } else {
            Phase::Over
        }
    }

    /// Has the measured window closed?
    pub fn over(&self, now: Instant) -> bool {
        now >= self.end
    }

    /// Has the measured (in a traced pass: traced) window begun?
    pub fn measuring(&self, now: Instant) -> bool {
        now >= self.ref_end
    }

    /// Whole run so far, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Switches a traced pass from its untraced reference slice to the
/// traced window: each driver thread polls it before a unit; the first
/// to cross the boundary also switches the system's own tracing on.
pub struct TraceSwitch {
    traced: bool,
    system_on: AtomicBool,
}

impl TraceSwitch {
    /// A switch for a traced (or, inert, an untraced) pass.
    pub fn new(traced: bool) -> TraceSwitch {
        TraceSwitch {
            traced,
            system_on: AtomicBool::new(false),
        }
    }

    /// Switch `tracer` on once the traced window has begun;
    /// `enable_system` runs exactly once per pass.
    pub fn poll(&self, begun: bool, tracer: &mut Tracer, enable_system: impl FnOnce()) {
        if self.traced && begun && !tracer.is_on() {
            tracer.switch_on();
            if !self.system_on.swap(true, Ordering::SeqCst) {
                enable_system();
            }
        }
    }
}

/// Capacity of the system's event ring in a traced window.
pub const EVENT_RING: usize = 1 << 16;

/// Times the workload's set-up. The system the window runs on is built
/// first, in a fresh process; once it has been torn down the set-up is
/// repeated until [`Params::setup_builds`] builds have been timed and
/// they add up to [`spec::SETUP_SPAN_S`], and `setup_s` is their median.
/// The driver's contract asks for a median over several set-ups; the
/// span is there because the reference sandbox flips between a fast and
/// a slow state every 0.1 to 2 s, and five builds of 50 ms all fall into
/// one of them (ten runs of `dist_commit` then spread by 39 %).
/// Repeating *after* the run keeps the repetitions' garbage out of the
/// measured window and out of `peak_rss_mb`, which is read before them.
pub struct SetupTimer {
    secs: Vec<f64>,
}

impl SetupTimer {
    /// Build the system the window will run on, timed.
    pub fn first<T>(
        dir: &mut crate::env::RunDir,
        build: impl FnOnce(&std::path::Path) -> R<T>,
    ) -> R<(T, SetupTimer)> {
        let sub = dir.fresh("setup").map_err(ctx("create data directory"))?;
        let t0 = Instant::now();
        let built = build(&sub)?;
        let secs = vec![t0.elapsed().as_secs_f64()];
        Ok((built, SetupTimer { secs }))
    }

    /// Call when the measured system is gone: records `peak_rss_mb`,
    /// then repeats the set-up (each build handed to `discard`) and
    /// records `setup_s`.
    pub fn finish<T>(
        mut self,
        p: &Params,
        dir: &mut crate::env::RunDir,
        res: &mut PassResult,
        mut build: impl FnMut(&std::path::Path) -> R<T>,
        mut discard: impl FnMut(T),
    ) -> R<()> {
        res.sheet.set("peak_rss_mb", crate::env::peak_rss_mb());
        while self.secs.len() < p.setup_builds()
            || (!p.smoke && self.secs.iter().sum::<f64>() < spec::SETUP_SPAN_S)
        {
            let sub = dir.fresh("setup").map_err(ctx("create data directory"))?;
            let t0 = Instant::now();
            let built = build(&sub)?;
            self.secs.push(t0.elapsed().as_secs_f64());
            discard(built);
        }
        res.sheet.set("setup_s", stats::median(&self.secs));
        Ok(())
    }
}

/// One committed unit of the measured window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When it completed, ns from the window's start.
    pub done_ns: u64,
    /// Its caller-observed latency, ns.
    pub lat_ns: u64,
}

/// What one closed-loop driver thread counted.
#[derive(Debug, Default)]
pub struct DriverTally {
    /// Units committed in the measured window.
    pub samples: Vec<Sample>,
    /// Units committed in the reference slice.
    pub reference_units: u64,
    /// Units attempted in the measured window.
    pub attempted: u64,
    /// Units of the measured window that did not commit, retries and all.
    pub failed: u64,
    /// Attempts of the measured window's units that ended in a clean
    /// abort and were retried (deadlock victims).
    pub aborted_attempts: u64,
    /// Units committed over the whole run (all phases).
    pub committed_total: u64,
    /// Clean aborts retried over the whole run.
    pub retries: u64,
}

impl DriverTally {
    /// Count one finished unit.
    pub fn record(
        &mut self,
        w: &Window,
        start: Instant,
        done: Instant,
        committed: bool,
        retries: u32,
    ) {
        self.retries += u64::from(retries);
        self.committed_total += u64::from(committed);
        match w.phase(done) {
            Phase::Measure => {
                self.attempted += 1;
                self.aborted_attempts += u64::from(retries);
                if committed {
                    self.samples.push(Sample {
                        done_ns: (done - w.ref_end).as_nanos() as u64,
                        lat_ns: (done - start).as_nanos() as u64,
                    });
                } else {
                    self.failed += 1;
                }
            }
            Phase::Reference => self.reference_units += u64::from(committed),
            Phase::Warmup | Phase::Over => {}
        }
    }

    /// Fold another thread's tally in.
    pub fn absorb(&mut self, other: DriverTally) {
        self.samples.extend(other.samples);
        self.reference_units += other.reference_units;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.aborted_attempts += other.aborted_attempts;
        self.committed_total += other.committed_total;
        self.retries += other.retries;
    }
}

/// Stretches a window is cut into: every end-to-end timing is the
/// **median over the stretches**, so that one slow second of a shared
/// sandbox moves one stretch, not the result.
pub const SLICES: usize = 10;

/// Committed units per second: the median over [`SLICES`] equal
/// stretches of the window.
pub fn sliced_rate(samples: &[Sample], window_s: f64) -> f64 {
    let slice_s = window_s / SLICES as f64;
    let mut counts = [0u64; SLICES];
    for s in samples {
        let i = (s.done_ns as f64 / 1e9 / slice_s) as usize;
        counts[i.min(SLICES - 1)] += 1;
    }
    stats::median(&counts.map(|c| c as f64 / slice_s))
}

/// Fill the closed-loop end-to-end block from a merged tally:
/// `txn_per_s`, the two latency metrics, `failed_frac`,
/// `bench.retries_per_ktxn`, and — in a traced pass —
/// `obs.trace_overhead_frac` against the reference slice.
pub fn closed_loop_sheet(res: &mut PassResult, w: &Window, tally: &mut DriverTally, traced: bool) {
    res.attempted = tally.attempted;
    res.failed = tally.failed;
    let rate = sliced_rate(&tally.samples, w.measure_s);
    res.sheet.set("txn_per_s", rate);
    latency_sheet(res, &mut tally.samples);
    res.sheet.set(
        "failed_frac",
        failed_frac(tally.attempted, tally.failed, tally.aborted_attempts),
    );
    res.sheet.set(
        "bench.retries_per_ktxn",
        1e3 * ratio(tally.retries as f64, tally.committed_total as f64),
    );
    if traced && w.reference_s > 0.0 {
        let untraced = tally.reference_units as f64 / w.reference_s;
        res.sheet
            .set("obs.trace_overhead_frac", 1.0 - ratio(rate, untraced));
    }
}

/// Median latency and tail of `samples`, in µs: the samples are cut,
/// in completion order, into up to [`SLICES`] chunks of at least 1 000
/// (what a p99 needs); each chunk gives a median and a p99, and the
/// medians of those are returned. Fewer than 1 000 samples are one
/// chunk, which reports the percentile it can support — the third
/// value then says which.
pub fn chunked_latency_us(samples: &mut [Sample]) -> (f64, f64, Option<String>) {
    samples.sort_unstable_by_key(|s| s.done_ns);
    let n = samples.len();
    let chunks = (n / 1_000).clamp(1, SLICES);
    let (mut p50s, mut tails, mut note) = (Vec::new(), Vec::new(), None);
    for c in 0..chunks {
        let mut lat: Vec<u64> = samples[c * n / chunks..(c + 1) * n / chunks]
            .iter()
            .map(|s| s.lat_ns)
            .collect();
        let (p50, tail) = stats::summarize(&mut lat);
        p50s.push(p50 as f64 / 1e3);
        tails.push(tail.value as f64 / 1e3);
        if tail.pct < 99.0 {
            note = Some(format!(
                "holds p{} ({} samples, {} beyond): too few for p99",
                tail.pct, tail.n, tail.beyond
            ));
        }
    }
    (stats::median(&p50s), stats::median(&tails), note)
}

/// `txn_latency_p50_us` / `txn_latency_p99_us` by
/// [`chunked_latency_us`].
pub fn latency_sheet(res: &mut PassResult, samples: &mut [Sample]) {
    let (p50, p99, note) = chunked_latency_us(samples);
    res.sheet.set("txn_latency_p50_us", p50);
    res.sheet.set("txn_latency_p99_us", p99);
    res.notes
        .extend(note.map(|n| format!("txn_latency_p99_us {n}")));
}

/// `failed_frac`: of all transaction attempts made for the window's
/// units, the share that did not commit. A unit is retried after a clean
/// abort, so `attempted` units with `aborted` retried attempts among them
/// made `attempted + aborted` attempts, of which `failed` (units given
/// up, ambiguous or errored) `+ aborted` (deadlock victims) failed. The
/// contract line's `attempted` / `failed` count units, retries included.
pub fn failed_frac(attempted: u64, failed: u64, aborted: u64) -> f64 {
    ratio((failed + aborted) as f64, (attempted + aborted) as f64)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `samples` (ns) in µs under `name`; nothing if empty.
pub fn set_p50_us(sheet: &mut Sheet, name: &str, samples: &mut [u64]) {
    if !samples.is_empty() {
        samples.sort_unstable();
        sheet.set(name, stats::percentile(samples, 50.0) as f64 / 1e3);
    }
}

/// p50 (and optionally the supported tail) of span `span` in µs.
pub fn span_sheet(sheet: &mut Sheet, trace: &TraceData, span: &str, p50: &str, p99: Option<&str>) {
    let mut d = trace.durations(span);
    if d.is_empty() {
        return;
    }
    let (mid, tail) = stats::summarize(&mut d);
    sheet.set(p50, mid as f64 / 1e3);
    if let Some(name) = p99 {
        sheet.set(name, tail.value as f64 / 1e3);
    }
}

/// p50 / supported tail of a gated histogram's window delta, µs
/// (bucket-interpolated: the histograms are ×4-spaced). A histogram
/// that recorded nothing reads 0: the traced pass saw no such event.
pub fn hist_sheet(sheet: &mut Sheet, h: &HistogramSnapshot, p50: &str, p99: Option<&str>) {
    sheet.set(p50, h.quantile(0.50).unwrap_or(0.0) / 1e3);
    if let Some(name) = p99 {
        let q = if h.count >= 1_000 { 0.99 } else { 0.90 };
        sheet.set(name, h.quantile(q).unwrap_or(0.0) / 1e3);
    }
}

/// Add `b`'s counters and histograms into `a` (`dist_commit` sums its
/// three nodes).
pub fn add_snapshot(a: &mut MetricsSnapshot, b: &MetricsSnapshot) {
    // for_each visits both snapshots in declaration order
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    a.counters.for_each(|name, v| totals.push((name, v)));
    let mut i = 0;
    b.counters.for_each(|_, v| {
        totals[i].1 += v;
        i += 1;
    });
    for (name, v) in totals {
        a.counters.set(name, v);
    }
    for (x, y) in [
        (&mut a.lock_wait_ns, &b.lock_wait_ns),
        (&mut a.log_flush_ns, &b.log_flush_ns),
        (&mut a.commit_ns, &b.commit_ns),
        (&mut a.in_doubt_ns, &b.in_doubt_ns),
    ] {
        for (i, c) in y.buckets.iter().enumerate() {
            x.buckets[i] += c;
        }
        x.count += y.count;
        x.sum += y.sum;
        x.max = x.max.max(y.max);
    }
    a.events_dropped += b.events_dropped;
}

/// The always-on counter ratios of the system under test, over one
/// quiescent-to-quiescent delta `d` lasting `run_s` seconds in which
/// the drivers finished `units` units — and, over the same bounds, the
/// CPU time the process (system and drivers) spent per unit.
pub fn counter_sheet(res: &mut PassResult, d: &MetricsSnapshot, units: u64, run_s: f64) {
    let cpu_s = crate::env::cpu_seconds() - res.cpu_at_start;
    res.sheet
        .set("cpu_us_per_txn", ratio(cpu_s * 1e6, units as f64));
    let c: &CounterSnapshot = &d.counters;
    c.for_each(|name, v| {
        if v > 0 {
            res.counters.push((name.to_string(), v as f64));
        }
    });
    let sheet = &mut res.sheet;
    let per_unit = |n: u64| ratio(n as f64, units as f64);
    let commits = c.txn_committed as f64;
    // A blocked lock request is counted under two names: the blocking
    // path bumps `lock_waits` once per wait (and `deadlock_sweeps` on
    // every re-check), the executor path bumps only `deadlock_sweeps`,
    // once per parked attempt. Read the one the run's path maintains.
    let blocked = if c.exec_steps > 0 {
        c.deadlock_sweeps
    } else {
        c.lock_waits
    };
    sheet.set("lock.waits_per_txn", ratio(blocked as f64, commits));
    sheet.set(
        "lock.deadlocks_per_ktxn",
        1e3 * ratio(c.deadlocks as f64, commits),
    );
    sheet.set("lock.permit_checks_per_activity", per_unit(c.permit_checks));
    sheet.set("dep.edges_per_activity", per_unit(c.dep_edges_formed));
    sheet.set(
        "storage.flusher.commits_per_window",
        ratio(commits, c.flush_windows as f64),
    );
    sheet.set(
        "storage.flusher.windows_per_s",
        ratio(c.flush_windows as f64, run_s),
    );
    sheet.set(
        "storage.log.coalesced_frac",
        ratio(c.log_coalesced as f64, c.log_appends as f64),
    );
    sheet.set(
        "storage.cache.hit_ratio",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
    );
    sheet.set(
        "storage.latch.contended_frac",
        ratio(c.latch_contended as f64, c.latch_acquires as f64),
    );
    sheet.set(
        "server.requests_per_txn",
        ratio(c.server_requests as f64, commits),
    );
    sheet.set(
        "core.exec_steps_per_txn",
        ratio(c.exec_steps as f64, commits),
    );
    sheet.set(
        "core.exec_parks_per_txn",
        ratio(c.exec_parks as f64, commits),
    );
    sheet.set(
        "core.exec_requeues_per_txn",
        ratio(c.exec_requeues as f64, commits),
    );
}

/// The gated histograms of the traced window (`d` is the delta since
/// tracing was switched on) and the event ring's drop share.
pub fn traced_hist_sheet(sheet: &mut Sheet, d: &MetricsSnapshot) {
    hist_sheet(
        sheet,
        &d.lock_wait_ns,
        "lock.wait_us_p50",
        Some("lock.wait_us_p99"),
    );
    hist_sheet(
        sheet,
        &d.commit_ns,
        "core.commit_us_p50",
        Some("core.commit_us_p99"),
    );
    hist_sheet(
        sheet,
        &d.log_flush_ns,
        "storage.log.flush_us_p50",
        Some("storage.log.flush_us_p99"),
    );
    hist_sheet(sheet, &d.in_doubt_ns, "coord.in_doubt_us_p50", None);
    let seen = d.counters.events_recorded + d.events_dropped;
    sheet.set(
        "obs.events_dropped_frac",
        ratio(d.events_dropped as f64, seen as f64),
    );
}

/// One ledger transfer: move `amount` from account index `from` to
/// account index `to` (indices into the minted range; always distinct).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Paying account index.
    pub from: u32,
    /// Receiving account index.
    pub to: u32,
    /// Units moved, 1..=100.
    pub amount: i32,
}

#[cfg(test)]
impl Transfer {
    /// The op as bytes (the determinism test compares streams bytewise).
    pub fn to_bytes(self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[..4].copy_from_slice(&self.from.to_le_bytes());
        b[4..8].copy_from_slice(&self.to.to_le_bytes());
        b[8..].copy_from_slice(&self.amount.to_le_bytes());
        b
    }
}

/// A driver thread's transfer stream: a pure function of
/// `(seed, stream, accounts)`, generated as it is consumed so a long
/// window costs no memory. `accounts` is the size of the space the
/// pairs are drawn from — the whole ledger, or `exec_hot`'s hot set.
pub struct TransferStream {
    rng: Rng,
    accounts: u64,
}

impl TransferStream {
    /// Stream `stream` of the run seeded `seed`.
    pub fn new(seed: u64, stream: u64, accounts: u64) -> TransferStream {
        assert!(accounts >= 2, "a transfer needs two distinct accounts");
        TransferStream {
            rng: Rng::new(seed, stream),
            accounts,
        }
    }
}

impl Iterator for TransferStream {
    type Item = Transfer;

    fn next(&mut self) -> Option<Transfer> {
        let from = self.rng.below(self.accounts);
        // a distinct partner: a self-transfer would measure nothing
        let to = (from + 1 + self.rng.below(self.accounts - 1)) % self.accounts;
        Some(Transfer {
            from: from as u32,
            to: to as u32,
            amount: 1 + self.rng.below(100) as i32,
        })
    }
}

/// Decode an 8-byte little-endian balance (missing or malformed reads
/// as 0, as the client library does).
pub fn decode_i64(v: Option<&[u8]>) -> i64 {
    v.and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map_or(0, i64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, stream: u64, accounts: u64, n: usize) -> Vec<u8> {
        TransferStream::new(seed, stream, accounts)
            .take(n)
            .flat_map(Transfer::to_bytes)
            .collect()
    }

    #[test]
    fn equal_seeds_give_identical_streams_and_different_seeds_do_not() {
        let a = stream_bytes(1, 0, 100_000, 4_096);
        assert_eq!(a, stream_bytes(1, 0, 100_000, 4_096));
        assert_ne!(a, stream_bytes(2, 0, 100_000, 4_096), "another seed");
        assert_ne!(a, stream_bytes(1, 1, 100_000, 4_096), "another thread");
        assert_ne!(a, stream_bytes(1, 0, 16, 4_096), "another account space");
    }

    #[test]
    fn transfers_pair_distinct_accounts_inside_the_space() {
        for t in TransferStream::new(9, 0, 16).take(10_000) {
            assert!(t.from < 16 && t.to < 16 && t.from != t.to);
            assert!((1..=100).contains(&t.amount));
        }
        // two accounts: the only legal pairs are (0,1) and (1,0)
        assert!(TransferStream::new(9, 0, 2)
            .take(100)
            .all(|t| t.from + t.to == 1));
    }

    #[test]
    fn window_phases_follow_the_schedule() {
        let p = Params {
            workload: Workload::ExecUniform,
            seed: 1,
            seconds: 10.0,
            traced: true,
            smoke: false,
        };
        let w = Window::start(&p);
        let at = |s: f64| w.epoch + Duration::from_secs_f64(s);
        assert_eq!(w.phase(at(1.0)), Phase::Warmup);
        assert_eq!(w.phase(at(2.0)), Phase::Reference);
        assert_eq!(w.phase(at(4.0)), Phase::Measure);
        assert_eq!(w.phase(at(13.4)), Phase::Measure);
        assert_eq!(w.phase(at(13.6)), Phase::Over);
        let untraced = Window::start(&Params { traced: false, ..p });
        assert_eq!(untraced.reference_s, 0.0);
        assert_eq!(
            untraced.phase(untraced.epoch + Duration::from_secs_f64(1.6)),
            Phase::Measure
        );
    }

    #[test]
    fn tally_counts_by_phase() {
        let p = Params {
            workload: Workload::ExecUniform,
            seed: 1,
            seconds: 1.0,
            traced: false,
            smoke: false,
        };
        let w = Window::start(&p);
        let at = |s: f64| w.epoch + Duration::from_secs_f64(s);
        let mut t = DriverTally::default();
        t.record(&w, at(0.0), at(0.1), true, 0); // warm-up
        t.record(&w, at(0.5), at(0.6), true, 2);
        t.record(&w, at(0.6), at(0.7), false, 0);
        t.record(&w, at(1.0), at(1.2), true, 0); // over
        assert_eq!((t.attempted, t.failed, t.samples.len()), (2, 1, 1));
        assert_eq!((t.committed_total, t.retries), (3, 2));
        let mut res = PassResult {
            correct: true,
            ..Default::default()
        };
        closed_loop_sheet(&mut res, &w, &mut t, false);
        // one unit in one of ten 0.1 s stretches: the median stretch is empty
        assert_eq!(res.sheet.get("txn_per_s"), Some(0.0));
        // three attempts failed (two victims, one unit given up) of four
        assert_eq!(res.sheet.get("failed_frac"), Some(0.75));
        assert!(!res.notes.is_empty(), "one sample cannot support a p99");
    }
}
