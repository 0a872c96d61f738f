//! `wire_closed` and `wire_open`: ledger transfers issued by real wire
//! clients against an in-process [`AssetServer`] over an on-disk,
//! `Strict` database — the whole stack.

use crate::common::{
    chunked_latency_us, closed_loop_sheet, counter_sheet, ctx, decode_i64, failed_frac,
    join_drivers, ratio, set_p50_us, span_sheet, traced_hist_sheet, DriverTally, Params,
    PassResult, Sample, SetupTimer, TraceSwitch, Transfer, TransferStream, Window, EVENT_RING, R,
};
use crate::env::RunDir;
use crate::pace::{self, Arrival};
use crate::rng::Rng;
use crate::spec::{self, Workload};
use crate::stats;
use crate::trace::{TraceData, Tracer};
use asset_client::{Client, ClientError, TxnFate};
use asset_common::Config;
use asset_core::Database;
use asset_server::AssetServer;
use std::path::Path;
use std::time::{Duration, Instant};

/// A running server with its minted ledger and connected clients.
pub struct WireBed {
    server: AssetServer,
    /// Oid of account 0; account `i` is `first + i`.
    first: u64,
    admin: Client,
    clients: Vec<Client>,
}

impl WireBed {
    /// Open an on-disk database in `dir`, serve it, mint `accounts`
    /// accounts over the wire and connect the driver clients.
    fn set_up(dir: &Path, accounts: u64) -> R<WireBed> {
        let (db, _) = Database::open(Config::on_disk(dir).with_exec_workers(spec::EXEC_WORKERS))
            .map_err(ctx("open database"))?;
        let server = AssetServer::spawn(db, "127.0.0.1:0").map_err(ctx("spawn server"))?;
        let addr = server.local_addr().to_string();
        let mut admin = Client::connect(&addr).map_err(ctx("connect admin"))?;
        let (first, minted) = admin
            .mint(accounts, spec::INITIAL_BALANCE)
            .map_err(ctx("mint"))?;
        if minted != accounts {
            return Err(format!("minted {minted} of {accounts} accounts"));
        }
        let clients = (0..spec::DRIVERS)
            .map(|_| Client::connect(&addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ctx("connect driver"))?;
        Ok(WireBed {
            server,
            first,
            admin,
            clients,
        })
    }

    /// Close the connections and stop the server, waiting for its
    /// threads.
    fn tear_down(self) {
        drop(self.clients);
        drop(self.admin);
        self.server.shutdown();
        self.server.join();
    }
}

/// `Client::transfer`, replicated call for call so the traced pass can
/// put a span around each of the four client operations: `BEGIN`, then
/// `READ` + `WRITE` per account in oid order, then `COMMIT`.
fn traced_transfer(
    c: &mut Client,
    tr: &mut Tracer,
    from: u64,
    to: u64,
    amount: i64,
) -> Result<TxnFate, ClientError> {
    fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        tr.child(name, t0, Instant::now());
        out
    }
    let tid = timed(tr, "client.begin", || c.begin())?;
    for acct in [from.min(to), from.max(to)] {
        let delta = if acct == from { -amount } else { amount };
        let old = match timed(tr, "client.read", || c.read(tid, acct)) {
            Ok(v) => decode_i64(v.as_deref()),
            Err(ClientError::Server { status, .. }) => return Ok(TxnFate::Aborted(status)),
            Err(e) => return Err(e),
        };
        let new = old.wrapping_add(delta).to_le_bytes();
        match timed(tr, "client.write", || c.write(tid, acct, &new)) {
            Ok(()) => {}
            Err(ClientError::Server { status, .. }) => return Ok(TxnFate::Aborted(status)),
            Err(e) => return Err(e),
        }
    }
    timed(tr, "client.commit", || c.commit(tid))
}

/// One unit: the transfer, retried while the server reports a clean
/// abort. Returns whether it committed and how many retries it took.
fn transfer_unit(
    c: &mut Client,
    tr: &mut Tracer,
    first: u64,
    t: Transfer,
    unit: u64,
) -> R<(bool, u32)> {
    let (from, to, amount) = (
        first + u64::from(t.from),
        first + u64::from(t.to),
        i64::from(t.amount),
    );
    let mut retries = 0;
    loop {
        let fate = if tr.is_on() {
            tr.open("wire.transfer", unit, Instant::now());
            let fate = traced_transfer(c, tr, from, to, amount);
            tr.close(Instant::now());
            fate
        } else {
            c.transfer(from, to, amount)
        }
        .map_err(ctx("transfer transport"))?;
        match fate {
            TxnFate::Committed => return Ok((true, retries)),
            TxnFate::Aborted(_) if retries < spec::MAX_RETRIES => retries += 1,
            TxnFate::Aborted(_) | TxnFate::Insufficient | TxnFate::Ambiguous => {
                return Ok((false, retries))
            }
        }
    }
}

/// The conservation gate, over the wire: one snapshot `SUM`.
fn conservation_gate(res: &mut PassResult, bed: &mut WireBed, accounts: u64) -> R<()> {
    let (sum, present) = bed.admin.sum(bed.first, accounts).map_err(ctx("sum"))?;
    res.gate(present == accounts, || {
        format!("{present} of {accounts} accounts present")
    });
    let want = accounts as i64 * spec::INITIAL_BALANCE;
    res.gate(sum == want, || {
        format!("ledger sums to {sum}, minted {want}: conservation violated")
    });
    Ok(())
}

/// What driving a wire workload hands back to [`run`].
struct Driven {
    /// Transfers committed over the whole run (all phases).
    committed: u64,
    /// Length of the whole run, seconds.
    run_s: f64,
    trace: TraceData,
}

/// Drive `wire_closed`: each of the two clients issues its next transfer
/// as soon as the previous one returned.
fn drive_closed(p: &Params, bed: &mut WireBed, res: &mut PassResult) -> R<Driven> {
    let accounts = p.accounts();
    let db = bed.server.database().clone();
    let first = bed.first;
    let switch = TraceSwitch::new(p.traced);
    let w = Window::start(p);
    let outs: Vec<R<(DriverTally, Tracer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (w, switch, db) = (&w, &switch, &db);
                let mut stream = TransferStream::new(p.seed, i as u64, accounts);
                scope.spawn(move || {
                    let mut tally = DriverTally::default();
                    let mut tracer = Tracer::new(w.epoch, i as u32);
                    for n in 0u64.. {
                        let start = Instant::now();
                        if w.over(start) {
                            break;
                        }
                        switch.poll(w.measuring(start), &mut tracer, || {
                            db.obs().enable_tracing(EVENT_RING)
                        });
                        let t = stream.next().expect("transfer streams are endless");
                        let (ok, retries) =
                            transfer_unit(client, &mut tracer, first, t, (i as u64) << 48 | n)?;
                        tally.record(w, start, Instant::now(), ok, retries);
                    }
                    Ok((tally, tracer))
                })
            })
            .collect();
        join_drivers(handles)
    });
    let run_s = w.elapsed_s();
    let mut tally = DriverTally::default();
    let mut trace = TraceData::default();
    for out in outs {
        let (t, tr) = out?;
        tally.absorb(t);
        trace.absorb(tr);
    }
    closed_loop_sheet(res, &w, &mut tally, p.traced);
    Ok(Driven {
        committed: tally.committed_total,
        run_s,
        trace,
    })
}

/// One stretch of the open-loop schedule at a fixed rate.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Total arrival rate over both connections, txn/s.
    rate: f64,
    /// Index into [`spec::OPEN_RATES`]; `None` for the untraced
    /// reference stretch of a traced pass.
    rate_idx: Option<usize>,
    start_ns: u64,
    /// Arrivals due before this are the stretch's warm-up.
    measure_from_ns: u64,
    end_ns: u64,
}

/// The schedule's stretches: the three frozen rates, each with its own
/// warm-up; a traced pass first runs an untraced stretch at the middle
/// rate to compare against.
fn segments(p: &Params) -> Vec<Segment> {
    let sec = |s: f64| (s * 1e9) as u64;
    let mut plan: Vec<(f64, Option<usize>, f64)> = Vec::new();
    if p.traced {
        plan.push((spec::OPEN_RATES[1], None, p.seconds * spec::REFERENCE_FRAC));
    }
    for (i, rate) in spec::OPEN_RATES.into_iter().enumerate() {
        plan.push((rate, Some(i), p.seconds / spec::OPEN_RATES.len() as f64));
    }
    let mut at = 0;
    plan.into_iter()
        .map(|(rate, rate_idx, measure_s)| {
            let start_ns = at;
            let measure_from_ns = start_ns + sec(measure_s * spec::WARMUP_FRAC);
            at = measure_from_ns + sec(measure_s);
            Segment {
                rate,
                rate_idx,
                start_ns,
                measure_from_ns,
                end_ns: at,
            }
        })
        .collect()
}

/// What one open-loop connection recorded.
struct OpenOut {
    arrivals: Vec<Arrival>,
    /// Per arrival: did it commit, and after how many retried aborts.
    outcomes: Vec<(bool, u32)>,
    tracer: Tracer,
}

/// Drive `wire_open`: each connection follows a fixed Poisson arrival
/// schedule and every transfer is timed from its due time.
fn drive_open(p: &Params, bed: &mut WireBed, res: &mut PassResult) -> R<Driven> {
    let accounts = p.accounts();
    let db = bed.server.database().clone();
    let first = bed.first;
    let segs = segments(p);
    let traced_from_ns = segs
        .iter()
        .find(|s| s.rate_idx.is_some())
        .map_or(0, |s| s.start_ns);
    let switch = TraceSwitch::new(p.traced);
    let epoch = Instant::now() + Duration::from_millis(1);
    let outs: Vec<R<OpenOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (segs, switch, db) = (&segs, &switch, &db);
                scope.spawn(move || {
                    // arrival gaps and transfers come from separate streams
                    let mut gaps = Rng::new(p.seed, 0x0A11 + i as u64);
                    let due: Vec<u64> = segs
                        .iter()
                        .flat_map(|s| {
                            pace::poisson_schedule(
                                &mut gaps,
                                s.rate / spec::DRIVERS as f64,
                                s.start_ns,
                                s.end_ns,
                            )
                        })
                        .collect();
                    let mut stream = TransferStream::new(p.seed, i as u64, accounts);
                    let mut tracer = Tracer::new(epoch, i as u32);
                    let mut outcomes = Vec::with_capacity(due.len());
                    let mut failure = None;
                    let arrivals = pace::run_open_loop(epoch, &due, |n| {
                        if failure.is_some() {
                            outcomes.push((false, 0));
                            return;
                        }
                        switch.poll(due[n] >= traced_from_ns, &mut tracer, || {
                            db.obs().enable_tracing(EVENT_RING);
                        });
                        let t = stream.next().expect("transfer streams are endless");
                        match transfer_unit(
                            client,
                            &mut tracer,
                            first,
                            t,
                            (i as u64) << 48 | n as u64,
                        ) {
                            Ok(outcome) => outcomes.push(outcome),
                            Err(e) => {
                                outcomes.push((false, 0));
                                failure = Some(e);
                            }
                        }
                    });
                    match failure {
                        Some(e) => Err(e),
                        None => Ok(OpenOut {
                            arrivals,
                            outcomes,
                            tracer,
                        }),
                    }
                })
            })
            .collect();
        join_drivers(handles)
    });
    let run_s = epoch.elapsed().as_secs_f64();
    let outs: Vec<OpenOut> = outs.into_iter().collect::<R<_>>()?;

    let mut measured = 0usize;
    let mut pooled_lag = Vec::new();
    let (mut committed_total, mut retries, mut aborted_attempts) = (0u64, 0u64, 0u64);
    let mut reference_p50 = 0.0;
    let mut max_rate_in_slo = 0.0;
    for seg in &segs {
        let mut lat: Vec<Sample> = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let (mut backlog_mid, mut backlog_end) = (0, 0);
        let mid_ns = (seg.measure_from_ns + seg.end_ns) / 2;
        for out in &outs {
            backlog_mid += pace::backlog_at(&out.arrivals, mid_ns);
            backlog_end += pace::backlog_at(&out.arrivals, seg.end_ns);
            for (a, (ok, r)) in out.arrivals.iter().zip(&out.outcomes) {
                if a.due_ns < seg.measure_from_ns || a.due_ns >= seg.end_ns {
                    continue;
                }
                attempted += 1;
                if seg.rate_idx.is_some() {
                    aborted_attempts += u64::from(*r);
                }
                if *ok {
                    lat.push(Sample {
                        done_ns: a.due_ns,
                        lat_ns: a.latency_ns(),
                    });
                    if seg.rate_idx.is_some() {
                        pooled_lag.push(a.lag_ns());
                    }
                } else {
                    failed += 1;
                }
            }
        }
        let (p50, p99, note) = chunked_latency_us(&mut lat);
        let Some(idx) = seg.rate_idx else {
            reference_p50 = p50;
            continue;
        };
        let name = [
            "lat_p99_us_rate_lo",
            "lat_p99_us_rate_mid",
            "lat_p99_us_rate_hi",
        ][idx];
        res.sheet.set(name, p99);
        res.notes.extend(note.map(|n| format!("{name} {n}")));
        // a failed or refused request misses any latency limit
        if p99 <= spec::SLO_P99_US && failed == 0 && backlog_end <= backlog_mid {
            max_rate_in_slo = f64::max(max_rate_in_slo, seg.rate);
        }
        if idx == 0 {
            // The two universal latency metrics describe the lowest
            // rate: at a quarter of capacity a due transfer rarely finds
            // its connection busy, so this is the service time an
            // independent user sees. At the higher rates queueing
            // multiplies every hiccup of a shared sandbox, and only the
            // per-rate tails (no bound) report them.
            res.sheet.set("txn_latency_p50_us", p50);
            res.sheet.set("txn_latency_p99_us", p99);
        }
        if idx == 1 && p.traced {
            res.sheet
                .set("obs.trace_overhead_frac", ratio(p50, reference_p50) - 1.0);
        }
        res.attempted += attempted;
        res.failed += failed;
        measured += lat.len();
    }
    let mut trace = TraceData::default();
    for out in outs {
        committed_total += out.outcomes.iter().filter(|(ok, _)| *ok).count() as u64;
        retries += out.outcomes.iter().map(|(_, r)| u64::from(*r)).sum::<u64>();
        trace.absorb(out.tracer);
    }
    res.sheet.set("max_rate_in_slo", max_rate_in_slo);
    res.sheet.set("txn_per_s", measured as f64 / p.seconds);
    res.sheet.set(
        "failed_frac",
        failed_frac(res.attempted, res.failed, aborted_attempts),
    );
    res.sheet.set(
        "bench.retries_per_ktxn",
        1e3 * ratio(retries as f64, committed_total as f64),
    );
    pooled_lag.sort_unstable();
    res.sheet.set(
        "bench.gen_lag_p99_us",
        stats::tail(&pooled_lag).value as f64 / 1e3,
    );
    Ok(Driven {
        committed: committed_total,
        run_s,
        trace,
    })
}

/// Run `wire_closed` or `wire_open`: set-up, the drive, then what both
/// share — counter ratios, WAL bytes per transfer, the traced sheet, the
/// conservation gate, tear-down.
pub fn run(p: &Params, dir: &mut RunDir) -> R<(PassResult, TraceData)> {
    let accounts = p.accounts();
    let (mut bed, setup) = SetupTimer::first(dir, |d| WireBed::set_up(d, accounts))?;
    let mut res = PassResult::begin();
    let db = bed.server.database().clone();
    let before = db.metrics_snapshot();
    let log_before = db.engine().log().watermarks().tail.0;
    let Driven {
        committed,
        run_s,
        trace,
    } = match p.workload {
        Workload::WireOpen => drive_open(p, &mut bed, &mut res)?,
        _ => drive_closed(p, &mut bed, &mut res)?,
    };
    let delta = db.metrics_snapshot().delta(&before);
    let log_bytes = db.engine().log().watermarks().tail.0 - log_before;
    counter_sheet(&mut res, &delta, committed, run_s);
    res.sheet.set(
        "log_bytes_per_txn",
        ratio(log_bytes as f64, committed as f64),
    );
    if p.traced {
        db.obs().disable_tracing();
        traced_hist_sheet(&mut res.sheet, &delta);
        let s = &mut res.sheet;
        span_sheet(s, &trace, "client.begin", "client.begin_us_p50", None);
        span_sheet(s, &trace, "client.read", "client.read_us_p50", None);
        span_sheet(s, &trace, "client.write", "client.write_us_p50", None);
        span_sheet(
            s,
            &trace,
            "client.commit",
            "client.commit_us_p50",
            Some("client.commit_us_p99"),
        );
        s.set("wire.unattributed_frac", trace.unattributed_frac());
        // the wire + frame + dispatch floor, on the now idle server
        let mut rtt = Vec::new();
        for _ in 0..p.probe_iters(2_000) {
            let t0 = Instant::now();
            bed.admin.ping().map_err(ctx("ping"))?;
            rtt.push(t0.elapsed().as_nanos() as u64);
        }
        set_p50_us(s, "server.ping_rtt_us_p50", &mut rtt);
    }
    conservation_gate(&mut res, &mut bed, accounts)?;
    drop(db);
    bed.tear_down();
    let again = |d: &Path| WireBed::set_up(d, accounts);
    setup.finish(p, dir, &mut res, again, WireBed::tear_down)?;
    Ok((res, trace))
}
