//! `exec_uniform` and `exec_hot`: the ledger transfers of the wire
//! workloads submitted in process as `Database::submit` step programs —
//! no server, no client, no protocol. One submitter thread keeps 64
//! transactions outstanding, one reaper thread awaits them in submit
//! order. The two workloads differ in key skew only.

use crate::common::{
    closed_loop_sheet, counter_sheet, ctx, decode_i64, ratio, span_sheet, traced_hist_sheet,
    DriverTally, Params, PassResult, SetupTimer, TraceSwitch, Transfer, TransferStream, Window,
    EVENT_RING, R,
};
use crate::env::RunDir;
use crate::spec::{self, Workload};
use crate::trace::{TraceData, Tracer};
use asset_common::{Config, Oid, Tid};
use asset_core::{Database, StepCtx, TryOp, TxnStep};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Accounts written per bootstrap transaction.
const MINT_CHUNK: u64 = 4_096;

fn config(dir: &Path) -> Config {
    Config::on_disk(dir).with_exec_workers(spec::EXEC_WORKERS)
}

/// Open an on-disk database in `dir` and create the ledger through the
/// blocking API; returns it with the first account's oid.
fn set_up(dir: &Path, accounts: u64) -> R<(Database, u64, PathBuf)> {
    let (db, _) = Database::open(config(dir)).map_err(ctx("open database"))?;
    let first = db.new_oid().0;
    for _ in 1..accounts {
        db.new_oid();
    }
    let mut at = first;
    while at < first + accounts {
        let end = (at + MINT_CHUNK).min(first + accounts);
        let committed = db
            .run(move |t| {
                for oid in at..end {
                    t.write(Oid(oid), spec::INITIAL_BALANCE.to_le_bytes().to_vec())?;
                }
                Ok(())
            })
            .map_err(ctx("create accounts"))?;
        if !committed {
            return Err("account bootstrap aborted".into());
        }
        at = end;
    }
    Ok((db, first, dir.to_path_buf()))
}

/// The transfer as a resumable step program: read then write each
/// account in oid order (the order `Client::transfer` uses), parking on
/// `WaitLock` whenever a lock is not grantable.
fn transfer_program(
    first: u64,
    t: Transfer,
) -> impl FnMut(&mut StepCtx<'_>) -> TxnStep + Send + 'static {
    let (from, to) = (first + u64::from(t.from), first + u64::from(t.to));
    let accts = [Oid(from.min(to)), Oid(from.max(to))];
    let mut stage = 0usize;
    let mut balance = 0i64;
    move |sc| loop {
        let ob = accts[stage / 2];
        let delta = if ob.0 == from {
            -i64::from(t.amount)
        } else {
            i64::from(t.amount)
        };
        let step = if stage.is_multiple_of(2) {
            sc.try_read(ob).map(|r| match r {
                TryOp::Done(v) => {
                    balance = decode_i64(v.as_deref());
                    TryOp::Done(())
                }
                TryOp::WouldBlock => TryOp::WouldBlock,
            })
        } else {
            sc.try_write(ob, balance.wrapping_add(delta).to_le_bytes().to_vec())
        };
        match step {
            Ok(TryOp::Done(())) if stage == 3 => return TxnStep::Done(Ok(())),
            Ok(TryOp::Done(())) => stage += 1,
            Ok(TryOp::WouldBlock) => return TxnStep::WaitLock { ob },
            Err(e) => return TxnStep::Done(Err(e)),
        }
    }
}

/// One submitted transfer on its way from the submitter to the reaper.
struct InFlight {
    tid: Tid,
    transfer: Transfer,
    unit: u64,
    submitted: Instant,
}

/// Sum every balance with unlocked peeks (the database is quiescent).
fn ledger_sum(db: &Database, first: u64, accounts: u64) -> R<(i64, u64)> {
    let (mut sum, mut present) = (0i64, 0u64);
    for oid in first..first + accounts {
        if let Some(b) = db.peek(Oid(oid)).map_err(ctx("peek"))? {
            sum = sum.wrapping_add(decode_i64(Some(&b)));
            present += 1;
        }
    }
    Ok((sum, present))
}

fn conservation_gate(
    res: &mut PassResult,
    db: &Database,
    first: u64,
    accounts: u64,
    when: &str,
) -> R<()> {
    let (sum, present) = ledger_sum(db, first, accounts)?;
    res.gate(present == accounts, || {
        format!("{when}: {present} of {accounts} accounts present")
    });
    let want = accounts as i64 * spec::INITIAL_BALANCE;
    res.gate(sum == want, || {
        format!("{when}: ledger sums to {sum}, created {want}: conservation violated")
    });
    Ok(())
}

/// What the reaper thread hands back.
struct Reaped {
    tally: DriverTally,
    tracer: Tracer,
    /// Outcomes that were already terminal when their turn came.
    already_terminal: u64,
    reaped: u64,
    live_peak: usize,
}

/// Run `exec_uniform` or `exec_hot`.
pub fn run(p: &Params, dir: &mut RunDir) -> R<(PassResult, TraceData)> {
    let accounts = p.accounts();
    let hot = p.workload == Workload::ExecHot;
    let space = if hot { spec::HOT_ACCOUNTS } else { accounts };
    let ((db, first, data_dir), setup) = SetupTimer::first(dir, |d| set_up(d, accounts))?;
    let mut res = PassResult::begin();
    let before = db.metrics_snapshot();
    let log_before = db.engine().log().watermarks().tail.0;
    let switch = TraceSwitch::new(p.traced);
    let w = Window::start(p);

    // 64 permits circulate: the submitter takes one per submission, the
    // reaper returns it with the outcome — exactly 64 outstanding
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    let (work_tx, work_rx) = mpsc::channel::<InFlight>();
    for _ in 0..spec::OUTSTANDING {
        permit_tx.send(()).map_err(ctx("seed permits"))?;
    }
    let (submitted, reaped): (R<Tracer>, R<Reaped>) = std::thread::scope(|scope| {
        let (w, switch, db) = (&w, &switch, &db);
        let submitter = scope.spawn(move || -> R<Tracer> {
            let mut tracer = Tracer::new(w.epoch, 0);
            // the same logical transfers as the two wire clients issue:
            // their two streams, interleaved
            let mut streams: Vec<TransferStream> = (0..spec::DRIVERS as u64)
                .map(|i| TransferStream::new(p.seed, i, space))
                .collect();
            for unit in 0u64.. {
                if permit_rx.recv().is_err() {
                    break; // the reaper failed and hung up
                }
                let submitted = Instant::now();
                if w.over(submitted) {
                    break;
                }
                switch.poll(w.measuring(submitted), &mut tracer, || {
                    db.obs().enable_tracing(EVENT_RING)
                });
                let transfer = streams[unit as usize % spec::DRIVERS]
                    .next()
                    .expect("transfer streams are endless");
                let tid = db
                    .submit(transfer_program(first, transfer))
                    .map_err(ctx("submit"))?;
                tracer.leaf("core.submit", unit, submitted, Instant::now());
                let flight = InFlight {
                    tid,
                    transfer,
                    unit,
                    submitted,
                };
                if work_tx.send(flight).is_err() {
                    break;
                }
            }
            Ok(tracer)
        });
        let reaper = scope.spawn(move || -> R<Reaped> {
            let mut out = Reaped {
                tally: DriverTally::default(),
                tracer: Tracer::new(w.epoch, 1),
                already_terminal: 0,
                reaped: 0,
                live_peak: 0,
            };
            let mut next_sample = w.epoch;
            while let Ok(mut flight) = work_rx.recv() {
                let turn = Instant::now();
                switch.poll(w.measuring(turn), &mut out.tracer, || {
                    db.obs().enable_tracing(EVENT_RING)
                });
                if turn >= next_sample {
                    out.live_peak = out.live_peak.max(db.live_transactions());
                    next_sample = turn + Duration::from_millis(100);
                }
                out.reaped += 1;
                let terminal = db
                    .status(flight.tid)
                    .map_err(ctx("status"))?
                    .is_terminated();
                out.already_terminal += u64::from(terminal);
                // a deadlock victim is resubmitted here, at the head of
                // the line, until it commits: its retries are serial
                let mut retries = 0;
                let committed = loop {
                    if db.outcome(flight.tid).map_err(ctx("outcome"))? {
                        break true;
                    }
                    if retries == spec::MAX_RETRIES {
                        break false;
                    }
                    retries += 1;
                    flight.tid = db
                        .submit(transfer_program(first, flight.transfer))
                        .map_err(ctx("resubmit"))?;
                };
                let done = Instant::now();
                out.tracer.leaf("core.outcome", flight.unit, turn, done);
                out.tracer
                    .leaf("exec.unit", flight.unit, flight.submitted, done);
                out.tally
                    .record(w, flight.submitted, done, committed, retries);
                // once the window is over the submitter is gone and nobody
                // takes the permit; the flights still in the channel must
                // be awaited all the same, or the gates would read a
                // ledger with transfers in mid-flight
                let _ = permit_tx.send(());
            }
            Ok(out)
        });
        let submitted = submitter
            .join()
            .unwrap_or_else(|_| Err("submitter panicked".into()));
        let reaped = reaper
            .join()
            .unwrap_or_else(|_| Err("reaper panicked".into()));
        (submitted, reaped)
    });
    let run_s = w.elapsed_s();
    let submitter_tracer = submitted?;
    let mut reaped = reaped?;
    let mut trace = TraceData::default();
    trace.absorb(submitter_tracer);
    trace.absorb(reaped.tracer);

    closed_loop_sheet(&mut res, &w, &mut reaped.tally, p.traced);
    let committed = reaped.tally.committed_total;
    let delta = db.metrics_snapshot().delta(&before);
    let log_tail = db.engine().log().watermarks().tail.0;
    counter_sheet(&mut res, &delta, committed, run_s);
    res.sheet.set(
        "log_bytes_per_txn",
        ratio((log_tail - log_before) as f64, committed as f64),
    );
    res.sheet.set(
        "bench.reaper_hol_frac",
        ratio(reaped.already_terminal as f64, reaped.reaped as f64),
    );
    res.sheet
        .set("core.live_txns_peak", reaped.live_peak as f64);
    if p.traced {
        db.obs().disable_tracing();
        traced_hist_sheet(&mut res.sheet, &delta);
        span_sheet(
            &mut res.sheet,
            &trace,
            "core.submit",
            "core.submit_us_p50",
            None,
        );
        span_sheet(
            &mut res.sheet,
            &trace,
            "core.outcome",
            "core.outcome_us_p50",
            None,
        );
        // of a unit's submit -> outcome time, the part spent neither
        // inside `submit` nor inside the reaper's `outcome` call: the
        // wait for its turn behind earlier outcomes
        let (mut unit, mut inside) = (
            trace.durations("exec.unit"),
            trace.durations("core.outcome"),
        );
        unit.sort_unstable();
        inside.sort_unstable();
        let covered = ratio(
            crate::stats::percentile(&inside, 50.0) as f64,
            crate::stats::percentile(&unit, 50.0) as f64,
        );
        res.sheet
            .set("exec.unattributed_frac", (1.0 - covered).max(0.0));
    }
    conservation_gate(&mut res, &db, first, accounts, "live")?;

    if hot {
        // a quiescent checkpoint, timed once (every transaction has been
        // reaped, so none is live)
        let t0 = Instant::now();
        db.checkpoint().map_err(ctx("checkpoint"))?;
        res.sheet
            .set("storage.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3);
        drop(db);
    } else {
        // drop without a checkpoint and recover from the log alone
        drop(db);
        let t0 = Instant::now();
        let (db, report) = Database::open(config(&data_dir)).map_err(ctx("recovery reopen"))?;
        let secs = t0.elapsed().as_secs_f64();
        let mib = log_tail as f64 / (1u64 << 20) as f64;
        res.sheet.set("recovery_ms_per_mb", ratio(secs * 1e3, mib));
        res.sheet.set(
            "storage.recovery.redone_per_s",
            ratio(report.redone as f64, secs),
        );
        res.gate(report.winners as u64 >= committed, || {
            format!(
                "recovery found {} winners, {committed} commits were acknowledged",
                report.winners
            )
        });
        conservation_gate(&mut res, &db, first, accounts, "after reopen")?;
    }
    setup.finish(p, dir, &mut res, |d| set_up(d, accounts), drop)?;
    Ok((res, trace))
}
