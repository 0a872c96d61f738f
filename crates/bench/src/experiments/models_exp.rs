//! E3 (nested), E4 (sagas), E8 (workflow), E11 (contingent).

use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::workload::{enc_i64, setup_counters};
use asset_core::{Database, TxnCtx};
use asset_faults::Rng;
use asset_models::workflow::travel::{run_x_conference, TravelWorld};
use asset_models::{
    required_subtransaction, run_atomic, run_contingent, Saga, SagaOutcome, WorkflowOutcome,
};
use std::time::{Duration, Instant};

/// E3 — nested transactions (§3.1.4): overhead of nesting (permit +
/// delegate + a child transaction per level, run by the parent that waits
/// for it) vs an equivalent flat transaction,
/// across depth and fanout; plus child-abort containment cost.
pub fn e3_nested(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3: nested transaction overhead",
        "nested (1 child per level / fanout children) vs flat transaction doing the same writes",
    )
    .headers(&["shape", "writes", "flat", "nested", "overhead"]);

    // depth sweep: a chain of subtransactions, one write each
    for depth in [1usize, 2, 4, 6] {
        let iters = scale.n(40);
        let db = Database::in_memory();
        let oids = setup_counters(&db, depth, 0);

        let o2 = oids.clone();
        let flat = time_avg(iters, || {
            let o = o2.clone();
            assert!(run_atomic(&db, move |ctx| {
                for oid in &o {
                    ctx.write(*oid, enc_i64(1))?;
                }
                Ok(())
            })
            .unwrap());
        });

        let o2 = oids.clone();
        let nested = time_avg(iters, || {
            let o = o2.clone();
            fn descend(ctx: &TxnCtx, oids: &[asset_common::Oid]) -> asset_common::Result<()> {
                let Some((first, rest)) = oids.split_first() else {
                    return Ok(());
                };
                let first = *first;
                let rest = rest.to_vec();
                required_subtransaction(ctx, move |c| {
                    c.write(first, enc_i64(2))?;
                    descend(c, &rest)
                })
            }
            assert!(run_atomic(&db, move |ctx| descend(ctx, &o)).unwrap());
        });

        table.row(vec![
            format!("depth {depth}"),
            depth.to_string(),
            fmt_duration(flat),
            fmt_duration(nested),
            format!("{:.1}x", nested.as_secs_f64() / flat.as_secs_f64()),
        ]);
    }

    // fanout sweep: root with f children, one write each
    for fanout in [1usize, 2, 4, 8] {
        let iters = scale.n(40);
        let db = Database::in_memory();
        let oids = setup_counters(&db, fanout, 0);

        let o2 = oids.clone();
        let flat = time_avg(iters, || {
            let o = o2.clone();
            assert!(run_atomic(&db, move |ctx| {
                for oid in &o {
                    ctx.write(*oid, enc_i64(1))?;
                }
                Ok(())
            })
            .unwrap());
        });

        let o2 = oids.clone();
        let nested = time_avg(iters, || {
            let o = o2.clone();
            assert!(run_atomic(&db, move |ctx| {
                for oid in &o {
                    let oid = *oid;
                    required_subtransaction(ctx, move |c| c.write(oid, enc_i64(2)))?;
                }
                Ok(())
            })
            .unwrap());
        });

        table.row(vec![
            format!("fanout {fanout}"),
            fanout.to_string(),
            fmt_duration(flat),
            fmt_duration(nested),
            format!("{:.1}x", nested.as_secs_f64() / flat.as_secs_f64()),
        ]);
    }
    table
}

/// E4 — sagas (§3.1.6): saga vs one long flat transaction under
/// contention for a hot object, and compensation cost vs abort position.
pub fn e4_sagas(scale: Scale) -> Table {
    let mut table = Table::new(
        "E4: sagas vs long transactions; compensation cost",
        "K workers × n-step chains over a hot object (1ms think/step): saga releases per step, flat holds to the end; then compensation cost vs abort position",
    )
    .headers(&["mode", "param", "wall/mean", "note"]);

    // contention comparison: each step touches the hot object + a private
    // object, with think time. Sagas commit per step (hot lock released
    // each step); one flat transaction holds the hot lock across all steps.
    let steps = 6usize;
    let workers = 4usize;
    let think = Duration::from_millis(1);
    for use_saga in [false, true] {
        let db = Database::in_memory();
        let hot = setup_counters(&db, 1, 0)[0];
        let privates = setup_counters(&db, workers * steps, 0);
        let elapsed = crate::workload::parallel_time(workers, |w| {
            // each step: private work with think time, then a brief touch
            // of the hot object. A saga releases the hot lock at each step
            // commit; the flat transaction acquires it at step 1 and holds
            // it across every later step's think time.
            if use_saga {
                let mut saga = Saga::new();
                for s in 0..steps {
                    let private = privates[w * steps + s];
                    saga = saga.step(
                        format!("s{s}"),
                        move |ctx: &TxnCtx| {
                            ctx.write(private, enc_i64(1))?;
                            std::thread::sleep(think);
                            ctx.update(hot, |cur| {
                                enc_i64(crate::workload::dec_i64(&cur.unwrap()) + 1)
                            })
                        },
                        move |ctx: &TxnCtx| {
                            ctx.update(hot, |cur| {
                                enc_i64(crate::workload::dec_i64(&cur.unwrap()) - 1)
                            })
                        },
                    );
                }
                let (outcome, _) = saga.run(&db).unwrap();
                assert_eq!(outcome, SagaOutcome::Committed);
            } else {
                let privs: Vec<_> = (0..steps).map(|s| privates[w * steps + s]).collect();
                assert!(run_atomic(&db, move |ctx| {
                    for private in &privs {
                        ctx.write(*private, enc_i64(1))?;
                        std::thread::sleep(think);
                        ctx.update(hot, |cur| {
                            enc_i64(crate::workload::dec_i64(&cur.unwrap()) + 1)
                        })?;
                    }
                    Ok(())
                })
                .unwrap());
            }
        });
        table.row(vec![
            if use_saga {
                "saga (per-step commit)"
            } else {
                "single long txn"
            }
            .into(),
            format!("{workers} workers x {steps} steps"),
            fmt_duration(elapsed),
            if use_saga {
                "hot lock released each step"
            } else {
                "hot lock held to commit"
            }
            .into(),
        ]);
    }

    // compensation cost vs abort position in a length-n saga
    let n = 16usize;
    for abort_at in [1usize, 4, 8, 15] {
        let iters = scale.n(30);
        let db = Database::in_memory();
        let oids = setup_counters(&db, n, 0);
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let mut saga = Saga::new();
            for (s, oid) in oids.iter().enumerate().take(n) {
                let oid = *oid;
                let fails = s == abort_at;
                saga = saga.step(
                    format!("s{s}"),
                    move |ctx: &TxnCtx| {
                        if fails {
                            return ctx.abort_self();
                        }
                        ctx.write(oid, enc_i64(1))
                    },
                    move |ctx: &TxnCtx| ctx.write(oid, enc_i64(0)),
                );
            }
            let start = Instant::now();
            let (outcome, trace) = saga.run(&db).unwrap();
            total += start.elapsed();
            assert_eq!(
                outcome,
                SagaOutcome::Compensated {
                    failed_step: abort_at
                }
            );
            assert_eq!(trace.events.len(), 2 * abort_at);
            db.retire_terminated();
        }
        table.row(vec![
            "compensation".into(),
            format!("abort at step {abort_at}/{n}"),
            fmt_duration(total / iters as u32),
            format!("{} compensating txns", abort_at),
        ]);
    }
    table
}

/// E8 — the appendix workflow under failure injection: availability
/// scenarios sweep; success rate, fallback rate, compensation count.
pub fn e8_workflow(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8: X_conference workflow under failure injection",
        "runs of the appendix travel activity against randomized inventory; per-scenario outcome mix",
    )
    .headers(&["scenario", "runs", "succeeded", "fallback flights", "failed", "mean latency"]);

    let runs = scale.n(200);
    let scenarios: &[(&str, [u64; 6])] = &[
        ("abundant (all=runs)", [u64::MAX; 6]),
        ("delta scarce", [0, u64::MAX, u64::MAX, u64::MAX, 4, 4]),
        ("hotel tight (50%)", [u64::MAX, u64::MAX, u64::MAX, 0, 4, 4]),
        ("cars gone", [u64::MAX, u64::MAX, u64::MAX, u64::MAX, 0, 0]),
    ];
    for (name, caps) in scenarios {
        let db = Database::in_memory();
        let cap = |c: u64, frac: f64| -> u64 {
            if c == u64::MAX {
                runs as u64
            } else if c == 0 && frac > 0.0 {
                ((runs as f64) * frac) as u64
            } else {
                c
            }
        };
        // "hotel tight": half the runs' worth of rooms; others: 0 stays 0
        let hotel_frac = if name.starts_with("hotel") { 0.5 } else { 0.0 };
        let delta_frac = 0.0;
        let world = TravelWorld::setup(
            &db,
            cap(caps[0], delta_frac),
            cap(caps[1], 0.0),
            cap(caps[2], 0.0),
            cap(caps[3], hotel_frac),
            cap(caps[4], 0.0),
            cap(caps[5], 0.0),
        )
        .unwrap();
        let mut succeeded = 0u64;
        let mut fallback = 0u64;
        let mut failed = 0u64;
        let start = Instant::now();
        for _ in 0..runs {
            let (outcome, results) = run_x_conference(&db, &world).unwrap();
            match outcome {
                WorkflowOutcome::Completed => {
                    succeeded += 1;
                    if results[0].chosen.as_deref() != Some("Delta") {
                        fallback += 1;
                    }
                }
                WorkflowOutcome::Failed { .. } => failed += 1,
            }
            db.retire_terminated();
        }
        let elapsed = start.elapsed();
        table.row(vec![
            name.to_string(),
            runs.to_string(),
            succeeded.to_string(),
            fallback.to_string(),
            failed.to_string(),
            fmt_duration(elapsed / runs as u32),
        ]);
    }
    table
}

/// E11 — contingent transactions (§3.1.3): alternatives tried vs failure
/// probability, and the cost of the cascade.
pub fn e11_contingent(scale: Scale) -> Table {
    let mut table = Table::new(
        "E11: contingent transaction cascade",
        "k alternatives, each failing with probability p; attempts used and latency",
    )
    .headers(&[
        "alternatives",
        "p(fail)",
        "runs",
        "mean attempts",
        "none viable",
        "mean latency",
    ]);

    let runs = scale.n(300);
    for k in [2usize, 4, 8] {
        for p in [0.2f64, 0.5, 0.8] {
            let db = Database::in_memory();
            let sink = setup_counters(&db, 1, 0)[0];
            let mut rng = Rng::new(k as u64, (p * 10.0) as u64);
            let mut attempts_total = 0u64;
            let mut exhausted = 0u64;
            let start = Instant::now();
            for _ in 0..runs {
                let fail_flags: Vec<bool> = (0..k)
                    .map(|_| rng.below(1000) < (p * 1000.0) as u64)
                    .collect();
                let alternatives = fail_flags
                    .iter()
                    .map(|&fails| {
                        Box::new(move |ctx: &TxnCtx| {
                            if fails {
                                ctx.abort_self::<()>().map(|_| ())
                            } else {
                                ctx.write(sink, enc_i64(1))
                            }
                        })
                            as Box<dyn FnOnce(&TxnCtx) -> asset_common::Result<()> + Send>
                    })
                    .collect();
                match run_contingent(&db, alternatives).unwrap() {
                    Some(i) => attempts_total += i as u64 + 1,
                    None => {
                        attempts_total += k as u64;
                        exhausted += 1;
                    }
                }
                db.retire_terminated();
            }
            let elapsed = start.elapsed();
            table.row(vec![
                k.to_string(),
                format!("{p:.1}"),
                runs.to_string(),
                format!("{:.2}", attempts_total as f64 / runs as f64),
                exhausted.to_string(),
                fmt_duration(elapsed / runs as u32),
            ]);
        }
    }
    table
}

fn time_avg(iters: usize, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}
