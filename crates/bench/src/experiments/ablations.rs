//! E12 — ablations of design choices DESIGN.md calls out:
//!
//! * **semantic concurrency (MLT, §5 future work) vs flat ASSET locking**
//!   on a hot escrow counter — the benefit of commutativity;
//! * **logical vs physical undo** — abort cost and, more importantly,
//!   *collateral damage*: physical before-image undo wipes later
//!   cooperative updates (the §4.2 caveat), logical undo does not;
//! * **the EOS spin latch vs the OS rwlock** (`asset_common::sync::RwLock`,
//!   i.e. `std`'s) for the short critical sections it protects.

use super::Scale;
use crate::table::{fmt_duration, fmt_rate, Table};
use crate::workload::parallel_time;
use asset_core::Database;
use asset_models::mlt::{run_mlt, EscrowCounter, MltOutcome};
use asset_storage::Latch;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// E12 — ablation suite.
pub fn e12_ablations(scale: Scale) -> Table {
    let mut table = Table::new(
        "E12: ablations",
        "MLT semantic locking vs flat 2PL on a hot counter; logical vs physical undo; EOS latch vs OS rwlock",
    )
    .headers(&["ablation", "variant", "param", "result"]);

    // --- MLT vs flat locking on a hot counter --------------------------
    // K long-lived sessions each perform S increments with think time.
    // Flat: one ASSET transaction per session → the counter lock is held
    // across the whole session, serializing sessions. MLT: each increment
    // is an open-nested op; sessions interleave.
    let sessions = 4usize;
    let increments = scale.n(8).min(12);
    let think = Duration::from_millis(1);
    for use_mlt in [false, true] {
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let elapsed = parallel_time(sessions, |_| {
            if use_mlt {
                let out = run_mlt(&db, move |mlt| {
                    for _ in 0..increments {
                        counter.add(mlt, 1)?;
                        std::thread::sleep(think);
                    }
                    Ok(())
                })
                .unwrap();
                assert_eq!(out, MltOutcome::Committed);
            } else {
                let h = counter.handle();
                assert!(db
                    .run(move |ctx| {
                        for _ in 0..increments {
                            ctx.modify(h, |v| v + 1)?;
                            std::thread::sleep(think);
                        }
                        Ok(())
                    })
                    .unwrap());
            }
        });
        assert_eq!(counter.peek(&db), (sessions * increments) as i64);
        table.row(vec![
            "hot counter".into(),
            if use_mlt {
                "MLT (commuting ops)"
            } else {
                "flat 2PL"
            }
            .into(),
            format!("{sessions} sessions x {increments} incs"),
            fmt_duration(elapsed),
        ]);
    }

    // --- logical vs physical undo: collateral damage --------------------
    // t1 updates the object, t2 (cooperating via permit) updates on top
    // and commits; then t1 aborts. Physical undo installs t1's before
    // image, destroying t2's committed work. Logical undo (inverse op)
    // preserves it. We report what survives.
    {
        // physical (plain ASSET with permits)
        let db = Database::in_memory();
        let oid = db.new_oid();
        assert!(db
            .run(move |ctx| ctx.write(oid, 0i64.to_le_bytes().to_vec()))
            .unwrap());
        let t1 = db
            .initiate(move |ctx| {
                ctx.update(oid, |cur| {
                    let v = i64::from_le_bytes(cur.unwrap().try_into().unwrap());
                    (v + 10).to_le_bytes().to_vec()
                })
            })
            .unwrap();
        db.begin(t1).unwrap();
        db.wait(t1).unwrap();
        db.permit(
            t1,
            None,
            asset_common::ObSet::one(oid),
            asset_common::OpSet::ALL,
        )
        .unwrap();
        assert!(db
            .run(move |ctx| {
                ctx.update(oid, |cur| {
                    let v = i64::from_le_bytes(cur.unwrap().try_into().unwrap());
                    (v + 100).to_le_bytes().to_vec()
                })
            })
            .unwrap());
        db.abort(t1).unwrap();
        let survives = i64::from_le_bytes(db.peek(oid).unwrap().unwrap().try_into().unwrap());
        table.row(vec![
            "undo semantics".into(),
            "physical (before image)".into(),
            "t2's committed +100 after t1's abort".into(),
            format!("final = {survives} (cooperative update lost)"),
        ]);
        assert_eq!(survives, 0, "physical undo wipes the cooperative update");
    }
    {
        // logical (MLT): t1 adds 10 (parent still alive), t2 adds a
        // commuting +100 and commits, then t1 aborts — the inverse removes
        // only t1's own +10
        let db = Database::in_memory();
        let counter = EscrowCounter::create(&db, 0).unwrap();
        let (added, after_add) = mpsc::channel();
        let (go, gate) = mpsc::channel::<()>();
        let db1 = db.clone();
        let t1 = std::thread::spawn(move || {
            run_mlt(&db1, move |mlt| {
                counter.add(mlt, 10)?;
                let _ = added.send(());
                let _ = gate.recv();
                mlt.ctx().abort_self()
            })
            .unwrap()
        });
        after_add.recv().unwrap();
        let out2 = run_mlt(&db, move |mlt| counter.add(mlt, 100)).unwrap();
        assert_eq!(out2, MltOutcome::Committed);
        go.send(()).unwrap();
        let out1 = t1.join().unwrap();
        assert_eq!(out1, MltOutcome::Undone { inverses_run: 1 });
        let survives = counter.peek(&db);
        table.row(vec![
            "undo semantics".into(),
            "logical (inverse op, MLT)".into(),
            "t2's committed +100 after t1's abort".into(),
            format!("final = {survives} (cooperative update preserved)"),
        ]);
        assert_eq!(survives, 100);
    }

    // --- EOS latch vs the std RwLock --------------------------------------
    let n = scale.n(200_000);
    for threads in [1usize, 4] {
        let latch = Latch::new();
        let elapsed = parallel_time(threads, |_| {
            for _ in 0..n / threads {
                let _g = latch.exclusive();
            }
        });
        table.row(vec![
            "latch impl".into(),
            "EOS spin latch (X)".into(),
            format!("{threads} threads x {} acquires", n / threads),
            format!(
                "{} / acquire",
                fmt_duration(elapsed / (n as u32 / threads as u32))
            ),
        ]);

        let rw = asset_common::sync::RwLock::new(());
        let elapsed = parallel_time(threads, |_| {
            for _ in 0..n / threads {
                let _g = rw.write();
            }
        });
        table.row(vec![
            "latch impl".into(),
            "std RwLock (W)".into(),
            format!("{threads} threads x {} acquires", n / threads),
            format!(
                "{} / acquire",
                fmt_duration(elapsed / (n as u32 / threads as u32))
            ),
        ]);
    }

    // shared-mode throughput comparison
    let latch = Latch::new();
    let start = Instant::now();
    for _ in 0..n {
        let _g = latch.shared();
    }
    let latch_s = start.elapsed();
    let rw = asset_common::sync::RwLock::new(());
    let start = Instant::now();
    for _ in 0..n {
        let _g = rw.read();
    }
    let rw_s = start.elapsed();
    table.row(vec![
        "latch impl".into(),
        "S-mode, single thread".into(),
        format!("{n} acquires each"),
        format!(
            "latch {} vs rwlock {}",
            fmt_rate(n as u64, latch_s),
            fmt_rate(n as u64, rw_s)
        ),
    ]);

    table
}
