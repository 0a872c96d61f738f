//! E2 (permits vs strict 2PL), E6 (cursor stability), E7 (split/join
//! early release + delegation cost).

use super::Scale;
use crate::table::{fmt_duration, fmt_rate, Table};
use crate::workload::{enc_i64, setup_counters};
use asset_common::{Config, ObSet, OpSet};
use asset_core::Database;
use asset_models::split;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// E2 — cooperating writers on shared objects: strict 2PL (each writer is
/// a transaction holding its locks to commit; others block) vs ASSET
/// permits (writers suspend each other's locks and interleave).
///
/// Expected shape: with permits, total wall time stays nearly flat as
/// writers are added; under 2PL it grows linearly (serial execution), so
/// permit speedup grows with the writer count.
pub fn e2_permits_vs_2pl(scale: Scale) -> Table {
    let mut table = Table::new(
        "E2: cooperating writers — permits vs strict 2PL",
        "N long transactions each appending to the same shared object; 2PL serializes, permits interleave",
    )
    .headers(&["writers", "writes/txn", "2PL wall", "permit wall", "speedup"]);

    for writers in [2usize, 4, 8] {
        let writes = scale.n(60);
        // --- strict 2PL: writers run one after another because each holds
        // the write lock until commit. Sequential begin/commit gives the
        // canonical serial baseline without deadlock noise.
        let db = Database::in_memory();
        let shared = setup_counters(&db, 1, 0)[0];
        let start = Instant::now();
        for w in 0..writers {
            let ok = db
                .run(move |ctx| {
                    for i in 0..writes {
                        ctx.write(shared, enc_i64((w * writes + i) as i64))?;
                        // long transaction: think time between updates
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Ok(())
                })
                .unwrap();
            assert!(ok);
        }
        let serial = start.elapsed();

        // --- permits: all writers run concurrently, each permitted to
        // conflict with the others (wildcard permits), commits chained via
        // sequential commit calls.
        let db = Database::in_memory();
        let shared = setup_counters(&db, 1, 0)[0];
        let tids: Vec<_> = (0..writers)
            .map(|w| {
                db.initiate(move |ctx| {
                    for i in 0..writes {
                        ctx.write(shared, enc_i64((w * writes + i) as i64))?;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Ok(())
                })
                .unwrap()
            })
            .collect();
        // every writer permits every other (wildcard grantee)
        for t in &tids {
            db.permit(*t, None, ObSet::one(shared), OpSet::ALL).unwrap();
        }
        let start = Instant::now();
        db.begin_many(&tids).unwrap();
        for t in &tids {
            assert!(db.commit(*t).unwrap());
        }
        let coop = start.elapsed();

        table.row(vec![
            writers.to_string(),
            writes.to_string(),
            fmt_duration(serial),
            fmt_duration(coop),
            format!("{:.1}x", serial.as_secs_f64() / coop.as_secs_f64()),
        ]);
    }
    table
}

/// E6 — cursor stability (§3.2.2): writer progress while a scanner walks
/// the relation, with and without the cursor releasing visited records.
///
/// Expected shape: under repeatable read the writer commits almost nothing
/// until the scan ends (lock timeouts); under cursor stability writer
/// throughput is close to its uncontended rate.
pub fn e6_cursor_stability(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6: cursor stability vs repeatable read",
        "1 scanner over R records (1ms think time per record) + 1 writer updating random visited records",
    )
    .headers(&["mode", "records", "writer commits", "writer aborts", "scan time"]);

    let records = scale.n(40);
    for cursor_stability in [false, true] {
        let db =
            Database::open(Config::in_memory().with_lock_timeout(Some(Duration::from_millis(10))))
                .unwrap()
                .0;
        let oids = Arc::new(setup_counters(&db, records, 0));
        let scan_done = Arc::new(AtomicBool::new(false));
        let commits = Arc::new(AtomicU64::new(0));
        let aborts = Arc::new(AtomicU64::new(0));

        let scan_oids = Arc::clone(&oids);
        let scanner = db
            .initiate(move |ctx| {
                for oid in scan_oids.iter() {
                    ctx.read(*oid)?;
                    if cursor_stability {
                        // release the visited record to writers
                        ctx.permit(ctx.id(), None, ObSet::one(*oid), OpSet::WRITE)?;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            })
            .unwrap();

        let dbw = db.clone();
        let w_oids = Arc::clone(&oids);
        let w_done = Arc::clone(&scan_done);
        let w_commits = Arc::clone(&commits);
        let w_aborts = Arc::clone(&aborts);
        let writer = std::thread::spawn(move || {
            let mut rng = asset_faults::Rng::new(99, 0);
            while !w_done.load(Ordering::SeqCst) {
                // update a record near the front (likely already visited)
                let idx = (rng.below(w_oids.len() as u64 / 2 + 1)) as usize;
                let oid = w_oids[idx];
                match dbw.run(move |ctx| ctx.write(oid, enc_i64(1))) {
                    Ok(true) => {
                        w_commits.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {
                        w_aborts.fetch_add(1, Ordering::SeqCst);
                    }
                }
                dbw.retire_terminated();
            }
        });

        let start = Instant::now();
        db.begin(scanner).unwrap();
        assert!(db.commit(scanner).unwrap());
        let scan_time = start.elapsed();
        scan_done.store(true, Ordering::SeqCst);
        writer.join().unwrap();

        table.row(vec![
            if cursor_stability {
                "cursor stability"
            } else {
                "repeatable read"
            }
            .into(),
            records.to_string(),
            commits.load(Ordering::SeqCst).to_string(),
            aborts.load(Ordering::SeqCst).to_string(),
            fmt_duration(scan_time),
        ]);
    }
    table
}

/// E7 — split transactions (§3.1.5): a long transaction finishes with a
/// hot object early; splitting the hot object off and committing the split
/// releases it to waiters long before the long transaction ends. Also:
/// raw delegation cost vs delegated-set size.
pub fn e7_split_early_release(scale: Scale) -> Table {
    let mut table = Table::new(
        "E7: split/join — early release & delegation cost",
        "waiter latency on a hot object held by a long txn, with/without split; delegate() cost vs set size",
    )
    .headers(&["mode", "param", "measure", "value"]);

    let tail_ms = 25u64.max((scale.n(100) / 4) as u64);
    for use_split in [false, true] {
        let db = Database::in_memory();
        let oids = setup_counters(&db, 2, 0);
        let (hot, cold) = (oids[0], oids[1]);
        let long = db
            .initiate(move |ctx| {
                ctx.write(hot, enc_i64(1))?; // hot work done early
                if use_split {
                    let s = split(ctx, ObSet::one(hot), |_| Ok(()))?;
                    ctx.commit(s)?; // releases the hot object now
                }
                // long tail of unrelated work
                std::thread::sleep(Duration::from_millis(tail_ms));
                ctx.write(cold, enc_i64(2))
            })
            .unwrap();
        db.begin(long).unwrap();
        // commit the long transaction as soon as it completes (locks are
        // held until commit, so the waiter depends on this)
        let dbc = db.clone();
        let committer = std::thread::spawn(move || {
            assert!(dbc.commit(long).unwrap());
        });
        std::thread::sleep(Duration::from_millis(2));
        // the waiter wants the hot object
        let start = Instant::now();
        let ok = db.run(move |ctx| ctx.write(hot, enc_i64(9))).unwrap();
        let waiter_latency = start.elapsed();
        assert!(ok);
        committer.join().unwrap();
        table.row(vec![
            if use_split {
                "with split"
            } else {
                "monolithic"
            }
            .into(),
            format!("tail {tail_ms} ms"),
            "waiter latency".into(),
            fmt_duration(waiter_latency),
        ]);
    }

    // delegation cost vs number of objects
    for n in [1usize, 10, 100, 1000] {
        let db = Database::in_memory();
        let oids = setup_counters(&db, n, 0);
        let o2 = oids.clone();
        let receiver = db.initiate(|_| Ok(())).unwrap();
        let worker = db
            .initiate(move |ctx| {
                for oid in &o2 {
                    ctx.write(*oid, enc_i64(1))?;
                }
                Ok(())
            })
            .unwrap();
        db.begin(worker).unwrap();
        db.wait(worker).unwrap();
        let start = Instant::now();
        db.delegate(worker, receiver, None).unwrap();
        let elapsed = start.elapsed();
        db.begin(receiver).unwrap();
        assert!(db.commit(receiver).unwrap());
        assert!(db.commit(worker).unwrap());
        table.row(vec![
            "delegate-all".into(),
            format!("{n} objects"),
            "delegate() time".into(),
            format!(
                "{} ({})",
                fmt_duration(elapsed),
                fmt_rate(n as u64, elapsed)
            ),
        ]);
    }
    table
}
