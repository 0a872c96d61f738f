//! Multi-level transactions (the paper's §5 future work): a ticket office.
//!
//! ```sh
//! cargo run --example escrow_tickets
//! ```
//!
//! Ten sales agents sell tickets from one escrow-counter inventory,
//! concurrently, each inside a long-lived multi-level transaction. Under
//! plain ASSET locking the agents would serialize on the counter for their
//! whole session; as updates, which share the counter's semantic lock,
//! their decrements interleave — and the escrow floor guarantees the venue
//! is never oversold, even while some sessions abort and are logically
//! undone. A second act runs the paper's own department example: hiring
//! and raises commute.

use asset::models::mlt::{run_mlt, Department, EscrowCounter, MltOutcome};
use asset::Database;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

fn main() -> asset::Result<()> {
    println!("== act 1: the ticket office (escrow counter) ==\n");
    let db = Database::in_memory();
    db.obs().enable_tracing(1 << 14);
    let seats = EscrowCounter::create(&db, 100)?;
    println!("on sale: {} seats", seats.peek(&db));

    let sold = Arc::new(AtomicI64::new(0));
    let refused = Arc::new(AtomicI64::new(0));
    let undone = Arc::new(AtomicI64::new(0));

    std::thread::scope(|scope| {
        for agent in 0..10 {
            let db = db.clone();
            let sold = Arc::clone(&sold);
            let refused = Arc::clone(&refused);
            let undone = Arc::clone(&undone);
            scope.spawn(move || {
                for session in 0..4 {
                    // each session tries to sell a block of 3 tickets;
                    // every 7th session "fails payment" and aborts, which
                    // logically refunds the block
                    let fail_payment = (agent + session) % 7 == 0;
                    let sold2 = Arc::clone(&sold);
                    let refused2 = Arc::clone(&refused);
                    let out = run_mlt(&db, move |mlt| {
                        let mut got = 0;
                        for _ in 0..3 {
                            if seats.sub_bounded(mlt, 1, 0).is_ok() {
                                got += 1;
                            } else {
                                refused2.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        if fail_payment {
                            return mlt.ctx().abort_self();
                        }
                        sold2.fetch_add(got, Ordering::SeqCst);
                        Ok(())
                    })
                    .unwrap();
                    if let MltOutcome::Undone { inverses_run } = out {
                        undone.fetch_add(inverses_run as i64, Ordering::SeqCst);
                    }
                }
            });
        }
    });

    let remaining = seats.peek(&db);
    println!("sold:          {}", sold.load(Ordering::SeqCst));
    println!(
        "refused:       {} (escrow floor held)",
        refused.load(Ordering::SeqCst)
    );
    println!(
        "refunded ops:  {} (aborted sessions, logically undone)",
        undone.load(Ordering::SeqCst)
    );
    println!("seats left:    {remaining}");
    assert_eq!(
        remaining + sold.load(Ordering::SeqCst),
        100,
        "every seat is either still on sale or sold — none lost, none oversold"
    );
    assert!(remaining >= 0);

    let snap = db.metrics_snapshot();
    let (_, _, lw99) = snap.lock_wait_ns.percentiles();
    println!(
        "observability: {} events recorded ({} dropped), lock wait p99 {:.1}µs across 10 agents",
        snap.counters.events_recorded,
        snap.events_dropped,
        lw99 / 1e3
    );

    println!("\n== act 2: the paper's department example (§5) ==\n");
    let db = Database::in_memory();
    let dept = Department::create(&db)?;
    run_mlt(&db, move |mlt| dept.add_employee(mlt, "ada", 100))?;

    // hiring and raising run concurrently: both are updates
    std::thread::scope(|scope| {
        let db1 = db.clone();
        scope.spawn(move || {
            run_mlt(&db1, move |mlt| {
                for (name, salary) in [("grace", 110), ("edsger", 105), ("barbara", 115)] {
                    pause();
                    dept.add_employee(mlt, name, salary)?;
                    println!("   recruiter: hired {name} at {salary}");
                }
                Ok(())
            })
            .unwrap();
        });
        let db2 = db.clone();
        scope.spawn(move || {
            run_mlt(&db2, move |mlt| {
                for _ in 0..3 {
                    pause();
                    dept.raise_salary(mlt, "ada", 10)?;
                    println!("   manager:   gave ada a +10 raise");
                }
                Ok(())
            })
            .unwrap();
        });
    });

    println!("\nfinal roster:");
    for (name, salary) in dept.peek(&db) {
        println!("   {name:<8} {salary}");
    }
    Ok(())
}

/// A short think time, so the interleaving is visible in the output.
fn pause() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}
