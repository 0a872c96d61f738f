#![cfg(loom)]
//! Loom model checks for the sharded lock table — the real
//! [`asset_lock::LockTable`] with two stripes, not a mirror. These
//! exercise the queue/wake protocol (`table.rs`: a blocked request is
//! listed with its waker under the stripe mutex; every grant-relevant
//! change takes the stripe's wakers and invokes them) on loom-tracked
//! mutexes and condvars, for both kinds of waker — the parked thread of
//! `LockTable::lock` and a callback, as the executor's enqueue is — so a
//! lost wakeup shows up as a model deadlock in every CI run, not a flaky
//! hang.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p asset-lock --test
//! loom_stripes --release`.

use asset_common::sync::{Condvar, Mutex};
use asset_common::{AssetError, Oid, Operation, Tid};
use asset_lock::LockTable;
use loom::sync::Arc;
use loom::thread;
use std::task::{Wake, Waker};

/// A callback waker, as the executor's is: waking sets a flag and signals
/// whoever dispatches the task (here the requesting thread itself, which
/// waits for the flag where a worker would pop its run queue).
#[derive(Default)]
struct Requeue {
    queued: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Requeue {
    fn wake(self: std::sync::Arc<Self>) {
        *self.queued.lock() = true;
        self.cv.notify_one();
    }
}

impl Requeue {
    fn next(&self) {
        let mut queued = self.queued.lock();
        while !*queued {
            self.cv.wait(&mut queued);
        }
        *queued = false;
    }
}

/// Drive `tid`'s write request on `ob` as a non-sleeping driver does: one
/// pass; if queued, wait to be requeued by the waker; again.
fn drive(table: &LockTable, tid: Tid, ob: Oid) -> Result<(), AssetError> {
    let requeue = std::sync::Arc::new(Requeue::default());
    let waker = || Waker::from(std::sync::Arc::clone(&requeue));
    while table
        .request(tid, ob, Operation::Write, Some(&waker))?
        .is_err()
    {
        requeue.next();
    }
    Ok(())
}

#[test]
fn release_hands_the_lock_to_a_blocked_waiter() {
    loom::model(|| {
        let table = Arc::new(LockTable::with_shards(2));
        table
            .lock(Tid(1), Oid(1), Operation::Write, None)
            .expect("uncontended grant");
        let waiter = {
            let table = Arc::clone(&table);
            thread::spawn(move || {
                // Blocks until Tid(1) releases; a lost notify deadlocks
                // the model and fails the test.
                table
                    .lock(Tid(2), Oid(1), Operation::Write, None)
                    .expect("granted after release");
                table.release_all(Tid(2));
            })
        };
        table.release_all(Tid(1));
        waiter.join().unwrap();
    });
}

#[test]
fn distinct_objects_on_two_stripes_do_not_interfere() {
    loom::model(|| {
        let table = Arc::new(LockTable::with_shards(2));
        let handles: Vec<_> = [Tid(1), Tid(2)]
            .into_iter()
            .map(|tid| {
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    let ob = Oid(tid.raw());
                    table
                        .lock(tid, ob, Operation::Write, None)
                        .expect("uncontended grant on own object");
                    assert_eq!(table.locked_objects(tid), vec![ob]);
                    table.release_all(tid);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn readers_share_while_a_writer_waits() {
    loom::model(|| {
        let table = Arc::new(LockTable::with_shards(2));
        table
            .lock(Tid(1), Oid(1), Operation::Read, None)
            .expect("first reader");
        let writer = {
            let table = Arc::clone(&table);
            thread::spawn(move || {
                table
                    .lock(Tid(3), Oid(1), Operation::Write, None)
                    .expect("writer granted once readers drain");
                table.release_all(Tid(3));
            })
        };
        table
            .lock(Tid(2), Oid(1), Operation::Read, None)
            .expect("second reader shares");
        table.release_all(Tid(2));
        table.release_all(Tid(1));
        writer.join().unwrap();
    });
}

/// Queued-then-released and released-then-queued must both end granted:
/// the request is listed, with its waker, under the same stripe mutex as
/// the attempt that failed, so the release either precedes the attempt or
/// finds the waker.
#[test]
fn release_never_loses_a_callback_waker() {
    loom::model(|| {
        let table = Arc::new(LockTable::with_shards(2));
        table
            .lock(Tid(1), Oid(1), Operation::Write, None)
            .expect("uncontended grant");
        let driver = {
            let table = Arc::clone(&table);
            thread::spawn(move || {
                drive(&table, Tid(2), Oid(1)).expect("granted after release");
                table.release_all(Tid(2));
            })
        };
        table.release_all(Tid(1));
        driver.join().unwrap();
    });
}

/// The poison set lives outside every stripe. `poison` bumps its count and
/// then takes each stripe mutex in turn to collect wakers (DESIGN.md §6:
/// count-bump-then-lock-bump, here for wakers): a request on the second
/// stripe either checked for poison after the bump, or was listed before
/// `poison` reached its stripe and is woken to check again. The holder
/// never releases, so a missed poison is a model deadlock.
#[test]
fn poison_reaches_a_request_queued_on_another_stripe() {
    loom::model(|| {
        let table = Arc::new(LockTable::with_shards(2));
        // Oid(3) hashes to stripe 1, the one `poison` visits last
        table
            .lock(Tid(1), Oid(3), Operation::Write, None)
            .expect("uncontended grant");
        let driver = {
            let table = Arc::clone(&table);
            thread::spawn(move || {
                let err = drive(&table, Tid(2), Oid(3)).expect_err("the holder never releases");
                assert!(matches!(err, AssetError::TxnAborted(Tid(2))));
                table.release_all(Tid(2));
                assert!(table.pending(Oid(3)).is_empty());
            })
        };
        table.poison(Tid(2));
        driver.join().unwrap();
    });
}
