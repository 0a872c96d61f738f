#![cfg(loom)]
//! Loom model checks for the EOS-style latch (`crates/storage/src/latch.rs`).
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p asset-storage --test
//! loom_latch --release`. Loom explores every interleaving of the atomic
//! operations; `loom::cell::UnsafeCell` panics the model if two threads
//! ever access the protected data concurrently in incompatible modes, so
//! these tests prove the latch protocol itself, not one lucky schedule.

use asset_storage::Latch;
use loom::cell::UnsafeCell;
use loom::sync::Arc;
use loom::thread;

#[test]
fn exclusive_holders_are_mutually_exclusive() {
    loom::model(|| {
        let latch = Arc::new(Latch::new());
        let data = Arc::new(UnsafeCell::new(0u32));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let latch = Arc::clone(&latch);
                let data = Arc::clone(&data);
                thread::spawn(move || {
                    let _g = latch.exclusive();
                    // SAFETY: X latch held — loom verifies no concurrent
                    // access to the cell ever happens.
                    data.with_mut(|p| unsafe { *p += 1 });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let _g = latch.exclusive();
        // SAFETY: X latch held; both writers have joined.
        data.with(|p| unsafe { assert_eq!(*p, 2) });
    });
}

#[test]
fn shared_reader_never_overlaps_a_writer() {
    loom::model(|| {
        let latch = Arc::new(Latch::new());
        let data = Arc::new(UnsafeCell::new(0u32));
        let reader = {
            let latch = Arc::clone(&latch);
            let data = Arc::clone(&data);
            thread::spawn(move || {
                let _g = latch.shared();
                // SAFETY: S latch held — the model panics if the writer's
                // mutable access overlaps this immutable one.
                data.with(|p| unsafe { *p })
            })
        };
        {
            let _g = latch.exclusive();
            // SAFETY: X latch held.
            data.with_mut(|p| unsafe { *p = 7 });
        }
        let seen = reader.join().unwrap();
        assert!(seen == 0 || seen == 7);
    });
}

/// The one-CAS X claim of a free latch (`0 → X_HELD`) races an S acquirer
/// and a second X acquirer, which finds the latch busy in the schedules
/// where it comes second and queues as a waiter. In every interleaving no
/// access overlaps a writer's, and every acquirer gets through: no waiter's
/// announcement is lost or left behind in the latch word.
#[test]
fn uncontended_x_claim_races_a_reader_and_a_queued_writer() {
    loom::model(|| {
        let latch = Arc::new(Latch::new());
        let data = Arc::new(UnsafeCell::new(0u32));
        let reader = {
            let latch = Arc::clone(&latch);
            let data = Arc::clone(&data);
            thread::spawn(move || {
                let _g = latch.shared();
                // SAFETY: S latch held — the model panics if a writer's
                // mutable access overlaps this immutable one.
                data.with(|p| unsafe { *p })
            })
        };
        let waiter = {
            let latch = Arc::clone(&latch);
            let data = Arc::clone(&data);
            thread::spawn(move || {
                let _g = latch.exclusive();
                // SAFETY: X latch held.
                data.with_mut(|p| unsafe { *p += 1 });
            })
        };
        {
            let _g = latch.exclusive();
            // SAFETY: X latch held.
            data.with_mut(|p| unsafe { *p += 1 });
        }
        let seen = reader.join().unwrap();
        waiter.join().unwrap();
        assert!(seen <= 2);
        assert!(!latch.is_x_held() && !latch.x_waiting() && latch.s_count() == 0);
        let _g = latch.exclusive();
        // SAFETY: X latch held; every other acquirer has joined.
        data.with(|p| unsafe { assert_eq!(*p, 2) });
    });
}

#[test]
fn try_exclusive_fails_under_any_holder() {
    loom::model(|| {
        let latch = Arc::new(Latch::new());
        let holder = {
            let latch = Arc::clone(&latch);
            thread::spawn(move || {
                let _g = latch.shared();
            })
        };
        // Either the holder is inside its S section (try fails) or it has
        // finished (try succeeds); both are legal, the model only checks
        // that state transitions stay consistent.
        if let Some(g) = latch.try_exclusive() {
            assert_eq!(latch.s_count(), 0);
            drop(g);
        }
        holder.join().unwrap();
    });
}
