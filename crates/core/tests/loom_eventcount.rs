#![cfg(loom)]
//! Loom model checks for the txn-table event count protocol
//! (`crates/core/src/txns.rs`): a waiter snapshots the epoch, evaluates
//! its predicate, and sleeps only if the epoch is unchanged, so a
//! notification landing between the predicate check and the sleep just
//! makes the sleep return immediately — no state change can be lost.
//!
//! `TxnTable` is crate-private, so the protocol is mirrored here verbatim
//! over the same `asset_common::sync` primitives the table uses; the
//! third test shows loom *catching* the naive check-then-sleep bug the
//! event count exists to prevent.
//!
//! The mirror includes the sleeper count: a bump that finds no sleeper
//! counted skips `notify_all`, so these models also prove that skipping it
//! loses no wakeup — a sleeper counts itself under the epoch mutex before
//! it sleeps, so a bump either sees it or precedes its epoch check.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p asset-core --test
//! loom_eventcount --release`.

use asset_common::sync::{Condvar, Mutex};
use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Mirror of the `TxnTable` event count: the epoch and its sleeper count
/// under one mutex, and a condvar.
struct EventCount {
    epoch: Mutex<(u64, usize)>,
    cv: Condvar,
}

impl EventCount {
    fn new() -> EventCount {
        EventCount {
            epoch: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.lock().0
    }

    fn wait_event(&self, seen: u64) {
        let mut ep = self.epoch.lock();
        while ep.0 == seen {
            ep.1 += 1;
            self.cv.wait(&mut ep);
            ep.1 -= 1;
        }
    }

    fn bump(&self) {
        let sleepers = {
            let mut ep = self.epoch.lock();
            ep.0 += 1;
            ep.1
        };
        if sleepers > 0 {
            self.cv.notify_all();
        }
    }
}

#[test]
fn event_count_never_loses_a_wakeup() {
    loom::model(|| {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let ec = Arc::clone(&ec);
            let flag = Arc::clone(&flag);
            thread::spawn(move || loop {
                let seen = ec.epoch();
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                ec.wait_event(seen);
            })
        };
        flag.store(true, Ordering::SeqCst);
        ec.bump();
        waiter.join().unwrap();
    });
}

#[test]
fn two_waiters_both_observe_the_change() {
    loom::model(|| {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let ec = Arc::clone(&ec);
                let flag = Arc::clone(&flag);
                thread::spawn(move || loop {
                    let seen = ec.epoch();
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    ec.wait_event(seen);
                })
            })
            .collect();
        flag.store(true, Ordering::SeqCst);
        ec.bump();
        for h in handles {
            h.join().unwrap();
        }
    });
}

/// The bug the event count replaces: check the flag, drop the lock, then
/// re-lock and sleep. The notification can land in the gap and the sleep
/// never returns. Loom finds that interleaving and reports the deadlock.
#[test]
#[should_panic]
fn naive_check_then_sleep_loses_the_wakeup() {
    loom::model(|| {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let waiter = {
            let m = Arc::clone(&m);
            let cv = Arc::clone(&cv);
            thread::spawn(move || {
                if !*m.lock() {
                    let mut g = m.lock();
                    cv.wait(&mut g); // BUG: flag may already be true
                }
            })
        };
        *m.lock() = true;
        cv.notify_all();
        waiter.join().unwrap();
    });
}
