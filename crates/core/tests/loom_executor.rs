#![cfg(loom)]
//! Loom model checks for the executor's park/wake handoff
//! (`crates/core/src/exec.rs`): a worker whose lock request blocks has it
//! *queued by the lock table under the same stripe mutex as the failed
//! attempt* (`LockTable::request` — one attempt, nothing to re-check),
//! and then parks via `CAS RUNNING → PARKED`; the grant side releases
//! and takes the stripe's wakers under the stripe mutex (`LockTable::wake`),
//! and each waker enqueues its task via `CAS PARKED → QUEUED` (push +
//! notify) or `CAS RUNNING → RUNNING_DIRTY` (the worker's park CAS then
//! fails and it requeues itself). The theorem: no interleaving of the
//! release with the attempt/park window strands a parked task whose lock
//! was granted.
//!
//! The scheduling word and queues are crate-private, so the protocol is
//! mirrored here verbatim over the same `asset_common::sync` primitives
//! (the table's half is checked on the real table in `asset-lock`'s
//! `loom_stripes.rs`); the last test shows loom *catching* the naive
//! plain-store park (it erases a concurrent `QUEUED` and deadlocks), which
//! is exactly the bug the `RUNNING_DIRTY` state exists to prevent.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p asset-core --test
//! loom_executor --release`.

use asset_common::sync::{Condvar, Mutex};
use loom::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use loom::sync::Arc;
use loom::thread;
use std::collections::VecDeque;

const PARKED: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;

/// One lock-table stripe, reduced to the contended entry: the lock word
/// and the wakers of the requests queued on it, under one mutex.
struct Stripe {
    locked: bool,
    wakers: Vec<u32>,
}

/// Mirror of one executor task's scheduling state: the per-task word, a
/// run queue, and the stripe its request is on.
struct Model {
    sched: AtomicU8,
    queue: Mutex<VecDeque<u32>>,
    queue_cv: Condvar,
    stripe: Mutex<Stripe>,
    acquired: AtomicBool,
}

impl Model {
    /// Task starts queued (as `Database::submit` leaves it) with the
    /// stripe entry held by the other transaction.
    fn new() -> Model {
        Model {
            sched: AtomicU8::new(QUEUED),
            queue: Mutex::new(VecDeque::from([0])),
            queue_cv: Condvar::new(),
            stripe: Mutex::new(Stripe {
                locked: true,
                wakers: Vec::new(),
            }),
            acquired: AtomicBool::new(false),
        }
    }

    fn push(&self) {
        self.queue.lock().push_back(0);
        self.queue_cv.notify_one();
    }

    /// Grant-side wakeup (`ExecInner::enqueue`): parked → queue it;
    /// running → mark dirty so the park CAS fails and the worker requeues
    /// itself; queued/dirty → someone else already did.
    fn enqueue(&self) {
        loop {
            match self
                .sched
                .compare_exchange(PARKED, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.push();
                    return;
                }
                Err(RUNNING) => {
                    if self
                        .sched
                        .compare_exchange(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                Err(_) => return, // QUEUED or RUNNING_DIRTY: wakeup already pending
            }
        }
    }

    /// `StepCtx::try_acquire` → `LockTable::request`: a single attempt;
    /// on a block the waker is listed before the stripe mutex is let go,
    /// so a release is either seen by the attempt or finds the waker.
    fn try_acquire(&self) -> bool {
        let mut stripe = self.stripe.lock();
        if stripe.locked {
            stripe.wakers.push(0);
        }
        !stripe.locked
    }

    /// `LockTable::release_all` ending in `LockTable::wake`: clear the
    /// entry and take the wakers under the stripe mutex, invoke them with
    /// it released.
    fn release_and_wake(&self) {
        let mut stripe = self.stripe.lock();
        stripe.locked = false;
        let woken = std::mem::take(&mut stripe.wakers);
        drop(stripe);
        for _ in woken {
            self.enqueue();
        }
    }
}

/// One pool worker (`ExecInner::run_task`). `safe_park` selects the real
/// `CAS RUNNING → PARKED` protocol; `false` models the naive plain store
/// that erases a concurrent `QUEUED`.
fn worker(m: &Model, safe_park: bool) {
    loop {
        {
            let mut q = m.queue.lock();
            while q.pop_front().is_none() {
                m.queue_cv.wait(&mut q);
            }
        }
        if m.sched
            .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            continue; // stale queue entry; the claim raced a newer state
        }
        if m.try_acquire() {
            m.acquired.store(true, Ordering::SeqCst);
            return;
        }
        if safe_park {
            match m
                .sched
                .compare_exchange(RUNNING, PARKED, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {}
                Err(_) => {
                    // RUNNING_DIRTY: a grant landed while we were
                    // stepping; requeue instead of parking
                    m.sched.store(QUEUED, Ordering::SeqCst);
                    m.push();
                }
            }
        } else {
            // BUG: overwrites a concurrent PARKED→QUEUED transition
            m.sched.store(PARKED, Ordering::SeqCst);
        }
    }
}

#[test]
fn executor_handoff_never_loses_the_grant() {
    loom::model(|| {
        let m = Arc::new(Model::new());
        let w = {
            let m = Arc::clone(&m);
            thread::spawn(move || worker(&m, true))
        };
        let g = {
            let m = Arc::clone(&m);
            thread::spawn(move || m.release_and_wake())
        };
        w.join().unwrap();
        g.join().unwrap();
        assert!(m.acquired.load(Ordering::SeqCst), "grant lost");
    });
}

/// Two wake sources race (the lock table's wake and the broadcast the
/// txn-table bump hook performs): the task must still run exactly to
/// completion — duplicate wakeups collapse into the QUEUED/RUNNING_DIRTY
/// states, and a stale queue entry is skipped by the claim CAS.
#[test]
fn duplicate_wakeups_are_idempotent() {
    loom::model(|| {
        let m = Arc::new(Model::new());
        let w = {
            let m = Arc::clone(&m);
            thread::spawn(move || worker(&m, true))
        };
        let g = {
            let m = Arc::clone(&m);
            thread::spawn(move || m.release_and_wake())
        };
        let b = {
            let m = Arc::clone(&m);
            thread::spawn(move || m.enqueue()) // spurious broadcast wake
        };
        w.join().unwrap();
        g.join().unwrap();
        b.join().unwrap();
        assert!(m.acquired.load(Ordering::SeqCst), "grant lost");
    });
}

/// The bug `RUNNING_DIRTY` prevents: parking with a plain store. The
/// grant can land between the failed attempt and the store — enqueue
/// flips RUNNING→RUNNING_DIRTY (or PARKED→QUEUED), the store erases it,
/// and the task sleeps forever on an empty queue. Loom finds the
/// interleaving and reports the deadlock.
#[test]
#[should_panic]
fn naive_plain_store_park_loses_the_wakeup() {
    loom::model(|| {
        let m = Arc::new(Model::new());
        let w = {
            let m = Arc::clone(&m);
            thread::spawn(move || worker(&m, false))
        };
        let g = {
            let m = Arc::clone(&m);
            thread::spawn(move || m.release_and_wake())
        };
        w.join().unwrap();
        g.join().unwrap();
        assert!(m.acquired.load(Ordering::SeqCst), "grant lost");
    });
}
