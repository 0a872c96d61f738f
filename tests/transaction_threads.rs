//! The transaction threads behind `begin`, counted: how many threads the
//! blocking API spawns, how many it keeps, and that handing bodies to
//! reused threads — or running them on a caller about to wait — keeps
//! `begin`'s contract that every begun body runs whether or not anyone
//! waits for it.

use asset::faults::within;
use asset::txn::IDLE_TXN_THREADS_MAX;
use asset::{AssetError, Database, DepType, Tid, TxnStatus};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A generous bound on anything that should happen at once: the tests
/// fail here instead of hanging.
const PATIENCE: Duration = Duration::from_secs(60);

fn spawned(db: &Database) -> u64 {
    db.metrics_snapshot().counters.txn_threads_spawned
}

/// Transaction threads alive (spawned and not exited).
fn live_threads(db: &Database) -> u64 {
    let c = db.metrics_snapshot().counters;
    c.txn_threads_spawned - c.txn_threads_exited
}

/// A gate bodies block on until the test opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Yield until `cond` holds; panic after [`PATIENCE`].
fn until(what: &str, mut cond: impl FnMut() -> bool + Send + 'static) {
    within(PATIENCE, what, move || {
        while !cond() {
            std::thread::yield_now();
        }
    });
}

#[test]
fn a_thousand_runs_spawn_no_thread() {
    let db = Database::in_memory();
    let oid = db.new_oid();
    for i in 0..1_000u32 {
        assert!(db
            .run(move |ctx| ctx.write(oid, i.to_le_bytes().to_vec()))
            .unwrap());
    }
    assert_eq!(spawned(&db), 0, "`run` claims its body at begin");
}

#[test]
fn a_thousand_sequential_begins_spawn_at_most_two_threads() {
    let db = Database::in_memory();
    let oid = db.new_oid();
    for i in 0..1_000u32 {
        let t = db
            .initiate(move |ctx| ctx.write(oid, i.to_le_bytes().to_vec()))
            .unwrap();
        db.begin(t).unwrap();
        assert!(db.commit(t).unwrap());
    }
    let n = spawned(&db);
    assert!(n <= 2, "{n} threads spawned for one body at a time");
}

#[test]
fn a_burst_of_blocked_bodies_leaves_at_most_the_idle_bound() {
    const BODIES: usize = 256;
    let db = Database::in_memory();
    let gate = Arc::new(Gate::default());
    let started = Arc::new(AtomicUsize::new(0));
    let tids: Vec<Tid> = (0..BODIES)
        .map(|_| {
            let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
            let t = db
                .initiate(move |_| {
                    started.fetch_add(1, Ordering::SeqCst);
                    gate.pass();
                    Ok(())
                })
                .unwrap();
            db.begin(t).unwrap();
            t
        })
        .collect();
    // every body is blocked at once, each on a thread of its own
    let all_started = Arc::clone(&started);
    until("every body to start", move || {
        all_started.load(Ordering::SeqCst) == BODIES
    });
    assert_eq!(spawned(&db), BODIES as u64);
    gate.open();
    for t in &tids {
        assert!(db.commit(*t).unwrap());
    }
    let db2 = db.clone();
    until("surplus threads to exit", move || {
        live_threads(&db2) <= IDLE_TXN_THREADS_MAX as u64
    });
    // and the database going away lets the rest go
    let obs = Arc::clone(db.obs());
    drop(db);
    until("the last threads to exit", move || {
        let c = obs.snapshot().counters;
        c.txn_threads_spawned == c.txn_threads_exited
    });
}

#[test]
fn gc_pairs_that_rendezvous_all_commit_from_one_thread() {
    const PAIRS: usize = 64;
    let db = Database::in_memory();
    let mut pairs = Vec::with_capacity(PAIRS);
    let mut all = Vec::with_capacity(2 * PAIRS);
    for _ in 0..PAIRS {
        let (oa, ob) = (db.new_oid(), db.new_oid());
        let (to_b, from_a) = channel::<()>();
        let (to_a, from_b) = channel::<()>();
        // each partner completes only once the other has started: a body
        // claimed by the committing thread must not strand its partner
        let a = db
            .initiate(move |ctx| {
                to_b.send(()).unwrap();
                from_b.recv_timeout(PATIENCE).unwrap();
                ctx.write(oa, b"a".to_vec())
            })
            .unwrap();
        let b = db
            .initiate(move |ctx| {
                to_a.send(()).unwrap();
                from_a.recv_timeout(PATIENCE).unwrap();
                ctx.write(ob, b"b".to_vec())
            })
            .unwrap();
        db.form_dependency(DepType::GC, a, b).unwrap();
        pairs.push((a, b));
        all.extend([a, b]);
    }
    db.begin_many(&all).unwrap();
    for (a, b) in &pairs {
        assert!(db.commit(*a).unwrap());
        assert_eq!(db.status(*b).unwrap(), TxnStatus::Committed);
    }
}

#[test]
fn a_blocked_body_does_not_delay_later_begins() {
    const LATER: usize = 100;
    let db = Database::in_memory();
    let gate = Arc::new(Gate::default());
    let g = Arc::clone(&gate);
    let blocker = db
        .initiate(move |_| {
            g.pass();
            Ok(())
        })
        .unwrap();
    db.begin(blocker).unwrap();
    let (done, finished) = channel::<Tid>();
    let later: Vec<Tid> = (0..LATER)
        .map(|_| {
            let done = done.clone();
            let t = db
                .initiate(move |ctx| {
                    done.send(ctx.id()).unwrap();
                    Ok(())
                })
                .unwrap();
            db.begin(t).unwrap();
            t
        })
        .collect();
    // nobody waits for them: they run on transaction threads while the
    // blocker still holds one
    for _ in 0..LATER {
        finished.recv_timeout(PATIENCE).unwrap();
    }
    assert_eq!(db.status(blocker).unwrap(), TxnStatus::Running);
    gate.open();
    for t in later.iter().chain([&blocker]) {
        assert!(db.commit(*t).unwrap());
    }
}

#[test]
fn a_panicking_body_does_not_unwind_into_the_caller_that_runs_it() {
    let db = Database::in_memory();
    let oid = db.new_oid();
    let committed = db
        .run(move |ctx| {
            ctx.write(oid, b"doomed".to_vec())?;
            panic!("body panics on the caller's thread");
        })
        .unwrap();
    assert!(!committed);
    assert_eq!(db.peek(oid).unwrap(), None);
    // its lock went with the abort
    assert!(db.run(move |ctx| ctx.write(oid, b"ok".to_vec())).unwrap());
}

/// A panic payload whose drop panics: a body that panics with it panics
/// again once its thread has caught the first, after the body.
struct Bomb;

impl Drop for Bomb {
    fn drop(&mut self) {
        panic!("a panic after the body");
    }
}

/// A panic after the body is one in system code: it stops the database,
/// whose waiters and later primitives return the stop, and the thread
/// that caught it serves on until the database goes.
#[test]
fn a_panic_after_the_body_stops_the_database_and_its_thread_serves_on() {
    let db = Database::in_memory();
    let oid = db.new_oid();
    let (started, on_thread) = channel();
    let t = db
        .initiate(move |ctx| {
            ctx.write(oid, b"doomed".to_vec())?;
            started.send(()).unwrap();
            std::panic::panic_any(Bomb)
        })
        .unwrap();
    db.begin(t).unwrap();
    // a transaction thread has it: the waiter below cannot claim it
    on_thread.recv_timeout(PATIENCE).unwrap();
    let waiter = db.clone();
    let waited = within(PATIENCE, "wait(t)", move || waiter.wait(t));
    let stopped = |r: &asset::Result<bool>| matches!(r, Err(AssetError::Stopped(_)));
    assert!(stopped(&waited), "{waited:?}");
    assert!(stopped(&db.run(move |ctx| ctx.write(oid, b"ok".to_vec()))));
    // the thread lived on, and goes with the database
    let obs = Arc::clone(db.obs());
    drop(db);
    until("the thread to exit", move || {
        let c = obs.snapshot().counters;
        (c.txn_threads_spawned, c.txn_threads_exited) == (1, 1)
    });
}
