//! Transaction threads: the reused threads [`Database::begin`] hands
//! bodies to.
//!
//! A begun body stays in its TD (`TxnSlot::job`) until it is *claimed* —
//! one `job.take()` under the transaction's shard. `begin` queues the tid
//! here and a free thread pops and claims it; a caller of `wait` or
//! `commit` that gets there first claims it instead and runs it on its own
//! thread, which would have blocked until the body ended anyway, and drops
//! the queued entry.
//!
//! `begin`'s contract is that a body runs whether or not anyone waits for
//! it — GC partners that rendezvous, a body blocked until a later one
//! releases it — so the queue never holds more entries than there are
//! free threads: `begin` spawns one when it would. Free threads beyond
//! [`IDLE_TXN_THREADS_MAX`] exit, and all of them once the database is
//! gone. The pool mutex is a leaf: no transaction shard is taken under
//! it, and it is never taken under one.

use crate::database::Database;
use asset_common::sync::{Condvar, Mutex};
use asset_common::Tid;
use asset_obs::{bump, Obs};
use std::collections::VecDeque;
use std::sync::Arc;

/// Free transaction threads a database keeps after a burst of concurrent
/// bodies; the rest exit.
pub const IDLE_TXN_THREADS_MAX: usize = 16;

pub(crate) struct TxnThreads {
    pool: Mutex<Pool>,
    work: Condvar,
    obs: Arc<Obs>,
}

struct Pool {
    /// Begun bodies no thread has popped, with the handle to run them by.
    queue: VecDeque<(Database, Tid)>,
    /// Threads not running a body: waiting for one, or on their way back
    /// to the queue.
    free: usize,
    /// The database is gone.
    closed: bool,
}

impl TxnThreads {
    pub fn new(obs: Arc<Obs>) -> Arc<TxnThreads> {
        Arc::new(TxnThreads {
            pool: Mutex::new(Pool {
                queue: VecDeque::new(),
                free: 0,
                closed: false,
            }),
            work: Condvar::new(),
            obs,
        })
    }

    /// Queue `t`'s begun body for a free thread, spawning one if every
    /// thread is taken. Should no thread spawn, the body waits for the
    /// next free one or for a caller of `wait`/`commit` to claim it.
    pub fn hand(self: &Arc<Self>, db: Database, t: Tid) {
        let spawn = {
            let mut pool = self.pool.lock();
            pool.queue.push_back((db, t));
            let spawn = pool.queue.len() > pool.free;
            pool.free += usize::from(spawn);
            spawn
        };
        if !spawn {
            self.work.notify_one();
            return;
        }
        // detached, like the executor's workers: a thread may drop the
        // database's last handle itself, and a body's panic is its abort
        let me = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("asset-txn".into())
            .spawn(move || me.serve());
        match spawned {
            Ok(_) => bump(&self.obs.counters.txn_threads_spawned),
            Err(_) => self.pool.lock().free -= 1,
        }
    }

    /// Drop `t`'s entry if it is still queued: a caller claimed its body.
    pub fn forget(&self, t: Tid) {
        let mut pool = self.pool.lock();
        if let Some(i) = pool.queue.iter().position(|(_, q)| *q == t) {
            pool.queue.remove(i);
        }
    }

    /// The database is gone: waiting threads exit.
    pub fn close(&self) {
        self.pool.lock().closed = true;
        self.work.notify_all();
    }

    /// A transaction thread: pop, claim, run; wait while nothing is
    /// queued; exit when surplus or closed.
    fn serve(self: Arc<Self>) {
        let mut pool = self.pool.lock();
        loop {
            if let Some((db, t)) = pool.queue.pop_front() {
                pool.free -= 1;
                drop(pool);
                if let Some(job) = db.claim(t) {
                    db.run_claimed(t, job);
                }
                // before the pool mutex: the last handle's drop closes it
                drop(db);
                pool = self.pool.lock();
                pool.free += 1;
            } else if pool.closed || pool.free > IDLE_TXN_THREADS_MAX {
                pool.free -= 1;
                bump(&self.obs.counters.txn_threads_exited);
                return;
            } else {
                self.work.wait(&mut pool);
            }
        }
    }
}
