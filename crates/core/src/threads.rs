//! Transaction threads: the reused threads [`Database::begin`] hands
//! bodies to, a [`Pool`] of [`Bodies`].
//!
//! A begun body stays in its TD (`TxnSlot::job`) until it is *claimed* —
//! one `job.take()` under the transaction's shard. `begin` queues the tid
//! here and a free thread pops and claims it; a caller of `wait` or
//! `commit` that gets there first claims it instead and runs it on its own
//! thread, which would have blocked until the body ended anyway, and
//! reclaims the queued entry.
//!
//! `begin`'s contract is that a body runs whether or not anyone waits for
//! it — GC partners that rendezvous, a body blocked until a later one
//! releases it — which is the pool's spawn-when-none-free rule. Free
//! threads beyond [`IDLE_TXN_THREADS_MAX`] exit, and all of them once the
//! database is gone. No transaction shard is held while the pool mutex is
//! taken, and the pool mutex is never taken under one.

use crate::database::Database;
use asset_common::pool::{Pool, Work};
use asset_common::Tid;
use asset_obs::{bump, Obs};
use std::sync::Arc;

/// Free transaction threads a database keeps after a burst of concurrent
/// bodies; the rest exit.
pub const IDLE_TXN_THREADS_MAX: usize = 16;

pub(crate) type TxnThreads = Pool<Bodies>;

/// A transaction thread's work: claim a begun body and run it.
pub(crate) struct Bodies(Arc<Obs>);

/// The transaction threads of a database recording into `obs`.
pub(crate) fn txn_threads(obs: Arc<Obs>) -> Arc<TxnThreads> {
    Pool::new(Bodies(obs), "asset-txn", IDLE_TXN_THREADS_MAX)
}

impl Work for Bodies {
    /// A begun body, with the handle to run it by.
    type Job = (Database, Tid);
    type Done = ();

    fn run(&self, (db, t): (Database, Tid)) {
        if let Some(job) = db.claim(t) {
            db.run_claimed(t, job);
        }
        // the handle drops here, outside the pool mutex: the last handle's
        // drop closes the pool
    }

    fn finish(&self, (): ()) {}

    fn spawned(&self) {
        bump(&self.0.counters.txn_threads_spawned);
    }

    fn exited(&self) {
        bump(&self.0.counters.txn_threads_exited);
    }
}
