//! The sharded transaction table (TDs) — the paper's hash-by-tid side of
//! the §4.1 double hashing.
//!
//! Transaction descriptors live in N independently locked stripes keyed by
//! an avalanched tid hash, so unrelated transactions never contend on one
//! table mutex. Multi-descriptor operations (group commit validation,
//! delegation splicing, `form_dependency`) take a [`GroupGuard`], which
//! locks the deduplicated set of touched shards in ascending index order —
//! the global ordering rule that keeps the manager deadlock-free.
//!
//! The old all-purpose `status_cv` is replaced by an **event count**: a
//! monotonically increasing epoch bumped on every observable state change.
//! Waiters snapshot the epoch, evaluate their predicate against the shards,
//! and sleep only if the epoch is unchanged — a notification between the
//! predicate check and the sleep just makes the sleep return immediately,
//! so no status change can be lost no matter which shard it happened in.

use crate::database::TxnSlot;
use asset_annot::verify_allow;
use asset_common::config::resolve_shards;
use asset_common::sync::{Condvar, Mutex, MutexGuard};
use asset_common::{IdMap, Tid};
use std::collections::BTreeSet;

type Shard = Mutex<IdMap<Tid, TxnSlot>>;

pub(crate) struct TxnTable {
    shards: Box<[Shard]>,
    mask: u64,
    /// Event count: bumped on every status change anyone might wait for.
    epoch: Mutex<u64>,
    event_cv: Condvar,
    /// Executor wake hook: invoked after every [`bump`](Self::bump) so the
    /// worker pool can requeue transactions parked on a dependency gate.
    /// The hook runs on the bumping thread with no shard lock held.
    bump_hook: Mutex<Option<std::sync::Arc<dyn Fn() + Send + Sync>>>,
    /// Fast-path skip for the hook check on the bump hot path.
    bump_hook_set: std::sync::atomic::AtomicBool,
}

impl TxnTable {
    pub fn new(requested_shards: usize) -> TxnTable {
        let n = resolve_shards(requested_shards);
        TxnTable {
            shards: (0..n).map(|_| Mutex::new(IdMap::default())).collect(),
            mask: (n - 1) as u64,
            epoch: Mutex::new(0),
            event_cv: Condvar::new(),
            bump_hook: Mutex::new(None),
            bump_hook_set: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Install the executor wake hook fired after every epoch bump.
    pub fn set_bump_hook(&self, hook: std::sync::Arc<dyn Fn() + Send + Sync>) {
        *self.bump_hook.lock() = Some(hook);
        self.bump_hook_set
            .store(true, std::sync::atomic::Ordering::Release);
    }

    fn shard_index(&self, t: Tid) -> usize {
        let mut h = t.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        (h & self.mask) as usize
    }

    /// Run `f` with `t`'s slot (if any) under its shard lock.
    pub fn with<R>(&self, t: Tid, f: impl FnOnce(Option<&mut TxnSlot>) -> R) -> R {
        let mut map = self.shards[self.shard_index(t)].lock();
        f(map.get_mut(&t))
    }

    pub fn insert(&self, t: Tid, slot: TxnSlot) {
        self.shards[self.shard_index(t)].lock().insert(t, slot);
    }

    /// Lock the shards of `tids` (deduplicated, ascending index order).
    #[verify_allow(
        lock_order,
        reason = "blessed multi-lock: BTreeSet dedups and sorts shard indices, so acquisition is strictly ascending"
    )]
    pub fn lock_group(&self, tids: &[Tid]) -> GroupGuard<'_> {
        let idxs: BTreeSet<usize> = tids.iter().map(|t| self.shard_index(*t)).collect();
        GroupGuard {
            table: self,
            guards: idxs
                .into_iter()
                .map(|i| (i, self.shards[i].lock()))
                .collect(),
        }
    }

    /// Lock every shard (quiescent operations: checkpoint, log compaction,
    /// retirement).
    #[verify_allow(
        lock_order,
        reason = "blessed multi-lock: locks every shard in ascending index order"
    )]
    pub fn lock_all(&self) -> GroupGuard<'_> {
        GroupGuard {
            table: self,
            guards: (0..self.shards.len())
                .map(|i| (i, self.shards[i].lock()))
                .collect(),
        }
    }

    /// Visit every slot, one shard at a time (statistics; not a consistent
    /// cross-shard snapshot).
    pub fn for_each(&self, mut f: impl FnMut(Tid, &TxnSlot)) {
        for shard in self.shards.iter() {
            let map = shard.lock();
            for (t, slot) in map.iter() {
                f(*t, slot);
            }
        }
    }

    // --- event count ----------------------------------------------------

    /// Snapshot the event epoch *before* evaluating a wait predicate.
    pub fn epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Sleep until the epoch moves past `seen`. Returns immediately if a
    /// state change already happened since the snapshot.
    pub fn wait_event(&self, seen: u64) {
        let mut ep = self.epoch.lock();
        while *ep == seen {
            self.event_cv.wait(&mut ep);
        }
    }

    /// Publish a state change: advance the epoch and wake all waiters —
    /// both thread-parked ones (condvar) and executor-parked ones (hook).
    pub fn bump(&self) {
        {
            let mut ep = self.epoch.lock();
            *ep += 1;
        }
        self.event_cv.notify_all();
        if self
            .bump_hook_set
            .load(std::sync::atomic::Ordering::Acquire)
        {
            let hook = self.bump_hook.lock().clone();
            if let Some(hook) = hook {
                hook();
            }
        }
    }
}

/// A set of held shard locks, addressable by tid.
pub(crate) struct GroupGuard<'a> {
    table: &'a TxnTable,
    guards: Vec<(usize, MutexGuard<'a, IdMap<Tid, TxnSlot>>)>,
}

impl GroupGuard<'_> {
    fn pos_of(&self, t: Tid) -> Option<usize> {
        let idx = self.table.shard_index(t);
        self.guards.iter().position(|(i, _)| *i == idx)
    }

    pub fn get(&self, t: Tid) -> Option<&TxnSlot> {
        self.pos_of(t).and_then(|p| self.guards[p].1.get(&t))
    }

    pub fn get_mut(&mut self, t: Tid) -> Option<&mut TxnSlot> {
        let p = self.pos_of(t)?;
        self.guards[p].1.get_mut(&t)
    }

    pub fn remove(&mut self, t: Tid) -> Option<TxnSlot> {
        let p = self.pos_of(t)?;
        self.guards[p].1.remove(&t)
    }

    /// Every slot under the held shards (all slots, for `lock_all`).
    pub fn iter(&self) -> impl Iterator<Item = (&Tid, &TxnSlot)> {
        self.guards.iter().flat_map(|(_, g)| g.iter())
    }
}
