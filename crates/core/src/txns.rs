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
//! A TD lives only as long as its transaction: the visit that ends it
//! ([`GroupGuard::end`]) writes its fate into two bits of the table's fate
//! store and drops the slot under the same shard lock, so every lookup
//! ([`TxnTable::with`], [`GroupGuard::get`]) meets one or the other.
//!
//! The old all-purpose `status_cv` is replaced by an **event count**: a
//! monotonically increasing epoch bumped on every observable state change.
//! Waiters snapshot the epoch, evaluate their predicate against the shards,
//! and sleep only if the epoch is unchanged — a notification between the
//! predicate check and the sleep just makes the sleep return immediately,
//! so no status change can be lost no matter which shard it happened in.
//! Sleepers count themselves under the epoch mutex, so a bump that finds
//! none skips the condvar's wake (a syscall).

use crate::database::TxnSlot;
use asset_common::config::resolve_shards;
use asset_common::ids::stripe_of;
use asset_common::sync::{Condvar, Mutex, MutexGuard, Rank};
use asset_common::{IdMap, Tid, TxnStatus};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

type Shard = Mutex<IdMap<Tid, TxnSlot>>;

#[derive(Default)]
struct Epoch {
    n: u64,
    sleepers: usize,
}

pub(crate) struct TxnTable {
    shards: Box<[Shard]>,
    mask: u64,
    fates: Fates,
    /// Event count: bumped on every status change anyone might wait for.
    epoch: Mutex<Epoch>,
    event_cv: Condvar,
    /// Executor wake hook: invoked after every [`bump`](Self::bump) so the
    /// worker pool can requeue transactions parked on a dependency gate.
    /// The hook runs on the bumping thread with no shard lock held.
    bump_hook: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

impl TxnTable {
    /// A table of the default shard count whose fate store starts at
    /// `first`, the lowest tid this open can name.
    pub fn new(first: Tid) -> TxnTable {
        let n = resolve_shards(0);
        TxnTable {
            shards: (0..n)
                .map(|i| Mutex::ranked(IdMap::default(), Rank::TXN_SHARD, i))
                .collect(),
            mask: (n - 1) as u64,
            fates: Fates {
                first: first.raw(),
                segments: std::array::from_fn(|_| OnceLock::new()),
            },
            epoch: Mutex::new(Epoch::default()),
            event_cv: Condvar::new(),
            bump_hook: OnceLock::new(),
        }
    }

    /// Install the executor wake hook fired after every epoch bump (once).
    pub fn set_bump_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        let _ = self.bump_hook.set(hook);
    }

    fn shard_index(&self, t: Tid) -> usize {
        stripe_of(t.raw(), self.mask)
    }

    /// Run `f` with what the table knows of `t` under its shard lock.
    pub fn with<R>(&self, t: Tid, f: impl FnOnce(Option<Td<'_>>) -> R) -> R {
        let mut map = self.shards[self.shard_index(t)].lock();
        f(lookup(&mut map, &self.fates, t))
    }

    pub fn insert(&self, t: Tid, slot: TxnSlot) {
        self.shards[self.shard_index(t)].lock().insert(t, slot);
    }

    /// Lock the shards of `tids` (deduplicated, ascending index order).
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

    /// Lock every shard (the checkpoint, which keeps the table still).
    pub fn lock_all(&self) -> GroupGuard<'_> {
        GroupGuard {
            table: self,
            guards: (0..self.shards.len())
                .map(|i| (i, self.shards[i].lock()))
                .collect(),
        }
    }

    /// Visit every live TD, one shard at a time (statistics; not a
    /// consistent cross-shard snapshot).
    pub fn for_each(&self, mut f: impl FnMut(Tid, &TxnSlot)) {
        for shard in self.shards.iter() {
            let map = shard.lock();
            for (t, slot) in map.iter() {
                f(*t, slot);
            }
        }
    }

    /// Tids the fate store's segments cover, and their bytes.
    #[cfg(test)]
    pub fn fate_footprint(&self) -> (u64, usize) {
        let segments = self.fates.segments.iter().filter_map(OnceLock::get);
        let words: usize = segments.map(|s| s.len()).sum();
        (words as u64 * 32, words * 8)
    }

    // --- event count ----------------------------------------------------

    /// Snapshot the event epoch *before* evaluating a wait predicate.
    pub fn epoch(&self) -> u64 {
        self.epoch.lock().n
    }

    /// Sleep until the epoch moves past `seen`. Returns immediately if a
    /// state change already happened since the snapshot.
    pub fn wait_event(&self, seen: u64) {
        let mut ep = self.epoch.lock();
        while ep.n == seen {
            ep.sleepers += 1;
            self.event_cv.wait(&mut ep);
            ep.sleepers -= 1;
        }
    }

    /// Publish a state change: advance the epoch and wake all waiters —
    /// both thread-parked ones (condvar) and executor-parked ones (hook).
    pub fn bump(&self) {
        let sleepers = {
            let mut ep = self.epoch.lock();
            ep.n += 1;
            ep.sleepers
        };
        if sleepers > 0 {
            self.event_cv.notify_all();
        }
        if let Some(hook) = self.bump_hook.get() {
            hook();
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

    /// What the table knows of `t` (whose shard this guard must hold).
    pub fn get(&mut self, t: Tid) -> Option<Td<'_>> {
        let p = self.pos_of(t)?;
        lookup(&mut self.guards[p].1, &self.table.fates, t)
    }

    /// The live TD of group member `t`, which the caller has seen live
    /// under this guard (in the readiness check that built the group).
    #[expect(clippy::expect_used, reason = "members are checked under the guard")]
    pub fn member(&mut self, t: Tid) -> &mut TxnSlot {
        self.get(t)
            .and_then(Td::live)
            .expect("group member is live")
    }

    /// End `t`'s TD: move it to `fate` (`Committed` or `Aborted`), write
    /// the fate bits, then take the slot out of its shard, all under the
    /// shard lock, so a lookup meets either the slot or the fate. `None`
    /// when `t` has no live TD here.
    pub fn end(&mut self, t: Tid, fate: TxnStatus) -> Option<TxnSlot> {
        let p = self.pos_of(t)?;
        let map = &mut self.guards[p].1;
        map.get_mut(&t)?.set_status(t, fate);
        self.table.fates.end(t, fate == TxnStatus::Committed);
        map.remove(&t)
    }

    /// Every live TD under the held shards (all of them, for `lock_all`).
    pub fn iter(&self) -> impl Iterator<Item = (&Tid, &TxnSlot)> {
        self.guards.iter().flat_map(|(_, g)| g.iter())
    }
}

/// What the table knows of a tid: its TD, or its fate once it has ended.
pub(crate) enum Td<'a> {
    Live(&'a mut TxnSlot),
    /// `Committed` or `Aborted`, read from the fate bits.
    Ended(TxnStatus),
}

impl<'a> Td<'a> {
    pub fn status(&self) -> TxnStatus {
        match self {
            Td::Live(slot) => slot.status,
            Td::Ended(fate) => *fate,
        }
    }

    pub fn live(self) -> Option<&'a mut TxnSlot> {
        match self {
            Td::Live(slot) => Some(slot),
            Td::Ended(_) => None,
        }
    }

    /// Is its group's commit record in a flush window (`commit_pending`)?
    pub fn pinned(&self) -> bool {
        matches!(self, Td::Live(slot) if slot.commit_pending)
    }
}

/// The one lookup: the live slot, else the fate bits.
fn lookup<'a>(map: &'a mut IdMap<Tid, TxnSlot>, fates: &Fates, t: Tid) -> Option<Td<'a>> {
    match map.get_mut(&t) {
        Some(slot) => Some(Td::Live(slot)),
        None => fates.get(t).map(Td::Ended),
    }
}

/// The fates of ended transactions: two bits a tid from `first` on
/// (*ended*, *committed*), 32 tids to an atomic word, in segments of
/// `4096 << k` tids, each allocated by the first fate written into it. A
/// tid below `first` (an earlier open's, not in doubt) has none. Written
/// and read under the tid's shard lock: nothing to order beyond it.
struct Fates {
    first: u64,
    segments: [OnceLock<Box<[AtomicU64]>>; 53],
}

impl Fates {
    /// `t`'s segment, and the offset of its two bits there.
    fn place(&self, t: Tid) -> Option<(usize, usize)> {
        let i = t.raw().checked_sub(self.first)?;
        let k = (i / 4096 + 1).ilog2();
        Some((k as usize, 2 * (i - 4096 * ((1 << k) - 1)) as usize))
    }

    fn end(&self, t: Tid, committed: bool) {
        if let Some((k, bit)) = self.place(t) {
            let words = || (0..128usize << k).map(|_| AtomicU64::new(0)).collect();
            let fate = (1 | u64::from(committed) << 1) << (bit % 64);
            self.segments[k].get_or_init(words)[bit / 64].fetch_or(fate, Ordering::Relaxed);
        }
    }

    fn get(&self, t: Tid) -> Option<TxnStatus> {
        let (k, bit) = self.place(t)?;
        match self.segments[k].get()?[bit / 64].load(Ordering::Relaxed) >> (bit % 64) & 3 {
            0 => None,
            1 => Some(TxnStatus::Aborted),
            _ => Some(TxnStatus::Committed),
        }
    }
}
