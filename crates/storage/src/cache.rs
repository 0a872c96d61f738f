//! The shared object cache (paper §4: "the application operates directly on
//! the objects in a shared cache without first copying the object to its
//! private address space").
//!
//! The cache is the one map of objects: restart fills it from the store's
//! image ([`ObjectStore::load`](crate::ObjectStore::load)), it never evicts,
//! and a checkpoint writes its image back whole
//! ([`ObjectStore::write`](crate::ObjectStore::write)). So a miss means the
//! object does not exist, and is filled with a tombstone in the one shard
//! visit that found it.
//!
//! Each cached object carries its own [`Latch`]; reads take it in S mode,
//! writes in X mode, exactly as the paper's `read`/`write` algorithms
//! prescribe. The latch protects the *physical* integrity of one access;
//! transaction-duration isolation is the lock manager's job, layered above.
//!
//! The cache is sharded to keep lookup contention away from the per-object
//! latches it exists to showcase.

use crate::latch::Latch;
use asset_common::ids::stripe_of;
use asset_common::sync::Mutex;
use asset_common::{IdMap, Oid, Result};
use asset_obs::{bump, EventKind, Obs};
use std::cell::UnsafeCell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;

/// One object resident in the shared cache.
///
/// Payload access goes through [`read_with`](CachedObject::read_with) /
/// [`write_with`](CachedObject::write_with), which acquire the object latch
/// in the appropriate mode. The `UnsafeCell` is sound because every access
/// path holds the latch: S holders only take `&`, the X holder is unique.
/// `None` payload is a tombstone (object absent/deleted). Latching counts
/// into the caller's `Obs`.
pub struct CachedObject {
    latch: Latch,
    data: UnsafeCell<Option<Vec<u8>>>,
    /// The log generation ([`LogManager::generation`]) in which the
    /// current image was last logged; `0` when the log does not hold it (an
    /// entry loaded from the store's image, a refused CLR). While it
    /// equals the log's generation, the log's latest image of this object
    /// *is* the payload, so the next write need not log a before image.
    /// Read and written under the X latch, which is what orders it; the
    /// atomic only makes the field `Sync`.
    ///
    /// [`LogManager::generation`]: crate::LogManager::generation
    logged_gen: AtomicU64,
}

// SAFETY: all access to `data` is mediated by `latch` (S for shared reads,
// X for exclusive writes), implemented in the accessors below; the other
// fields are Sync themselves.
unsafe impl Sync for CachedObject {}
// SAFETY: the contained payload is an owned `Option<Vec<u8>>` with no
// thread affinity; sending the object moves unique ownership of the cell.
unsafe impl Send for CachedObject {}

impl CachedObject {
    fn new(bytes: Option<Vec<u8>>) -> Arc<CachedObject> {
        Arc::new(CachedObject {
            latch: Latch::new(),
            data: UnsafeCell::new(bytes),
            logged_gen: AtomicU64::new(0),
        })
    }

    /// The log generation that holds the current image (`0` = none).
    /// Meaningful under the X latch, i.e. inside
    /// [`write_with`](Self::write_with).
    pub(crate) fn logged_in(&self) -> u64 {
        self.logged_gen.load(Ordering::Relaxed)
    }

    /// Under the X latch: the image being installed was logged in
    /// generation `gen` (`0`: it was not, or its record was refused).
    pub(crate) fn set_logged_in(&self, gen: u64) {
        self.logged_gen.store(gen, Ordering::Relaxed);
    }

    /// Record a latch acquisition outcome: spin counts are atomics-only, so
    /// this is safe on every path the latch itself is.
    fn note_latch(obs: &Obs, spins: u32) {
        bump(&obs.counters.latch_acquires);
        if spins > 0 {
            bump(&obs.counters.latch_contended);
            obs.latch_spins.record(u64::from(spins));
            // Ring-buffer recording is drop-don't-block (one CAS), so it is
            // safe here even though the latch guard is still held.
            obs.record(EventKind::LatchSpin { spins });
        }
    }

    /// Read the payload under an S latch.
    pub fn read_with<R>(&self, obs: &Obs, f: impl FnOnce(Option<&[u8]>) -> R) -> R {
        let (_g, spins) = self.latch.shared_profiled();
        Self::note_latch(obs, spins);
        // SAFETY: S latch held; no X holder exists, so a shared view is safe.
        let data = unsafe { &*self.data.get() };
        f(data.as_deref())
    }

    /// Mutate the payload in place under an X latch. A caller that logs
    /// the new image says so with `set_logged_in`; one that does not must
    /// reset it.
    pub fn write_with<R>(&self, obs: &Obs, f: impl FnOnce(&mut Option<Vec<u8>>) -> R) -> R {
        let (_g, spins) = self.latch.exclusive_profiled();
        Self::note_latch(obs, spins);
        // SAFETY: X latch held; we are the unique accessor.
        let data = unsafe { &mut *self.data.get() };
        f(data)
    }
}

/// The shared object cache.
pub struct ObjectCache {
    shards: Vec<Mutex<IdMap<Oid, Arc<CachedObject>>>>,
    obs: Arc<Obs>,
}

impl ObjectCache {
    /// An empty cache with its own private observability hub.
    pub fn new() -> ObjectCache {
        ObjectCache::with_obs(Obs::shared())
    }

    /// An empty cache reporting into `obs` (hit/miss counters and latch
    /// profiles of every resident object).
    pub fn with_obs(obs: Arc<Obs>) -> ObjectCache {
        ObjectCache {
            shards: (0..SHARDS).map(|_| Mutex::new(IdMap::default())).collect(),
            obs,
        }
    }

    /// The observability hub this cache reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    fn shard(&self, oid: Oid) -> &Mutex<IdMap<Oid, Arc<CachedObject>>> {
        &self.shards[stripe_of(oid.raw(), SHARDS as u64 - 1)]
    }

    /// The cache entry for `oid`, in one shard visit. The cache holds
    /// every object there is, so a miss is an object that does not exist:
    /// it is filled with a tombstone.
    pub fn entry(&self, oid: Oid) -> Arc<CachedObject> {
        let mut shard = self.shard(oid).lock();
        match shard.entry(oid) {
            Entry::Occupied(e) => {
                bump(&self.obs.counters.cache_hits);
                Arc::clone(e.get())
            }
            Entry::Vacant(v) => {
                bump(&self.obs.counters.cache_misses);
                Arc::clone(v.insert(CachedObject::new(None)))
            }
        }
    }

    /// Install `bytes` as `oid`'s entry, unlogged: restart loading the
    /// store's image.
    pub(crate) fn fill(&self, oid: Oid, bytes: Vec<u8>) {
        self.shard(oid)
            .lock()
            .insert(oid, CachedObject::new(Some(bytes)));
    }

    /// Visit every object — tombstones skipped — under its S latch, taken
    /// with no shard held: a checkpoint encoding the store's image.
    pub fn for_each_object(&self, mut visit: impl FnMut(Oid, &[u8])) {
        for shard in &self.shards {
            let entries: Vec<(Oid, Arc<CachedObject>)> = {
                let s = shard.lock();
                s.iter().map(|(k, v)| (*k, Arc::clone(v))).collect()
            };
            for (oid, entry) in entries {
                let _g = entry.latch.shared();
                // SAFETY: S latch held; no X holder exists, so a shared view is safe.
                if let Some(bytes) = unsafe { &*entry.data.get() } {
                    visit(oid, bytes);
                }
            }
        }
    }

    /// Redo one logged image of `oid` (restart recovery): `make` builds it
    /// from the image replayed before it in this generation (`None`: the
    /// log read so far holds none), and the entry is created or overwritten
    /// with it and marked as logged in generation `gen`. Returns the image
    /// it replaced — `None` when the log held none — or `make`'s refusal,
    /// which installs nothing.
    pub(crate) fn redo(
        &self,
        oid: Oid,
        gen: u64,
        make: impl FnOnce(Option<&Option<Vec<u8>>>) -> Result<Option<Vec<u8>>>,
    ) -> Result<Option<Option<Vec<u8>>>> {
        // A vacant slot is filled under the shard mutex alone; an occupied
        // one needs the object latch, which ranks above the shard mutex —
        // so the guard is dropped before latching.
        let existing = {
            let mut shard = self.shard(oid).lock();
            match shard.entry(oid) {
                Entry::Occupied(e) => Arc::clone(e.get()),
                Entry::Vacant(v) => {
                    v.insert(CachedObject::new(make(None)?)).set_logged_in(gen);
                    return Ok(None);
                }
            }
        };
        existing.write_with(&self.obs, |slot| {
            let known = existing.logged_in() == gen;
            let image = make(known.then_some(&*slot))?;
            existing.set_logged_in(gen);
            let replaced = std::mem::replace(slot, image);
            Ok(known.then_some(replaced))
        })
    }
}

impl Default for ObjectCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Install `image` over `oid` in the cache, unlogged.
    fn set(c: &ObjectCache, oid: Oid, image: Option<Vec<u8>>) {
        c.entry(oid).write_with(c.obs(), |d| *d = image);
    }

    #[test]
    fn a_miss_is_a_tombstone_and_a_filled_entry_is_a_hit() {
        let c = ObjectCache::new();
        c.fill(Oid(1), b"loaded".to_vec());
        c.entry(Oid(1))
            .read_with(c.obs(), |b| assert_eq!(b.unwrap(), b"loaded"));
        for absent in [Oid(3), Oid(1 << 40), Oid(u64::MAX), Oid(3)] {
            c.entry(absent).read_with(c.obs(), |b| assert!(b.is_none()));
        }
        let snap = c.obs().snapshot();
        assert_eq!(
            (snap.counters.cache_hits, snap.counters.cache_misses),
            (2, 3),
            "the tombstone stays resident"
        );
    }

    #[test]
    fn for_each_object_skips_tombstones() {
        let c = ObjectCache::new();
        set(&c, Oid(1), Some(b"one".to_vec()));
        set(&c, Oid(2), Some(b"two".to_vec()));
        set(&c, Oid(2), None); // deleted
        c.entry(Oid(3)); // never existed
        let mut seen = Vec::new();
        c.for_each_object(|oid, bytes| seen.push((oid, bytes.to_vec())));
        assert_eq!(seen, [(Oid(1), b"one".to_vec())]);
    }

    #[test]
    fn concurrent_read_write_with_latches() {
        let c = Arc::new(ObjectCache::new());
        set(&c, Oid(1), Some(vec![0u8; 8]));
        let mut handles = vec![];
        for t in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let e = c.entry(Oid(1));
                for i in 0..1000u64 {
                    if t % 2 == 0 {
                        e.write_with(c.obs(), |b| {
                            let bytes = b.as_mut().unwrap();
                            // write a self-consistent pattern
                            let v = (i % 250) as u8;
                            bytes.iter_mut().for_each(|x| *x = v);
                        });
                    } else {
                        e.read_with(c.obs(), |b| {
                            let bytes = b.unwrap();
                            let first = bytes[0];
                            assert!(bytes.iter().all(|&x| x == first), "torn read under latches");
                        });
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// `storage.latch.contended_frac` is `latch_contended / latch_acquires`:
    /// one acquisition per latched access, contended only when it spun.
    #[test]
    fn latch_acquisitions_are_counted_exactly() {
        let c = ObjectCache::new();
        set(&c, Oid(1), Some(b"v".to_vec()));
        let e = c.entry(Oid(1));
        e.read_with(c.obs(), |_| ());
        e.read_with(c.obs(), |_| ());
        let snap = c.obs().snapshot();
        assert_eq!(snap.counters.latch_acquires, 3);
        assert_eq!(snap.counters.latch_contended, 0);
        assert_eq!(snap.latch_spins.count, 0);
    }

    /// The object latch ranks above nothing a shard mutex allows: the old
    /// `evict_clean`, which latched entries inside the shard's critical
    /// section, panics.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order")]
    fn a_latch_taken_under_a_cache_shard_panics() {
        let c = ObjectCache::new();
        let entry = c.entry(Oid(1));
        let _shard = c.shard(Oid(1)).lock();
        entry.read_with(c.obs(), |_| ());
    }
}
