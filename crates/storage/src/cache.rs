//! The shared object cache (paper §4: "the application operates directly on
//! the objects in a shared cache without first copying the object to its
//! private address space").
//!
//! Each cached object carries its own [`Latch`]; reads take it in S mode,
//! writes in X mode, exactly as the paper's `read`/`write` algorithms
//! prescribe. The latch protects the *physical* integrity of one access;
//! transaction-duration isolation is the lock manager's job, layered above.
//!
//! The cache is sharded to keep lookup contention away from the per-object
//! latches it exists to showcase.

use crate::latch::Latch;
use crate::store::ObjectStore;
use asset_common::ids::stripe_of;
use asset_common::sync::Mutex;
use asset_common::{IdMap, Oid, Result};
use asset_obs::{bump, EventKind, Obs};
use std::cell::UnsafeCell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;

/// One object resident in the shared cache.
///
/// Payload access goes through [`read_with`](CachedObject::read_with) /
/// [`write_with`](CachedObject::write_with), which acquire the object latch
/// in the appropriate mode. The `UnsafeCell` is sound because every access
/// path holds the latch: S holders only take `&`, the X holder is unique.
/// `None` payload is a tombstone (object absent/deleted).
///
/// The dirty flag lives *outside* the cell as an atomic: a flush scan tests
/// it before latching. Latching counts into the caller's `Obs`.
pub struct CachedObject {
    latch: Latch,
    data: UnsafeCell<Option<Vec<u8>>>,
    /// Differs from the store's copy? Relaxed ordering suffices: the flag
    /// only gates whether a reader goes on to latch, and the latch
    /// acquisition is what synchronizes the payload itself.
    dirty: AtomicBool,
    /// The log generation ([`LogManager::generation`]) in which the
    /// current image was last logged; `0` when the log does not hold it (a
    /// faulted-in entry, a refused CLR). While it
    /// equals the log's generation, the log's latest image of this object
    /// *is* the payload, so the next write need not log a before image.
    /// Read and written under the X latch, which is what orders it; the
    /// atomic only makes the field `Sync`.
    ///
    /// [`LogManager::generation`]: crate::LogManager::generation
    logged_gen: AtomicU64,
}

// SAFETY: all access to `data` is mediated by `latch` (S for shared reads,
// X for exclusive writes), implemented in the accessors below; `dirty` is
// atomic and the other fields are Sync themselves.
unsafe impl Sync for CachedObject {}
// SAFETY: the contained payload is an owned `Option<Vec<u8>>` with no
// thread affinity; sending the object moves unique ownership of the cell.
unsafe impl Send for CachedObject {}

impl CachedObject {
    fn new(bytes: Option<Vec<u8>>, dirty: bool) -> Arc<CachedObject> {
        Arc::new(CachedObject {
            latch: Latch::new(),
            data: UnsafeCell::new(bytes),
            dirty: AtomicBool::new(dirty),
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
        self.dirty.store(true, Ordering::Relaxed);
        // SAFETY: X latch held; we are the unique accessor.
        let data = unsafe { &mut *self.data.get() };
        f(data)
    }

    /// Snapshot the payload if the object is dirty. Does not clear the
    /// flag: the caller persists the snapshot first and calls
    /// [`clear_dirty`](Self::clear_dirty) only once that succeeded.
    fn take_if_dirty(&self) -> Option<Option<Vec<u8>>> {
        if !self.dirty.load(Ordering::Relaxed) {
            return None;
        }
        let _g = self.latch.shared();
        // SAFETY: S latch held; no X holder exists, so a shared view is safe.
        let data = unsafe { &*self.data.get() };
        Some(data.clone())
    }

    fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Relaxed);
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

    /// Fetch (or fault in from `store`) the cache entry for `oid`. A miss
    /// above the store's ceiling — every object created since it opened —
    /// is filled in the one shard visit; any other is loaded with no shard
    /// held and race-inserted in a second visit.
    pub fn entry(&self, oid: Oid, store: &ObjectStore) -> Result<Arc<CachedObject>> {
        {
            let mut shard = self.shard(oid).lock();
            match shard.entry(oid) {
                Entry::Occupied(e) => {
                    bump(&self.obs.counters.cache_hits);
                    return Ok(Arc::clone(e.get()));
                }
                Entry::Vacant(v) if oid.raw() > store.ceiling() => {
                    bump(&self.obs.counters.cache_misses);
                    return Ok(Arc::clone(v.insert(CachedObject::new(None, false))));
                }
                Entry::Vacant(_) => {}
            }
        }
        bump(&self.obs.counters.cache_misses);
        let loaded = store.get(oid)?;
        let mut shard = self.shard(oid).lock();
        let entry = shard
            .entry(oid)
            .or_insert_with(|| CachedObject::new(loaded, false));
        Ok(Arc::clone(entry))
    }

    /// Fetch the entry if it is already resident.
    pub fn peek(&self, oid: Oid) -> Option<Arc<CachedObject>> {
        self.shard(oid).lock().get(&oid).cloned()
    }

    /// Redo one logged image of `oid` (restart recovery, which builds
    /// state from the log rather than the store): the entry is created or
    /// overwritten, dirty, and marked as logged in generation `gen`.
    /// Returns the image it replaced — `None` when no image of `oid` had
    /// been replayed in this generation, i.e. the log read so far holds no
    /// before image for it.
    pub fn redo(&self, oid: Oid, image: Option<Vec<u8>>, gen: u64) -> Option<Option<Vec<u8>>> {
        // A vacant slot is filled under the shard mutex alone; an occupied
        // one needs the object latch, which ranks above the shard mutex —
        // so the guard is dropped before latching.
        let existing = {
            let mut shard = self.shard(oid).lock();
            match shard.entry(oid) {
                Entry::Occupied(e) => Arc::clone(e.get()),
                Entry::Vacant(v) => {
                    v.insert(CachedObject::new(image, true)).set_logged_in(gen);
                    return None;
                }
            }
        };
        existing.write_with(&self.obs, |slot| {
            let known = existing.logged_in() == gen;
            existing.set_logged_in(gen);
            let replaced = std::mem::replace(slot, image);
            known.then_some(replaced)
        })
    }

    /// Drop every entry (restart recovery meeting a `Checkpoint` record:
    /// what was replayed before it is in the store).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Write all dirty entries back to `store`; tombstones become deletes.
    pub fn flush(&self, store: &ObjectStore) -> Result<usize> {
        let mut flushed = 0;
        for shard in &self.shards {
            let entries: Vec<(Oid, Arc<CachedObject>)> = {
                let s = shard.lock();
                s.iter().map(|(k, v)| (*k, Arc::clone(v))).collect()
            };
            for (oid, entry) in entries {
                if let Some(bytes) = entry.take_if_dirty() {
                    match bytes {
                        Some(b) => store.put(oid, &b)?,
                        None => {
                            store.delete(oid)?;
                        }
                    }
                    entry.clear_dirty();
                    flushed += 1;
                }
            }
        }
        Ok(flushed)
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

    fn store() -> ObjectStore {
        ObjectStore::in_memory()
    }

    /// Install `image` over `oid` in the cache, unlogged.
    fn set(c: &ObjectCache, s: &ObjectStore, oid: Oid, image: Option<Vec<u8>>) {
        c.entry(oid, s).unwrap().write_with(c.obs(), |d| *d = image);
    }

    #[test]
    fn entry_faults_in_from_store() {
        let s = store();
        s.put(Oid(1), b"persisted").unwrap();
        s.put(Oid(5), b"gone").unwrap();
        s.delete(Oid(5)).unwrap();
        let c = ObjectCache::new();
        let e = c.entry(Oid(1), &s).unwrap();
        e.read_with(c.obs(), |b| assert_eq!(b.unwrap(), b"persisted"));
        // absent objects are tombstone entries, up to the ceiling (faulted
        // in from the directory) and above it (filled in place)
        for absent in [Oid(3), Oid(5), Oid(6), Oid(1 << 40)] {
            let e = c.entry(absent, &s).unwrap();
            e.read_with(c.obs(), |b| assert!(b.is_none()));
            assert!(c.peek(absent).is_some());
        }
        // the largest oid there is is below no ceiling: always faulted in
        s.put(Oid(u64::MAX), b"top").unwrap();
        let e = c.entry(Oid(u64::MAX), &s).unwrap();
        e.read_with(c.obs(), |b| assert_eq!(b.unwrap(), b"top"));
    }

    #[test]
    fn flush_persists_dirty_entries() {
        let s = store();
        s.put(Oid(3), b"old").unwrap();
        let c = ObjectCache::new();
        set(&c, &s, Oid(1), Some(b"one".to_vec()));
        set(&c, &s, Oid(2), Some(b"two".to_vec()));
        set(&c, &s, Oid(3), None); // delete
        let flushed = c.flush(&s).unwrap();
        assert_eq!(flushed, 3);
        assert_eq!(s.get(Oid(1)).unwrap().unwrap(), b"one");
        assert_eq!(s.get(Oid(2)).unwrap().unwrap(), b"two");
        assert_eq!(s.get(Oid(3)).unwrap(), None);
        // second flush is a no-op
        assert_eq!(c.flush(&s).unwrap(), 0);
    }

    #[test]
    fn peek_only_sees_resident() {
        let s = store();
        s.put(Oid(1), b"x").unwrap();
        let c = ObjectCache::new();
        assert!(c.peek(Oid(1)).is_none());
        c.entry(Oid(1), &s).unwrap();
        assert!(c.peek(Oid(1)).is_some());
    }

    #[test]
    fn concurrent_read_write_with_latches() {
        let s = Arc::new(store());
        let c = Arc::new(ObjectCache::new());
        set(&c, &s, Oid(1), Some(vec![0u8; 8]));
        let mut handles = vec![];
        for t in 0..4 {
            let c = Arc::clone(&c);
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let e = c.entry(Oid(1), &s).unwrap();
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

    #[test]
    fn hits_and_misses_are_counted() {
        let s = store();
        s.put(Oid(1), b"x").unwrap();
        let c = ObjectCache::new();
        c.entry(Oid(1), &s).unwrap(); // miss (fault-in)
        c.entry(Oid(1), &s).unwrap(); // hit
        c.entry(Oid(1), &s).unwrap(); // hit
        c.entry(Oid(2), &s).unwrap(); // miss (filled above the ceiling)
        let snap = c.obs().snapshot();
        assert_eq!(snap.counters.cache_misses, 2);
        assert_eq!(snap.counters.cache_hits, 2);
    }

    /// `storage.latch.contended_frac` is `latch_contended / latch_acquires`:
    /// one acquisition per latched access, contended only when it spun.
    #[test]
    fn latch_acquisitions_are_counted_exactly() {
        let s = store();
        let c = ObjectCache::new();
        set(&c, &s, Oid(1), Some(b"v".to_vec()));
        let e = c.entry(Oid(1), &s).unwrap();
        e.read_with(c.obs(), |_| ());
        e.read_with(c.obs(), |_| ());
        let snap = c.obs().snapshot();
        assert_eq!(snap.counters.latch_acquires, 3);
        assert_eq!(snap.counters.latch_contended, 0);
        assert_eq!(snap.latch_spins.count, 0);
    }
}
