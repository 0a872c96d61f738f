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
/// The dirty flag lives *outside* the cell as an atomic: eviction and flush
/// scans test it while holding the cache shard mutex, and the object latch
/// ranks **above** that mutex in the lock hierarchy, so they must not latch.
pub struct CachedObject {
    latch: Latch,
    data: UnsafeCell<Option<Vec<u8>>>,
    /// Differs from the store's copy? Relaxed ordering suffices: the flag
    /// only gates whether a reader goes on to latch, and the latch
    /// acquisition is what synchronizes the payload itself.
    dirty: AtomicBool,
    /// The log generation ([`LogManager::generation`]) in which the
    /// current image was last logged; `0` when the log does not hold it (a
    /// faulted-in entry, an unlogged [`install`](Self::install)). While it
    /// equals the log's generation, the log's latest image of this object
    /// *is* the payload, so the next write need not log a before image.
    /// Read and written under the X latch, which is what orders it; the
    /// atomic only makes the field `Sync`.
    ///
    /// [`LogManager::generation`]: crate::LogManager::generation
    logged_gen: AtomicU64,
    obs: Arc<Obs>,
}

// SAFETY: all access to `data` is mediated by `latch` (S for shared reads,
// X for exclusive writes), implemented in the accessors below; `dirty` is
// atomic and the other fields are Sync themselves.
unsafe impl Sync for CachedObject {}
// SAFETY: the contained payload is an owned `Option<Vec<u8>>` with no
// thread affinity; sending the object moves unique ownership of the cell.
unsafe impl Send for CachedObject {}

impl CachedObject {
    fn new(bytes: Option<Vec<u8>>, dirty: bool, obs: Arc<Obs>) -> CachedObject {
        CachedObject {
            latch: Latch::new(),
            data: UnsafeCell::new(bytes),
            dirty: AtomicBool::new(dirty),
            logged_gen: AtomicU64::new(0),
            obs,
        }
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
    fn note_latch(&self, spins: u32) {
        bump(&self.obs.counters.latch_acquires);
        if spins > 0 {
            bump(&self.obs.counters.latch_contended);
            self.obs.latch_spins.record(u64::from(spins));
            // Ring-buffer recording is drop-don't-block (one CAS), so it is
            // safe here even though the latch guard is still held.
            self.obs.record(EventKind::LatchSpin { spins });
        }
    }

    /// Read the payload under an S latch.
    pub fn read_with<R>(&self, f: impl FnOnce(Option<&[u8]>) -> R) -> R {
        let (_g, spins) = self.latch.shared_profiled();
        self.note_latch(spins);
        // SAFETY: S latch held; no X holder exists, so a shared view is safe.
        let data = unsafe { &*self.data.get() };
        f(data.as_deref())
    }

    /// Replace the payload under an X latch, unlogged; returns the before
    /// image. `None` deletes the object (tombstone).
    pub fn install(&self, after: Option<Vec<u8>>) -> Option<Vec<u8>> {
        let (_g, spins) = self.latch.exclusive_profiled();
        self.note_latch(spins);
        self.dirty.store(true, Ordering::Relaxed);
        self.set_logged_in(0);
        // SAFETY: X latch held; we are the unique accessor.
        let data = unsafe { &mut *self.data.get() };
        std::mem::replace(data, after)
    }

    /// Mutate the payload in place under an X latch. A caller that logs
    /// the new image says so with `set_logged_in`; one that does not must
    /// reset it.
    pub fn write_with<R>(&self, f: impl FnOnce(&mut Option<Vec<u8>>) -> R) -> R {
        let (_g, spins) = self.latch.exclusive_profiled();
        self.note_latch(spins);
        self.dirty.store(true, Ordering::Relaxed);
        // SAFETY: X latch held; we are the unique accessor.
        let data = unsafe { &mut *self.data.get() };
        f(data)
    }

    /// The object latch (exposed for the lock manager's OD linkage and for
    /// diagnostics).
    pub fn latch(&self) -> &Latch {
        &self.latch
    }

    /// Latch-free dirty test — safe to call while holding a cache shard
    /// mutex (the object latch ranks above it and must not be taken there).
    fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Snapshot the payload if the object is dirty. Does not clear the
    /// flag: the caller persists the snapshot first and calls
    /// [`clear_dirty`](Self::clear_dirty) only once that succeeded.
    fn take_if_dirty(&self) -> Option<Option<Vec<u8>>> {
        if !self.is_dirty() {
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
        // Avalanche the oid so sequential ids spread across shards.
        let mut h = oid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        &self.shards[(h as usize) % SHARDS]
    }

    /// Fetch (or fault in from `store`) the cache entry for `oid`.
    pub fn entry(&self, oid: Oid, store: &ObjectStore) -> Result<Arc<CachedObject>> {
        {
            let shard = self.shard(oid).lock();
            if let Some(e) = shard.get(&oid) {
                bump(&self.obs.counters.cache_hits);
                return Ok(Arc::clone(e));
            }
        }
        // Miss: load outside the shard lock, then race-insert.
        bump(&self.obs.counters.cache_misses);
        let loaded = store.get(oid)?;
        let mut shard = self.shard(oid).lock();
        let entry = shard
            .entry(oid)
            .or_insert_with(|| Arc::new(CachedObject::new(loaded, false, Arc::clone(&self.obs))));
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
                    let entry = CachedObject::new(image, true, Arc::clone(&self.obs));
                    entry.set_logged_in(gen);
                    v.insert(Arc::new(entry));
                    return None;
                }
            }
        };
        existing.write_with(|slot| {
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

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop clean entries (cache pressure relief; dirty entries stay).
    /// The dirty test is a latch-free atomic load, so no object latch is
    /// ever taken while the shard mutex is held.
    pub fn evict_clean(&self) {
        for shard in &self.shards {
            shard.lock().retain(|_, e| e.is_dirty());
        }
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
    use crate::heapfile::MemPageStore;

    fn store() -> ObjectStore {
        ObjectStore::open(Arc::new(MemPageStore::new(512)), 16).unwrap()
    }

    #[test]
    fn entry_faults_in_from_store() {
        let s = store();
        s.put(Oid(1), b"persisted").unwrap();
        let c = ObjectCache::new();
        let e = c.entry(Oid(1), &s).unwrap();
        e.read_with(|b| assert_eq!(b.unwrap(), b"persisted"));
        // absent object: tombstone entry
        let e2 = c.entry(Oid(2), &s).unwrap();
        e2.read_with(|b| assert!(b.is_none()));
    }

    #[test]
    fn install_returns_before_image() {
        let s = store();
        let c = ObjectCache::new();
        let e = c.entry(Oid(1), &s).unwrap();
        assert_eq!(e.install(Some(b"v1".to_vec())), None);
        assert_eq!(e.install(Some(b"v2".to_vec())), Some(b"v1".to_vec()));
        assert_eq!(e.install(None), Some(b"v2".to_vec()));
        e.read_with(|b| assert!(b.is_none()));
    }

    #[test]
    fn flush_persists_dirty_entries() {
        let s = store();
        s.put(Oid(3), b"old").unwrap();
        let c = ObjectCache::new();
        c.entry(Oid(1), &s).unwrap().install(Some(b"one".to_vec()));
        c.entry(Oid(2), &s).unwrap().install(Some(b"two".to_vec()));
        c.entry(Oid(3), &s).unwrap().install(None); // delete
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
        let e = c.entry(Oid(1), &s).unwrap();
        e.install(Some(vec![0u8; 8]));
        let mut handles = vec![];
        for t in 0..4 {
            let c = Arc::clone(&c);
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let e = c.entry(Oid(1), &s).unwrap();
                for i in 0..1000u64 {
                    if t % 2 == 0 {
                        e.write_with(|b| {
                            let bytes = b.as_mut().unwrap();
                            // write a self-consistent pattern
                            let v = (i % 250) as u8;
                            bytes.iter_mut().for_each(|x| *x = v);
                        });
                    } else {
                        e.read_with(|b| {
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
        c.entry(Oid(2), &s).unwrap(); // miss (tombstone fault-in)
        let snap = c.obs().snapshot();
        assert_eq!(snap.counters.cache_misses, 2);
        assert_eq!(snap.counters.cache_hits, 2);
    }

    #[test]
    fn latch_acquisitions_are_counted() {
        let s = store();
        let c = ObjectCache::new();
        let e = c.entry(Oid(1), &s).unwrap();
        e.install(Some(b"v".to_vec()));
        e.read_with(|_| ());
        let snap = c.obs().snapshot();
        assert!(snap.counters.latch_acquires >= 2);
    }

    #[test]
    fn evict_clean_keeps_dirty() {
        let s = store();
        s.put(Oid(1), b"a").unwrap();
        let c = ObjectCache::new();
        c.entry(Oid(1), &s).unwrap(); // clean
        c.entry(Oid(2), &s).unwrap().install(Some(b"b".to_vec())); // dirty
        c.evict_clean();
        assert!(c.peek(Oid(1)).is_none());
        assert!(c.peek(Oid(2)).is_some());
    }
}
