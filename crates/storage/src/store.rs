//! The persistent object store: objects on slotted pages behind the buffer
//! pool.
//!
//! An object directory (oid → page/slot) is rebuilt by scanning pages at
//! open time, EOS-style — pages are self-describing, so there is no
//! separate catalog to corrupt.
//!
//! The store's *ceiling* is the largest oid it has ever held, so the cache
//! fills a miss above it without asking the directory.

use crate::buffer::BufferPool;
use crate::heapfile::PageStore;
use crate::page::{Page, PageId};
use crate::slotted::{SlotId, SlottedPage};
use asset_common::sync::Mutex;
use asset_common::{AssetError, IdMap, Oid, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Object store over a page store.
pub struct ObjectStore {
    pool: BufferPool,
    dir: Mutex<IdMap<Oid, (PageId, SlotId)>>,
    /// Pages most recently observed to have free room, newest last.
    free_hints: Mutex<Vec<PageId>>,
    page_size: usize,
    /// See [`ceiling`](Self::ceiling).
    ceiling: AtomicU64,
}

impl ObjectStore {
    /// Open a store over `store`, scanning existing pages to rebuild the
    /// object directory.
    pub fn open(store: Arc<dyn PageStore>, pool_pages: usize) -> Result<ObjectStore> {
        let page_size = store.page_size();
        let pool = BufferPool::new(store, pool_pages);
        let mut dir = IdMap::default();
        let n = pool.store().num_pages();
        for pid in 0..n {
            let guard = pool.fetch(pid)?;
            guard.with_read(|page| -> Result<()> {
                if SlottedPage::is_formatted(page.bytes()) {
                    let sp = SlottedPage::open(page.clone())?;
                    for (slot, oid, _) in sp.live_records() {
                        if dir.insert(oid, (pid, slot)).is_some() {
                            return Err(AssetError::Corrupt(format!(
                                "object {oid} appears on multiple pages"
                            )));
                        }
                    }
                }
                Ok(())
            })?;
        }
        let ceiling = dir.keys().map(|o| o.raw()).max().unwrap_or(0);
        Ok(ObjectStore {
            pool,
            dir: Mutex::new(dir),
            free_hints: Mutex::new((0..n).collect()),
            page_size,
            ceiling: AtomicU64::new(ceiling),
        })
    }

    /// The largest oid this store has ever held (0 if none): no object
    /// above it is stored. An atomic load, which the cache may take under
    /// its shard mutex. Relaxed: a `put` raises it before the directory
    /// mutex that publishes the object.
    pub fn ceiling(&self) -> u64 {
        self.ceiling.load(Ordering::Relaxed)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.dir.lock().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.dir.lock().is_empty()
    }

    /// Read the payload of `oid`.
    pub fn get(&self, oid: Oid) -> Result<Option<Vec<u8>>> {
        let loc = { self.dir.lock().get(&oid).copied() };
        let Some((pid, slot)) = loc else {
            return Ok(None);
        };
        let guard = self.pool.fetch(pid)?;
        guard.with_read(|page| -> Result<Option<Vec<u8>>> {
            let sp = SlottedPage::open(page.clone())?;
            match sp.get(slot) {
                Some((found, bytes)) if found == oid => Ok(Some(bytes.to_vec())),
                _ => Err(AssetError::Corrupt(format!(
                    "directory points {oid} at page {pid} slot {slot} but it is not there"
                ))),
            }
        })
    }

    /// Insert or overwrite `oid` with `bytes`.
    pub fn put(&self, oid: Oid, bytes: &[u8]) -> Result<()> {
        if bytes.len() > SlottedPage::max_record_len(self.page_size) {
            return Err(AssetError::Corrupt(format!(
                "object of {} bytes exceeds page capacity",
                bytes.len()
            )));
        }
        self.ceiling.fetch_max(oid.raw(), Ordering::Relaxed);
        let loc = { self.dir.lock().get(&oid).copied() };
        if let Some((pid, slot)) = loc {
            // Try updating in place on its current page.
            let guard = self.pool.fetch(pid)?;
            let updated = guard.with_write(|page| -> Result<Option<SlotId>> {
                let mut sp = SlottedPage::open(std::mem::replace(page, Page::zeroed(0)))?;
                let new_slot = sp.update(slot, bytes);
                *page = sp.into_page();
                Ok(new_slot)
            })?;
            drop(guard);
            match updated {
                Some(new_slot) => {
                    if new_slot != slot {
                        self.dir.lock().insert(oid, (pid, new_slot));
                    }
                    return Ok(());
                }
                None => {
                    // Did not fit on its page: it was already deleted there
                    // by `update`? No — update() leaves the record alone
                    // when the *page* cannot host the new one... it deletes
                    // then fails insert. Remove the stale mapping and fall
                    // through to a fresh placement.
                    self.dir.lock().remove(&oid);
                    self.note_free(pid);
                }
            }
        }
        let (pid, slot) = self.place(oid, bytes)?;
        self.dir.lock().insert(oid, (pid, slot));
        Ok(())
    }

    /// Delete `oid`. Returns whether it existed.
    pub fn delete(&self, oid: Oid) -> Result<bool> {
        let loc = { self.dir.lock().remove(&oid) };
        let Some((pid, slot)) = loc else {
            return Ok(false);
        };
        let guard = self.pool.fetch(pid)?;
        guard.with_write(|page| -> Result<()> {
            let mut sp = SlottedPage::open(std::mem::replace(page, Page::zeroed(0)))?;
            sp.delete(slot);
            *page = sp.into_page();
            Ok(())
        })?;
        self.note_free(pid);
        Ok(true)
    }

    fn note_free(&self, pid: PageId) {
        let mut hints = self.free_hints.lock();
        if !hints.contains(&pid) {
            hints.push(pid);
        }
    }

    /// Find a page that can host `bytes` and insert; allocates a new page
    /// when no hinted page fits.
    fn place(&self, oid: Oid, bytes: &[u8]) -> Result<(PageId, SlotId)> {
        let hints: Vec<PageId> = { self.free_hints.lock().iter().rev().copied().collect() };
        for pid in hints {
            let guard = self.pool.fetch(pid)?;
            let slot = guard.with_write(|page| -> Result<Option<SlotId>> {
                if !SlottedPage::is_formatted(page.bytes()) {
                    // unformatted (freshly allocated elsewhere): format now
                    let fresh = SlottedPage::format(std::mem::replace(page, Page::zeroed(0)), pid);
                    *page = fresh.into_page();
                }
                let mut sp = SlottedPage::open(std::mem::replace(page, Page::zeroed(0)))?;
                let slot = sp.insert(oid, bytes);
                *page = sp.into_page();
                Ok(slot)
            })?;
            if let Some(slot) = slot {
                return Ok((pid, slot));
            }
            // page full: drop the hint
            self.free_hints.lock().retain(|&p| p != pid);
        }
        // allocate a fresh page
        let (pid, guard) = self.pool.allocate()?;
        let slot = guard.with_write(|page| -> Result<Option<SlotId>> {
            let mut sp = SlottedPage::format(std::mem::replace(page, Page::zeroed(0)), pid);
            let slot = sp.insert(oid, bytes);
            *page = sp.into_page();
            Ok(slot)
        })?;
        drop(guard);
        self.note_free(pid);
        slot.map(|s| (pid, s))
            .ok_or_else(|| AssetError::Corrupt("fresh page rejected a size-checked record".into()))
    }

    /// Flush every dirty frame and sync the underlying store.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heapfile::{FilePageStore, MemPageStore};

    fn mem_store() -> ObjectStore {
        ObjectStore::open(Arc::new(MemPageStore::new(512)), 16).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let s = mem_store();
        s.put(Oid(1), b"alpha").unwrap();
        s.put(Oid(2), b"beta").unwrap();
        assert_eq!(s.get(Oid(1)).unwrap().unwrap(), b"alpha");
        assert_eq!(s.get(Oid(2)).unwrap().unwrap(), b"beta");
        assert_eq!(s.get(Oid(3)).unwrap(), None);
        assert_eq!(s.len(), 2);
        assert!(s.get(Oid(1)).unwrap().is_some());
    }

    #[test]
    fn overwrite_same_size_and_grow() {
        let s = mem_store();
        s.put(Oid(1), b"aaaa").unwrap();
        s.put(Oid(1), b"bbbb").unwrap();
        assert_eq!(s.get(Oid(1)).unwrap().unwrap(), b"bbbb");
        // grow beyond in-place capacity
        let big = vec![7u8; 300];
        s.put(Oid(1), &big).unwrap();
        assert_eq!(s.get(Oid(1)).unwrap().unwrap(), big);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_frees() {
        let s = mem_store();
        s.put(Oid(1), b"x").unwrap();
        assert!(s.delete(Oid(1)).unwrap());
        assert!(!s.delete(Oid(1)).unwrap());
        assert_eq!(s.get(Oid(1)).unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn many_objects_spill_across_pages() {
        let s = mem_store();
        let payload = vec![0x5Au8; 100];
        for i in 0..100u64 {
            s.put(Oid(i + 1), &payload).unwrap();
        }
        assert_eq!(s.len(), 100);
        for i in 0..100u64 {
            assert_eq!(s.get(Oid(i + 1)).unwrap().unwrap(), payload);
        }
        assert!(
            s.pool.store().num_pages() > 10,
            "objects spilled over pages"
        );
    }

    #[test]
    fn the_ceiling_is_the_largest_oid_ever_held() {
        let s = mem_store();
        assert_eq!(s.ceiling(), 0);
        s.put(Oid(7), b"x").unwrap();
        s.put(Oid(3), b"y").unwrap();
        assert_eq!(s.ceiling(), 7);
        s.delete(Oid(7)).unwrap();
        assert_eq!(s.ceiling(), 7, "a delete does not lower it");
        s.put(Oid(u64::MAX), b"z").unwrap();
        assert_eq!(s.ceiling(), u64::MAX);
    }

    #[test]
    fn oversized_object_rejected() {
        let s = mem_store();
        assert!(s.put(Oid(1), &vec![0u8; 600]).is_err());
    }

    #[test]
    fn reopen_rebuilds_directory() {
        let dir = std::env::temp_dir().join(format!("asset-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.db");
        let _ = std::fs::remove_file(&path);
        {
            let ps = Arc::new(FilePageStore::open(&path, 512).unwrap());
            let s = ObjectStore::open(ps, 16).unwrap();
            for i in 0..30u64 {
                s.put(Oid(i + 1), format!("value-{i}").as_bytes()).unwrap();
            }
            s.delete(Oid(5)).unwrap();
            s.flush().unwrap();
        }
        let ps = Arc::new(FilePageStore::open(&path, 512).unwrap());
        let s = ObjectStore::open(ps, 16).unwrap();
        assert_eq!(s.len(), 29);
        assert_eq!(s.ceiling(), 30, "rebuilt from the directory");
        assert_eq!(s.get(Oid(7)).unwrap().unwrap(), b"value-6");
        assert_eq!(s.get(Oid(5)).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deleted_space_is_reused() {
        let s = mem_store();
        let payload = vec![1u8; 100];
        for i in 0..50u64 {
            s.put(Oid(i + 1), &payload).unwrap();
        }
        let pages_before = s.pool.store().num_pages();
        for i in 0..50u64 {
            s.delete(Oid(i + 1)).unwrap();
        }
        for i in 100..150u64 {
            s.put(Oid(i + 1), &payload).unwrap();
        }
        let pages_after = s.pool.store().num_pages();
        assert_eq!(pages_before, pages_after, "space reuse, no growth");
    }
}
