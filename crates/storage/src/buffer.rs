//! A buffer pool with clock (second-chance) eviction.
//!
//! The pool caches pages of a [`PageStore`] in a fixed number of frames.
//! Callers fetch pages, mutate them through [`FrameGuard`], and mark them
//! dirty; dirty frames are written back on eviction and on
//! [`BufferPool::flush_all`].

use crate::heapfile::PageStore;
use crate::page::{Page, PageId};
use asset_common::sync::{Mutex, RwLock};
use asset_common::{AssetError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

struct Frame {
    /// Page currently cached, `None` for a free frame.
    page_id: Mutex<Option<PageId>>,
    data: RwLock<Page>,
    dirty: AtomicBool,
    pin_count: AtomicU32,
    ref_bit: AtomicBool,
}

/// A fixed-capacity page cache over a [`PageStore`].
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    frames: Vec<Frame>,
    /// page id -> frame index
    table: Mutex<HashMap<PageId, usize>>,
    clock_hand: AtomicU32,
    hits: AtomicU32,
    misses: AtomicU32,
}

/// RAII pin on a frame; unpins on drop.
pub struct FrameGuard<'a> {
    pool: &'a BufferPool,
    frame: usize,
}

impl BufferPool {
    /// Build a pool of `capacity` frames over `store`.
    pub fn new(store: Arc<dyn PageStore>, capacity: usize) -> BufferPool {
        assert!(capacity >= 1);
        let page_size = store.page_size();
        let frames = (0..capacity)
            .map(|_| Frame {
                page_id: Mutex::new(None),
                data: RwLock::new(Page::zeroed(page_size)),
                dirty: AtomicBool::new(false),
                pin_count: AtomicU32::new(0),
                ref_bit: AtomicBool::new(false),
            })
            .collect();
        BufferPool {
            store,
            frames,
            table: Mutex::new(HashMap::new()),
            clock_hand: AtomicU32::new(0),
            hits: AtomicU32::new(0),
            misses: AtomicU32::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// Cache hit/miss counters (diagnostics and benches).
    pub fn stats(&self) -> (u32, u32) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Allocate a fresh page in the store and pin it.
    pub fn allocate(&self) -> Result<(PageId, FrameGuard<'_>)> {
        let pid = self.store.allocate()?;
        let guard = self.fetch(pid)?;
        Ok((pid, guard))
    }

    /// Fetch page `pid`, pinning its frame.
    ///
    /// Every step that decides which page a frame holds is taken under the
    /// table lock, and no I/O is: a frame is mapped *before* its page is
    /// read in, with the frame's data lock held as the loading latch, so a
    /// second fetch of the same page finds the mapping and waits for the
    /// one load instead of starting its own.
    pub fn fetch(&self, pid: PageId) -> Result<FrameGuard<'_>> {
        loop {
            // Resident: pinned under the table lock, so eviction (which
            // unmaps under the same lock, and only an otherwise unpinned
            // frame) cannot take the frame in between.
            let resident = {
                let table = self.table.lock();
                table.get(&pid).map(|&idx| {
                    self.frames[idx].pin_count.fetch_add(1, Ordering::AcqRel);
                    self.guard(idx)
                })
            };
            if let Some(guard) = resident {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let f = &self.frames[guard.frame];
                f.ref_bit.store(true, Ordering::Relaxed);
                if *f.page_id.lock() != Some(pid) {
                    // still being read in: wait for the loader's latch
                    drop(f.data.read());
                    if *f.page_id.lock() != Some(pid) {
                        continue; // its read failed; try the load ourselves
                    }
                }
                return Ok(guard);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let guard = self.evict_victim()?;
            let f = &self.frames[guard.frame];
            let mut data = f.data.write();
            {
                let mut table = self.table.lock();
                if table.contains_key(&pid) {
                    continue; // mapped by a concurrent miss while we evicted
                }
                table.insert(pid, guard.frame);
            }
            match self.store.read_page(pid) {
                Ok(page) => *data = page,
                Err(e) => {
                    self.table.lock().remove(&pid);
                    return Err(e);
                }
            }
            *f.page_id.lock() = Some(pid);
            f.ref_bit.store(true, Ordering::Relaxed);
            drop(data);
            return Ok(guard);
        }
    }

    fn guard(&self, frame: usize) -> FrameGuard<'_> {
        FrameGuard { pool: self, frame }
    }

    /// Choose a victim frame with the clock algorithm and return it pinned
    /// for the caller: written back if it was dirty, unmapped, holding no
    /// page.
    fn evict_victim(&self) -> Result<FrameGuard<'_>> {
        let n = self.frames.len();
        for _ in 0..=2 * n {
            let hand = self.clock_hand.fetch_add(1, Ordering::Relaxed) as usize % n;
            let f = &self.frames[hand];
            // pinned and referenced frames both just advance the hand
            if f.pin_count.load(Ordering::Acquire) != 0 || f.ref_bit.swap(false, Ordering::Relaxed)
            {
                continue;
            }
            if f.pin_count
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let claim = self.guard(hand); // gives the pin back if we move on
            let old = *f.page_id.lock();
            // Write back while the page is still mapped: a fetch of it in
            // the meantime is a hit on the current contents, never a read
            // of the store's stale copy.
            if let Some(old_pid) = old {
                if f.dirty.swap(false, Ordering::AcqRel) {
                    let data = f.data.read();
                    if let Err(e) = self.store.write_page(old_pid, &data) {
                        f.dirty.store(true, Ordering::Release);
                        return Err(e);
                    }
                }
            }
            let mut table = self.table.lock();
            // Pins are only added under the table lock: if ours is still
            // the only one, nobody holds the frame or can reach it before
            // it is unmapped. Otherwise a fetch took (and perhaps
            // dirtied) it during the write-back and it is no victim.
            if f.pin_count.load(Ordering::Acquire) != 1 || f.dirty.load(Ordering::Acquire) {
                continue;
            }
            if let Some(old_pid) = old {
                table.remove(&old_pid);
            }
            *f.page_id.lock() = None;
            return Ok(claim);
        }
        Err(AssetError::Corrupt(
            "buffer pool exhausted: all frames pinned".into(),
        ))
    }

    /// Write all dirty frames back and sync the store.
    pub fn flush_all(&self) -> Result<()> {
        for f in &self.frames {
            // under the data lock the frame cannot be loaded with another
            // page between reading its id and writing its contents
            let data = f.data.read();
            let pid = *f.page_id.lock();
            if let Some(pid) = pid {
                if f.dirty.swap(false, Ordering::AcqRel) {
                    self.store.write_page(pid, &data)?;
                }
            }
        }
        self.store.sync()
    }
}

impl<'a> FrameGuard<'a> {
    /// Read the page contents under the frame's shared lock.
    pub fn with_read<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        let data = self.pool.frames[self.frame].data.read();
        f(&data)
    }

    /// Mutate the page contents under the frame's exclusive lock; marks the
    /// frame dirty.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Page) -> R) -> R {
        let mut data = self.pool.frames[self.frame].data.write();
        self.pool.frames[self.frame]
            .dirty
            .store(true, Ordering::Release);
        f(&mut data)
    }
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        self.pool.frames[self.frame]
            .pin_count
            .fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heapfile::MemPageStore;
    use std::sync::mpsc;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemPageStore::new(256)), frames)
    }

    #[test]
    fn fetch_allocated_page() {
        let p = pool(4);
        let (pid, g) = p.allocate().unwrap();
        g.with_write(|page| page.bytes_mut()[0] = 9);
        drop(g);
        let g2 = p.fetch(pid).unwrap();
        assert_eq!(g2.with_read(|page| page.bytes()[0]), 9);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let mut pids = vec![];
        for i in 0..5u8 {
            let (pid, g) = p.allocate().unwrap();
            g.with_write(|page| page.bytes_mut()[0] = i + 1);
            pids.push(pid);
        }
        // All five pages were dirtied through a 2-frame pool; re-reading
        // them must show the writes survived eviction.
        for (i, pid) in pids.iter().enumerate() {
            let g = p.fetch(*pid).unwrap();
            assert_eq!(g.with_read(|page| page.bytes()[0]), i as u8 + 1);
        }
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let p = pool(2);
        let (pid_a, ga) = p.allocate().unwrap();
        ga.with_write(|page| page.bytes_mut()[0] = 0xAA);
        // churn through other pages while A stays pinned
        for _ in 0..4 {
            let (_, g) = p.allocate().unwrap();
            g.with_write(|page| page.bytes_mut()[0] = 1);
        }
        assert_eq!(ga.with_read(|page| page.bytes()[0]), 0xAA);
        drop(ga);
        let g = p.fetch(pid_a).unwrap();
        assert_eq!(g.with_read(|page| page.bytes()[0]), 0xAA);
    }

    #[test]
    fn all_pinned_is_an_error() {
        let p = pool(2);
        let (_, _g1) = p.allocate().unwrap();
        let (_, _g2) = p.allocate().unwrap();
        assert!(p.allocate().is_err());
    }

    #[test]
    fn flush_all_persists() {
        let store = Arc::new(MemPageStore::new(256));
        let p = BufferPool::new(store.clone(), 4);
        let (pid, g) = p.allocate().unwrap();
        g.with_write(|page| page.bytes_mut()[10] = 77);
        drop(g);
        p.flush_all().unwrap();
        assert_eq!(store.read_page(pid).unwrap().bytes()[10], 77);
    }

    #[test]
    fn hit_miss_stats() {
        let p = pool(4);
        let (pid, g) = p.allocate().unwrap();
        drop(g);
        let before = p.stats();
        let _ = p.fetch(pid).unwrap();
        let after = p.stats();
        assert_eq!(after.0, before.0 + 1, "resident fetch is a hit");
    }

    /// A store whose first read (or first write) stops inside the call
    /// until the test lets it go: the one way to hold a fetch in the middle
    /// of a miss without sleeping.
    struct GatedStore {
        inner: MemPageStore,
        gate_reads: bool,
        /// Taken by the first gated call: where it reports which page it is
        /// at, and where it waits to be let go.
        gate: Mutex<Option<(mpsc::Sender<PageId>, mpsc::Receiver<()>)>>,
    }

    impl GatedStore {
        fn stop_at_gate(&self, pid: PageId) {
            let gate = self.gate.lock().take();
            if let Some((at, go)) = gate {
                at.send(pid).unwrap();
                go.recv().unwrap();
            }
        }
    }

    impl PageStore for GatedStore {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }
        fn read_page(&self, pid: PageId) -> Result<Page> {
            if self.gate_reads {
                self.stop_at_gate(pid);
            }
            self.inner.read_page(pid)
        }
        fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
            if !self.gate_reads {
                self.stop_at_gate(pid);
            }
            self.inner.write_page(pid, page)
        }
        fn allocate(&self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    /// A pool over a gated store of `pages` pages, plus the two ends of the
    /// gate: which page the stopped call is at, and the release.
    fn gated_pool(
        frames: usize,
        pages: usize,
        gate_reads: bool,
    ) -> (
        Arc<BufferPool>,
        Vec<PageId>,
        mpsc::Receiver<PageId>,
        mpsc::Sender<()>,
    ) {
        let (at_tx, at_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel();
        let store = GatedStore {
            inner: MemPageStore::new(256),
            gate_reads,
            gate: Mutex::new(Some((at_tx, go_rx))),
        };
        let pids = (0..pages).map(|_| store.allocate().unwrap()).collect();
        let pool = Arc::new(BufferPool::new(Arc::new(store), frames));
        (pool, pids, at_rx, go_tx)
    }

    #[test]
    fn two_misses_on_one_page_share_one_frame() {
        let (p, pids, at_gate, go) = gated_pool(4, 1, true);
        let pid = pids[0];
        let fetch = |p: &Arc<BufferPool>| {
            let p = Arc::clone(p);
            std::thread::spawn(move || {
                let g = p.fetch(pid).unwrap();
                g.with_write(|page| page.bytes_mut()[0] += 1);
            })
        };
        // the first fetch misses and stops inside the store's read ...
        let first = fetch(&p);
        assert_eq!(at_gate.recv().unwrap(), pid);
        // ... the second has looked the page up (a hit on the frame being
        // loaded, or a miss of its own) before the first is let go
        let second = fetch(&p);
        while p.stats().0 + p.stats().1 < 2 {
            std::thread::yield_now();
        }
        go.send(()).unwrap();
        first.join().unwrap();
        second.join().unwrap();
        // one frame: both increments landed on the same copy of the page
        assert_eq!(p.fetch(pid).unwrap().with_read(|page| page.bytes()[0]), 2);
        assert_eq!(p.stats(), (2, 1), "one load, and two hits on its frame");
    }

    #[test]
    fn a_page_being_written_back_is_never_read_stale() {
        let (p, pids, at_gate, go) = gated_pool(2, 3, false);
        // both frames hold a dirty page
        for pid in &pids[..2] {
            let g = p.fetch(*pid).unwrap();
            g.with_write(|page| page.bytes_mut()[0] = 7);
        }
        // a third page needs a frame: the eviction stops inside the
        // write-back of its victim ...
        let evictor = {
            let (p, pid) = (Arc::clone(&p), pids[2]);
            std::thread::spawn(move || drop(p.fetch(pid).unwrap()))
        };
        let victim = at_gate.recv().unwrap();
        // ... and a fetch of the victim meanwhile sees what was written,
        // not the store's copy from before the write-back
        let g = p.fetch(victim).unwrap();
        assert_eq!(g.with_read(|page| page.bytes()[0]), 7);
        go.send(()).unwrap();
        evictor.join().unwrap();
        drop(g);
        for pid in &pids[..2] {
            assert_eq!(p.fetch(*pid).unwrap().with_read(|page| page.bytes()[0]), 7);
        }
    }

    #[test]
    fn concurrent_fetches() {
        let p = Arc::new(pool(8));
        let mut pids = vec![];
        for i in 0..16u8 {
            let (pid, g) = p.allocate().unwrap();
            g.with_write(|page| page.bytes_mut()[0] = i);
            pids.push(pid);
        }
        p.flush_all().unwrap();
        let mut handles = vec![];
        for t in 0..4 {
            let p = Arc::clone(&p);
            let pids = pids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200 {
                    let i = (t * 7 + round) % pids.len();
                    let g = p.fetch(pids[i]).unwrap();
                    assert_eq!(g.with_read(|page| page.bytes()[0]), i as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
