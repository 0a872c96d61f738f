//! Page stores: the persistent home of pages.
//!
//! [`PageStore`] abstracts over an in-memory page array (used by tests,
//! examples and benchmarks — the paper's shared-memory cache mode with no
//! disk) and a real file ([`FilePageStore`]) using positioned reads/writes.

use crate::page::{Page, PageId};
use asset_annot::verify_allow;
use asset_common::sync::Mutex;
use asset_common::{AssetError, Result};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// The persistent home of fixed-size pages.
pub trait PageStore: Send + Sync {
    /// Page size in bytes.
    fn page_size(&self) -> usize;
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;
    /// Read page `pid` into a fresh buffer.
    fn read_page(&self, pid: PageId) -> Result<Page>;
    /// Write `page` as page `pid`.
    fn write_page(&self, pid: PageId, page: &Page) -> Result<()>;
    /// Allocate a new zeroed page; returns its id.
    fn allocate(&self) -> Result<PageId>;
    /// Flush to stable storage.
    fn sync(&self) -> Result<()>;
}

/// An in-memory page store.
pub struct MemPageStore {
    page_size: usize,
    pages: Mutex<Vec<Page>>,
}

impl MemPageStore {
    /// New empty store.
    pub fn new(page_size: usize) -> MemPageStore {
        MemPageStore {
            page_size,
            pages: Mutex::new(Vec::new()),
        }
    }
}

impl PageStore for MemPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    fn read_page(&self, pid: PageId) -> Result<Page> {
        let pages = self.pages.lock();
        pages
            .get(pid as usize)
            .cloned()
            .ok_or_else(|| AssetError::Corrupt(format!("read of unallocated page {pid}")))
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        let mut pages = self.pages.lock();
        match pages.get_mut(pid as usize) {
            Some(slot) => {
                *slot = page.clone();
                Ok(())
            }
            None => Err(AssetError::Corrupt(format!(
                "write to unallocated page {pid}"
            ))),
        }
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        let pid = pages.len() as PageId;
        pages.push(Page::zeroed(self.page_size));
        Ok(pid)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// A file-backed page store using positioned I/O.
pub struct FilePageStore {
    page_size: usize,
    file: File,
    num_pages: Mutex<u32>,
    #[cfg(feature = "faults")]
    faults: std::sync::Arc<asset_faults::FaultRegistry>,
}

impl FilePageStore {
    /// Open (creating if absent) the heap file at `path`.
    #[verify_allow(
        failpoint_coverage,
        reason = "open-time torn-page chop: runs before the fault registry exists, exercised by the recovery matrix instead"
    )]
    pub fn open(path: &Path, page_size: usize) -> Result<FilePageStore> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            // A trailing partial page is what a crash mid-extension leaves
            // behind (a torn page). Chop it: the WAL is truncated only
            // after the store is flushed and synced, so any data that
            // belonged on the torn page is still in the log and redo
            // rewrites it. A torn page can only be the last one — writes
            // inside the file never change its length.
            len -= len % page_size as u64;
            file.set_len(len)?;
        }
        let num_pages = (len / page_size as u64) as u32;
        Ok(FilePageStore {
            page_size,
            file,
            num_pages: Mutex::new(num_pages),
            #[cfg(feature = "faults")]
            faults: Default::default(),
        })
    }

    /// Consult `faults` at this store's failpoints (see
    /// [`failpoints`](crate::failpoints)).
    #[cfg(feature = "faults")]
    pub fn set_faults(&mut self, faults: std::sync::Arc<asset_faults::FaultRegistry>) {
        self.faults = faults;
    }

    /// Evaluate [`STORE_PAGE_WRITE`](crate::failpoints::STORE_PAGE_WRITE)
    /// before `bytes` land at `offset`; `Torn` writes a prefix and crashes.
    #[cfg(feature = "faults")]
    fn check_page_write(&self, bytes: &[u8], offset: u64) -> Result<()> {
        if let Some(act) = self.faults.check(crate::failpoints::STORE_PAGE_WRITE) {
            match act {
                asset_faults::FaultAction::Torn { keep_per_mille } => {
                    let keep = bytes.len() * keep_per_mille as usize / 1000;
                    let _ = self.file.write_all_at(&bytes[..keep], offset);
                    self.faults.crash_now(crate::failpoints::STORE_PAGE_WRITE);
                }
                other => {
                    return Err(self
                        .faults
                        .realize_plain(crate::failpoints::STORE_PAGE_WRITE, other)
                        .into())
                }
            }
        }
        Ok(())
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        *self.num_pages.lock()
    }

    fn read_page(&self, pid: PageId) -> Result<Page> {
        if pid >= self.num_pages() {
            return Err(AssetError::Corrupt(format!(
                "read of unallocated page {pid}"
            )));
        }
        let mut buf = vec![0u8; self.page_size];
        self.file
            .read_exact_at(&mut buf, pid as u64 * self.page_size as u64)?;
        Ok(Page::from_bytes(buf))
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        if pid >= self.num_pages() {
            return Err(AssetError::Corrupt(format!(
                "write to unallocated page {pid}"
            )));
        }
        let offset = pid as u64 * self.page_size as u64;
        #[cfg(feature = "faults")]
        self.check_page_write(page.bytes(), offset)?;
        self.file.write_all_at(page.bytes(), offset)?;
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut n = self.num_pages.lock();
        let pid = *n;
        let zero = vec![0u8; self.page_size];
        let offset = pid as u64 * self.page_size as u64;
        #[cfg(feature = "faults")]
        self.check_page_write(&zero, offset)?;
        self.file.write_all_at(&zero, offset)?;
        *n += 1;
        Ok(pid)
    }

    fn sync(&self) -> Result<()> {
        let elide = asset_faults::failpoint_sync!(&self.faults, crate::failpoints::STORE_SYNC);
        if !elide {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        assert_eq!(store.num_pages(), 0);
        let p0 = store.allocate().unwrap();
        let p1 = store.allocate().unwrap();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(store.num_pages(), 2);

        let mut page = Page::zeroed(store.page_size());
        page.bytes_mut()[0] = 0xAA;
        page.bytes_mut()[store.page_size() - 1] = 0xBB;
        store.write_page(p1, &page).unwrap();

        let back = store.read_page(p1).unwrap();
        assert_eq!(back.bytes()[0], 0xAA);
        assert_eq!(back.bytes()[store.page_size() - 1], 0xBB);

        let zero = store.read_page(p0).unwrap();
        assert!(zero.bytes().iter().all(|&b| b == 0));

        assert!(store.read_page(99).is_err());
        assert!(store.write_page(99, &page).is_err());
        store.sync().unwrap();
    }

    #[test]
    fn mem_store() {
        exercise(&MemPageStore::new(512));
    }

    #[test]
    fn file_store() {
        let dir = std::env::temp_dir().join(format!("asset-hf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.db");
        let _ = std::fs::remove_file(&path);
        {
            let store = FilePageStore::open(&path, 512).unwrap();
            exercise(&store);
        }
        // Re-open: pages persist.
        let store = FilePageStore::open(&path, 512).unwrap();
        assert_eq!(store.num_pages(), 2);
        assert_eq!(store.read_page(1).unwrap().bytes()[0], 0xAA);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_chops_torn_trailing_page() {
        // a crash mid-extension leaves a partial last page; open must
        // truncate it away (redo rewrites it from the WAL) and keep the
        // full pages before it
        let dir = std::env::temp_dir().join(format!("asset-hf-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.db");
        std::fs::write(&path, vec![7u8; 512 + 188]).unwrap();
        let store = FilePageStore::open(&path, 512).unwrap();
        assert_eq!(store.num_pages(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 512);
        assert_eq!(store.read_page(0).unwrap().bytes(), &[7u8; 512][..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
