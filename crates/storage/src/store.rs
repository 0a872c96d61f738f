//! The persistent object store: where the last checkpoint's image lives.
//!
//! Applications work on objects in the shared cache (§4), which holds every
//! object and never evicts, so the store holds no objects of its own: it is
//! the place of one image of the cache — a file on disk, the bytes of the
//! last image in memory. [`write`](ObjectStore::write) encodes the cache
//! and replaces the image whole; [`load`](ObjectStore::load) decodes it
//! straight into a fresh cache at restart:
//!
//! ```text
//! [magic 8] [count] ([oid] [len] [bytes])* [checksum u64]
//! ```
//!
//! with `count`, `oid` and `len` LEB128 and the checksum (FNV-1a) over
//! every byte before it. A write puts the image in `<file>.next`, syncs
//! it, renames it over the file and syncs the directory, as
//! [`LogManager::rewrite`](crate::LogManager::rewrite) does, so a crash
//! leaves the old image or the new one, and at most a stale `.next` that
//! nothing reads. A load refuses a file whose magic or checksum does not
//! verify with `Corrupt`: a damaged image is never taken for an empty one.

use crate::cache::ObjectCache;
use crate::durable::Failpoint;
use crate::failpoints::{STORE_SYNC, STORE_WRITE};
use crate::log::checksum;
use asset_common::codec::{put_varint, CodecError, Reader};
use asset_common::sync::{Mutex, Rank};
use asset_common::{AssetError, Oid, Result};
use std::fs::File;
use std::path::{Path, PathBuf};

/// What an image file starts with.
const MAGIC: [u8; 8] = *b"ASSETOS1";

/// The object store (see the module docs).
pub struct ObjectStore {
    /// The image file; `None` keeps the image in `memory`.
    path: Option<PathBuf>,
    /// The last image written when there is no file. On disk it stays
    /// `None`, and its mutex keeps two writers off the file beside.
    memory: Mutex<Option<Vec<u8>>>,
    faults: std::sync::Arc<asset_faults::FaultRegistry>,
}

impl ObjectStore {
    /// A store that keeps its image in memory.
    pub fn in_memory() -> ObjectStore {
        Self::holding(None)
    }

    /// The store whose image is the file at `path` (none yet if there is no
    /// such file). Nothing is read before [`load`](Self::load).
    pub fn at(path: &Path) -> ObjectStore {
        Self::holding(Some(path.to_path_buf()))
    }

    fn holding(path: Option<PathBuf>) -> ObjectStore {
        ObjectStore {
            path,
            memory: Mutex::ranked(None, Rank::STORE, 0),
            faults: Default::default(),
        }
    }

    /// Consult `faults` at the store's failpoints (see
    /// [`failpoints`](crate::failpoints)).
    #[cfg(feature = "faults")]
    pub fn set_faults(&mut self, faults: std::sync::Arc<asset_faults::FaultRegistry>) {
        self.faults = faults;
    }

    /// Decode the last image into `cache`, one clean entry per object.
    /// Returns the largest oid in it (0 if none); `Corrupt` if the file is
    /// not one whole image.
    pub fn load(&self, cache: &ObjectCache) -> Result<u64> {
        let image = match &self.path {
            None => self.memory.lock().clone(),
            Some(path) => match std::fs::read(path) {
                Ok(image) => Some(image),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(e.into()),
            },
        };
        let Some(image) = image else {
            return Ok(0);
        };
        decode(&image, cache).map_err(|why| {
            let at = self.path.as_deref().unwrap_or(Path::new("in memory"));
            AssetError::Corrupt(format!("object store image {}: {why}", at.display()))
        })
    }

    /// Make the image of `cache` the store's: in memory, kept; on disk,
    /// written beside the file, synced, renamed over it, the directory
    /// synced.
    pub fn write(&self, cache: &ObjectCache) -> Result<()> {
        let mut memory = self.memory.lock();
        let image = encode(cache);
        let Some(path) = &self.path else {
            *memory = Some(image);
            return Ok(());
        };
        let mut beside = path.clone().into_os_string();
        beside.push(".next");
        let file = File::create(&beside)?;
        Failpoint(&self.faults, STORE_WRITE).write(&file, 0, &image)?;
        Failpoint(&self.faults, STORE_SYNC).sync(&file, false)?;
        std::fs::rename(&beside, path)?;
        // make the rename itself durable (where a directory can be opened)
        if let Some(Ok(dir)) = path.parent().map(File::open) {
            Failpoint(&self.faults, STORE_SYNC).sync(&dir, true)?;
        }
        Ok(())
    }
}

/// The image of every object in `cache` (format in the module docs).
fn encode(cache: &ObjectCache) -> Vec<u8> {
    let (mut body, mut count) = (Vec::new(), 0u64);
    cache.for_each_object(|oid, bytes| {
        put_varint(&mut body, oid.raw());
        put_varint(&mut body, bytes.len() as u64);
        body.extend_from_slice(bytes);
        count += 1;
    });
    let mut image = MAGIC.to_vec();
    put_varint(&mut image, count);
    image.extend_from_slice(&body);
    let sum = checksum(&image);
    image.extend_from_slice(&sum.to_le_bytes());
    image
}

/// Fill `cache` with the objects of `image` and return the largest oid,
/// or say why it is not one whole image.
fn decode(image: &[u8], cache: &ObjectCache) -> std::result::Result<u64, CodecError> {
    let body = image
        .len()
        .checked_sub(8)
        .map(|n| &image[..n])
        .filter(|body| body.starts_with(&MAGIC))
        .ok_or_else(|| CodecError::Corrupt("not an object store image".into()))?;
    if checksum(body).to_le_bytes() != image[body.len()..] {
        return Err(CodecError::Corrupt("checksum mismatch".into()));
    }
    let mut r = Reader::new(&body[MAGIC.len()..]);
    let mut max_oid = 0;
    for _ in 0..r.varint()? {
        let oid = r.varint()?;
        let len = r.varint()?;
        cache.fill(Oid(oid), r.bytes(len as usize)?.to_vec());
        max_oid = max_oid.max(oid);
    }
    r.finish()?;
    Ok(max_oid)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `cache` holds, sorted by oid.
    fn contents(cache: &ObjectCache) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        cache.for_each_object(|oid, bytes| out.push((oid.raw(), bytes.to_vec())));
        out.sort();
        out
    }

    #[test]
    fn reopen_reads_the_last_flushed_image() {
        let dir = asset_faults::TempDir::new("store");
        let path = dir.join("heap.db");
        let cache = ObjectCache::new();
        let set = |oid: u64, image: Option<&[u8]>| {
            let entry = cache.entry(Oid(oid));
            entry.write_with(cache.obs(), |d| *d = image.map(<[u8]>::to_vec));
        };
        for i in 0..30u64 {
            set(i + 1, Some(format!("value-{i}").as_bytes()));
        }
        set(5, None);
        ObjectStore::at(&path).write(&cache).unwrap();
        set(40, Some(b"never written"));

        let reopened = ObjectCache::new();
        let max_oid = ObjectStore::at(&path).load(&reopened).unwrap();
        assert_eq!(max_oid, 30, "the largest oid in the image");
        let expect: Vec<(u64, Vec<u8>)> = (0..30u64)
            .filter(|i| *i != 4)
            .map(|i| (i + 1, format!("value-{i}").into_bytes()))
            .collect();
        assert_eq!(contents(&reopened), expect, "no tombstone, nothing later");
        assert_eq!(std::fs::read_dir(&*dir).unwrap().count(), 1, "one file");
        // a heap file of slotted pages is not an image, and not an empty store
        std::fs::write(&path, [0u8; 4096]).unwrap();
        assert!(matches!(
            ObjectStore::at(&path).load(&ObjectCache::new()),
            Err(AssetError::Corrupt(_))
        ));
    }

    /// In memory the store keeps the bytes of the last image: a fresh
    /// cache loads what the last write saw, and no store loads as empty.
    #[test]
    fn an_in_memory_store_keeps_the_last_image() {
        let store = ObjectStore::in_memory();
        let fresh = ObjectCache::new();
        assert_eq!(store.load(&fresh).unwrap(), 0);
        let cache = ObjectCache::new();
        cache
            .entry(Oid(9))
            .write_with(cache.obs(), |d| *d = Some(b"nine".to_vec()));
        store.write(&cache).unwrap();
        assert_eq!(store.load(&fresh).unwrap(), 9);
        assert_eq!(contents(&fresh), [(9, b"nine".to_vec())]);
    }
}
