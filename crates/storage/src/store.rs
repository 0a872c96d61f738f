//! The persistent object store: the image the last checkpoint left.
//!
//! Applications work on objects in the shared cache (§4), and the cache
//! never evicts, so the store has one job: hold what the last checkpoint or
//! log compaction flushed, for the next restart to start from. It is a map
//! in memory and, on disk, one file that [`flush`](ObjectStore::flush)
//! replaces whole:
//!
//! ```text
//! [magic 8] [count] ([oid] [len] [bytes])* [checksum u64]
//! ```
//!
//! with `count`, `oid` and `len` LEB128 and the checksum (FNV-1a) over
//! every byte before it. A flush writes the image to `<file>.next`, syncs
//! it, renames it over the file and syncs the directory, as
//! [`LogManager::rewrite`](crate::LogManager::rewrite) does, so a crash
//! leaves the old image or the new one, and at most a stale `.next` that
//! nothing reads. [`open`](ObjectStore::open) refuses a file whose magic
//! or checksum does not verify with `Corrupt`: a damaged image is never
//! taken for an empty store.
//!
//! The store's *ceiling* is the largest oid it has ever held, so the cache
//! fills a miss above it without asking the map.

use crate::log::checksum;
use asset_common::codec::{put_varint, CodecError, Reader};
use asset_common::sync::Mutex;
use asset_common::{AssetError, IdMap, Oid, Result};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// What an image file starts with.
const MAGIC: [u8; 8] = *b"ASSETOS1";

/// The object store (see the module docs).
pub struct ObjectStore {
    objects: Mutex<IdMap<Oid, Vec<u8>>>,
    /// The image file; `None` keeps the store in memory only.
    path: Option<PathBuf>,
    /// See [`ceiling`](Self::ceiling).
    ceiling: AtomicU64,
    #[cfg(feature = "faults")]
    faults: std::sync::Arc<asset_faults::FaultRegistry>,
}

impl ObjectStore {
    /// An empty store that lives in memory only: [`flush`](Self::flush)
    /// writes nothing.
    pub fn in_memory() -> ObjectStore {
        Self::holding(IdMap::default(), None)
    }

    /// Open the store whose image is the file at `path`: empty if there is
    /// no such file, `Corrupt` if the file is not one whole image.
    pub fn open(path: &Path) -> Result<ObjectStore> {
        let objects = match std::fs::read(path) {
            Ok(image) => decode(&image).map_err(|why| {
                AssetError::Corrupt(format!("object store image {}: {why}", path.display()))
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => IdMap::default(),
            Err(e) => return Err(e.into()),
        };
        Ok(Self::holding(objects, Some(path.to_path_buf())))
    }

    fn holding(objects: IdMap<Oid, Vec<u8>>, path: Option<PathBuf>) -> ObjectStore {
        let ceiling = objects.keys().map(|o| o.raw()).max().unwrap_or(0);
        ObjectStore {
            objects: Mutex::new(objects),
            path,
            ceiling: AtomicU64::new(ceiling),
            #[cfg(feature = "faults")]
            faults: Default::default(),
        }
    }

    /// Consult `faults` at the store's failpoints (see
    /// [`failpoints`](crate::failpoints)).
    #[cfg(feature = "faults")]
    pub fn set_faults(&mut self, faults: std::sync::Arc<asset_faults::FaultRegistry>) {
        self.faults = faults;
    }

    /// The largest oid this store has ever held (0 if none): no object
    /// above it is stored. An atomic load, which the cache may take under
    /// its shard mutex. Relaxed: a `put` raises it before the map mutex
    /// that publishes the object.
    pub fn ceiling(&self) -> u64 {
        self.ceiling.load(Ordering::Relaxed)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.lock().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.objects.lock().is_empty()
    }

    /// Read the payload of `oid`.
    pub fn get(&self, oid: Oid) -> Result<Option<Vec<u8>>> {
        Ok(self.objects.lock().get(&oid).cloned())
    }

    /// Insert or overwrite `oid` with `bytes`.
    pub fn put(&self, oid: Oid, bytes: &[u8]) -> Result<()> {
        self.ceiling.fetch_max(oid.raw(), Ordering::Relaxed);
        self.objects.lock().insert(oid, bytes.to_vec());
        Ok(())
    }

    /// Delete `oid`. Returns whether it existed.
    pub fn delete(&self, oid: Oid) -> Result<bool> {
        Ok(self.objects.lock().remove(&oid).is_some())
    }

    /// Make the store's contents the image on disk: written beside the
    /// file, synced, renamed over it, the directory synced. A no-op in
    /// memory. The map stays locked throughout, so two flushes never share
    /// the file beside.
    pub fn flush(&self) -> Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let objects = self.objects.lock();
        let image = encode(&objects);
        let mut beside = path.clone().into_os_string();
        beside.push(".next");
        let mut file = File::create(&beside)?;
        asset_faults::failpoint!(&self.faults, crate::failpoints::STORE_WRITE, |act| {
            if let asset_faults::FaultAction::Torn { keep_per_mille } = act {
                let keep = image.len() * keep_per_mille as usize / 1000;
                let _ = file.write_all(&image[..keep]);
            }
            let site = crate::failpoints::STORE_WRITE;
            return Err(self.faults.realize_plain(site, act).into());
        });
        file.write_all(&image)?;
        if !asset_faults::failpoint_sync!(&self.faults, crate::failpoints::STORE_SYNC) {
            file.sync_data()?;
        }
        std::fs::rename(&beside, path)?;
        // make the rename itself durable (where a directory can be opened)
        if let Some(Ok(dir)) = path.parent().map(File::open) {
            dir.sync_all()?;
        }
        Ok(())
    }
}

/// The image of `objects` (format in the module docs).
fn encode(objects: &IdMap<Oid, Vec<u8>>) -> Vec<u8> {
    let mut image = MAGIC.to_vec();
    put_varint(&mut image, objects.len() as u64);
    for (oid, bytes) in objects {
        put_varint(&mut image, oid.raw());
        put_varint(&mut image, bytes.len() as u64);
        image.extend_from_slice(bytes);
    }
    let sum = checksum(&image);
    image.extend_from_slice(&sum.to_le_bytes());
    image
}

/// The objects of `image`, or why it is not one whole image.
fn decode(image: &[u8]) -> std::result::Result<IdMap<Oid, Vec<u8>>, CodecError> {
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
    let mut objects = IdMap::default();
    for _ in 0..r.varint()? {
        let oid = Oid(r.varint()?);
        let len = r.varint()?;
        objects.insert(oid, r.bytes(len as usize)?.to_vec());
    }
    r.finish()?;
    Ok(objects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let s = ObjectStore::in_memory();
        s.put(Oid(1), b"alpha").unwrap();
        s.put(Oid(2), b"beta").unwrap();
        s.put(Oid(1), b"gamma").unwrap();
        assert_eq!(s.get(Oid(1)).unwrap().unwrap(), b"gamma");
        assert_eq!(s.get(Oid(3)).unwrap(), None);
        assert_eq!(s.len(), 2);
        assert!(s.delete(Oid(1)).unwrap());
        assert!(!s.delete(Oid(1)).unwrap());
        assert_eq!(s.get(Oid(1)).unwrap(), None);
        assert!(s.delete(Oid(2)).unwrap());
        assert!(s.is_empty());
        s.flush().unwrap();
    }

    #[test]
    fn the_ceiling_is_the_largest_oid_ever_held() {
        let s = ObjectStore::in_memory();
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
    fn reopen_reads_the_last_flushed_image() {
        let dir = std::env::temp_dir().join(format!("asset-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.db");
        let _ = std::fs::remove_file(&path);
        {
            let s = ObjectStore::open(&path).unwrap();
            for i in 0..30u64 {
                s.put(Oid(i + 1), format!("value-{i}").as_bytes()).unwrap();
            }
            s.delete(Oid(5)).unwrap();
            s.flush().unwrap();
            s.put(Oid(40), b"never flushed").unwrap();
        }
        let s = ObjectStore::open(&path).unwrap();
        assert_eq!(s.len(), 29);
        assert_eq!(s.ceiling(), 30, "rebuilt from the image");
        assert_eq!(s.get(Oid(7)).unwrap().unwrap(), b"value-6");
        assert_eq!(s.get(Oid(5)).unwrap(), None);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one file");
        // a heap file of slotted pages is not an image, and not an empty store
        std::fs::write(&path, [0u8; 4096]).unwrap();
        assert!(matches!(
            ObjectStore::open(&path),
            Err(AssetError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
