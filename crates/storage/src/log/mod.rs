//! The write-ahead log manager.
//!
//! Append-only; each record's [`Lsn`] is its byte offset. Backends: an
//! in-memory byte buffer (tests/benchmarks; survives within the process so
//! the recovery *algorithms* are still exercised) and an append-only file
//! with configurable durability.
//!
//! Every append encodes its record straight into one user-space buffer,
//! `pending`, under the append lock and returns; nothing on the append
//! path makes a syscall or computes a checksum. The buffer reaches the OS
//! in one `write` when a forced append (commit record), a
//! [`flush`](LogManager::flush) or the
//! [`flush watermark`](LogManager::open_with) drains it — under every
//! durability: the modes differ only in whether a force also syncs
//! (`Strict`) or not (`Buffered`). So [`LogWatermarks::pending_bytes`] is
//! non-zero between forces under `Strict` too.
//!
//! **The drain is the unit of integrity** (the format is the record
//! module's). A drain swaps the buffer out under the append lock and closes
//! it there with a five-byte seal — counted in `tail` like every other
//! byte, so LSNs stay file offsets — then, with the lock released, fills
//! the seal with the checksum of the bytes since the previous seal, writes,
//! and syncs: appenders fill the next buffer while the drainer hashes and
//! the device works. What one drain writes is a *block*, and a block is in
//! the log whole or not at all: [`replay`](LogManager::replay) visits its
//! records only once its seal verifies. The in-memory backend is the same
//! buffer, never drained and so never sealed: its records, like those
//! still in a file log's buffer, have not left the process and are trusted
//! as they are.
//!
//! Drains are serialized among themselves, so bytes reach the file in LSN
//! order. Buffered bytes die with a killed process: they are a suffix of
//! the log that no force followed, so nothing acknowledged is among them.
//! A manager that is *dropped* drains (without syncing) first, so a clean
//! exit, or a test that "crashes" by dropping the database, leaves the OS
//! every record that was appended.
//!
//! **The log fails by stopping.** A failed write or sync of the live log,
//! or a panic in a [`SystemSection`], stops it: it keeps the first cause,
//! never writes again (its drop included) and answers every later entry
//! with [`AssetError::Stopped`].
//!
//! One manager owns a log file at a time: [`open`](LogManager::open) takes
//! an exclusive advisory lock on it, held until the manager is dropped,
//! and waits for a previous owner to let go. That owner may be a manager
//! of this process still on its way out — a transaction thread keeps its
//! database alive for an instant past `wait` — whose drop drain must land
//! before the next owner reads the file, not after.

mod flusher;
pub mod mark;
mod record;

pub use flusher::{FlushCallback, GroupFlusher};
pub(crate) use record::{checksum, rebuild};
pub use record::{
    IdCursor, Ids, LogEntry, LogRecord, Patch, RecordRef, WireId, FORMAT_MARKER, SEAL_LEN,
};

use crate::durable::Failpoint;
use crate::failpoints::{
    LOG_FLUSH, LOG_REWRITE_AFTER_RENAME, LOG_REWRITE_BEFORE_RENAME, LOG_SYNC, LOG_TRUNCATE,
};
use asset_common::sync::{Mutex, MutexGuard, Rank};
use asset_common::{AssetError, Durability, Lsn, Oid, Result};
use asset_obs::{bump, EventKind, Obs};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

/// A record's place in the log: the log's [generation](LogManager::generation),
/// then its LSN. Ordered by it, records are in log order across cuts too.
pub type LogPlace = (u64, Lsn);

/// Default user-space buffer watermark (bytes).
pub const DEFAULT_FLUSH_WATERMARK: usize = 64 * 1024;

/// How much of the log [`LogManager::replay`] reads at a time: many
/// blocks, so that few of them are decoded twice for straddling a read.
const REPLAY_CHUNK: usize = 1024 * 1024;

/// Point-in-time durability watermarks of the log, read in one critical
/// section by [`LogManager::watermarks`] so the fields are mutually
/// consistent (unlike calling the individual accessors back to back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogWatermarks {
    /// The LSN the next record will get (= bytes accepted so far).
    pub tail: Lsn,
    /// Records appended through this manager instance.
    pub records_appended: u64,
    /// Of those, the unforced appends to a file log that stayed in the
    /// user-space buffer — no drain ran for them (the coalescing the buffer
    /// exists for). `Database::metrics_snapshot` reports both as the
    /// `log_appends` and `log_coalesced` counters.
    pub records_coalesced: u64,
    /// Bytes accepted but not yet handed to the OS: the user-space buffer
    /// plus a drain in flight. Under every file durability this grows with
    /// each unforced append and returns to zero at a force, a flush or the
    /// watermark; a process crash loses these bytes, none of them
    /// acknowledged.
    pub pending_bytes: usize,
    /// Bytes handed to the OS but not yet synced — the window a power
    /// failure can erase.
    pub unsynced_bytes: usize,
}

/// The log file. Its mutex is held for the whole of a drain, a rewrite or
/// a scan's read, so the file changes under one of them at a time; taken
/// before `inner`, never while holding it.
struct Disk {
    path: PathBuf,
    /// Opened for append: every `write` lands at the end, `&File` writes.
    file: File,
    /// The buffer the last drain emptied, which the next drain swaps in
    /// for `pending`.
    spare: Vec<u8>,
}

#[derive(Default)]
struct Inner {
    /// Records accepted and not yet handed to the file; the whole log of
    /// the in-memory backend.
    pending: Vec<u8>,
    /// What the next record's ids are written against: it runs through
    /// the generation, across seals.
    cursor: IdCursor,
    /// The next append opens with a reset entry: this manager opened a
    /// log it did not start, and does not know the last ids in it.
    reset: bool,
    tail: u64,
    records_appended: u64,
    records_coalesced: u64,
    /// Bytes handed to the OS: the file's length.
    written: u64,
    /// The prefix of `written` known to be on stable storage.
    synced: u64,
    /// One past the LSN of the latest `Commit` record; 0 for none.
    last_commit: u64,
}

/// The log manager.
pub struct LogManager {
    inner: Mutex<Inner>,
    /// `None` for the in-memory backend.
    disk: Option<Mutex<Disk>>,
    durability: Durability,
    flush_watermark: usize,
    /// See [`generation`](Self::generation).
    generation: AtomicU64,
    obs: Arc<Obs>,
    /// What the failpoints on this log consult: its own, the flusher's,
    /// the checkpoint's and restart recovery's.
    pub(crate) faults: Arc<asset_faults::FaultRegistry>,
    /// The stop cell: its flag, set by the first [`stop`](Self::stop)
    /// and read relaxed at every entry; the first cause; what it runs.
    stopped: AtomicBool,
    cause: OnceLock<String>,
    on_stop: OnceLock<Weak<dyn OnStop>>,
}

/// What the layer above a log does when the log stops.
pub trait OnStop: Send + Sync {
    /// Called once, on the stopping thread, which may hold any lock: it
    /// must take none that a stopping path may hold.
    fn stopped(self: Arc<Self>);
}

/// System code entered through [`LogManager::enter`]: a panic out of it
/// stops the log, unless it was entered during another unwind.
#[must_use = "the section ends when the guard drops"]
pub struct SystemSection<'a>(&'a LogManager, bool);

impl Drop for SystemSection<'_> {
    fn drop(&mut self) {
        if !self.1 && std::thread::panicking() {
            self.0.stop(&"a panic in system code");
        }
    }
}

impl LogManager {
    fn new(
        disk: Option<Mutex<Disk>>,
        len: u64,
        durability: Durability,
        watermark: usize,
    ) -> LogManager {
        LogManager {
            inner: Mutex::new(Inner {
                tail: len,
                written: len,
                synced: len,
                reset: len > 0,
                ..Inner::default()
            }),
            disk,
            durability,
            flush_watermark: watermark.max(1),
            generation: AtomicU64::new(1),
            obs: Obs::shared(),
            faults: Default::default(),
            stopped: AtomicBool::new(false),
            cause: OnceLock::new(),
            on_stop: OnceLock::new(),
        }
    }

    /// A purely in-memory log.
    pub fn in_memory() -> LogManager {
        Self::new(None, 0, Durability::InMemory, DEFAULT_FLUSH_WATERMARK)
    }

    /// Report into `obs` instead of this manager's private hub (append/
    /// flush counters, coalescing counts, and — while tracing is enabled —
    /// append/flush latency histograms).
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// Consult `faults` at this manager's failpoints (see
    /// [`failpoints`](crate::failpoints)).
    #[cfg(feature = "faults")]
    pub fn set_faults(&mut self, faults: Arc<asset_faults::FaultRegistry>) {
        self.faults = faults;
    }

    /// Install what the first [`stop`](Self::stop) runs (once).
    pub fn on_stop(&self, hook: Weak<dyn OnStop>) {
        let _ = self.on_stop.set(hook);
    }

    /// Stop the log for `cause`, unless it has stopped already; returns
    /// the [`AssetError::Stopped`] that names the first cause.
    pub fn stop(&self, cause: &dyn std::fmt::Display) -> AssetError {
        if self.cause.set(cause.to_string()).is_ok() {
            self.stopped.store(true, Ordering::Release);
            if let Some(hook) = self.on_stop.get().and_then(Weak::upgrade) {
                hook.stopped();
            }
        }
        AssetError::Stopped(self.cause.get().cloned().unwrap_or_default())
    }

    /// `Err(Stopped)` once the log has stopped: one relaxed load.
    pub fn live(&self) -> Result<()> {
        if self.stopped.load(Ordering::Relaxed) {
            return Err(self.stop(&"stopped"));
        }
        Ok(())
    }

    /// Enter a [`SystemSection`]: refused once the log has stopped.
    pub fn enter(&self) -> Result<SystemSection<'_>> {
        self.live()?;
        Ok(SystemSection(self, std::thread::panicking()))
    }

    /// The observability hub this log reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The log's generation: starts at one and moves on at every
    /// [`rewrite`](Self::rewrite), so "logged in the current generation"
    /// means "in the log as it stands" — and nothing has to be swept when
    /// the log is cut. The storage engine stamps it on a cached object
    /// whose image it has just logged; while the stamp is current, the next
    /// write to the object logs no before image ([`LogRecord::Overwrite`]).
    ///
    /// Relaxed: cutting the log is legal only while no transaction writes,
    /// and it is the caller's exclusion of writers (the transaction table's
    /// shards), not this counter, that orders the two.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Open (creating if absent) the log file at `path` with the default
    /// flush watermark.
    pub fn open(path: &Path, durability: Durability) -> Result<LogManager> {
        Self::open_with(path, durability, DEFAULT_FLUSH_WATERMARK)
    }

    /// Open (creating if absent) the log file at `path`; unforced appends
    /// coalesce in user space until `flush_watermark` bytes are pending.
    /// Waits for the file's previous owner, if one is still around, to be
    /// dropped. A file that does not start with the [`FORMAT_MARKER`] (or,
    /// torn inside it, with a prefix of it) is `Corrupt` and left as it is.
    pub fn open_with(
        path: &Path,
        durability: Durability,
        flush_watermark: usize,
    ) -> Result<LogManager> {
        Self::open_ranked(path, durability, flush_watermark, 0)
    }

    /// [`open_with`](Self::open_with), the file's mutex at `ordinal` among
    /// log files: a rewrite takes the next generation's (1) while it holds
    /// the log's own (0).
    fn open_ranked(
        path: &Path,
        durability: Durability,
        flush_watermark: usize,
        ordinal: usize,
    ) -> Result<LogManager> {
        let mut file = loop {
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(path)?;
            if let Some(file) = lock_current(path, file)? {
                break file;
            }
        };
        let mut head = Vec::new();
        (&file)
            .take(FORMAT_MARKER.len() as u64)
            .read_to_end(&mut head)?;
        if !FORMAT_MARKER.starts_with(&head) {
            return Err(AssetError::Corrupt(format!(
                "{} is not a v9 log: it starts {head:02x?}",
                path.display()
            )));
        }
        let len = file.seek(SeekFrom::End(0))?;
        let disk = Disk {
            path: path.to_path_buf(),
            file,
            spare: Vec::new(),
        };
        let disk = Mutex::ranked(disk, Rank::LOG_DISK, ordinal);
        Ok(Self::new(Some(disk), len, durability, flush_watermark))
    }

    /// Append a record; returns its LSN. The record is accepted into the
    /// user-space buffer and reaches the OS with the next force, flush or
    /// watermark drain.
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        self.append_ref(&rec.as_ref())
    }

    /// Append and force: the record and everything before it is handed to
    /// the OS before returning and, under `Strict` durability, synced. Used
    /// for commit records (WAL rule).
    pub fn append_forced(&self, rec: &LogRecord) -> Result<Lsn> {
        self.append_inner(std::iter::once(rec.as_ref()), |_| (), true)
    }

    /// Append `recs` back to back in one critical section (a group-commit
    /// window); returns the first record's LSN and reports each record's to
    /// `each`, in order. Unforced, like [`append`](Self::append).
    pub fn append_all<'a>(
        &self,
        recs: impl IntoIterator<Item = &'a LogRecord>,
        each: impl FnMut(Lsn),
    ) -> Result<Lsn> {
        self.append_inner(recs.into_iter().map(LogRecord::as_ref), each, false)
    }

    /// Append a record whose images are borrowed: the write and undo paths
    /// log from where the images sit, and copy neither. An `Overwrite`
    /// whose after image is a patch must follow a record of its object
    /// whose image the patch fits, or replay refuses the log.
    pub fn append_ref(&self, rec: &RecordRef<'_>) -> Result<Lsn> {
        mark::note(rec);
        self.append_inner(std::iter::once(*rec), |_| (), false)
    }

    /// The one append path: encode every record into `pending`, then
    /// accept them. Returns the first record's LSN and reports each one's
    /// to `each`.
    fn append_inner<'a>(
        &self,
        recs: impl IntoIterator<Item = RecordRef<'a>>,
        mut each: impl FnMut(Lsn),
        force: bool,
    ) -> Result<Lsn> {
        self.live()?;
        // Timing is gated on tracing so the default append path never pays
        // for a clock read; the counters below are always on.
        let t0 = self.obs.tracing_enabled().then(Instant::now);
        let mut inner = self.inner.lock();
        if inner.tail == 0 && self.disk.is_some() {
            // the first block of a generation opens with the marker
            inner.pending.extend_from_slice(&FORMAT_MARKER);
            inner.tail = FORMAT_MARKER.len() as u64;
        } else if inner.reset {
            // and the first this manager writes behind another's, with a
            // reset: ids go on from 0, not from ids it never saw
            let Inner {
                pending, cursor, ..
            } = &mut *inner;
            record::open_reset(pending, cursor);
            inner.tail += 1;
        }
        inner.reset = false;
        let lsn = Lsn(inner.tail);
        let start = inner.pending.len();
        let mut records = 0;
        for rec in recs {
            let Inner {
                pending,
                cursor,
                last_commit,
                ..
            } = &mut *inner;
            let at = lsn.0 + (pending.len() - start) as u64;
            each(Lsn(at));
            rec.encode_into(pending, cursor);
            if let RecordRef::Commit { .. } = rec {
                *last_commit = at + 1;
            }
            records += 1;
        }
        asset_faults::failpoint!(&self.faults, crate::failpoints::LOG_APPEND, |act| {
            drop(inner);
            if let asset_faults::FaultAction::Torn { keep_per_mille } = act {
                self.crash_torn(crate::failpoints::LOG_APPEND, keep_per_mille);
            }
            let refused = self
                .faults
                .realize_plain(crate::failpoints::LOG_APPEND, act);
            return Err(self.stop(&refused));
        });
        inner.tail += (inner.pending.len() - start) as u64;
        inner.records_appended += records;
        let over_watermark = inner.pending.len() >= self.flush_watermark;
        if !force && !over_watermark && self.disk.is_some() {
            inner.records_coalesced += records;
        }
        drop(inner);
        if force {
            self.drain(self.durability == Durability::Strict)?;
        } else if over_watermark && self.disk.is_some() {
            self.drain_in_passing()?;
        }
        if let Some(t0) = t0 {
            self.obs
                .log_append_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        Ok(lsn)
    }

    /// What `Torn` means at a failpoint of the append path: the `write`
    /// that would have carried the buffer is cut short — a byte prefix of
    /// the block being assembled reaches the file, with no seal behind it —
    /// and the process dies. An appender may hold an object latch, under
    /// which nothing waits for the file: with a drain in flight, the
    /// prefix that lands is the empty one. (A `Torn` inside a drain,
    /// [`LOG_FLUSH`](crate::failpoints::LOG_FLUSH), tears the block that
    /// drain swapped out.)
    #[cfg(feature = "faults")]
    pub(crate) fn crash_torn(&self, site: &'static str, keep_per_mille: u16) -> ! {
        self.stop(&site);
        if let Some(disk) = self.disk.as_ref().and_then(Mutex::try_lock) {
            let inner = self.inner.lock();
            let torn = Failpoint(&self.faults, site);
            torn.tear(keep_per_mille, &disk.file, &inner.pending);
        }
        self.faults.crash_now(site)
    }

    /// Force everything appended so far to stable storage.
    pub fn flush(&self) -> Result<()> {
        self.drain(true).map(|_| ())
    }

    /// Seal the pending buffer and hand it to the OS with one `write`, and,
    /// if `sync`, make the file stable with one `sync_data` (none when
    /// nothing was written since the last) — hash, write and sync with the
    /// append lock released. Returns the bytes this
    /// drain wrote: the block it sealed; zero when another drain carried
    /// them first, and for the in-memory backend, where it is a no-op. A
    /// failed write or sync stops the log.
    pub fn drain(&self, sync: bool) -> Result<usize> {
        match &self.disk {
            Some(disk) => self.drain_holding(disk.lock(), sync),
            None => Ok(0),
        }
    }

    /// A drain that nobody waits for (the watermark, the manager's drop):
    /// write, no sync. It steps aside when another drain is running — that
    /// one or the next force carries the bytes — so an unforced append
    /// never queues behind a sync.
    fn drain_in_passing(&self) -> Result<()> {
        let Some(disk) = self.disk.as_ref().and_then(Mutex::try_lock) else {
            return Ok(());
        };
        self.drain_holding(disk, false).map(drop)
    }

    /// The drain proper, for a caller that holds the disk.
    fn drain_holding(&self, mut disk: MutexGuard<'_, Disk>, sync: bool) -> Result<usize> {
        let _section = self.enter()?;
        let t0 = self.obs.tracing_enabled().then(Instant::now);
        let (mut buf, written, unsynced) = {
            let mut inner = self.inner.lock();
            if !inner.pending.is_empty() {
                record::open_seal(&mut inner.pending);
                inner.tail += SEAL_LEN as u64;
            }
            let spare = std::mem::take(&mut disk.spare);
            let unsynced = inner.synced < inner.written;
            (
                std::mem::replace(&mut inner.pending, spare),
                inner.written,
                unsynced,
            )
        };
        if !buf.is_empty() {
            record::fill_seal(&mut buf, 0);
            let wrote = Failpoint(&self.faults, LOG_FLUSH).write(&disk.file, written, &buf);
            wrote.map_err(|e| self.stop(&e))?;
            // Written but not yet synced: they count as unsynced until the
            // sync below actually happens (it may fail, or be elided).
            self.inner.lock().written += buf.len() as u64;
        }
        let drained = buf.len();
        buf.clear();
        disk.spare = buf;
        // nothing written since the last sync: nothing to sync
        let sync = sync && (drained > 0 || unsynced);
        let synced = sync.then(|| Failpoint(&self.faults, LOG_SYNC).sync(&disk.file, false));
        if synced.transpose().map_err(|e| self.stop(&e))? == Some(true) {
            let mut inner = self.inner.lock();
            inner.synced = inner.written;
        }
        drop(disk);
        bump(&self.obs.counters.log_flushes);
        if let Some(t0) = t0 {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            self.obs.log_flush_ns.record(dur_ns);
            // The flush sub-span on the storage track: recorded with no
            // log lock held, same discipline as the latency gauge.
            self.obs.record(EventKind::LogFlush {
                bytes: drained as u64,
                dur_ns,
            });
        }
        Ok(drained)
    }

    /// The log's durability watermarks in one point-in-time view (feeds
    /// `Database::introspect()` and the `asset-top` display).
    pub fn watermarks(&self) -> LogWatermarks {
        let inner = self.inner.lock();
        let on_disk = self.disk.is_some();
        LogWatermarks {
            tail: Lsn(inner.tail),
            records_appended: inner.records_appended,
            records_coalesced: inner.records_coalesced,
            pending_bytes: if on_disk {
                (inner.tail - inner.written) as usize
            } else {
                0
            },
            unsynced_bytes: (inner.written - inner.synced) as usize,
        }
    }

    /// The LSN of the latest `Commit` record while it is not yet durable —
    /// written, and under `Strict` synced — else `None`. A commit that
    /// logged nothing waits for it: it may have read what that commit
    /// released before its record was durable.
    pub fn undurable_commit(&self) -> Option<Lsn> {
        self.disk.as_ref()?;
        let inner = self.inner.lock();
        let durable = match self.durability {
            Durability::Strict => inner.synced,
            _ => inner.written,
        };
        (inner.last_commit > durable).then(|| Lsn(inner.last_commit - 1))
    }

    /// Current tail LSN (the LSN the next record will get).
    pub fn tail(&self) -> Lsn {
        self.watermarks().tail
    }

    /// Number of records appended through this manager instance.
    pub fn records_appended(&self) -> u64 {
        self.watermarks().records_appended
    }

    /// Bytes accepted but not yet handed to the OS (see
    /// [`LogWatermarks::pending_bytes`]). Zero for the in-memory backend.
    pub fn pending_bytes(&self) -> usize {
        self.watermarks().pending_bytes
    }

    /// Bytes handed to the OS but not yet `sync_data`'d — the window a
    /// power failure can erase. Zero for the in-memory backend. Under
    /// `Strict` a force syncs what it drains, so this is non-zero only
    /// after a watermark drain or a failed or elided sync; under
    /// `Buffered`, drained bytes accumulate until [`flush`](Self::flush).
    pub fn unsynced_bytes(&self) -> usize {
        self.watermarks().unsynced_bytes
    }

    /// Read the whole log and decode it into `(lsn, record)` pairs: a
    /// collector over [`replay`](Self::replay), for tests and diagnostics.
    /// A patched `Overwrite` or CLR comes out whole, rebuilt over the image
    /// the records before it installed; one its base does not fit is
    /// `Corrupt`, as at restart.
    pub fn scan(&self) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        let mut images: HashMap<Oid, Option<Vec<u8>>> = HashMap::new();
        self.replay(|lsn, rec| {
            let rec = match rec {
                RecordRef::Overwrite { tid, oid, after } => LogRecord::Overwrite {
                    tid,
                    oid,
                    after: rebuild(lsn, oid, after, images.get(&oid))?,
                },
                RecordRef::Clr { oid, image } => LogRecord::Clr {
                    oid,
                    image: rebuild(lsn, oid, image, images.get(&oid))?,
                },
                rec => rec.to_owned(),
            };
            match &rec {
                LogRecord::Update { oid, after, .. }
                | LogRecord::Overwrite { oid, after, .. }
                | LogRecord::Clr { oid, image: after } => {
                    images.insert(*oid, after.clone());
                }
                _ => {}
            }
            out.push((lsn, rec));
            Ok(())
        })?;
        Ok(out)
    }

    /// Stream the log through `visit`, one record at a time in LSN order,
    /// images and id lists borrowed from the read buffer. The file is read
    /// a chunk at a time and decoded a block at a time (memory is bounded
    /// by one block, not by the log); records still in the user-space
    /// buffer are part of the log and follow the file's. An error from
    /// `visit` ends the replay and is returned; a seal that does not match
    /// its block, or bytes that are no record, are `Corrupt`.
    ///
    /// A torn tail is tolerated (crash consistency) and **chopped**: a
    /// file that ends before a seal ends in what a crashed write left of a
    /// block that no force covered. Left in the file, the next run's
    /// blocks would follow it and the run after that would read garbage
    /// before them; so the file is cut to the end of the last verified
    /// seal and `tail` — the next record's LSN — set to match. Only restart
    /// recovery, which runs before any append is accepted, can meet one.
    ///
    /// Drains, and with them rewrites, are held off for the whole replay
    /// (appends are not): `visit` must not flush or rewrite this log.
    pub fn replay(&self, mut visit: impl FnMut(Lsn, RecordRef<'_>) -> Result<()>) -> Result<()> {
        let disk = self.disk.as_ref().map(Mutex::lock);
        let (written, unwritten) = {
            let inner = self.inner.lock();
            (inner.written, inner.pending.clone())
        };
        // the buffer goes on from the file's cursor, or opens the
        // generation, behind its marker if the file is empty
        let (mut off, mut cursor) = (0, IdCursor::default());
        if let Some(disk) = &disk {
            let end;
            (end, cursor) = replay_file(File::open(&disk.path)?.take(written), &mut visit)?;
            if end < written {
                let cut = Failpoint(&self.faults, LOG_TRUNCATE);
                cut.write(&disk.file, end, &[])?;
                cut.sync(&disk.file, false)?;
                let mut inner = self.inner.lock();
                inner.pending.clear();
                inner.reset = true;
                (inner.tail, inner.written, inner.synced) = (end, end, end);
                return Ok(());
            }
            if written == 0 {
                off = FORMAT_MARKER.len();
            }
        }
        while let Some((entry, next)) = LogEntry::decode_in(&unwritten, off, &mut cursor)? {
            if let LogEntry::Record(rec) = entry {
                visit(Lsn(written + off as u64), rec)?;
            }
            off = next;
        }
        Ok(())
    }

    /// Replace the log with a `Checkpoint` marker followed by `recs` — the
    /// next generation, whole or not at all: the records go through a manager
    /// of their own into a file beside the log, as one forced (sealed,
    /// synced) block, and that file is renamed over the log, so a crash
    /// leaves the old log or the new one and never a log that was cut and not
    /// yet refilled. This is the one writer of the marker, so a marker only
    /// ever opens a log. Only legal while no transaction appends, after every
    /// image the dropped records describe has reached the store; the caller
    /// (the checkpoint) guarantees that. A refusal before the rename leaves
    /// the log, its LSNs and its generation as they were; one after it stops
    /// the log, which has moved to the new file already.
    pub fn rewrite<'a>(&self, recs: impl IntoIterator<Item = RecordRef<'a>>) -> Result<()> {
        self.live()?;
        let mut disk = self.disk.as_ref().map(Mutex::lock);
        Failpoint(&self.faults, LOG_TRUNCATE).check()?;
        let next = match &disk {
            Some(disk) => {
                let mut beside = disk.path.clone().into_os_string();
                beside.push(".next");
                let _ = std::fs::remove_file(&beside); // what a crashed rewrite left
                let watermark = DEFAULT_FLUSH_WATERMARK;
                Self::open_ranked(Path::new(&beside), Durability::Strict, watermark, 1)?
            }
            None => Self::in_memory(),
        };
        let recs = std::iter::once(RecordRef::Checkpoint).chain(recs);
        next.append_inner(recs, |_| (), true)?;
        let mut theirs = next.disk.as_ref().map(Mutex::lock);
        if let (Some(disk), Some(theirs)) = (&disk, &theirs) {
            Failpoint(&self.faults, LOG_REWRITE_BEFORE_RENAME).check()?;
            std::fs::rename(&theirs.path, &disk.path)?;
        }
        // The log *is* the new file now, whatever happens next: move over —
        // offsets, file, owner lock; `next` leaves with the old ones —
        // before anything else can fail.
        let mut swapped = std::mem::take(&mut *next.inner.lock());
        {
            let mut ours = self.inner.lock();
            swapped.records_appended += ours.records_appended;
            swapped.records_coalesced += ours.records_coalesced;
            std::mem::swap(&mut *ours, &mut swapped);
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        *next.inner.lock() = swapped;
        if let (Some(disk), Some(theirs)) = (&mut disk, &mut theirs) {
            std::mem::swap(&mut disk.file, &mut theirs.file);
            // make the rename itself durable (where a directory can be opened)
            if let Some(Ok(dir)) = disk.path.parent().map(File::open) {
                let synced = Failpoint(&self.faults, LOG_REWRITE_AFTER_RENAME).sync(&dir, true);
                synced.map_err(|e| self.stop(&e))?;
            }
        }
        Ok(())
    }
}

/// Lock `file`, opened at `path`, and return it if it is still the file
/// at `path`. The owner we waited for may have cut the log meanwhile: a
/// [`rewrite`](LogManager::rewrite) renames a new file over the old one,
/// and the lock we got is then the lock of an unlinked file. `None` asks
/// for the path to be opened again.
fn lock_current(path: &Path, file: File) -> Result<Option<File>> {
    file.lock()?;
    let locked = file.metadata()?;
    let current = match std::fs::metadata(path) {
        Ok(current) => current,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let same = (locked.dev(), locked.ino()) == (current.dev(), current.ino());
    Ok(same.then_some(file))
}

/// The file part of [`LogManager::replay`]: visit the records of every
/// block of `file` whose seal verifies and return where the last of those
/// blocks ends — short of the file's end if it ends in a torn block — and
/// the id cursor there.
fn replay_file(
    mut file: impl Read,
    visit: &mut impl FnMut(Lsn, RecordRef<'_>) -> Result<()>,
) -> Result<(u64, IdCursor)> {
    // `buf` is a window on the file starting at offset `base`; `start` is
    // where, in it, the last verified block ends and the next begins, and
    // `at_start` the cursor there.
    let (mut buf, mut base, mut start) = (Vec::new(), 0u64, 0usize);
    let (mut eof, mut records, mut at_start) = (false, 0, IdCursor::default());
    loop {
        // Decode the block once, from its start, and visit it only when it
        // proves whole.
        let (mut block, mut cursor) = (Vec::with_capacity(records), at_start);
        // a generation's first block opens with the marker `open` checked
        let mut off = match base + start as u64 {
            0 => FORMAT_MARKER.len(),
            _ => start,
        };
        let seal = loop {
            match LogEntry::decode_in(&buf, off, &mut cursor)? {
                Some((LogEntry::Record(rec), next)) => {
                    block.push((off, rec));
                    off = next;
                }
                Some((LogEntry::Seal(sum), next)) => break Some((sum, next)),
                Some((LogEntry::Reset, next)) => off = next,
                None => break None,
            }
        };
        match seal {
            Some((sum, next)) => {
                if sum != record::block_sum(&buf[start..off]) {
                    return Err(AssetError::Corrupt(format!(
                        "log seal at offset {} does not match its block",
                        base + off as u64
                    )));
                }
                records = block.len();
                for (off, rec) in block {
                    visit(Lsn(base + off as u64), rec)?;
                }
                (start, at_start) = (next, cursor);
            }
            None if eof => return Ok((base + start as u64, at_start)),
            None => {
                // the block runs past the window: slide it, and read at
                // least as much again as the block is long so far
                drop(block);
                buf.drain(..start);
                base += start as u64;
                start = 0;
                let more = REPLAY_CHUNK.max(buf.len()) as u64;
                eof = (&mut file).take(more).read_to_end(&mut buf)? == 0;
            }
        }
    }
}

impl Drop for LogManager {
    /// Hand the buffer to the OS, unsynced, before the file (and with it
    /// the lock that keeps the next owner waiting) is released.
    /// A stopped log writes nothing: not even here.
    fn drop(&mut self) {
        let _ = self.drain_in_passing();
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests craft torn files by hand")]
mod tests {
    use super::*;
    use asset_common::{Oid, Tid};
    use asset_faults::TempDir;
    use std::io::Write;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Abort { tid: Tid(1) },
            LogRecord::Update {
                tid: Tid(1),
                oid: Oid(10),
                before: None,
                after: Some(b"hello".to_vec()),
            },
            LogRecord::Commit { tids: vec![Tid(1)] },
        ]
    }

    #[test]
    fn mem_append_scan() {
        let log = LogManager::in_memory();
        let mut lsns = vec![];
        for r in sample_records() {
            lsns.push(log.append(&r).unwrap());
        }
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "LSNs increase");
        let scanned = log.scan().unwrap();
        assert_eq!(scanned.len(), 3);
        assert_eq!(scanned.iter().map(|(l, _)| *l).collect::<Vec<_>>(), lsns);
        assert_eq!(
            scanned.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            sample_records()
        );
    }

    #[test]
    fn file_append_scan_reopen() {
        let dir = TempDir::new("basic");
        let path = dir.join("wal.log");
        {
            let log = LogManager::open(&path, Durability::Strict).unwrap();
            for r in sample_records() {
                log.append_forced(&r).unwrap();
            }
        }
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        let scanned = log.scan().unwrap();
        assert_eq!(
            scanned.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            sample_records()
        );
        // appends continue after the recovered tail
        let lsn = log.append(&LogRecord::Checkpoint).unwrap();
        assert!(lsn.0 > 0);
        assert_eq!(log.scan().unwrap().len(), 4);
    }

    #[test]
    fn torn_tail_is_ignored_on_scan() {
        let dir = TempDir::new("torn");
        let path = dir.join("wal.log");
        {
            let log = LogManager::open(&path, Durability::Buffered).unwrap();
            for r in sample_records() {
                log.append(&r).unwrap();
            }
            log.flush().unwrap();
        }
        // simulate a torn write: a whole record, and no seal behind it
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&LogRecord::Abort { tid: Tid(9) }.encode())
                .unwrap();
        }
        let log = LogManager::open(&path, Durability::Buffered).unwrap();
        assert_eq!(log.scan().unwrap().len(), 3, "torn tail dropped");
    }

    /// `replay` reads a chunk at a time: blocks that straddle a chunk
    /// boundary (the watermark drains one every 64 KiB, and each record's
    /// LSN counts the seals before it), the records still in the user-space
    /// buffer, and a torn tail (here an `Overwrite` short of one byte) that
    /// it chops off the file.
    #[test]
    fn replay_streams_across_chunks_and_chops_a_torn_tail() {
        let dir = TempDir::new("stream");
        let path = dir.join("wal.log");
        let rec = |i: u64| LogRecord::Overwrite {
            tid: Tid(i),
            oid: Oid(i % 7),
            after: Some(vec![i as u8; 1000 + (i % 13) as usize]),
        };
        let n = 3 * REPLAY_CHUNK as u64 / 1000;
        let mut lsns = Vec::new();
        let check = |log: &LogManager, lsns: &[Lsn]| {
            let mut seen = 0;
            log.replay(|lsn, got| {
                assert_eq!(lsn, lsns[seen], "record {seen}");
                assert_eq!(got.to_owned(), rec(seen as u64));
                seen += 1;
                Ok(())
            })
            .unwrap();
            assert_eq!(seen, lsns.len());
        };
        {
            let log = LogManager::open(&path, Durability::Strict).unwrap();
            for i in 0..n {
                lsns.push(log.append(&rec(i)).unwrap());
            }
            assert!(log.pending_bytes() > 0, "the last records are buffered");
            // a seal between them: no record is longer where it stands
            // than as a generation's first, by as much as a seal
            let gaps = lsns
                .windows(2)
                .zip(0..)
                .filter(|(w, i)| w[1].0 - w[0].0 > rec(*i).encode().len() as u64);
            assert!(gaps.count() > 3 * REPLAY_CHUNK / DEFAULT_FLUSH_WATERMARK / 2);
            check(&log, &lsns);
            // a visitor's error ends the replay and is the replay's
            let mut visited = 0;
            let stopped = log.replay(|_, _| {
                visited += 1;
                Err(std::io::Error::other("enough").into())
            });
            assert!(stopped.is_err());
            assert_eq!(visited, 1);
        }
        let whole = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let bytes = rec(n).encode();
            f.write_all(&bytes[..bytes.len() - 1]).unwrap();
        }
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        assert!(log.tail().0 > whole);
        check(&log, &lsns);
        assert_eq!(log.tail().0, whole);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole, "chopped");
    }

    /// A log an earlier format wrote is refused before a byte of it is
    /// parsed — neither chopped as a torn tail nor appended to — by an
    /// error that names the format this build reads, and left as it was:
    /// behind v8's marker (every oid absolute), v7's (the tid cursor
    /// restarts at every seal), v6's (no packed `Overwrite`), v5's (every
    /// tid absolute) or v4's, or behind none, as v3 and earlier wrote,
    /// whole or cut shorter than a marker.
    #[test]
    fn a_v8_log_is_refused_and_left_untouched() {
        let dir = TempDir::new("old");
        let path = dir.join("wal.log");
        // v8's one-byte `Abort` of tid 1, `Update` of oid 10 to "hello"
        // (kind 2, the oid absolute, a before tag and a length) and
        // one-byte `Commit` of tid 1 — every format before v6 wrote kind 3
        // and a count
        let body = [&[0xF2, 2, 0, 10, 0, 6][..], b"hello", &[0xC0]].concat();
        let mut olds: Vec<Vec<u8>> = [
            b"ASSETWL8",
            b"ASSETWL7",
            b"ASSETWL6",
            b"ASSETWL5",
            b"ASSETWL4",
        ]
        .map(|marker| {
            let mut old = [&marker[..], &body].concat();
            record::open_seal(&mut old);
            record::fill_seal(&mut old, 0);
            old
        })
        .into();
        olds.extend([[&body[..], &[3, 1, 1]].concat(), body[..6].to_vec()]);
        for old in olds {
            std::fs::write(&path, &old).unwrap();
            for _ in 0..2 {
                let err = LogManager::open(&path, Durability::Strict).err().unwrap();
                assert!(
                    matches!(&err, AssetError::Corrupt(msg) if msg.contains("is not a v9 log")),
                    "{err}"
                );
                assert_eq!(std::fs::read(&path).unwrap(), old, "untouched");
            }
        }
    }

    /// The id cursor runs through the generation, and each manager that
    /// opens the log starts both its halves over with a reset entry:
    /// appends across several drains, a torn tail, a reopen that chops it,
    /// more appends across drains, and two more reopens all replay the
    /// acknowledged history — at wide and narrow tids and oids, either way,
    /// the oids before and after each reopen far apart — and the first
    /// block each reopened manager writes opens with the one-byte reset.
    #[test]
    fn a_reopened_log_goes_on_behind_a_reset_across_a_torn_tail() {
        let dir = TempDir::new("reopen");
        let path = dir.join("wal.log");
        // for each id, the creation of the object of that oid by the tid
        // of that id, then a record that ends or prepares the tid
        let recs = |from: u64| {
            [from, from + 1, 3, u64::MAX, from]
                .into_iter()
                .flat_map(|t| {
                    let (tid, oid) = (Tid(t), Oid(t));
                    let created = LogRecord::Update {
                        tid,
                        oid,
                        before: None,
                        after: Some(t.to_le_bytes().to_vec()),
                    };
                    let ended = match t % 3 {
                        0 => LogRecord::Commit { tids: vec![tid] },
                        1 => LogRecord::Abort { tid },
                        _ => LogRecord::Prepared { tids: vec![tid] },
                    };
                    [created, ended]
                })
        };
        let mut acked = Vec::new();
        // each record forced: a drain apiece, the cursor running on
        let append = |log: &LogManager, acked: &mut Vec<(Lsn, LogRecord)>, from| {
            for rec in recs(from) {
                acked.push((log.append_forced(&rec).unwrap(), rec));
            }
        };
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        append(&log, &mut acked, 70_000);
        let sealed = log.tail().0;
        // a torn block: the drop drains it, and a crash cuts it short
        log.append(&LogRecord::Abort { tid: Tid(70_002) }).unwrap();
        drop(log);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(sealed + 2).unwrap();
        drop(file);
        for round in 0..3u64 {
            let log = LogManager::open(&path, Durability::Strict).unwrap();
            assert_eq!(log.scan().unwrap(), acked, "round {round}");
            let tail = log.tail().0;
            assert!(round > 0 || tail == sealed, "chopped to the last seal");
            if round < 2 {
                append(&log, &mut acked, 5 + round * 1_000_000_000);
                let bytes = std::fs::read(&path).unwrap();
                assert_eq!(bytes[tail as usize], 12, "round {round}: a reset");
            }
        }
    }

    /// An opener that waited for the lock while the owner cut the log gets,
    /// when the owner lets go, the lock of the file the cut unlinked: it
    /// must open the path again, or it would own a log nobody reads.
    #[test]
    fn a_lock_on_the_file_a_rewrite_replaced_is_not_the_log() {
        let dir = TempDir::new("relock");
        let path = dir.join("wal.log");
        let owner = LogManager::open(&path, Durability::Strict).unwrap();
        owner.append_forced(&sample_records()[0]).unwrap();
        // what a waiting opener holds: a handle opened before the cut
        let waiting = File::open(&path).unwrap();
        owner.rewrite([]).unwrap();
        assert!(lock_current(&path, waiting).unwrap().is_none());
        drop(owner);
        let fresh = File::open(&path).unwrap();
        assert!(lock_current(&path, fresh).unwrap().is_some());
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        let marker = Lsn(FORMAT_MARKER.len() as u64);
        assert_eq!(log.scan().unwrap(), [(marker, LogRecord::Checkpoint)]);
    }

    /// A crash inside the very first write can leave less than the marker:
    /// that is a torn tail like any other, and the generation starts over.
    #[test]
    fn a_file_torn_inside_the_marker_starts_over() {
        let dir = TempDir::new("marker");
        let path = dir.join("wal.log");
        std::fs::write(&path, &FORMAT_MARKER[..3]).unwrap();
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        assert_eq!(log.scan().unwrap().len(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "chopped");
        let lsn = log.append_forced(&LogRecord::Checkpoint).unwrap();
        assert_eq!(lsn.0, FORMAT_MARKER.len() as u64);
        drop(log);
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        assert_eq!(log.scan().unwrap(), [(lsn, LogRecord::Checkpoint)]);
    }

    /// A block whose bytes changed under its seal is `Corrupt`, wherever in
    /// the log it stands, and replay leaves the file alone: none of its
    /// records is visited, nor any block's after it.
    #[test]
    fn a_block_that_does_not_match_its_seal_is_corrupt() {
        let dir = TempDir::new("seal");
        let path = dir.join("wal.log");
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        let mut ends = Vec::new();
        for r in sample_records() {
            log.append_forced(&r).unwrap();
            ends.push(log.tail().0 as usize);
        }
        drop(log);
        let good = std::fs::read(&path).unwrap();
        // an image byte of the second block; the checksum of the third
        for (at, visited) in [(ends[1] - SEAL_LEN - 1, 1), (ends[2] - 1, 2)] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let log = LogManager::open(&path, Durability::Strict).unwrap();
            let mut seen = 0;
            let err = log.replay(|_, _| {
                seen += 1;
                Ok(())
            });
            assert!(matches!(err, Err(AssetError::Corrupt(_))), "{err:?}");
            assert_eq!(seen, visited, "only the blocks before it");
            drop(log);
            assert_eq!(std::fs::read(&path).unwrap(), bad, "untouched");
        }
    }

    /// `rewrite` replaces the log in one step: the new generation is one
    /// sealed block under the log's name, the old one is gone, LSNs restart
    /// behind the marker and a reopen reads what the manager holds.
    #[test]
    fn rewrite_replaces_the_log_with_one_sealed_block() {
        let dir = TempDir::new("rewrite");
        let path = dir.join("wal.log");
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        let generation = log.generation();
        let recs = sample_records();
        log.rewrite([recs[1].as_ref()]).unwrap();
        let kept = [LogRecord::Checkpoint, recs[1].clone()];
        assert_eq!(log.generation(), generation + 1);
        assert_eq!((log.pending_bytes(), log.unsynced_bytes()), (0, 0));
        let block = FORMAT_MARKER.len() + 1 + recs[1].encode().len() + SEAL_LEN;
        assert_eq!(log.tail().0, block as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), block as u64);
        assert_eq!(std::fs::read_dir(&*dir).unwrap().count(), 1, "one file");
        let lsn = log.append_forced(&recs[2]).unwrap();
        assert_eq!(lsn.0, block as u64, "appends go on in the new file");
        let held = log.scan().unwrap();
        assert_eq!(held.len(), 3);
        assert_eq!(held[0], (Lsn(FORMAT_MARKER.len() as u64), kept[0].clone()));
        drop(log);
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        assert_eq!(log.scan().unwrap(), held);
        drop(log);
        // the in-memory log is rewritten in place: no marker, no seal
        let log = LogManager::in_memory();
        log.append(&recs[0]).unwrap();
        log.rewrite([recs[1].as_ref()]).unwrap();
        assert_eq!(log.tail().0, 1 + recs[1].encode().len() as u64);
        assert_eq!(log.scan().unwrap()[1], (Lsn(1), kept[1].clone()));
    }

    /// A rewrite refused before its rename leaves the log, its LSNs and
    /// its generation as they were; one refused after it has happened all
    /// the same, and stops the log, which writes nothing more.
    #[cfg(feature = "faults")]
    #[test]
    fn a_refused_rewrite_leaves_one_whole_log_or_the_other() {
        use asset_faults::{FaultAction, Trigger};
        let (dir, faults, log) = faulty_log("rewritefail");
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        let (tail, generation) = (log.tail(), log.generation());
        for point in [
            crate::failpoints::LOG_TRUNCATE,
            crate::failpoints::LOG_REWRITE_BEFORE_RENAME,
        ] {
            faults.arm(point, Trigger::Once, FaultAction::Error);
            let err = log.rewrite([]).unwrap_err();
            assert!(err.to_string().contains(point), "{err}");
            assert_eq!((log.tail(), log.generation()), (tail, generation));
            assert_eq!(log.scan().unwrap().len(), 3, "[{point}] the old log");
        }
        faults.arm(
            crate::failpoints::LOG_REWRITE_AFTER_RENAME,
            Trigger::Once,
            FaultAction::Error,
        );
        assert!(log.rewrite([]).is_err());
        assert_eq!(log.generation(), generation + 1);
        assert_eq!(log.scan().unwrap().len(), 1, "the new log");
        let refused = log.append_forced(&LogRecord::Abort { tid: Tid(3) });
        assert!(
            matches!(refused, Err(AssetError::Stopped(_))),
            "{refused:?}"
        );
        drop(log);
        let log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        assert_eq!(log.scan().unwrap(), [(Lsn(8), LogRecord::Checkpoint)]);
    }

    /// One buffer for every durability: unforced appends make no syscall
    /// under `Strict` either.
    #[test]
    fn appends_coalesce_until_forced_under_every_durability() {
        for durability in [Durability::Buffered, Durability::Strict] {
            appends_coalesce_until_forced(durability);
        }
    }

    fn appends_coalesce_until_forced(durability: Durability) {
        let dir = TempDir::new(&format!("coal-{durability:?}"));
        let path = dir.join("wal.log");
        let log = LogManager::open_with(&path, durability, 1 << 20).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        // nothing reached the OS yet...
        assert!(log.pending_bytes() > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // ...but the in-process log is complete
        assert_eq!(log.scan().unwrap().len(), 3);
        // a forced append (commit path) drains the buffer
        log.append_forced(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        assert_eq!(log.pending_bytes(), 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            log.tail().0,
            "everything written out"
        );
        assert_eq!(log.scan().unwrap().len(), 4);
    }

    #[test]
    fn tiny_watermark_writes_through() {
        let dir = TempDir::new("tw");
        let path = dir.join("wal.log");
        let log = LogManager::open_with(&path, Durability::Buffered, 1).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        assert_eq!(log.pending_bytes(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), log.tail().0);
    }

    #[test]
    fn coalesced_appends_and_drains_are_counted() {
        let dir = TempDir::new("obs");
        let path = dir.join("wal.log");
        let log = LogManager::open_with(&path, Durability::Buffered, 1 << 20).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        let counts = |log: &LogManager| {
            let w = log.watermarks();
            (w.records_appended, w.records_coalesced)
        };
        assert_eq!(counts(&log), (3, 3), "all stayed in user space");
        assert_eq!(log.obs().snapshot().counters.log_flushes, 0);
        log.append_forced(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        assert_eq!(counts(&log), (4, 3), "a forced append is not coalesced");
        assert_eq!(log.obs().snapshot().counters.log_flushes, 1);
        drop(log);
        // past the watermark every append drains: none coalesces
        let log = LogManager::open_with(&path, Durability::Buffered, 1).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        assert_eq!(counts(&log), (3, 0));
        // nor does any in memory, where there is no drain to save
        let log = LogManager::in_memory();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        assert_eq!(counts(&log), (3, 0));
    }

    #[test]
    fn append_latency_recorded_only_under_tracing() {
        let log = LogManager::in_memory();
        log.append(&LogRecord::Checkpoint).unwrap();
        assert_eq!(log.obs().snapshot().log_append_ns.count, 0);
        log.obs().enable_tracing(64);
        log.append(&LogRecord::Checkpoint).unwrap();
        assert_eq!(log.obs().snapshot().log_append_ns.count, 1);
    }

    #[test]
    fn records_counter() {
        let log = LogManager::in_memory();
        assert_eq!(log.records_appended(), 0);
        log.append(&LogRecord::Checkpoint).unwrap();
        log.append(&LogRecord::Checkpoint).unwrap();
        assert_eq!(log.records_appended(), 2);
    }

    /// What a commit that logged nothing waits for: the latest `Commit`
    /// until a sync covers it (a write under `Buffered`); never in memory;
    /// nothing again after a rewrite, which syncs.
    #[test]
    fn the_latest_commit_is_undurable_until_a_drain_covers_it() {
        let commit = |t| LogRecord::Commit { tids: vec![Tid(t)] };
        let mem = LogManager::in_memory();
        mem.append(&commit(1)).unwrap();
        assert_eq!(mem.undurable_commit(), None, "in memory");
        let dir = TempDir::new("log-undurable");
        for durability in [Durability::Strict, Durability::Buffered] {
            let path = dir.join(format!("{durability:?}.log"));
            let log = LogManager::open(&path, durability).unwrap();
            assert_eq!(log.undurable_commit(), None, "no commit yet");
            let first = log.append(&commit(1)).unwrap();
            let second = log.append(&commit(2)).unwrap();
            log.append(&LogRecord::Abort { tid: Tid(3) }).unwrap();
            assert_eq!(log.undurable_commit(), Some(second), "{durability:?}");
            assert!(first < second);
            log.drain(false).unwrap();
            let written = (durability == Durability::Strict).then_some(second);
            assert_eq!(log.undurable_commit(), written, "{durability:?}: written");
            log.flush().unwrap();
            assert_eq!(log.undurable_commit(), None, "{durability:?}: synced");
            log.append(&commit(4)).unwrap();
            log.rewrite([]).unwrap();
            assert_eq!(log.undurable_commit(), None, "{durability:?}: rewritten");
        }
    }

    #[test]
    fn unsynced_bytes_means_written_but_not_synced() {
        let dir = TempDir::new("unsync");

        // Strict: unforced appends are pending until a forced (commit)
        // append drains and syncs them; a watermark drain in between
        // writes without syncing.
        let path = dir.join("strict.log");
        let log = LogManager::open_with(&path, Durability::Strict, 10).unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        assert_eq!(log.pending_bytes() as u64, log.tail().0);
        assert_eq!(log.unsynced_bytes(), 0, "still in user space");
        log.append(&LogRecord::Abort { tid: Tid(2) }).unwrap();
        assert_eq!(log.pending_bytes(), 0, "over the watermark: drained");
        assert_eq!(log.unsynced_bytes() as u64, log.tail().0);
        log.append_forced(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        assert_eq!(log.unsynced_bytes(), 0, "forced append synced");
        log.append(&LogRecord::Abort { tid: Tid(2) }).unwrap();
        assert!(log.pending_bytes() > 0);
        log.flush().unwrap();
        assert_eq!((log.pending_bytes(), log.unsynced_bytes()), (0, 0));

        // Buffered: bytes in the user-space buffer are *pending*, not
        // unsynced; they join the unsynced count at drain and leave it
        // only on an actual sync.
        let path = dir.join("buffered.log");
        let log = LogManager::open_with(&path, Durability::Buffered, 1 << 20).unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        assert_eq!(log.unsynced_bytes(), 0, "still in user space");
        assert!(log.pending_bytes() > 0);
        log.append_forced(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        assert_eq!(log.pending_bytes(), 0);
        assert_eq!(
            log.unsynced_bytes() as u64,
            log.tail().0,
            "drained but buffered durability never syncs on force"
        );
        log.flush().unwrap();
        assert_eq!(log.unsynced_bytes(), 0);
    }

    /// A refused append stops the log: it names its failpoint, every
    /// later append and flush is refused with the same stop, and nothing
    /// more reaches the file — the drop's drain included.
    #[cfg(feature = "faults")]
    #[test]
    fn a_failed_append_stops_the_log() {
        use asset_faults::{FaultAction, Trigger};
        let (dir, faults, log) = faulty_log("desync");
        let recs = sample_records();
        let lsn = log.append_forced(&recs[0]).unwrap();
        log.append(&recs[1]).unwrap();
        faults.arm(
            crate::failpoints::LOG_APPEND,
            Trigger::Once,
            FaultAction::Error,
        );
        let err = log.append(&recs[2]).unwrap_err();
        assert!(matches!(&err, AssetError::Stopped(m) if m.contains("log.append.write")));
        for later in [log.append(&recs[0]).map(drop), log.flush()] {
            assert_eq!(later.unwrap_err().to_string(), err.to_string());
        }
        drop(log);
        let log2 = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        assert_eq!(log2.scan().unwrap(), [(lsn, recs[0].clone())]);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn torn_drain_crashes_and_leaves_a_prefix_of_its_block() {
        use asset_faults::{FaultAction, Trigger};
        let (dir, faults, log) = faulty_log("tornfp");
        let path = dir.join("wal.log");
        asset_faults::silence_crash_panics();
        let recs = sample_records();
        log.append_forced(&recs[0]).unwrap();
        log.append(&recs[1]).unwrap();
        faults.arm(
            crate::failpoints::LOG_FLUSH,
            Trigger::Once,
            FaultAction::Torn {
                keep_per_mille: 900,
            },
        );
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = log.append_forced(&recs[2]);
        }));
        assert!(unwound.is_err(), "torn write crashes");
        assert!(faults.is_crashed());
        drop(log);
        faults.reset();
        // the file holds one sealed block and most of a second, whose seal
        // is cut short: scan drops the block whole, the record that is all
        // there included
        let whole = (FORMAT_MARKER.len() + recs[0].encode().len() + SEAL_LEN) as u64;
        let torn = (recs[1].encode().len() + recs[2].encode().len() + SEAL_LEN) as u64;
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            whole + torn * 9 / 10
        );
        let log2 = LogManager::open(&path, Durability::Strict).unwrap();
        assert_eq!(log2.scan().unwrap().len(), 1, "torn block dropped");
        assert_eq!(log2.tail().0, whole);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole, "chopped");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn torn_append_lands_a_prefix_of_the_unsealed_block() {
        use asset_faults::{FaultAction, Trigger};
        let (dir, faults, log) = faulty_log("tornap");
        let path = dir.join("wal.log");
        asset_faults::silence_crash_panics();
        let recs = sample_records();
        log.append_forced(&recs[0]).unwrap();
        let whole = std::fs::metadata(&path).unwrap().len();
        faults.arm(
            crate::failpoints::LOG_APPEND,
            Trigger::Once,
            FaultAction::Torn {
                keep_per_mille: 500,
            },
        );
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = log.append(&recs[1]);
        }));
        assert!(unwound.is_err(), "torn append crashes");
        drop(log);
        faults.reset();
        let torn = std::fs::metadata(&path).unwrap().len() - whole;
        assert_eq!(torn, recs[1].encode().len() as u64 / 2);
        let log2 = LogManager::open(&path, Durability::Strict).unwrap();
        assert_eq!(log2.scan().unwrap().len(), 1, "torn tail dropped");
        drop(log2);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn elided_sync_reports_success_but_leaves_bytes_unsynced() {
        use asset_faults::{FaultAction, Trigger};
        let (_dir, faults, log) = faulty_log("elide");
        faults.arm(
            crate::failpoints::LOG_SYNC,
            Trigger::Always,
            FaultAction::ElideSync,
        );
        log.append_forced(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        assert!(
            log.unsynced_bytes() > 0,
            "the device lied: written, reported durable, never synced"
        );
        faults.reset();
        log.flush().unwrap();
        assert_eq!(log.unsynced_bytes(), 0);
    }

    /// A window is one critical section, one `write` and one `sync_data`,
    /// whatever the workers buffered before it.
    #[test]
    fn append_all_then_drain_is_one_write() {
        let dir = TempDir::new("window");
        let path = dir.join("wal.log");
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        let recs = sample_records();
        let mut lsns = Vec::new();
        let first = log.append_all(&recs, |lsn| lsns.push(lsn)).unwrap();
        assert_eq!(first, lsns[0]);
        assert_eq!(log.obs().snapshot().counters.log_flushes, 0);
        log.drain(true).unwrap();
        assert_eq!(log.obs().snapshot().counters.log_flushes, 1);
        let scanned = log.scan().unwrap();
        assert_eq!(
            scanned[1..].iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            lsns,
            "each record's LSN is its offset"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), log.tail().0);
    }

    /// A dropped manager hands its buffer to the OS: a clean exit, or a
    /// "crash" that is a plain drop, keeps the unforced tail.
    #[test]
    fn drop_drains_the_unforced_tail() {
        let dir = TempDir::new("drop");
        let path = dir.join("wal.log");
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        let recs = sample_records();
        log.append(&recs[0]).unwrap();
        log.append_forced(&recs[1]).unwrap();
        log.append(&recs[2]).unwrap();
        assert!(log.pending_bytes() > 0);
        drop(log);
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        let scanned: Vec<LogRecord> = log.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(scanned, recs);
    }

    /// One owner at a time: `open` waits until the previous manager of the
    /// file is dropped, so that manager's drop drain is in the file the
    /// new owner reads — however late the drop comes.
    #[test]
    fn open_waits_for_the_previous_owner_to_drop() {
        use std::sync::mpsc::channel;
        let dir = TempDir::new("owner");
        let path = dir.join("wal.log");
        let old = LogManager::open(&path, Durability::Strict).unwrap();
        old.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        let (opened_tx, opened_rx) = channel();
        let opener = {
            let path = path.clone();
            std::thread::spawn(move || {
                let new = LogManager::open(&path, Durability::Strict).unwrap();
                opened_tx.send(()).unwrap();
                new.scan().unwrap().len()
            })
        };
        // not a sleep the test depends on: were `open` not to wait, this
        // only gives it the time to show it
        assert!(opened_rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        drop(old);
        assert_eq!(opener.join().unwrap(), 1, "the late drain was read");
    }

    /// A stopped manager writes nothing more: dropped with an unforced
    /// record buffered, it does not drain it.
    #[test]
    fn a_stopped_manager_does_not_drain_on_drop() {
        let dir = TempDir::new("zombie");
        let log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        log.append_forced(&LogRecord::Abort { tid: Tid(1) })
            .unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        let stop = log.stop(&"gone");
        assert_eq!(stop.to_string(), "database stopped: gone");
        drop(log);
        let log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        assert_eq!(log.scan().unwrap().len(), 1, "only the forced prefix");
    }

    #[cfg(feature = "faults")]
    fn faulty_log(tag: &str) -> (TempDir, Arc<asset_faults::FaultRegistry>, LogManager) {
        let dir = TempDir::new(tag);
        let faults = Arc::new(asset_faults::FaultRegistry::new());
        let mut log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        log.set_faults(Arc::clone(&faults));
        (dir, faults, log)
    }

    /// The sync runs with the append lock released: while one thread is
    /// *inside* the sync (held there by a hook at its failpoint), another
    /// thread's append completes.
    #[cfg(feature = "faults")]
    #[test]
    fn append_completes_while_a_sync_is_in_flight() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (_dir, faults, log) = faulty_log("syncrace");
        let log = Arc::new(log);
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        let (at_sync_tx, at_sync_rx) = channel();
        let (appended_tx, appended_rx) = channel::<Lsn>();
        let appended_rx = std::sync::Mutex::new(appended_rx);
        let seen = Arc::new(std::sync::Mutex::new(None));
        let seen_in_hook = Arc::clone(&seen);
        faults.on_hit(crate::failpoints::LOG_SYNC, move || {
            at_sync_tx.send(()).unwrap();
            // a timeout, not a sleep: it only runs out if the append is
            // stuck behind this sync, and then the test fails below
            let got = appended_rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(10));
            *seen_in_hook.lock().unwrap() = got.ok();
        });
        let appender = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                at_sync_rx.recv().unwrap();
                let lsn = log.append(&LogRecord::Abort { tid: Tid(2) }).unwrap();
                appended_tx.send(lsn).unwrap();
            })
        };
        log.flush().unwrap();
        appender.join().unwrap();
        let lsn = seen
            .lock()
            .unwrap()
            .expect("append finished during the sync");
        assert_eq!(log.pending_bytes() as u64, log.tail().0 - lsn.0);
        faults.reset();
    }

    /// A drain that fails stops the log, with appends racing it: the
    /// append that lands in the next buffer while the drain is in flight
    /// is accepted, the failed drain leaves nothing in the file, and every
    /// later append and flush is refused — none of it is written.
    #[cfg(feature = "faults")]
    #[test]
    fn a_failed_drain_with_racing_appends_stops_the_log() {
        use asset_faults::{FaultAction, Trigger};
        let (dir, faults, log) = faulty_log("drainrace");
        let log = Arc::new(log);
        let recs = sample_records();
        let forced = log.append_forced(&recs[0]).unwrap();
        log.append(&recs[1]).unwrap();
        // the hook runs between the buffer swap and the refused write: the
        // append inside it lands in the *next* buffer
        let raced = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (weak, into, rec) = (Arc::downgrade(&log), Arc::clone(&raced), recs[2].clone());
        faults.on_hit(crate::failpoints::LOG_FLUSH, move || {
            into.lock()
                .unwrap()
                .push(weak.upgrade().unwrap().append(&rec).is_ok());
        });
        let flush = crate::failpoints::LOG_FLUSH;
        faults.arm(flush, Trigger::Once, FaultAction::Error);
        let path = dir.join("wal.log");
        let on_disk = std::fs::metadata(&path).unwrap().len();
        let err = log.flush().unwrap_err();
        assert!(matches!(&err, AssetError::Stopped(m) if m.contains(flush)));
        assert_eq!(*raced.lock().unwrap(), [true], "the racing append went in");
        faults.reset();
        assert!(log.append(&recs[1]).is_err() && log.flush().is_err());
        drop(log);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, on_disk, "nothing after the stop reaches the file");
        let log2 = LogManager::open(&path, Durability::Strict).unwrap();
        assert_eq!(log2.scan().unwrap(), [(forced, recs[0].clone())]);
    }
}
