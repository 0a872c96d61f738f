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
//! order. A failed drain puts its bytes — seal included; the next drain
//! seals only what follows — back in front of `pending` and trims the file
//! to what it held before, so an LSN is always the offset its record has,
//! or will have, in the file. Buffered bytes die with a killed process:
//! they are a suffix of the log that no force followed, so nothing
//! acknowledged is among them. A manager that is *dropped* drains (without
//! syncing) first, so a clean exit, or a test that "crashes" by dropping
//! the database, leaves the OS every record that was appended.
//!
//! One manager owns a log file at a time: [`open`](LogManager::open) takes
//! an exclusive advisory lock on it, held until the manager is dropped,
//! and waits for a previous owner to let go. That owner may be a manager
//! of this process still on its way out — a transaction thread keeps its
//! database alive for an instant past `wait` — whose drop drain must land
//! before the next owner reads the file, not after.

mod flusher;
mod record;

pub use flusher::{FlushCallback, GroupFlusher};
pub use record::{Ids, LogEntry, LogRecord, RecordRef, WireId, FORMAT_MARKER, SEAL_LEN};

use asset_annot::wal;
use asset_common::sync::{Mutex, MutexGuard};
use asset_common::{AssetError, Durability, Lsn, Result};
use asset_obs::{add, bump, EventKind, Obs};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// The prefix of `pending` that is sealed blocks, put back by a failed
    /// drain.
    sealed: usize,
    tail: u64,
    records_appended: u64,
    /// Bytes handed to the OS: the file's length.
    written: u64,
    /// The prefix of `written` known to be on stable storage.
    synced: u64,
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
    #[cfg(feature = "faults")]
    faults: Arc<asset_faults::FaultRegistry>,
    /// `faults.crash_count()` when the registry was attached.
    #[cfg(feature = "faults")]
    born_after_crashes: u64,
}

impl LogManager {
    fn new(disk: Option<Disk>, len: u64, durability: Durability, watermark: usize) -> LogManager {
        LogManager {
            inner: Mutex::new(Inner {
                tail: len,
                written: len,
                synced: len,
                ..Inner::default()
            }),
            disk: disk.map(Mutex::new),
            durability,
            flush_watermark: watermark.max(1),
            generation: AtomicU64::new(1),
            obs: Obs::shared(),
            #[cfg(feature = "faults")]
            faults: Default::default(),
            #[cfg(feature = "faults")]
            born_after_crashes: 0,
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
        self.born_after_crashes = faults.crash_count();
        self.faults = faults;
    }

    /// The registry this manager's failpoints consult; the flusher, which
    /// works on this log, consults the same one.
    #[cfg(feature = "faults")]
    pub(crate) fn faults(&self) -> &Arc<asset_faults::FaultRegistry> {
        &self.faults
    }

    /// The observability hub this log reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The failpoint `site`, where no buffer is being written and nothing
    /// synced: `Error` refuses the operation, anything else crashes. The
    /// engine's checkpoint and restart recovery, which work on this log,
    /// consult its registry through here.
    #[cfg_attr(not(feature = "faults"), allow(unused_variables))]
    pub(crate) fn failpoint(&self, site: &'static str) -> Result<()> {
        asset_faults::failpoint!(&self.faults, site, |act| {
            return Err(self.faults.realize_plain(site, act).into());
        });
        Ok(())
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
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        file.lock()?;
        let mut head = Vec::new();
        (&file)
            .take(FORMAT_MARKER.len() as u64)
            .read_to_end(&mut head)?;
        if !FORMAT_MARKER.starts_with(&head) {
            return Err(AssetError::Corrupt(format!(
                "{} is not a v4 log: it starts {head:02x?}",
                path.display()
            )));
        }
        let len = file.seek(SeekFrom::End(0))?;
        let disk = Disk {
            path: path.to_path_buf(),
            file,
            spare: Vec::new(),
        };
        Ok(Self::new(Some(disk), len, durability, flush_watermark))
    }

    /// Append a record; returns its LSN. The record is accepted into the
    /// user-space buffer and reaches the OS with the next force, flush or
    /// watermark drain (a watermark drain that fails leaves it buffered
    /// for the next one to retry and report).
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
    /// log from where the images sit, and copy neither.
    pub(crate) fn append_ref(&self, rec: &RecordRef<'_>) -> Result<Lsn> {
        self.append_inner(std::iter::once(*rec), |_| (), false)
    }

    /// The one append path: encode every record into `pending`, then
    /// accept them. Returns the first record's LSN and reports each one's
    /// to `each`.
    #[wal(logs = "encode_into", mutates = "inner.tail +=")]
    fn append_inner<'a>(
        &self,
        recs: impl IntoIterator<Item = RecordRef<'a>>,
        mut each: impl FnMut(Lsn),
        force: bool,
    ) -> Result<Lsn> {
        // Timing is gated on tracing so the default append path never pays
        // for a clock read; the counters below are always on.
        let t0 = self.obs.tracing_enabled().then(Instant::now);
        let mut inner = self.inner.lock();
        if inner.tail == 0 && self.disk.is_some() {
            // the first block of a generation opens with the marker
            inner.pending.extend_from_slice(&FORMAT_MARKER);
            inner.tail = FORMAT_MARKER.len() as u64;
        }
        // `tail`/`records_appended` advance only once the records are whole
        // in the buffer: a refused append must leave no byte behind, or
        // every later LSN would be off from its record's offset.
        let lsn = Lsn(inner.tail);
        let start = inner.pending.len();
        let mut records = 0;
        for rec in recs {
            each(Lsn(lsn.0 + (inner.pending.len() - start) as u64));
            rec.encode_into(&mut inner.pending);
            records += 1;
        }
        asset_faults::failpoint!(&self.faults, crate::failpoints::LOG_APPEND, |act| {
            if let asset_faults::FaultAction::Torn { keep_per_mille } = act {
                drop(inner);
                self.crash_torn(crate::failpoints::LOG_APPEND, keep_per_mille);
            }
            inner.pending.truncate(start);
            return Err(self
                .faults
                .realize_plain(crate::failpoints::LOG_APPEND, act)
                .into());
        });
        inner.tail += (inner.pending.len() - start) as u64;
        inner.records_appended += records;
        let over_watermark = inner.pending.len() >= self.flush_watermark;
        drop(inner);
        add(&self.obs.counters.log_appends, records);
        if force {
            self.drain(self.durability == Durability::Strict)?;
        } else if self.disk.is_some() {
            if over_watermark {
                self.drain_in_passing();
            } else {
                // stayed in user space: the coalescing the buffer exists for
                add(&self.obs.counters.log_coalesced, records);
            }
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
    /// and the process dies. (A `Torn` inside a drain,
    /// [`LOG_FLUSH`](crate::failpoints::LOG_FLUSH), tears the block that
    /// drain swapped out.)
    #[cfg(feature = "faults")]
    #[asset_annot::failpoint_checker]
    pub(crate) fn crash_torn(&self, site: &'static str, keep_per_mille: u16) -> ! {
        if let Some(disk) = &self.disk {
            let disk = disk.lock(); // behind a write in flight
            let inner = self.inner.lock();
            let keep = inner.pending.len() * keep_per_mille as usize / 1000;
            let _ = (&disk.file).write_all(&inner.pending[..keep]);
        }
        self.faults.crash_now(site)
    }

    /// Force everything appended so far to stable storage.
    pub fn flush(&self) -> Result<()> {
        self.drain(true).map(|_| ())
    }

    /// Seal the pending buffer and hand it to the OS with one `write`, and,
    /// if `sync`, make the file stable with one `sync_data` — hash, write
    /// and sync with the append lock released. Returns the bytes this
    /// drain wrote: the block it sealed (and what an earlier, failed drain
    /// had put back); zero when another drain carried them first, and for
    /// the in-memory backend, where it is a no-op.
    pub fn drain(&self, sync: bool) -> Result<usize> {
        match &self.disk {
            Some(disk) => self.drain_holding(disk.lock(), sync),
            None => Ok(0),
        }
    }

    /// A drain that nobody waits for (the watermark, the manager's drop):
    /// write, no sync. It steps aside when another drain is running — that
    /// one or the next force carries the bytes — so an unforced append
    /// never queues behind a sync. Nor is a failure the append's: it is
    /// counted, the bytes stay buffered, and the next force or flush
    /// retries and reports.
    fn drain_in_passing(&self) {
        let Some(disk) = &self.disk else { return };
        let Some(disk) = disk.try_lock() else {
            return;
        };
        if self.drain_holding(disk, false).is_err() {
            bump(&self.obs.counters.log_drain_failures);
        }
    }

    /// The drain proper, for a caller that holds the disk.
    fn drain_holding(&self, mut disk: MutexGuard<'_, Disk>, sync: bool) -> Result<usize> {
        let t0 = self.obs.tracing_enabled().then(Instant::now);
        let (mut buf, open_from) = {
            let mut inner = self.inner.lock();
            let open_from = std::mem::take(&mut inner.sealed);
            if inner.pending.len() > open_from {
                record::open_seal(&mut inner.pending);
                inner.tail += SEAL_LEN as u64;
            }
            let spare = std::mem::take(&mut disk.spare);
            (std::mem::replace(&mut inner.pending, spare), open_from)
        };
        if buf.len() > open_from {
            record::fill_seal(&mut buf, open_from);
        }
        if !buf.is_empty() {
            asset_faults::failpoint!(&self.faults, crate::failpoints::LOG_FLUSH, |act| {
                if let asset_faults::FaultAction::Torn { keep_per_mille } = act {
                    // a prefix lands, then the process dies
                    let keep = buf.len() * keep_per_mille as usize / 1000;
                    let _ = (&disk.file).write_all(&buf[..keep]);
                    self.faults.crash_now(crate::failpoints::LOG_FLUSH);
                }
                self.put_back(buf);
                return Err(self
                    .faults
                    .realize_plain(crate::failpoints::LOG_FLUSH, act)
                    .into());
            });
            if let Err(e) = (&disk.file).write_all(&buf) {
                // `write_all` may have landed a part: chop the file back
                // to the last accepted offset before the bytes go back.
                let written = self.inner.lock().written;
                let _ = disk.file.set_len(written);
                self.put_back(buf);
                return Err(e.into());
            }
            // Written but not yet synced: they count as unsynced until the
            // sync below actually happens (it may fail, or be elided).
            self.inner.lock().written += buf.len() as u64;
        }
        let drained = buf.len();
        buf.clear();
        disk.spare = buf;
        if sync {
            let elide = asset_faults::failpoint_sync!(&self.faults, crate::failpoints::LOG_SYNC);
            if !elide {
                disk.file.sync_data()?;
                // only a drain moves `written`, and this is the only one
                let mut inner = self.inner.lock();
                inner.synced = inner.written;
            }
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

    /// A drain failed: its bytes, sealed, return to the front of `pending`,
    /// ahead of whatever was appended meanwhile, and `tail` never moved.
    fn put_back(&self, mut buf: Vec<u8>) {
        let mut inner = self.inner.lock();
        inner.sealed = buf.len();
        buf.extend_from_slice(&inner.pending);
        inner.pending = buf;
    }

    /// The log's durability watermarks in one point-in-time view (feeds
    /// `Database::introspect()` and the `asset-top` display).
    pub fn watermarks(&self) -> LogWatermarks {
        let inner = self.inner.lock();
        let on_disk = self.disk.is_some();
        LogWatermarks {
            tail: Lsn(inner.tail),
            records_appended: inner.records_appended,
            pending_bytes: if on_disk {
                (inner.tail - inner.written) as usize
            } else {
                0
            },
            unsynced_bytes: (inner.written - inner.synced) as usize,
        }
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
    pub fn scan(&self) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        self.replay(|lsn, rec| {
            out.push((lsn, rec.to_owned()));
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
        if let Some(disk) = &disk {
            let end = replay_file(File::open(&disk.path)?.take(written), &mut visit)?;
            if end < written {
                self.failpoint(crate::failpoints::LOG_TRUNCATE)?;
                disk.file.set_len(end)?;
                disk.file.sync_data()?;
                let mut inner = self.inner.lock();
                inner.pending.clear();
                inner.sealed = 0;
                (inner.tail, inner.written, inner.synced) = (end, end, end);
                return Ok(());
            }
        }
        // the buffer opens a generation's first block if the file is empty
        let mut off = match &disk {
            Some(_) if written == 0 => FORMAT_MARKER.len(),
            _ => 0,
        };
        while let Some((entry, next)) = LogEntry::decode(&unwritten, off)? {
            if let LogEntry::Record(rec) = entry {
                visit(Lsn(written + off as u64), rec)?;
            }
            off = next;
        }
        Ok(())
    }

    /// Replace the log with `recs` — the next generation, whole or not at
    /// all: the records go through a manager of their own into a file
    /// beside the log, as one forced (sealed, synced) block, and that file
    /// is renamed over the log, so a crash leaves the old log or the new
    /// one and never a log that was cut and not yet refilled. Returns how
    /// many records the new log holds. Only legal while no transaction
    /// appends, after every image the dropped records describe has reached
    /// the store; the caller (checkpoint, log compaction) guarantees that. A
    /// refusal before the rename leaves the log, its LSNs and its
    /// generation as they were.
    pub fn rewrite<'a>(&self, recs: impl IntoIterator<Item = RecordRef<'a>>) -> Result<usize> {
        let mut disk = self.disk.as_ref().map(Mutex::lock);
        self.failpoint(crate::failpoints::LOG_TRUNCATE)?;
        let next = match &disk {
            Some(disk) => {
                let mut beside = disk.path.clone().into_os_string();
                beside.push(".next");
                let _ = std::fs::remove_file(&beside); // what a crashed rewrite left
                Self::open(Path::new(&beside), Durability::Strict)?
            }
            None => Self::in_memory(),
        };
        let mut records = 0;
        next.append_inner(recs.into_iter().inspect(|_| records += 1), |_| (), true)?;
        let mut theirs = next.disk.as_ref().map(Mutex::lock);
        if let (Some(disk), Some(theirs)) = (&disk, &theirs) {
            self.failpoint(crate::failpoints::LOG_REWRITE_BEFORE_RENAME)?;
            std::fs::rename(&theirs.path, &disk.path)?;
        }
        // The log *is* the new file now, whatever happens next: move over —
        // offsets, file, owner lock; `next` leaves with the old ones —
        // before anything else can fail.
        {
            let (mut ours, mut theirs) = (self.inner.lock(), next.inner.lock());
            theirs.records_appended += ours.records_appended;
            std::mem::swap(&mut *ours, &mut *theirs);
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(disk), Some(theirs)) = (&mut disk, &mut theirs) {
            std::mem::swap(&mut disk.file, &mut theirs.file);
            self.failpoint(crate::failpoints::LOG_REWRITE_AFTER_RENAME)?;
            // make the rename itself durable (where a directory can be opened)
            if let Some(Ok(dir)) = disk.path.parent().map(File::open) {
                dir.sync_all()?;
            }
        }
        Ok(records)
    }
}

/// The file part of [`LogManager::replay`]: visit the records of every
/// block of `file` whose seal verifies and return where the last of those
/// blocks ends — short of the file's end if it ends in a torn block.
fn replay_file(
    mut file: impl Read,
    visit: &mut impl FnMut(Lsn, RecordRef<'_>) -> Result<()>,
) -> Result<u64> {
    // `buf` is a window on the file starting at offset `base`; `start` is
    // where, in it, the last verified block ends and the next begins.
    let (mut buf, mut base, mut start) = (Vec::new(), 0u64, 0usize);
    let (mut eof, mut records) = (false, 0);
    loop {
        // Decode the block once; visit it only when it proves whole.
        let mut block = Vec::with_capacity(records);
        // a generation's first block opens with the marker `open` checked
        let mut off = match base + start as u64 {
            0 => FORMAT_MARKER.len(),
            _ => start,
        };
        let seal = loop {
            match LogEntry::decode(&buf, off)? {
                Some((LogEntry::Record(rec), next)) => {
                    block.push((off, rec));
                    off = next;
                }
                Some((LogEntry::Seal(sum), next)) => break Some((sum, next)),
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
                start = next;
            }
            None if eof => return Ok(base + start as u64),
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
    fn drop(&mut self) {
        // What lived through a simulated crash belongs to the process that
        // died in it, however late it is dropped: it writes nothing more.
        #[cfg(feature = "faults")]
        if self.faults.crash_count() != self.born_after_crashes {
            return;
        }
        self.drain_in_passing();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::{Oid, Tid};

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
        let dir = std::env::temp_dir().join(format!("asset-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_on_scan() {
        let dir = std::env::temp_dir().join(format!("asset-log-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `replay` reads a chunk at a time: blocks that straddle a chunk
    /// boundary (the watermark drains one every 64 KiB, and each record's
    /// LSN counts the seals before it), the records still in the user-space
    /// buffer, and a torn tail (here an `Overwrite` short of one byte) that
    /// it chops off the file.
    #[test]
    fn replay_streams_across_chunks_and_chops_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("asset-log-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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
            let gaps = lsns
                .windows(2)
                .zip(0..)
                .filter(|(w, i)| w[1].0 - w[0].0 == (rec(*i).encode().len() + SEAL_LEN) as u64);
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
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asset-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A transfer in v3 frames (`[body_len][checksum u32][body]`, the
    /// checksum over length and body; the bodies are what v4 still writes):
    /// whole, valid, and not this format. It is refused before a byte of it
    /// is parsed — and neither chopped as a torn tail nor appended to.
    #[test]
    fn a_v3_log_is_refused_and_left_untouched() {
        let dir = fresh_dir("v3");
        let path = dir.join("wal.log");
        let overwrite = |oid| LogRecord::Overwrite {
            tid: Tid(70_000),
            oid: Oid(oid),
            after: Some(58i64.to_le_bytes().to_vec()),
        };
        let commit = LogRecord::Commit {
            tids: vec![Tid(70_000)],
        };
        let mut v3 = Vec::new();
        for rec in [overwrite(90_000), overwrite(90_001), commit] {
            let mut framed = vec![rec.encode().len() as u8];
            framed.extend_from_slice(&rec.encode());
            let h = crate::page::checksum(&framed);
            v3.push(framed[0]);
            v3.extend_from_slice(&((h >> 32) as u32 ^ h as u32).to_le_bytes());
            v3.extend_from_slice(&framed[1..]);
        }
        assert_eq!(v3.len(), 52, "PR 16's transfer");
        // whole, and cut inside its first frame: shorter than the marker
        for len in [v3.len(), 6] {
            std::fs::write(&path, &v3[..len]).unwrap();
            for _ in 0..2 {
                let err = LogManager::open(&path, Durability::Strict).err().unwrap();
                assert!(matches!(err, AssetError::Corrupt(_)), "{err}");
                assert_eq!(std::fs::read(&path).unwrap(), &v3[..len], "untouched");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash inside the very first write can leave less than the marker:
    /// that is a torn tail like any other, and the generation starts over.
    #[test]
    fn a_file_torn_inside_the_marker_starts_over() {
        let dir = fresh_dir("marker");
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
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A block whose bytes changed under its seal is `Corrupt`, wherever in
    /// the log it stands, and replay leaves the file alone: none of its
    /// records is visited, nor any block's after it.
    #[test]
    fn a_block_that_does_not_match_its_seal_is_corrupt() {
        let dir = fresh_dir("seal");
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `rewrite` replaces the log in one step: the new generation is one
    /// sealed block under the log's name, the old one is gone, LSNs restart
    /// behind the marker and a reopen reads what the manager holds.
    #[test]
    fn rewrite_replaces_the_log_with_one_sealed_block() {
        let dir = fresh_dir("rewrite");
        let path = dir.join("wal.log");
        let log = LogManager::open(&path, Durability::Strict).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        let generation = log.generation();
        let recs = sample_records();
        let kept = [LogRecord::Checkpoint, recs[1].clone()];
        assert_eq!(log.rewrite(kept.iter().map(LogRecord::as_ref)).unwrap(), 2);
        assert_eq!(log.generation(), generation + 1);
        assert_eq!((log.pending_bytes(), log.unsynced_bytes()), (0, 0));
        let block = FORMAT_MARKER.len() + 1 + recs[1].encode().len() + SEAL_LEN;
        assert_eq!(log.tail().0, block as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), block as u64);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one file");
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
        assert_eq!(log.rewrite(kept.iter().map(LogRecord::as_ref)).unwrap(), 2);
        assert_eq!(log.tail().0, 1 + recs[1].encode().len() as u64);
        assert_eq!(log.scan().unwrap()[1], (Lsn(1), kept[1].clone()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A rewrite refused before its rename leaves the log, its LSNs and
    /// its generation as they were; one refused after it has happened all
    /// the same, and says so.
    #[cfg(feature = "faults")]
    #[test]
    fn a_refused_rewrite_leaves_one_whole_log_or_the_other() {
        use asset_faults::{FaultAction, Trigger};
        let (dir, faults, log) = faulty_log("rewritefail");
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        let (tail, generation) = (log.tail(), log.generation());
        let next = [LogRecord::Checkpoint];
        for point in [
            crate::failpoints::LOG_TRUNCATE,
            crate::failpoints::LOG_REWRITE_BEFORE_RENAME,
        ] {
            faults.arm(point, Trigger::Once, FaultAction::Error);
            let err = log.rewrite(next.iter().map(LogRecord::as_ref)).unwrap_err();
            assert!(err.to_string().contains(point), "{err}");
            assert_eq!((log.tail(), log.generation()), (tail, generation));
            assert_eq!(log.scan().unwrap().len(), 3, "[{point}] the old log");
        }
        faults.arm(
            crate::failpoints::LOG_REWRITE_AFTER_RENAME,
            Trigger::Once,
            FaultAction::Error,
        );
        assert!(log.rewrite(next.iter().map(LogRecord::as_ref)).is_err());
        assert_eq!(log.generation(), generation + 1);
        assert_eq!(log.scan().unwrap().len(), 1, "the new log");
        let lsn = log
            .append_forced(&LogRecord::Abort { tid: Tid(3) })
            .unwrap();
        drop(log);
        let log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        assert_eq!(log.scan().unwrap()[1].0, lsn);
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
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
        let dir = std::env::temp_dir().join(format!(
            "asset-log-coal-{durability:?}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_watermark_writes_through() {
        let dir = std::env::temp_dir().join(format!("asset-log-tw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let log = LogManager::open_with(&path, Durability::Buffered, 1).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        assert_eq!(log.pending_bytes(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), log.tail().0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesced_appends_and_drains_are_counted() {
        let dir = std::env::temp_dir().join(format!("asset-log-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let log = LogManager::open_with(&path, Durability::Buffered, 1 << 20).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        let snap = log.obs().snapshot();
        assert_eq!(snap.counters.log_appends, 3);
        assert_eq!(snap.counters.log_coalesced, 3, "all stayed in user space");
        assert_eq!(snap.counters.log_flushes, 0);
        log.append_forced(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        let snap = log.obs().snapshot();
        assert_eq!(snap.counters.log_flushes, 1, "forced append drained");
        std::fs::remove_dir_all(&dir).unwrap();
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

    #[test]
    fn unsynced_bytes_means_written_but_not_synced() {
        let dir = std::env::temp_dir().join(format!("asset-log-unsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Strict: unforced appends are pending until a forced (commit)
        // append drains and syncs them; a watermark drain in between
        // writes without syncing.
        let path = dir.join("strict.log");
        let _ = std::fs::remove_file(&path);
        let log = LogManager::open_with(&path, Durability::Strict, 12).unwrap();
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
        let _ = std::fs::remove_file(&path);
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

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (LSN-desync bug): `append_inner` used to advance `tail`
    /// and `records_appended` before the record was accepted, so a refused
    /// append desynchronized every later LSN from its file offset.
    #[cfg(feature = "faults")]
    #[test]
    fn failed_append_leaves_lsns_aligned_with_offsets() {
        use asset_faults::{FaultAction, FaultRegistry, Trigger};
        let dir = std::env::temp_dir().join(format!("asset-log-desync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let faults = Arc::new(FaultRegistry::new());
        let mut log = LogManager::open(&path, Durability::Strict).unwrap();
        log.set_faults(Arc::clone(&faults));
        let recs = sample_records();
        log.append(&recs[0]).unwrap();
        let tail_before = log.tail();
        faults.arm(
            crate::failpoints::LOG_APPEND,
            Trigger::Once,
            FaultAction::Error,
        );
        let err = log.append(&recs[1]).unwrap_err();
        assert!(err.to_string().contains("log.append.write"));
        assert_eq!(
            log.tail(),
            tail_before,
            "failed append must not move the tail"
        );
        assert_eq!(log.records_appended(), 1);
        // the next append lands exactly at the old tail and the whole log
        // still parses — offsets never diverged from LSNs
        let lsn = log.append(&recs[1]).unwrap();
        assert_eq!(lsn, tail_before);
        let scanned = log.scan().unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[1].0, lsn);
        assert_eq!(log.records_appended(), 2);
        // and the file agrees after a reopen
        log.flush().unwrap();
        let tail = log.tail();
        drop(log);
        let log2 = LogManager::open(&path, Durability::Strict).unwrap();
        assert_eq!(log2.scan().unwrap().len(), 2);
        assert_eq!(log2.tail(), tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn torn_drain_crashes_and_leaves_a_prefix_of_its_block() {
        use asset_faults::{FaultAction, FaultRegistry, Trigger};
        let dir = std::env::temp_dir().join(format!("asset-log-tornfp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        asset_faults::silence_crash_panics();
        let faults = Arc::new(FaultRegistry::new());
        let mut log = LogManager::open(&path, Durability::Strict).unwrap();
        log.set_faults(Arc::clone(&faults));
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn torn_append_lands_a_prefix_of_the_unsealed_block() {
        use asset_faults::{FaultAction, FaultRegistry, Trigger};
        let dir = std::env::temp_dir().join(format!("asset-log-tornap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        asset_faults::silence_crash_panics();
        let faults = Arc::new(FaultRegistry::new());
        let mut log = LogManager::open(&path, Durability::Strict).unwrap();
        log.set_faults(Arc::clone(&faults));
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn elided_sync_reports_success_but_leaves_bytes_unsynced() {
        use asset_faults::{FaultAction, FaultRegistry, Trigger};
        let dir = std::env::temp_dir().join(format!("asset-log-elide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let faults = Arc::new(FaultRegistry::new());
        let mut log = LogManager::open(&path, Durability::Strict).unwrap();
        log.set_faults(Arc::clone(&faults));
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A window is one critical section, one `write` and one `sync_data`,
    /// whatever the workers buffered before it.
    #[test]
    fn append_all_then_drain_is_one_write() {
        let dir = std::env::temp_dir().join(format!("asset-log-window-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A dropped manager hands its buffer to the OS: a clean exit, or a
    /// "crash" that is a plain drop, keeps the unforced tail.
    #[test]
    fn drop_drains_the_unforced_tail() {
        let dir = std::env::temp_dir().join(format!("asset-log-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
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
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One owner at a time: `open` waits until the previous manager of the
    /// file is dropped, so that manager's drop drain is in the file the
    /// new owner reads — however late the drop comes.
    #[test]
    fn open_waits_for_the_previous_owner_to_drop() {
        use std::sync::mpsc::channel;
        let dir = std::env::temp_dir().join(format!("asset-log-owner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A manager that lived through a simulated crash is part of the dead
    /// process: dropped after the harness's reset, it still writes nothing.
    #[cfg(feature = "faults")]
    #[test]
    fn a_manager_that_outlived_a_crash_does_not_drain_on_drop() {
        let (dir, faults, log) = faulty_log("zombie");
        log.append_forced(&LogRecord::Abort { tid: Tid(1) })
            .unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        asset_faults::silence_crash_panics();
        let crash = std::panic::catch_unwind(|| faults.crash_now(crate::failpoints::LOG_SYNC));
        assert!(crash.is_err());
        faults.reset();
        drop(log);
        let log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        assert_eq!(log.scan().unwrap().len(), 1, "only the forced prefix");
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "faults")]
    fn faulty_log(tag: &str) -> (PathBuf, Arc<asset_faults::FaultRegistry>, LogManager) {
        let dir = fresh_dir(tag);
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
        let (dir, faults, log) = faulty_log("syncrace");
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
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A drain that fails after appends raced it puts its bytes back *in
    /// front of* theirs: every LSN handed out is still its record's offset.
    #[cfg(feature = "faults")]
    #[test]
    fn failed_drain_with_racing_appends_keeps_lsns_aligned() {
        use asset_faults::{FaultAction, Trigger};
        let (dir, faults, log) = faulty_log("drainrace");
        let log = Arc::new(log);
        let recs = sample_records();
        let mut lsns = vec![
            log.append_forced(&recs[0]).unwrap(),
            log.append(&recs[1]).unwrap(),
        ];
        // the hook runs between the buffer swap and the refused write: the
        // append inside it lands in the *next* buffer
        let raced = Arc::new(std::sync::Mutex::new(Vec::new()));
        {
            let (log, raced, rec) = (Arc::downgrade(&log), Arc::clone(&raced), recs[2].clone());
            faults.on_hit(crate::failpoints::LOG_FLUSH, move || {
                let log = log.upgrade().unwrap();
                raced.lock().unwrap().push(log.append(&rec).unwrap());
            });
        }
        faults.arm(
            crate::failpoints::LOG_FLUSH,
            Trigger::Once,
            FaultAction::Error,
        );
        let tail_on_disk = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert!(log.flush().is_err());
        assert_eq!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len(),
            tail_on_disk,
            "nothing of the failed drain stays in the file"
        );
        lsns.append(&mut raced.lock().unwrap());
        assert_eq!(lsns.len(), 3);
        faults.reset();
        let in_process: Vec<Lsn> = log.scan().unwrap().into_iter().map(|(l, _)| l).collect();
        assert_eq!(in_process, lsns, "before the retry");
        log.flush().unwrap();
        let tail = log.tail();
        drop(log);
        let log2 = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        let scanned = log2.scan().unwrap();
        assert_eq!(scanned.iter().map(|(l, _)| *l).collect::<Vec<_>>(), lsns);
        assert_eq!(
            scanned.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            recs
        );
        assert_eq!(log2.tail(), tail);
        drop(log2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
