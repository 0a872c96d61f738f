//! The storage engine facade: shared cache + object store + WAL, assembled
//! per a [`Config`]. This is the substrate `asset-core` builds the
//! transaction primitives on.

use crate::cache::ObjectCache;
use crate::heapfile::{FilePageStore, MemPageStore, PageStore};
use crate::log::{GroupFlusher, LogManager, LogRecord, RecordRef};
use crate::recovery::{recover, LogFold, PendingUpdate, RecoveryReport};
use crate::store::ObjectStore;
use asset_annot::wal;
use asset_common::{Config, Lsn, Oid, Result, Tid};
use asset_obs::Obs;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Heap-file page size in bytes. A constant, not a setting: a `heap.db`
/// is laid out for one page size and reopening it at another would take
/// whole pages for a torn tail.
const PAGE_SIZE: usize = 4096;

/// Pages the buffer pool caches.
const BUFFER_POOL_PAGES: usize = 1024;

/// The assembled storage substrate.
///
/// All object access during normal operation goes through the shared cache
/// (the paper's mode of operation); the store is the persistent home,
/// written at checkpoints and log compactions only. Commit records are forced
/// through the [`GroupFlusher`], which makes every commit submitted while a
/// window runs durable with the next window's single write+sync.
pub struct StorageEngine {
    cache: ObjectCache,
    store: ObjectStore,
    log: Arc<LogManager>,
    flusher: GroupFlusher,
    obs: Arc<Obs>,
}

impl StorageEngine {
    /// Build an engine from `config`, running restart recovery if a log
    /// with records exists. The engine gets its own observability hub; use
    /// [`open_with_obs`](Self::open_with_obs) to share one.
    pub fn open(config: &Config) -> Result<(StorageEngine, RecoveryReport)> {
        Self::open_with_obs(config, Obs::shared())
    }

    /// [`open`](Self::open), reporting cache hit/miss, latch profiles, and
    /// log append/flush metrics into the shared `obs`.
    pub fn open_with_obs(
        config: &Config,
        obs: Arc<Obs>,
    ) -> Result<(StorageEngine, RecoveryReport)> {
        let (page_store, mut log): (Arc<dyn PageStore>, LogManager) = match &config.data_dir {
            None => (
                Arc::new(MemPageStore::new(PAGE_SIZE)),
                LogManager::in_memory(),
            ),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                #[allow(unused_mut)]
                let mut heap = FilePageStore::open(&dir.join("heap.db"), PAGE_SIZE)?;
                #[cfg(feature = "faults")]
                heap.set_faults(Arc::clone(&config.faults));
                let log = LogManager::open_with(
                    &dir.join("wal.log"),
                    config.durability,
                    config.flush_watermark,
                )?;
                (Arc::new(heap), log)
            }
        };
        log.set_obs(Arc::clone(&obs));
        #[cfg(feature = "faults")]
        log.set_faults(Arc::clone(&config.faults));
        let log = Arc::new(log);
        let flusher = GroupFlusher::spawn(
            Arc::clone(&log),
            config.durability,
            config.commit_flush_window,
            Arc::clone(&obs),
        );
        let store = ObjectStore::open(page_store, BUFFER_POOL_PAGES)?;
        let cache = ObjectCache::with_obs(Arc::clone(&obs));
        let engine = StorageEngine {
            cache,
            store,
            log,
            flusher,
            obs,
        };
        let report = recover(&engine.log, &engine.cache, &engine.store)?;
        Ok((engine, report))
    }

    /// The observability hub this engine reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The shared object cache.
    pub fn cache(&self) -> &ObjectCache {
        &self.cache
    }

    /// The persistent object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The write-ahead log.
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// Read `oid` through the cache (S-latched read; paper `read` algorithm
    /// steps 2–4 — locking is the caller's responsibility, step 1).
    pub fn read_object(&self, oid: Oid) -> Result<Option<Vec<u8>>> {
        let entry = self.cache.entry(oid, &self.store)?;
        Ok(entry.read_with(|b| b.map(|s| s.to_vec())))
    }

    /// Write `oid` through the cache on behalf of `tid` (paper `write`
    /// algorithm steps 2–6). Returns the before image.
    ///
    /// The paper logs the before image, updates, and logs the after image.
    /// Here the before image is logged **when the log does not already
    /// hold it**: the entry remembers the log generation in which its
    /// image was last logged, and while that is the current one the image
    /// in the cache is, byte for byte, what the latest record of this
    /// object installed — so the write appends an `Overwrite` (after image
    /// only) and replay takes the before image from that record. The first
    /// touch of an object per generation — every creation, every first
    /// write after a checkpoint or compaction cut the log, every entry
    /// faulted in from the store — logs the full `Update { before, after }`.
    #[wal(logs = "append_ref", mutates = "std::mem::replace(slot, after)")]
    pub fn write_object(
        &self,
        tid: Tid,
        oid: Oid,
        after: Option<Vec<u8>>,
    ) -> Result<Option<Vec<u8>>> {
        let entry = self.cache.entry(oid, &self.store)?;
        // Steps 2–6 under one X latch: the record is encoded from the
        // images where they sit — the cache's and the caller's — so neither
        // is copied, and two permitted writers of one object log in the
        // order they install. A refused append installs nothing.
        entry.write_with(|slot| {
            let generation = self.log.generation();
            let after_ref = after.as_deref();
            self.log.append_ref(&if entry.logged_in() == generation {
                RecordRef::Overwrite {
                    tid,
                    oid,
                    after: after_ref,
                }
            } else {
                RecordRef::Update {
                    tid,
                    oid,
                    before: slot.as_deref(),
                    after: after_ref,
                }
            })?;
            entry.set_logged_in(generation);
            Ok(std::mem::replace(slot, after))
        })
    }

    /// One undo step of an abort (§4.2 `abort` step 2): install the before
    /// image `image` over `oid` and log the CLR that replays it, together
    /// under the object's X latch — see
    /// [`recovery::undo_object`](crate::recovery), which restart recovery
    /// calls for its losers too. An error means the CLR was not logged (the
    /// image is installed regardless): the caller must not log the `Abort`
    /// record that would tell restart the rollback is all in the log.
    pub fn undo_object(&self, oid: Oid, image: Option<Vec<u8>>) -> Result<()> {
        crate::recovery::undo_object(&self.log, &self.cache, &self.store, oid, image)
    }

    /// Log a record (commit/abort/delegate/prepared). Commit and Prepared
    /// records are forced through the [`GroupFlusher`]: the call returns
    /// once the record's flush window is durable — the caller's own window,
    /// run on this thread, when the flusher is idle; the flusher thread's
    /// next one, shared with every committer queued beside it, when not.
    /// (A Prepared record is a participant's vote — it must be durable
    /// before the vote rides back to the coordinator, §14.2.)
    pub fn log_record(&self, rec: &LogRecord) -> Result<Lsn> {
        match rec {
            LogRecord::Commit { .. } | LogRecord::Prepared { .. } => {
                self.flusher.submit_and_wait(rec)
            }
            _ => self.log.append(rec),
        }
    }

    /// The group-commit flusher (asynchronous acknowledgement path for the
    /// state-machine executor).
    pub fn flusher(&self) -> &GroupFlusher {
        &self.flusher
    }

    /// Quiescent checkpoint: flush the cache and pool, then replace the log
    /// with a checkpoint marker ([`LogManager::rewrite`]: the old log or
    /// the new one, never a cut one). The caller must guarantee no
    /// transaction is active.
    pub fn checkpoint(&self) -> Result<()> {
        // WAL rule: no image reaches the store ahead of its log record.
        self.log.flush()?;
        self.cache.flush(&self.store)?;
        self.store.flush()?;
        self.log
            .failpoint(crate::failpoints::CHECKPOINT_BEFORE_TRUNCATE)?;
        self.log.rewrite([RecordRef::Checkpoint])?;
        Ok(())
    }

    /// Re-run restart recovery (test hook: simulates a crash by discarding
    /// the cache and rebuilding from log + store).
    pub fn simulate_crash_and_recover(&mut self) -> Result<RecoveryReport> {
        self.cache = ObjectCache::with_obs(Arc::clone(&self.obs));
        recover(&self.log, &self.cache, &self.store)
    }

    /// Compact the log while transactions in `live` are still in flight —
    /// the fuzzy-checkpoint counterpart to [`checkpoint`](Self::checkpoint):
    ///
    /// 1. force the log, then flush the cache and pool (all current images
    ///    are in the store — live transactions' uncommitted ones included,
    ///    which is why the records that undo them must be stable first);
    /// 2. fold the log as restart does (delegations applied, before images
    ///    of `Overwrite`s resolved — against a scratch image map, not the
    ///    cache) to find the pending updates each live transaction is
    ///    responsible for;
    /// 3. replace the log ([`LogManager::rewrite`]: one sealed block, built
    ///    beside the log and renamed over it, so a crash leaves the old log
    ///    or the new one — never a log that was cut and not yet refilled,
    ///    which would have lost the undo information of images the store
    ///    already holds) with: `Checkpoint` marker, then those pending
    ///    updates **in their original LSN order across owners** — undo
    ///    installs before images newest first, so two cooperating writers
    ///    of one object must keep the order they wrote in — each a full
    ///    `Update` attributed to its *current* owner (delegation records
    ///    become unnecessary). Its before image is the undo information;
    ///    its after image is the object's latest logged image, which is
    ///    what the store now holds, so redoing the compacted log changes
    ///    nothing, whoever else wrote the object in between.
    ///
    /// The caller must guarantee no transaction appends concurrently
    /// (the transaction manager holds its table lock and checks that no
    /// transaction is `Running`).
    pub fn compact_log(&self, live: &HashSet<Tid>) -> Result<CompactionReport> {
        self.log.flush()?;
        self.cache.flush(&self.store)?;
        self.store.flush()?;
        let mut fold = LogFold::default();
        let mut images: HashMap<Oid, Option<Vec<u8>>> = HashMap::new();
        self.log
            .replay(|lsn, rec| fold.apply(lsn, rec, &mut images))?;
        let mut pending: Vec<(Tid, PendingUpdate)> = fold
            .pending
            .into_iter()
            .filter(|(owner, _)| live.contains(owner))
            .flat_map(|(owner, updates)| updates.into_iter().map(move |u| (owner, u)))
            .collect();
        pending.sort_by_key(|(_, u)| u.lsn);
        let relogged = pending.iter().map(|(owner, u)| RecordRef::Update {
            tid: *owner,
            oid: u.oid,
            before: u.before.as_deref(),
            after: images.get(&u.oid).and_then(|image| image.as_deref()),
        });
        // Re-log one Prepared record per in-doubt group so prepared-but-
        // undecided participants stay in-doubt across compaction (§14.3).
        let mut groups: Vec<Vec<Tid>> = fold.prepared.into_values().collect();
        groups.sort_unstable();
        groups.dedup();
        let prepared = groups.iter().map(|tids| RecordRef::Prepared {
            tids: tids.as_slice().into(),
        });
        let records_after = self.log.rewrite(
            std::iter::once(RecordRef::Checkpoint)
                .chain(relogged)
                .chain(prepared),
        )?;
        Ok(CompactionReport {
            records_before: fold.records,
            records_after,
        })
    }
}

/// Result of a [`StorageEngine::compact_log`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionReport {
    /// Log records before compaction.
    pub records_before: usize,
    /// Log records after (checkpoint marker + live transactions' state).
    pub records_after: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_engine() -> StorageEngine {
        StorageEngine::open(&Config::in_memory()).unwrap().0
    }

    #[test]
    fn read_write_roundtrip() {
        let e = mem_engine();
        assert_eq!(e.read_object(Oid(1)).unwrap(), None);
        let before = e
            .write_object(Tid(1), Oid(1), Some(b"v1".to_vec()))
            .unwrap();
        assert_eq!(before, None);
        assert_eq!(e.read_object(Oid(1)).unwrap().unwrap(), b"v1");
        let before = e
            .write_object(Tid(1), Oid(1), Some(b"v2".to_vec()))
            .unwrap();
        assert_eq!(before.unwrap(), b"v1");
    }

    #[test]
    fn crash_without_commit_rolls_back() {
        let mut e = mem_engine();
        e.write_object(Tid(1), Oid(1), Some(b"dirty".to_vec()))
            .unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!(report.losers, 1);
        assert_eq!(e.read_object(Oid(1)).unwrap(), None);
    }

    #[test]
    fn crash_after_commit_record_replays() {
        let mut e = mem_engine();
        e.write_object(Tid(1), Oid(1), Some(b"durable".to_vec()))
            .unwrap();
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!(report.winners, 1);
        assert_eq!(e.read_object(Oid(1)).unwrap().unwrap(), b"durable");
    }

    #[test]
    fn checkpoint_then_recover_is_clean() {
        let mut e = mem_engine();
        e.write_object(Tid(1), Oid(1), Some(b"x".to_vec())).unwrap();
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        e.checkpoint().unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!(report.redone, 0, "checkpoint settled everything");
        assert_eq!(e.read_object(Oid(1)).unwrap().unwrap(), b"x");
    }

    #[test]
    fn on_disk_engine_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("asset-eng-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config::on_disk(&dir);
        {
            let (e, _) = StorageEngine::open(&config).unwrap();
            e.write_object(Tid(1), Oid(42), Some(b"persists".to_vec()))
                .unwrap();
            e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
                .unwrap();
            // no checkpoint, no flush: recovery must rebuild from the log
        }
        let (e, report) = StorageEngine::open(&config).unwrap();
        assert_eq!(report.winners, 1);
        assert_eq!(e.read_object(Oid(42)).unwrap().unwrap(), b"persists");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn on_disk_uncommitted_rolls_back_on_reopen() {
        let dir = std::env::temp_dir().join(format!("asset-eng2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config::on_disk(&dir);
        {
            let (e, _) = StorageEngine::open(&config).unwrap();
            e.write_object(Tid(1), Oid(1), Some(b"committed".to_vec()))
                .unwrap();
            e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
                .unwrap();
            e.write_object(Tid(2), Oid(1), Some(b"uncommitted".to_vec()))
                .unwrap();
            e.log.flush().unwrap();
        }
        let (e, _) = StorageEngine::open(&config).unwrap();
        assert_eq!(e.read_object(Oid(1)).unwrap().unwrap(), b"committed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn kinds(e: &StorageEngine) -> Vec<&'static str> {
        let records = e.log.scan().unwrap();
        records.iter().map(|(_, rec)| rec.name()).collect()
    }

    /// The generation rule: a before image is logged on the first touch of
    /// an object per log generation and never again.
    #[test]
    fn before_image_is_logged_once_per_generation() {
        let e = mem_engine();
        let write = |v: &[u8]| e.write_object(Tid(1), Oid(1), Some(v.to_vec())).unwrap();
        assert_eq!(write(b"v1"), None);
        assert_eq!(write(b"v2").unwrap(), b"v1");
        e.undo_object(Oid(1), Some(b"v1".to_vec())).unwrap();
        assert_eq!(
            write(b"v3").unwrap(),
            b"v1",
            "a CLR's image is in the log too"
        );
        assert_eq!(kinds(&e), ["update", "overwrite", "clr", "overwrite"]);
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        e.checkpoint().unwrap();
        assert_eq!(write(b"v4").unwrap(), b"v3");
        write(b"v5");
        assert_eq!(kinds(&e), ["checkpoint", "update", "overwrite"]);
        let (_, first) = &e.log.scan().unwrap()[1];
        assert!(
            matches!(first, LogRecord::Update { before: Some(b), .. } if b == b"v3"),
            "the first write after the cut carries its before image: {first:?}"
        );
    }

    /// An image installed behind the log's back ends the object's
    /// `Overwrite` run: the log no longer holds its before image.
    #[test]
    fn an_unlogged_install_forgets_the_generation() {
        let e = mem_engine();
        e.write_object(Tid(1), Oid(1), Some(b"v1".to_vec()))
            .unwrap();
        let entry = e.cache.entry(Oid(1), &e.store).unwrap();
        entry.install(Some(b"quiet".to_vec()));
        e.write_object(Tid(1), Oid(1), Some(b"v2".to_vec()))
            .unwrap();
        assert_eq!(kinds(&e), ["update", "update"]);
    }

    /// A transfer over two objects the log has seen is three records and
    /// 37 bytes with three-byte ids, plus its share of the seal that closes
    /// the drain it leaves in: 42 alone, 20 × 37 + 5 for twenty in one
    /// drain — the benchmark's `log_bytes_per_txn`.
    #[test]
    fn a_transfer_is_37_bytes_plus_its_share_of_one_seal_per_drain() {
        let dir = std::env::temp_dir().join(format!("asset-eng-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (e, _) = StorageEngine::open(&Config::on_disk(&dir)).unwrap();
        let (a, b) = (Oid(90_000), Oid(90_001));
        let balance = |v: i64| Some(v.to_le_bytes().to_vec());
        let transfer = |tid: Tid, forced: bool| {
            e.write_object(tid, a, balance(tid.0 as i64)).unwrap();
            e.write_object(tid, b, balance(-(tid.0 as i64))).unwrap();
            let commit = LogRecord::Commit { tids: vec![tid] };
            if forced {
                e.log_record(&commit).unwrap();
            } else {
                e.log.append(&commit).unwrap();
            }
        };
        transfer(Tid(70_000), true);
        let marks = e.log.watermarks();
        transfer(Tid(70_001), true);
        let alone = e.log.watermarks();
        assert_eq!(alone.records_appended - marks.records_appended, 3);
        assert_eq!(alone.tail.0 - marks.tail.0, 42);
        for t in 0..20 {
            transfer(Tid(70_002 + t), t == 19);
        }
        assert_eq!(e.log.tail().0 - alone.tail.0, 20 * 37 + 5);
        assert_eq!(e.log.pending_bytes(), 0);
        drop(e);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: restart used to undo its losers in the cache and log
    /// nothing, so a loser was a loser again at the next restart and its
    /// before image went over whatever had committed since.
    #[test]
    fn a_commit_after_restart_survives_the_second_restart() {
        let mut e = mem_engine();
        let x = Oid(1);
        let commit = |e: &StorageEngine, t| {
            e.log_record(&LogRecord::Commit { tids: vec![Tid(t)] })
                .unwrap()
        };
        e.write_object(Tid(1), x, Some(b"base".to_vec())).unwrap();
        commit(&e, 1);
        e.write_object(Tid(2), x, Some(b"loser".to_vec())).unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!((report.losers, report.undone), (1, 1));
        assert_eq!(e.read_object(x).unwrap().unwrap(), b"base");
        assert_eq!(
            kinds(&e),
            ["update", "commit", "overwrite", "clr", "abort"],
            "the rollback is in the log"
        );
        e.write_object(Tid(3), x, Some(b"winner".to_vec())).unwrap();
        commit(&e, 3);
        for _ in 0..2 {
            let report = e.simulate_crash_and_recover().unwrap();
            assert_eq!((report.losers, report.undone, report.winners), (0, 0, 2));
            assert_eq!(e.read_object(x).unwrap().unwrap(), b"winner");
        }
    }

    /// Regression: compaction used to re-log pending updates grouped by
    /// owner in tid order. Undo installs before images newest first, so
    /// two cooperating writers of one object must keep their log order.
    #[test]
    fn compaction_keeps_cooperating_writers_in_lsn_order() {
        let mut e = mem_engine();
        let x = Oid(1);
        e.write_object(Tid(1), x, Some(b"base".to_vec())).unwrap();
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        // T5 writes x, then T3 — permitted, and the lower tid — overwrites
        e.write_object(Tid(5), x, Some(b"t5".to_vec())).unwrap();
        e.write_object(Tid(3), x, Some(b"t3".to_vec())).unwrap();
        let live = [Tid(3), Tid(5)].into_iter().collect();
        let report = e.compact_log(&live).unwrap();
        assert_eq!((report.records_before, report.records_after), (4, 3));
        let owners: Vec<Tid> = e
            .log
            .scan()
            .unwrap()
            .into_iter()
            .filter_map(|(_, rec)| match rec {
                LogRecord::Update { tid, .. } => Some(tid),
                _ => None,
            })
            .collect();
        assert_eq!(owners, [Tid(5), Tid(3)], "re-logged in the order written");
        // both commit: the runtime reads T3's image, and so must a restart
        e.log_record(&LogRecord::Commit {
            tids: vec![Tid(3), Tid(5)],
        })
        .unwrap();
        e.simulate_crash_and_recover().unwrap();
        assert_eq!(e.read_object(x).unwrap().unwrap(), b"t3");
    }

    /// ... and if neither commits, restart undoes newest first and lands
    /// on the image before the older write.
    #[test]
    fn compacted_cooperating_losers_roll_back_to_the_oldest_before_image() {
        let mut e = mem_engine();
        let x = Oid(1);
        e.write_object(Tid(1), x, Some(b"base".to_vec())).unwrap();
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        e.write_object(Tid(5), x, Some(b"t5".to_vec())).unwrap();
        e.write_object(Tid(3), x, Some(b"t3".to_vec())).unwrap();
        e.compact_log(&[Tid(3), Tid(5)].into_iter().collect())
            .unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!((report.losers, report.undone), (2, 2));
        assert_eq!(e.read_object(x).unwrap().unwrap(), b"base");
    }
}
