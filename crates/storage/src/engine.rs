//! The storage engine facade: shared cache + object store + WAL, assembled
//! per a [`Config`]. This is the substrate `asset-core` builds the
//! transaction primitives on.

use crate::cache::ObjectCache;
use crate::heapfile::{FilePageStore, MemPageStore, PageStore};
use crate::log::{GroupFlusher, LogManager, LogRecord, UpdateRef};
use crate::recovery::{recover, RecoveryReport};
use crate::store::ObjectStore;
use asset_common::{Config, Durability, Lsn, Oid, Result, Tid};
use asset_obs::Obs;
use std::sync::Arc;

/// The assembled storage substrate.
///
/// All object access during normal operation goes through the shared cache
/// (the paper's mode of operation); the store is the persistent home,
/// written at checkpoints, flushes and recovery. Commit records are routed
/// through the [`GroupFlusher`], which batches every commit submitted
/// within one flush window into a single write+sync.
pub struct StorageEngine {
    cache: ObjectCache,
    store: ObjectStore,
    log: Arc<LogManager>,
    flusher: GroupFlusher,
    durability: Durability,
    obs: Arc<Obs>,
    #[cfg(feature = "faults")]
    faults: Arc<asset_faults::FaultRegistry>,
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
                Arc::new(MemPageStore::new(config.page_size)),
                LogManager::in_memory(),
            ),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                #[allow(unused_mut)]
                let mut heap = FilePageStore::open(&dir.join("heap.db"), config.page_size)?;
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
            #[cfg(feature = "faults")]
            Arc::clone(&config.faults),
        );
        let store = ObjectStore::open(page_store, config.buffer_pool_pages)?;
        let cache = ObjectCache::with_obs(Arc::clone(&obs));
        let engine = StorageEngine {
            cache,
            store,
            log,
            flusher,
            durability: config.durability,
            obs,
            #[cfg(feature = "faults")]
            faults: Arc::clone(&config.faults),
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

    /// Write `oid` through the cache on behalf of `tid`, logging before and
    /// after images (paper `write` algorithm steps 2–6). Returns the before
    /// image.
    pub fn write_object(
        &self,
        tid: Tid,
        oid: Oid,
        after: Option<Vec<u8>>,
    ) -> Result<Option<Vec<u8>>> {
        let entry = self.cache.entry(oid, &self.store)?;
        // Paper `write` steps 2–6 under one X latch: the record is encoded
        // from both images where they sit — the cache's and the caller's —
        // so neither is copied, and two permitted writers of one object log
        // in the order they install. A refused append installs nothing.
        entry.write_with(|slot| {
            self.log.append_update(&UpdateRef {
                tid,
                oid,
                before: slot.as_deref(),
                after: after.as_deref(),
            })?;
            Ok(std::mem::replace(slot, after))
        })
    }

    /// Install an image without logging (undo during abort; recovery).
    pub fn install_image(&self, oid: Oid, image: Option<Vec<u8>>) -> Result<()> {
        let entry = self.cache.entry(oid, &self.store)?;
        entry.install(image);
        Ok(())
    }

    /// Log a record (commit/abort/delegate/begin). Commit and Prepared
    /// records go through the [`GroupFlusher`]: the call blocks until the
    /// record's flush window is durable, so acknowledgement semantics match
    /// the old per-commit forced append while concurrent committers share
    /// one sync. (A Prepared record is a participant's vote — it must be
    /// durable before the vote rides back to the coordinator, §14.2.)
    pub fn log_record(&self, rec: &LogRecord) -> Result<Lsn> {
        match rec {
            LogRecord::Commit { .. } | LogRecord::Prepared { .. } => {
                self.flusher.submit_and_wait(rec.clone())
            }
            _ => self.log.append(rec),
        }
    }

    /// The group-commit flusher (asynchronous acknowledgement path for the
    /// state-machine executor).
    pub fn flusher(&self) -> &GroupFlusher {
        &self.flusher
    }

    /// Quiescent checkpoint: flush the cache and pool, truncate the log,
    /// and write a checkpoint marker. The caller must guarantee no
    /// transaction is active.
    pub fn checkpoint(&self) -> Result<()> {
        // WAL rule: no image reaches the store ahead of its log record.
        self.log.flush()?;
        self.cache.flush(&self.store)?;
        self.store.flush()?;
        asset_faults::failpoint!(
            &self.faults,
            crate::failpoints::CHECKPOINT_BEFORE_TRUNCATE,
            |act| {
                return Err(self
                    .faults
                    .realize_plain(crate::failpoints::CHECKPOINT_BEFORE_TRUNCATE, act)
                    .into());
            }
        );
        self.log.truncate()?;
        asset_faults::failpoint!(
            &self.faults,
            crate::failpoints::CHECKPOINT_AFTER_TRUNCATE,
            |act| {
                return Err(self
                    .faults
                    .realize_plain(crate::failpoints::CHECKPOINT_AFTER_TRUNCATE, act)
                    .into());
            }
        );
        self.log.append(&LogRecord::Checkpoint)?;
        if self.durability == Durability::Strict {
            self.log.flush()?;
        }
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
    /// 2. analyze the log (applying delegations) to find the pending
    ///    updates each live transaction is responsible for;
    /// 3. rewrite the log as: `Checkpoint` marker, then for each live
    ///    transaction a fresh `Begin` and its pending updates (attributed
    ///    to the *current* owner — delegation records become unnecessary).
    ///
    /// The caller must guarantee no transaction appends concurrently
    /// (the transaction manager holds its table lock and checks that no
    /// transaction is `Running`).
    pub fn compact_log(&self, live: &std::collections::HashSet<Tid>) -> Result<CompactionReport> {
        self.log.flush()?;
        self.cache.flush(&self.store)?;
        self.store.flush()?;
        let records = self.log.scan()?;
        let before = records.len();
        let mut analysis = crate::recovery::analyze(records);
        self.log.truncate()?;
        self.log.append(&LogRecord::Checkpoint)?;
        let mut after = 1usize;
        let mut owners: Vec<Tid> = analysis
            .pending
            .keys()
            .copied()
            .filter(|t| live.contains(t))
            .collect();
        owners.sort_unstable();
        for owner in owners {
            self.log.append(&LogRecord::Begin { tid: owner })?;
            after += 1;
            for u in analysis.pending.remove(&owner).unwrap_or_default() {
                self.log.append(&LogRecord::Update {
                    tid: owner,
                    oid: u.oid,
                    after: analysis.take_after_image(u.lsn),
                    before: u.before,
                })?;
                after += 1;
            }
        }
        // Re-log one Prepared record per in-doubt group so prepared-but-
        // undecided participants stay in-doubt across compaction (§14.3).
        let mut groups: Vec<Vec<Tid>> = analysis.prepared.values().cloned().collect();
        groups.sort_unstable();
        groups.dedup();
        for tids in groups {
            self.log.append(&LogRecord::Prepared { tids })?;
            after += 1;
        }
        if self.durability == Durability::Strict {
            self.log.flush()?;
        }
        Ok(CompactionReport {
            records_before: before,
            records_after: after,
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

    #[test]
    fn install_image_is_not_logged() {
        let e = mem_engine();
        let n0 = e.log.records_appended();
        e.install_image(Oid(1), Some(b"quiet".to_vec())).unwrap();
        assert_eq!(e.log.records_appended(), n0);
        assert_eq!(e.read_object(Oid(1)).unwrap().unwrap(), b"quiet");
    }
}
