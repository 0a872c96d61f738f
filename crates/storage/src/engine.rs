//! The storage engine facade: shared cache + object store + WAL, assembled
//! per a [`Config`]. This is the substrate `asset-core` builds the
//! transaction primitives on. The cache holds every object; the store is
//! the place of its last image, written by the one
//! [`checkpoint`](StorageEngine::checkpoint) routine, which also replaces
//! the log.

use crate::cache::ObjectCache;
use crate::durable::Failpoint;
use crate::failpoints::CHECKPOINT_BEFORE_TRUNCATE;
use crate::log::mark::{self, Kind};
use crate::log::{GroupFlusher, LogManager, LogPlace, LogRecord, Patch, RecordRef};
use crate::recovery::{recover, LogFold, PendingUpdate, RecoveryReport};
use crate::store::ObjectStore;
use asset_common::{Config, Lsn, Oid, Result, Tid};
use asset_obs::Obs;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The assembled storage substrate.
///
/// All object access goes through the shared cache (the paper's mode of
/// operation); the store holds its image, written at checkpoints only and
/// read at open only. The [`GroupFlusher`] makes the log durable
/// for commits: every commit that waits while a window runs is durable
/// with the next window's single write+sync.
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
        let (store, mut log) = match &config.data_dir {
            None => (ObjectStore::in_memory(), LogManager::in_memory()),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                #[allow(unused_mut, reason = "only the `faults` build installs a registry")]
                let mut store = ObjectStore::at(&dir.join("heap.db"));
                #[cfg(feature = "faults")]
                store.set_faults(Arc::clone(&config.faults));
                let log = LogManager::open_with(
                    &dir.join("wal.log"),
                    config.durability,
                    config.flush_watermark,
                )?;
                (store, log)
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
        let cache = ObjectCache::with_obs(Arc::clone(&obs));
        let engine = StorageEngine {
            cache,
            store,
            log,
            flusher,
            obs,
        };
        let report = {
            let _section = engine.log.enter()?;
            recover(&engine.log, &engine.cache, &engine.store)?
        };
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

    /// The write-ahead log.
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// Read `oid` through the cache (S-latched read; paper `read` algorithm
    /// steps 2–4 — locking is the caller's responsibility, step 1).
    pub fn read_object(&self, oid: Oid) -> Option<Vec<u8>> {
        let entry = self.cache.entry(oid);
        entry.read_with(&self.obs, |b| b.map(|s| s.to_vec()))
    }

    /// Write `oid` through the cache on behalf of `tid` (paper `write`
    /// algorithm steps 2–6). Returns the before image and the record's
    /// place in the log.
    ///
    /// The paper logs the before image, updates, and logs the after image.
    /// Here the before image is logged **when the log does not already
    /// hold it**: the entry remembers the log generation in which its
    /// image was last logged, and while that is the current one the image
    /// in the cache is, byte for byte, what the latest record of this
    /// object installed — so the write appends an `Overwrite` (after image
    /// only) and replay takes the before image from that record. Of the
    /// after image it logs only what differs from that image, its base: a
    /// [`Patch`] of the bytes between the prefix and the suffix the two
    /// share. The first
    /// touch of an object per generation — every creation, every first
    /// write after a checkpoint cut the log, every entry loaded from the
    /// store's image — logs the full `Update { before, after }`.
    pub fn write_object(
        &self,
        tid: Tid,
        oid: Oid,
        after: Option<Vec<u8>>,
    ) -> Result<(Option<Vec<u8>>, LogPlace)> {
        let entry = self.cache.entry(oid);
        // Steps 2–6 under one X latch: the record is encoded from the
        // images where they sit — the cache's and the caller's — so neither
        // is copied, and two permitted writers of one object log in the
        // order they install. A refused append installs nothing.
        entry.write_with(&self.obs, |slot| {
            let generation = self.log.generation();
            let after_ref = after.as_deref();
            let lsn = self.log.append_ref(&if entry.logged_in() == generation {
                RecordRef::Overwrite {
                    tid,
                    oid,
                    after: after_ref.map(|a| Patch::between(slot.as_deref(), a)),
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
            mark::expect(Kind::Write, oid.raw());
            Ok((std::mem::replace(slot, after), (generation, lsn)))
        })
    }

    /// One undo step of an abort (§4.2 `abort` step 2): install the before
    /// image `image` over `oid` and log the CLR that replays it, together
    /// under the object's X latch — see
    /// [`recovery::undo_object`](crate::recovery), which restart recovery
    /// calls for its losers too. An error is the stop of the log.
    pub fn undo_object(&self, oid: Oid, image: Option<Vec<u8>>) -> Result<()> {
        crate::recovery::undo_object(&self.log, &self.cache, oid, image)
    }

    /// Log a record (commit/abort/delegate/prepared). Commit and Prepared
    /// records are forced: the call returns once the [`GroupFlusher`] has
    /// made the log durable through the record — in the caller's own
    /// window, run on this thread, when the flusher is idle; in the flusher
    /// thread's next one, shared with every waiter queued beside it, when
    /// not. (A Prepared record is a participant's vote — it must be durable
    /// before the vote rides back to the coordinator, §14.2.)
    pub fn log_record(&self, rec: &LogRecord) -> Result<Lsn> {
        match rec {
            LogRecord::Commit { .. } | LogRecord::Prepared { .. } => {
                self.flusher.submit_and_wait(rec)
            }
            _ => self.log.append(rec),
        }
    }

    /// The group-commit flusher: what a committer that appended its record
    /// itself waits on, blocking or through a callback.
    pub fn flusher(&self) -> &GroupFlusher {
        &self.flusher
    }

    /// Checkpoint: write the cache's image to the store, then replace the
    /// log ([`LogManager::rewrite`]: built beside it and renamed over it, so
    /// a crash leaves the old log or the new one) with its marker and what
    /// `live` transactions still need, found by restart's fold over a
    /// scratch image map: their pending updates as full `Update`s under
    /// their *current* owner (delegations folded in), in their original LSN
    /// order across owners (undo runs newest first, so cooperating writers
    /// of one object keep their order), then one `Prepared` per in-doubt
    /// group. An update's after image is the object's latest logged image,
    /// which the new image holds, so redoing the new log changes nothing.
    /// With no live transaction the new log is the marker alone.
    ///
    /// The caller guarantees that no transaction appends concurrently and
    /// that `live` holds every transaction that is not terminated.
    pub fn checkpoint(&self, live: &HashSet<Tid>) -> Result<()> {
        // WAL rule: no image reaches the store ahead of its log record.
        self.log.flush()?;
        self.store.write(&self.cache)?;
        Failpoint(&self.log.faults, CHECKPOINT_BEFORE_TRUNCATE).check()?;
        if live.is_empty() {
            return self.log.rewrite([]);
        }
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
        // undecided participants stay in-doubt across the cut (§14.3).
        let mut groups: Vec<Vec<Tid>> = fold.prepared.into_values().collect();
        groups.sort_unstable();
        groups.dedup();
        let prepared = groups.iter().map(|tids| RecordRef::Prepared {
            tids: tids.as_slice().into(),
        });
        self.log.rewrite(relogged.chain(prepared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_faults::TempDir;

    fn mem_engine() -> StorageEngine {
        StorageEngine::open(&Config::in_memory()).unwrap().0
    }

    impl StorageEngine {
        /// Simulate a crash: discard the cache and rebuild it from the
        /// store's image and the log.
        fn simulate_crash_and_recover(&mut self) -> Result<RecoveryReport> {
            self.cache = ObjectCache::with_obs(Arc::clone(&self.obs));
            recover(&self.log, &self.cache, &self.store)
        }
    }

    #[test]
    fn read_write_roundtrip() {
        let e = mem_engine();
        assert_eq!(e.read_object(Oid(1)), None);
        let (before, first) = e
            .write_object(Tid(1), Oid(1), Some(b"v1".to_vec()))
            .unwrap();
        assert_eq!(before, None);
        assert_eq!(e.read_object(Oid(1)).unwrap(), b"v1");
        let (before, second) = e
            .write_object(Tid(1), Oid(1), Some(b"v2".to_vec()))
            .unwrap();
        assert_eq!(before.unwrap(), b"v1");
        // each write's place in the log: this generation, its record's LSN
        let lsns: Vec<Lsn> = e.log.scan().unwrap().iter().map(|(l, _)| *l).collect();
        assert_eq!([first, second], [(1, lsns[0]), (1, lsns[1])]);
    }

    #[test]
    fn crash_without_commit_rolls_back() {
        let mut e = mem_engine();
        e.write_object(Tid(1), Oid(1), Some(b"dirty".to_vec()))
            .unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!(report.losers, 1);
        assert_eq!(e.read_object(Oid(1)), None);
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
        assert_eq!(e.read_object(Oid(1)).unwrap(), b"durable");
    }

    #[test]
    fn checkpoint_then_recover_is_clean() {
        let mut e = mem_engine();
        e.write_object(Tid(1), Oid(1), Some(b"x".to_vec())).unwrap();
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        e.checkpoint(&HashSet::new()).unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!(report.redone, 0, "checkpoint settled everything");
        assert_eq!(e.read_object(Oid(1)).unwrap(), b"x");
    }

    #[test]
    fn on_disk_engine_survives_reopen() {
        let dir = TempDir::new("eng");
        let config = Config::on_disk(&*dir);
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
        assert_eq!(e.read_object(Oid(42)).unwrap(), b"persists");
    }

    #[test]
    fn on_disk_uncommitted_rolls_back_on_reopen() {
        let dir = TempDir::new("eng2");
        let config = Config::on_disk(&*dir);
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
        assert_eq!(e.read_object(Oid(1)).unwrap(), b"committed");
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
        let write = |v: &[u8]| e.write_object(Tid(1), Oid(1), Some(v.to_vec())).unwrap().0;
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
        e.checkpoint(&HashSet::new()).unwrap();
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
        let entry = e.cache.entry(Oid(1));
        entry.write_with(&e.obs, |slot| {
            entry.set_logged_in(0);
            *slot = Some(b"quiet".to_vec());
        });
        e.write_object(Tid(1), Oid(1), Some(b"v2".to_vec()))
            .unwrap();
        assert_eq!(kinds(&e), ["update", "update"]);
    }

    /// Through an on-disk engine from tid `base` between the balances `a`
    /// and `b`, in a directory named by `tag`: a transfer that creates both
    /// balances, one transfer alone in a drain, then twenty in one drain,
    /// then — reopened — one more alone, which all read back whole.
    /// Returns the log bytes of the last three.
    fn transfer_bytes(tag: &str, base: u64, [a, b]: [Oid; 2]) -> [u64; 3] {
        let dir = TempDir::new(&format!("eng-{tag}"));
        let config = Config::on_disk(&*dir);
        let balance = |v: i64| Some(v.to_le_bytes().to_vec());
        // leaves `a` at 1 000 - k and `b` at 1 000 + k
        let transfer = |e: &StorageEngine, tid: u64, k: i64, forced: bool| {
            e.write_object(Tid(tid), a, balance(1_000 - k)).unwrap();
            e.write_object(Tid(tid), b, balance(1_000 + k)).unwrap();
            let commit = LogRecord::Commit {
                tids: vec![Tid(tid)],
            };
            if forced {
                e.log_record(&commit).unwrap();
            } else {
                e.log.append(&commit).unwrap();
            }
        };
        // the last transfer, from tid `base + t`, left 1 000 ∓ k
        let ends_with = |e: &StorageEngine, t: u64, k: i64| {
            let tid = Tid(base + t);
            let overwrite = |oid, v| LogRecord::Overwrite {
                tid,
                oid,
                after: balance(v),
            };
            let commit = LogRecord::Commit { tids: vec![tid] };
            let last = [commit, overwrite(b, 1_000 + k), overwrite(a, 1_000 - k)];
            let records = e.log.scan().unwrap().into_iter().rev().map(|(_, rec)| rec);
            assert!(records.take(3).eq(last));
        };
        let (e, _) = StorageEngine::open(&config).unwrap();
        transfer(&e, base, 0, true); // creates both: two `Update`s
        let marks = e.log.watermarks();
        transfer(&e, base + 1, 21, true);
        let alone = e.log.watermarks();
        assert_eq!(alone.records_appended - marks.records_appended, 3);
        for t in 0..20 {
            transfer(&e, base + 2 + t, 1 + t as i64, t == 19);
        }
        assert_eq!(e.log.pending_bytes(), 0);
        let twenty = e.log.tail().0 - alone.tail.0;
        ends_with(&e, 21, 20);
        drop(e);
        let (e, _) = StorageEngine::open(&config).unwrap();
        let reopened = e.log.tail().0;
        transfer(&e, base + 22, 5, true);
        let reopened = e.log.tail().0 - reopened;
        ends_with(&e, 22, 5);
        drop(e);
        [alone.tail.0 - marks.tail.0, twenty, reopened]
    }

    /// A transfer over two balances the log has seen — 8-byte integers
    /// near 1 000, each write moving the low byte alone — is three records:
    /// two packed `Overwrite`s and a one-tid `Commit` that its kind byte
    /// holds, 6 + 6 + 1 = 13 bytes when its balances are three-byte oid
    /// deltas apart, every tid a one-byte delta across seals; plus the seal
    /// that closes the drain it leaves in: 18 alone, 20 × 13 + 5 for twenty
    /// in one drain — the benchmark's `log_bytes_per_txn`. Between two
    /// neighbouring balances each oid is a one-byte delta too, 4 + 4 + 1.
    /// The first transfer a reopened log takes pays its reset entry, one
    /// wide tid and one wide oid, deltas from 0.
    #[test]
    fn a_transfer_is_13_bytes_plus_one_seal_per_drain() {
        let far = transfer_bytes("golden", 70_000, [Oid(90_000), Oid(140_000)]);
        assert_eq!(far, [6 + 6 + 1 + 5, 20 * 13 + 5, 1 + 8 + 6 + 1 + 5]);
        let near = transfer_bytes("adjacent", 70_000, [Oid(90_000), Oid(90_001)]);
        assert_eq!(near, [4 + 4 + 1 + 5, 20 * 9 + 5, 1 + 8 + 4 + 1 + 5]);
    }

    /// A tid's width costs the log only the first tid past a reset: at
    /// five-byte tids, the drains of an open log cost what they do at
    /// three-byte ones, and the first transfer past a reopen two bytes
    /// more.
    #[test]
    fn a_wider_tid_costs_only_the_first_tid_past_a_reset() {
        let pair = [Oid(90_000), Oid(140_000)];
        let [alone, twenty, reopened] = transfer_bytes("narrow", 70_000, pair);
        let wide = transfer_bytes("wide", 3_000_000_000, pair);
        assert_eq!(wide, [alone, twenty, reopened + 2]);
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
        assert_eq!(e.read_object(x).unwrap(), b"base");
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
            assert_eq!(e.read_object(x).unwrap(), b"winner");
        }
    }

    /// Regression: log compaction used to re-log pending updates grouped
    /// by owner in tid order. Undo installs before images newest first, so
    /// two cooperating writers of one object must keep their log order.
    #[test]
    fn a_checkpoint_keeps_cooperating_writers_in_lsn_order() {
        let mut e = mem_engine();
        let x = Oid(1);
        e.write_object(Tid(1), x, Some(b"base".to_vec())).unwrap();
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        // T5 writes x, then T3 — permitted, and the lower tid — overwrites
        e.write_object(Tid(5), x, Some(b"t5".to_vec())).unwrap();
        e.write_object(Tid(3), x, Some(b"t3".to_vec())).unwrap();
        let live = [Tid(3), Tid(5)].into_iter().collect();
        assert_eq!(e.log.scan().unwrap().len(), 4);
        e.checkpoint(&live).unwrap();
        assert_eq!(kinds(&e), ["checkpoint", "update", "update"]);
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
        assert_eq!(e.read_object(x).unwrap(), b"t3");
    }

    /// A checkpoint re-logs a live transaction's updates into a generation
    /// of its own, whose id cursor starts at 0 behind its marker whatever
    /// the old log's appender wrote last — here a small oid, beside the
    /// loser's wide ones. Reopened, restart aborts the loser and its
    /// before images come back.
    #[test]
    fn a_checkpoint_relogs_wide_oids_from_a_fresh_cursor() {
        let dir = TempDir::new("eng-ckpt-oids");
        let config = Config::on_disk(&*dir);
        let wide = [Oid(1 << 40), Oid((1 << 40) + 1), Oid(3_000_000)];
        let image = |i: usize| vec![i as u8; 8];
        {
            let (e, _) = StorageEngine::open(&config).unwrap();
            let commit = |t| e.log_record(&LogRecord::Commit { tids: vec![Tid(t)] });
            for (i, o) in wide.into_iter().enumerate() {
                e.write_object(Tid(1), o, Some(image(i))).unwrap();
            }
            commit(1).unwrap();
            for o in wide {
                e.write_object(Tid(2), o, Some(b"loser".to_vec())).unwrap();
            }
            e.write_object(Tid(3), Oid(1), Some(b"small".to_vec()))
                .unwrap();
            commit(3).unwrap();
            e.checkpoint(&[Tid(2)].into_iter().collect()).unwrap();
            assert_eq!(kinds(&e), ["checkpoint", "update", "update", "update"]);
        }
        let (e, report) = StorageEngine::open(&config).unwrap();
        assert_eq!((report.losers, report.undone), (1, 3));
        for (i, o) in wide.into_iter().enumerate() {
            assert_eq!(e.read_object(o), Some(image(i)), "{o}");
        }
        assert_eq!(e.read_object(Oid(1)).unwrap(), b"small");
    }

    /// ... and if neither commits, restart undoes newest first and lands
    /// on the image before the older write.
    #[test]
    fn checkpointed_cooperating_losers_roll_back_to_the_oldest_before_image() {
        let mut e = mem_engine();
        let x = Oid(1);
        e.write_object(Tid(1), x, Some(b"base".to_vec())).unwrap();
        e.log_record(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        e.write_object(Tid(5), x, Some(b"t5".to_vec())).unwrap();
        e.write_object(Tid(3), x, Some(b"t3".to_vec())).unwrap();
        e.checkpoint(&[Tid(3), Tid(5)].into_iter().collect())
            .unwrap();
        let report = e.simulate_crash_and_recover().unwrap();
        assert_eq!((report.losers, report.undone), (2, 2));
        assert_eq!(e.read_object(x).unwrap(), b"base");
    }
}
