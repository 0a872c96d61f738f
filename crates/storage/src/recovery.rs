//! Restart recovery from the write-ahead log.
//!
//! The paper logs physical before/after images and undoes an aborted
//! transaction by installing before images (§4.2, `abort` step 2 — with the
//! explicit caveat that later cooperative updates are lost). The log is a
//! self-contained redo history (see [`crate::log`]'s record module), so
//! restart is **one streaming pass** over it, followed by the runtime's own
//! abort for whoever is left:
//!
//! 1. **Replay** — [`LogManager::replay`] hands each record to the
//!    `LogFold`, which installs every after image and CLR image into the
//!    cache in LSN order (reconstructing the pre-crash state) and keeps,
//!    per transaction, only the updates it is *currently responsible for*:
//!    an `Overwrite`'s before image is the image its install replaced, a
//!    `Delegate` record moves matching updates from delegator to delegatee
//!    (this is what makes delegation crash-safe), a `Commit` or `Abort`
//!    drops them. Memory is bounded by what is uncommitted, not by what
//!    was ever logged, and the object store is never read or written.
//! 2. **Undo** — every *loser* (a transaction still responsible for updates
//!    with neither a commit, a completed logged abort, nor a `Prepared`
//!    vote) is rolled back exactly as [`StorageEngine::undo_object`] rolls
//!    back a runtime abort: newest update first across all losers, a
//!    **CLR** (compensation log record) appended with each before image
//!    installed, one `Abort` record per loser, one flush.
//!
//! Because the rollback is in the log, it happens once: the next restart
//! replays the CLRs in their original position, finds the `Abort`, and
//! undoes nothing — a later committed overwrite of the same object survives
//! every further restart exactly as it survived at runtime. A crash in the
//! middle of the undo phase leaves some CLRs and no `Abort`; the loser is a
//! loser again and the undo, being the installation of before images, is
//! idempotent.
//!
//! Nothing is forced to the store here: replayed entries stay dirty in the
//! cache and the log stays the durable truth until the next checkpoint.
//!
//! [`StorageEngine::undo_object`]: crate::StorageEngine::undo_object

use crate::cache::ObjectCache;
use crate::log::{LogManager, LogRecord, RecordRef};
use crate::store::ObjectStore;
use asset_annot::wal;
use asset_common::{AssetError, Lsn, Oid, Result, Tid};
use std::collections::{HashMap, HashSet};

/// Summary of a recovery pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Logged images (after images and CLR images) reinstalled.
    pub redone: usize,
    /// Updates undone via before images.
    pub undone: usize,
    /// Transactions named by a `Commit` record.
    pub winners: usize,
    /// Transactions rolled back.
    pub losers: usize,
    /// Highest transaction id seen in the log (new tids must exceed it).
    pub max_tid: u64,
    /// Highest object id seen in the log (new oids must exceed it: the
    /// objects the log created are not in the store yet).
    pub max_oid: u64,
    /// Prepared transactions with no later decision: durable but undecided
    /// (DESIGN.md §14.3). Their updates were redone, not undone; the caller
    /// must restore them as `Prepared` and await the coordinator's decision.
    pub in_doubt: Vec<InDoubt>,
}

/// A prepared-but-undecided transaction surfaced by recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InDoubt {
    /// The in-doubt transaction.
    pub tid: Tid,
    /// Its full prepared group (every tid in the `Prepared` record).
    pub group: Vec<Tid>,
    /// The updates it is responsible for, in LSN order — the undo set a
    /// later `decide abort` must install, and the lock set to reacquire.
    pub updates: Vec<PendingUpdate>,
}

/// One uncommitted update a transaction is currently responsible for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingUpdate {
    /// Original position in the log (ordering key).
    pub lsn: Lsn,
    /// The updated object.
    pub oid: Oid,
    /// Before image (for undo): the `Update` record's own, or for an
    /// `Overwrite` the image the log held when it was written.
    pub before: Option<Vec<u8>>,
}

/// Where a [`LogFold`] keeps the latest logged image of each object:
/// restart recovery's is the cache, log compaction's a scratch map.
pub(crate) trait ImageSink {
    /// `image` is now the latest logged image of `oid`. Returns the image
    /// it replaced, or `None` when the log read so far held none.
    fn install(&mut self, oid: Oid, image: Option<&[u8]>) -> Option<Option<Vec<u8>>>;

    /// A `Checkpoint` record: every image logged before it is settled in
    /// the store.
    fn clear(&mut self);
}

impl ImageSink for HashMap<Oid, Option<Vec<u8>>> {
    fn install(&mut self, oid: Oid, image: Option<&[u8]>) -> Option<Option<Vec<u8>>> {
        self.insert(oid, image.map(<[u8]>::to_vec))
    }

    fn clear(&mut self) {
        HashMap::clear(self);
    }
}

/// The cache as restart's sink: entries are stamped with the log's
/// generation, so the first write after restart to a replayed object logs
/// no before image either.
struct CacheSink<'a> {
    cache: &'a ObjectCache,
    generation: u64,
}

impl ImageSink for CacheSink<'_> {
    fn install(&mut self, oid: Oid, image: Option<&[u8]>) -> Option<Option<Vec<u8>>> {
        self.cache
            .redo(oid, image.map(<[u8]>::to_vec), self.generation)
    }

    fn clear(&mut self) {
        self.cache.clear();
    }
}

/// The paper's §4.2 bookkeeping as a fold over the log, one record at a
/// time: who is responsible for which uncommitted update once every
/// delegation is applied, who is prepared and undecided. Shared by restart
/// recovery and log compaction, which differ only in the [`ImageSink`].
#[derive(Default, Debug)]
pub(crate) struct LogFold {
    /// tid → pending updates in LSN order, post-delegation. Committed and
    /// aborted transactions have left.
    pub pending: HashMap<Tid, Vec<PendingUpdate>>,
    /// tid → its prepared group, for transactions with a `Prepared` record
    /// and no later `Commit`/`Abort` (in-doubt at this point in the log).
    pub prepared: HashMap<Tid, Vec<Tid>>,
    /// Records folded.
    pub records: usize,
    /// Images installed into the sink.
    pub redone: usize,
    /// Tids named by `Commit` records.
    pub winners: usize,
    /// Highest tid mentioned anywhere.
    pub max_tid: u64,
    /// Highest oid mentioned by an image-carrying record.
    pub max_oid: u64,
}

impl LogFold {
    fn saw_tid(&mut self, tid: Tid) {
        self.max_tid = self.max_tid.max(tid.raw());
    }

    /// `tid` updated `oid` at `lsn`, over the image `before`.
    fn update(&mut self, lsn: Lsn, tid: Tid, oid: Oid, before: Option<Vec<u8>>) {
        self.saw_tid(tid);
        self.max_oid = self.max_oid.max(oid.raw());
        self.redone += 1;
        self.pending
            .entry(tid)
            .or_default()
            .push(PendingUpdate { lsn, oid, before });
    }

    /// Fold the record logged at `lsn`.
    pub fn apply(
        &mut self,
        lsn: Lsn,
        rec: RecordRef<'_>,
        images: &mut impl ImageSink,
    ) -> Result<()> {
        self.records += 1;
        match rec {
            RecordRef::Update {
                tid,
                oid,
                before,
                after,
            } => {
                images.install(oid, after);
                self.update(lsn, tid, oid, before.map(<[u8]>::to_vec));
            }
            RecordRef::Overwrite { tid, oid, after } => {
                // the self-containment invariant, checked: the log itself
                // holds the image this write replaced
                let before = images.install(oid, after).ok_or_else(|| {
                    AssetError::Corrupt(format!(
                        "log offset {}: overwrite of {oid} with no earlier image of it in the log",
                        lsn.0
                    ))
                })?;
                self.update(lsn, tid, oid, before);
            }
            RecordRef::Clr { oid, image } => {
                // redo-only: replayed in order, never undone
                images.install(oid, image);
                self.max_oid = self.max_oid.max(oid.raw());
                self.redone += 1;
            }
            RecordRef::Commit { tids } => {
                for t in tids.iter() {
                    self.saw_tid(t);
                    self.winners += 1;
                    // a committed transaction's pending updates are winners
                    self.pending.remove(&t);
                    self.prepared.remove(&t);
                }
            }
            RecordRef::Abort { tid } => {
                self.saw_tid(tid);
                // the abort logged a CLR for every undo step before this
                // record, so the rollback has been replayed in its original
                // position; it must not be undone again (that would
                // clobber later committed overwrites)
                self.pending.remove(&tid);
                self.prepared.remove(&tid);
            }
            RecordRef::Prepared { tids } => {
                let group: Vec<Tid> = tids.iter().collect();
                for t in &group {
                    self.saw_tid(*t);
                    self.prepared.insert(*t, group.clone());
                }
            }
            RecordRef::Delegate { from, to, obs } => {
                self.saw_tid(from);
                self.saw_tid(to);
                let moved: Vec<PendingUpdate> = match self.pending.get_mut(&from) {
                    None => Vec::new(),
                    Some(list) => match obs {
                        None => std::mem::take(list),
                        Some(set) => {
                            let set: HashSet<Oid> = set.iter().collect();
                            let (take, keep): (Vec<_>, Vec<_>) =
                                list.drain(..).partition(|u| set.contains(&u.oid));
                            *list = keep;
                            take
                        }
                    },
                };
                if !moved.is_empty() {
                    let dst = self.pending.entry(to).or_default();
                    dst.extend(moved);
                    dst.sort_by_key(|u| u.lsn);
                }
            }
            RecordRef::Checkpoint => {
                // Everything settled at this point is already in the
                // store. The fold starts over; records re-logged by
                // compaction for live transactions follow the checkpoint.
                self.pending.clear();
                self.prepared.clear();
                self.redone = 0;
                self.winners = 0;
                images.clear();
            }
        }
        Ok(())
    }
}

/// One undo step — the same at a runtime abort and at restart: under the
/// X latch of `oid`'s cache entry, append a CLR for `image` and install
/// it, so that the log orders the undo among cooperating writers of the
/// object exactly as the cache does. If the append is refused the image is
/// installed all the same (the rollback must not strand) and the error
/// returned: the entry forgets that the log holds its image, so the next
/// writer logs an explicit before image, and the caller withholds the
/// `Abort` record, so a restart finishes what the log does not show.
#[wal(logs = "append_ref", mutates = "*slot = image")]
pub(crate) fn undo_object(
    log: &LogManager,
    cache: &ObjectCache,
    store: &ObjectStore,
    oid: Oid,
    image: Option<Vec<u8>>,
) -> Result<()> {
    let entry = cache.entry(oid, store)?;
    entry.write_with(|slot| {
        let generation = log.generation();
        let logged = log.append_ref(&RecordRef::Clr {
            oid,
            image: image.as_deref(),
        });
        entry.set_logged_in(if logged.is_ok() { generation } else { 0 });
        *slot = image;
        logged.map(|_| ())
    })
}

/// Replay `log` into `cache` and roll its losers back (see the module
/// documentation). `store` is only where the cache faults from; recovery
/// itself neither reads nor writes it.
pub fn recover(
    log: &LogManager,
    cache: &ObjectCache,
    store: &ObjectStore,
) -> Result<RecoveryReport> {
    let mut fold = LogFold::default();
    let mut images = CacheSink {
        cache,
        generation: log.generation(),
    };
    log.replay(|lsn, rec| fold.apply(lsn, rec, &mut images))?;
    let mut report = RecoveryReport {
        redone: fold.redone,
        winners: fold.winners,
        max_tid: fold.max_tid,
        max_oid: fold.max_oid,
        ..RecoveryReport::default()
    };
    let (mut pending, prepared) = (fold.pending, fold.prepared);

    // --- In-doubt ---------------------------------------------------------
    // A prepared transaction with no later decision is neither winner nor
    // loser: its updates stay redone (durable-but-undecided) and the caller
    // resolves it when the coordinator's decision arrives (DESIGN.md §14.3).
    report.in_doubt = prepared
        .into_iter()
        .map(|(tid, group)| InDoubt {
            tid,
            group,
            updates: pending.remove(&tid).unwrap_or_default(),
        })
        .collect();
    report.in_doubt.sort_by_key(|d| d.tid.raw());

    // --- Undo -------------------------------------------------------------
    // Losers: whoever is still responsible for updates. The runtime abort,
    // across all of them at once: before images newest first, each with
    // its CLR, then the Abort records, then one flush.
    let mut losers: Vec<Tid> = pending.keys().copied().collect();
    losers.sort_unstable();
    let mut undo: Vec<PendingUpdate> = pending.into_values().flatten().collect();
    undo.sort_by_key(|u| std::cmp::Reverse(u.lsn));
    report.losers = losers.len();
    report.undone = undo.len();
    for u in undo {
        log.failpoint(crate::failpoints::RECOVERY_UNDO)?;
        undo_object(log, cache, store, u.oid, u.before)?;
    }
    if !losers.is_empty() {
        log.failpoint(crate::failpoints::RECOVERY_UNDO)?;
        for tid in losers {
            log.append(&LogRecord::Abort { tid })?;
        }
        log.flush()?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heapfile::MemPageStore;
    use std::sync::Arc;

    fn setup() -> (LogManager, ObjectCache, ObjectStore) {
        let log = LogManager::in_memory();
        let cache = ObjectCache::new();
        let store = ObjectStore::open(Arc::new(MemPageStore::new(512)), 16).unwrap();
        (log, cache, store)
    }

    /// What a reader sees after recovery: the cache's image, faulted in
    /// from the store for an object the log never mentioned.
    fn get(cache: &ObjectCache, store: &ObjectStore, oid: Oid) -> Option<Vec<u8>> {
        let entry = cache.entry(oid, store).unwrap();
        entry.read_with(|image| image.map(<[u8]>::to_vec))
    }

    #[test]
    fn committed_updates_are_redone() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(10),
            before: None,
            after: Some(b"v1".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();

        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(report.winners, 1);
        assert_eq!(report.losers, 0);
        assert_eq!(report.redone, 1);
        assert_eq!(get(&cache, &store, Oid(10)).unwrap(), b"v1");
        assert_eq!(report.max_tid, 1);
    }

    #[test]
    fn uncommitted_updates_are_undone() {
        let (log, cache, store) = setup();
        store.put(Oid(10), b"orig").unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(10),
            before: Some(b"orig".to_vec()),
            after: Some(b"dirty".to_vec()),
        })
        .unwrap();
        // crash: no commit record

        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(report.losers, 1);
        assert_eq!(get(&cache, &store, Oid(10)).unwrap(), b"orig");
    }

    #[test]
    fn creation_by_loser_is_deleted() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(5),
            before: None,
            after: Some(b"new".to_vec()),
        })
        .unwrap();
        recover(&log, &cache, &store).unwrap();
        assert_eq!(get(&cache, &store, Oid(5)), None);
    }

    #[test]
    fn delegated_updates_follow_the_delegatee() {
        let (log, cache, store) = setup();
        store.put(Oid(1), b"orig1").unwrap();
        store.put(Oid(2), b"orig2").unwrap();
        // t1 updates both objects, delegates ob1 to t2; t2 commits, t1 does
        // not. ob1's update must survive (t2 is responsible and committed),
        // ob2's must be undone.
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"orig1".to_vec()),
            after: Some(b"new1".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(2),
            before: Some(b"orig2".to_vec()),
            after: Some(b"new2".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Delegate {
            from: Tid(1),
            to: Tid(2),
            obs: Some(vec![Oid(1)]),
        })
        .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(2)] })
            .unwrap();

        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"new1");
        assert_eq!(get(&cache, &store, Oid(2)).unwrap(), b"orig2");
        assert_eq!(report.winners, 1);
        assert_eq!(report.losers, 1);
    }

    #[test]
    fn delegate_all_moves_everything() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: None,
            after: Some(b"a".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(2),
            before: None,
            after: Some(b"b".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Delegate {
            from: Tid(1),
            to: Tid(2),
            obs: None,
        })
        .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(2)] })
            .unwrap();
        recover(&log, &cache, &store).unwrap();
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"a");
        assert_eq!(get(&cache, &store, Oid(2)).unwrap(), b"b");
    }

    #[test]
    fn logged_abort_replays_via_clrs() {
        // the runtime abort protocol: Update, then a CLR per undo step,
        // then Abort — recovery replays the rollback in order and counts
        // no loser
        let (log, cache, store) = setup();
        store.put(Oid(1), b"orig").unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"orig".to_vec()),
            after: Some(b"x".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Clr {
            oid: Oid(1),
            image: Some(b"orig".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"orig");
        assert_eq!(report.losers, 0, "a completed abort is not a loser");
    }

    #[test]
    fn committed_overwrite_after_abort_survives_recovery() {
        // the regression the CLR design exists for: t1 aborts (undo logged
        // as CLR), then t2 commits an overwrite; recovery must keep t2's
        // value rather than replaying t1's before image last
        let (log, cache, store) = setup();
        store.put(Oid(1), b"v0").unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"v0".to_vec()),
            after: Some(b"t1".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Clr {
            oid: Oid(1),
            image: Some(b"v0".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(2),
            oid: Oid(1),
            before: Some(b"v0".to_vec()),
            after: Some(b"t2-committed".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(2)] })
            .unwrap();
        recover(&log, &cache, &store).unwrap();
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"t2-committed");
    }

    #[test]
    fn crash_mid_abort_still_rolls_back() {
        // some CLRs logged but no Abort record: the transaction is a loser
        // and the undo pass finishes the rollback
        let (log, cache, store) = setup();
        store.put(Oid(1), b"a0").unwrap();
        store.put(Oid(2), b"b0").unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"a0".to_vec()),
            after: Some(b"a1".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(2),
            before: Some(b"b0".to_vec()),
            after: Some(b"b1".to_vec()),
        })
        .unwrap();
        // runtime undid ob2 (newest first) and crashed before ob1's CLR
        log.append(&LogRecord::Clr {
            oid: Oid(2),
            image: Some(b"b0".to_vec()),
        })
        .unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(report.losers, 1);
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"a0");
        assert_eq!(get(&cache, &store, Oid(2)).unwrap(), b"b0");
    }

    #[test]
    fn recovery_is_idempotent() {
        let (log, cache, store) = setup();
        store.put(Oid(1), b"orig").unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"orig".to_vec()),
            after: Some(b"committed".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(2),
            oid: Oid(1),
            before: Some(b"committed".to_vec()),
            after: Some(b"uncommitted".to_vec()),
        })
        .unwrap();
        let r1 = recover(&log, &cache, &store).unwrap();
        assert_eq!((r1.redone, r1.losers, r1.undone), (2, 1, 1));
        // the rollback is in the log now: the second restart replays it
        // (one more image, the CLR) and finds nobody to undo
        let cache = ObjectCache::new();
        let r2 = recover(&log, &cache, &store).unwrap();
        assert_eq!((r2.redone, r2.losers, r2.undone), (3, 0, 0));
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"committed");
        assert_eq!(
            store.get(Oid(1)).unwrap().unwrap(),
            b"orig",
            "store untouched"
        );
    }

    #[test]
    fn checkpoint_resets_analysis() {
        let (log, cache, store) = setup();
        store.put(Oid(1), b"settled").unwrap();
        // pre-checkpoint garbage that must not be replayed
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"old".to_vec()),
            after: Some(b"never".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Checkpoint).unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(report.redone, 0);
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"settled");
    }

    #[test]
    fn interleaved_winner_and_loser_on_same_object() {
        let (log, cache, store) = setup();
        store.put(Oid(1), b"v0").unwrap();
        // t1 (loser) writes v1 over v0; then t2 — cooperating via permit at
        // runtime — writes v2 over v1 and commits. The paper's abort policy
        // installs t1's before image, losing t2's update. Recovery must
        // reproduce exactly that: final value v0.
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"v0".to_vec()),
            after: Some(b"v1".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(2),
            oid: Oid(1),
            before: Some(b"v1".to_vec()),
            after: Some(b"v2".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(2)] })
            .unwrap();
        recover(&log, &cache, &store).unwrap();
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"v0");
    }

    #[test]
    fn prepared_without_decision_is_in_doubt_not_undone() {
        let (log, cache, store) = setup();
        store.put(Oid(1), b"v0").unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"v0".to_vec()),
            after: Some(b"prepared".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Prepared {
            tids: vec![Tid(1), Tid(2)],
        })
        .unwrap();
        // crash: no Commit/Abort — the decision belongs to the coordinator
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(report.losers, 0, "prepared is not a loser");
        assert_eq!(report.undone, 0);
        assert_eq!(
            get(&cache, &store, Oid(1)).unwrap(),
            b"prepared",
            "in-doubt updates stay redone"
        );
        assert_eq!(report.in_doubt.len(), 2);
        let d = &report.in_doubt[0];
        assert_eq!(d.tid, Tid(1));
        assert_eq!(d.group, vec![Tid(1), Tid(2)]);
        assert_eq!(d.updates.len(), 1);
        assert_eq!(d.updates[0].oid, Oid(1));
        assert_eq!(d.updates[0].before, Some(b"v0".to_vec()));
        // Tid(2) prepared without updates: still in-doubt, empty undo set
        assert_eq!(report.in_doubt[1].tid, Tid(2));
        assert!(report.in_doubt[1].updates.is_empty());
    }

    #[test]
    fn prepared_then_committed_is_a_winner() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: None,
            after: Some(b"v".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Prepared { tids: vec![Tid(1)] })
            .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert!(report.in_doubt.is_empty());
        assert_eq!(report.winners, 1);
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"v");
    }

    #[test]
    fn prepared_then_aborted_replays_clean() {
        // decide-abort at runtime logs CLRs + Abort, like any abort
        let (log, cache, store) = setup();
        store.put(Oid(1), b"v0").unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"v0".to_vec()),
            after: Some(b"x".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Prepared { tids: vec![Tid(1)] })
            .unwrap();
        log.append(&LogRecord::Clr {
            oid: Oid(1),
            image: Some(b"v0".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert!(report.in_doubt.is_empty());
        assert_eq!(report.losers, 0);
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"v0");
    }

    #[test]
    fn in_doubt_recovery_is_idempotent() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: None,
            after: Some(b"p".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Prepared { tids: vec![Tid(1)] })
            .unwrap();
        let r1 = recover(&log, &cache, &store).unwrap();
        let cache = ObjectCache::new();
        let r2 = recover(&log, &cache, &store).unwrap();
        assert_eq!(r1.in_doubt, r2.in_doubt);
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"p");
    }

    #[test]
    fn group_commit_record_commits_all_members() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: None,
            after: Some(b"a".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Update {
            tid: Tid(2),
            oid: Oid(2),
            before: None,
            after: Some(b"b".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Commit {
            tids: vec![Tid(1), Tid(2)],
        })
        .unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!(report.winners, 2);
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"a");
        assert_eq!(get(&cache, &store, Oid(2)).unwrap(), b"b");
    }

    fn overwrite(tid: u64, oid: u64, after: &[u8]) -> LogRecord {
        LogRecord::Overwrite {
            tid: Tid(tid),
            oid: Oid(oid),
            after: Some(after.to_vec()),
        }
    }

    #[test]
    fn an_overwrite_takes_its_before_image_from_the_log() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: None,
            after: Some(b"v1".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        log.append(&overwrite(2, 1, b"v2")).unwrap();
        log.append(&overwrite(2, 1, b"v3")).unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!((report.redone, report.losers, report.undone), (3, 1, 2));
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"v1");
        // newest first, then the Abort: the runtime's abort, in the log
        let logged: Vec<LogRecord> = log.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(
            logged[4..],
            [
                LogRecord::Clr {
                    oid: Oid(1),
                    image: Some(b"v2".to_vec())
                },
                LogRecord::Clr {
                    oid: Oid(1),
                    image: Some(b"v1".to_vec())
                },
                LogRecord::Abort { tid: Tid(2) },
            ]
        );
    }

    /// The self-containment invariant: an `Overwrite` of an object no
    /// earlier record of this log installed has no before image anywhere.
    #[test]
    fn an_overwrite_with_no_earlier_image_is_corrupt() {
        let (log, cache, store) = setup();
        store.put(Oid(1), b"in the store, not in the log").unwrap();
        log.append(&overwrite(1, 1, b"v")).unwrap();
        let err = recover(&log, &cache, &store).unwrap_err();
        assert!(matches!(err, AssetError::Corrupt(_)), "{err}");

        // nor does an image from before a checkpoint marker count
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: None,
            after: Some(b"v1".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Checkpoint).unwrap();
        log.append(&overwrite(2, 1, b"v2")).unwrap();
        assert!(recover(&log, &cache, &store).is_err());
    }

    #[test]
    fn losers_are_undone_newest_first_across_transactions() {
        let (log, cache, store) = setup();
        // t1 then t2 (cooperating) write the same object; neither commits
        log.append(&LogRecord::Update {
            tid: Tid(1),
            oid: Oid(1),
            before: Some(b"v0".to_vec()),
            after: Some(b"v1".to_vec()),
        })
        .unwrap();
        log.append(&overwrite(2, 1, b"v2")).unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!((report.losers, report.undone), (2, 2));
        assert_eq!(get(&cache, &store, Oid(1)).unwrap(), b"v0");
        let tail: Vec<LogRecord> = log.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(
            tail[2..],
            [
                LogRecord::Clr {
                    oid: Oid(1),
                    image: Some(b"v1".to_vec())
                },
                LogRecord::Clr {
                    oid: Oid(1),
                    image: Some(b"v0".to_vec())
                },
                LogRecord::Abort { tid: Tid(1) },
                LogRecord::Abort { tid: Tid(2) },
            ]
        );
    }

    #[test]
    fn report_carries_the_highest_ids_in_the_log() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Update {
            tid: Tid(4),
            oid: Oid(70),
            before: None,
            after: Some(b"a".to_vec()),
        })
        .unwrap();
        log.append(&LogRecord::Commit {
            tids: vec![Tid(4), Tid(9)],
        })
        .unwrap();
        log.append(&LogRecord::Clr {
            oid: Oid(71),
            image: None,
        })
        .unwrap();
        let report = recover(&log, &cache, &store).unwrap();
        assert_eq!((report.max_tid, report.max_oid), (9, 71));
        assert!(store.oids().is_empty(), "restart does not write the store");
    }
}
