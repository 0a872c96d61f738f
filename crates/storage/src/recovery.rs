//! Restart recovery from the write-ahead log.
//!
//! The paper logs physical before/after images and undoes an aborted
//! transaction by installing before images (§4.2, `abort` step 2 — with the
//! explicit caveat that later cooperative updates are lost). Restart
//! recovery replays exactly that policy:
//!
//! 1. **Analysis** — scan the log once. Track, per transaction, the updates
//!    it is *currently responsible for*; a `Delegate` record moves matching
//!    updates from delegator to delegatee (this is what makes delegation
//!    crash-safe). Collect the commit and abort sets.
//! 2. **Redo** — reinstall every update's after image in LSN order,
//!    reconstructing the pre-crash cache state.
//! 3. **Undo** — for every *loser* (a transaction still responsible for
//!    updates with neither a commit nor a completed logged abort), install
//!    its before images in reverse LSN order — the runtime abort replayed.
//!
//! A runtime abort logs a **CLR** (compensation log record) for every undo
//! step before its `Abort` record, so completed aborts replay through the
//! redo pass in their original position and are *not* re-undone — a later
//! committed overwrite of the same object survives recovery exactly as it
//! survived at runtime.

use crate::cache::ObjectCache;
use crate::log::{LogManager, LogRecord};
use crate::store::ObjectStore;
use asset_common::{Lsn, Oid, Result, Tid};
use std::collections::{HashMap, HashSet};

/// Summary of a recovery pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Updates whose after images were reinstalled.
    pub redone: usize,
    /// Updates undone via before images.
    pub undone: usize,
    /// Transactions that committed.
    pub winners: usize,
    /// Transactions rolled back.
    pub losers: usize,
    /// Highest transaction id seen in the log (new tids must exceed it).
    pub max_tid: u64,
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
    /// Before image (for undo). The after image is the entry of
    /// [`LogAnalysis::redo`] with this `lsn`: each image is held once.
    pub before: Option<Vec<u8>>,
}

/// The outcome of the analysis pass over a log: who committed, who
/// aborted, and which uncommitted updates each transaction is responsible
/// for after all delegations are applied.
#[derive(Default, Debug)]
pub struct LogAnalysis {
    /// tid → pending updates in LSN order, post-delegation.
    pub pending: HashMap<Tid, Vec<PendingUpdate>>,
    /// Committed transactions.
    pub committed: HashSet<Tid>,
    /// Transactions with a logged abort.
    pub aborted: HashSet<Tid>,
    /// Every update's after image in log order (redo list), across all
    /// transactions.
    pub redo: Vec<(Lsn, Oid, Option<Vec<u8>>)>,
    /// tid → its prepared group, for transactions with a `Prepared` record
    /// and no later `Commit`/`Abort` (in-doubt at this point in the log).
    pub prepared: HashMap<Tid, Vec<Tid>>,
    /// Highest tid mentioned anywhere.
    pub max_tid: u64,
}

impl LogAnalysis {
    /// Move the after image of the update logged at `lsn` out of the redo
    /// list (log compaction re-logs it with its before image).
    pub fn take_after_image(&mut self, lsn: Lsn) -> Option<Vec<u8>> {
        let at = self.redo.binary_search_by_key(&lsn, |r| r.0).ok()?;
        self.redo[at].2.take()
    }
}

/// Analysis pass (paper §4.2 bookkeeping, shared by restart recovery and
/// log compaction). Consumes the scanned records: every image moves into
/// the analysis, none is copied.
pub fn analyze(records: Vec<(Lsn, LogRecord)>) -> LogAnalysis {
    let mut a = LogAnalysis::default();
    for (lsn, rec) in records {
        match rec {
            LogRecord::Begin { tid } => {
                a.max_tid = a.max_tid.max(tid.raw());
            }
            LogRecord::Update {
                tid,
                oid,
                before,
                after,
            } => {
                a.max_tid = a.max_tid.max(tid.raw());
                a.pending
                    .entry(tid)
                    .or_default()
                    .push(PendingUpdate { lsn, oid, before });
                a.redo.push((lsn, oid, after));
            }
            LogRecord::Commit { tids } => {
                for t in tids {
                    a.max_tid = a.max_tid.max(t.raw());
                    a.committed.insert(t);
                    // a committed transaction's pending updates are winners
                    a.pending.remove(&t);
                    a.prepared.remove(&t);
                }
            }
            LogRecord::Abort { tid } => {
                a.max_tid = a.max_tid.max(tid.raw());
                a.aborted.insert(tid);
                // the runtime abort logged a CLR for every undo step, so
                // this transaction's rollback replays via the redo pass;
                // it is not a loser and must not be re-undone (that would
                // clobber later committed overwrites).
                a.pending.remove(&tid);
                a.prepared.remove(&tid);
            }
            LogRecord::Prepared { tids } => {
                for t in &tids {
                    a.max_tid = a.max_tid.max(t.raw());
                    a.prepared.insert(*t, tids.clone());
                }
            }
            LogRecord::Delegate { from, to, obs } => {
                a.max_tid = a.max_tid.max(from.raw().max(to.raw()));
                let moved: Vec<PendingUpdate> = match a.pending.get_mut(&from) {
                    None => Vec::new(),
                    Some(list) => match obs {
                        None => std::mem::take(list),
                        Some(set) => {
                            let set: HashSet<Oid> = set.into_iter().collect();
                            let (take, keep): (Vec<_>, Vec<_>) =
                                list.drain(..).partition(|u| set.contains(&u.oid));
                            *list = keep;
                            take
                        }
                    },
                };
                if !moved.is_empty() {
                    let dst = a.pending.entry(to).or_default();
                    dst.extend(moved);
                    dst.sort_by_key(|u| u.lsn);
                }
            }
            LogRecord::Clr { oid, image } => {
                // redo-only: replayed in order, never undone
                a.redo.push((lsn, oid, image));
            }
            LogRecord::Checkpoint => {
                // Checkpoint: everything settled at this point is already
                // in the store. Analysis state resets; records re-logged by
                // compaction for live transactions follow the checkpoint.
                a.pending.clear();
                a.committed.clear();
                a.aborted.clear();
                a.redo.clear();
                a.prepared.clear();
            }
        }
    }
    a
}

/// Replay `log` into `cache`, then flush the cache to `store`.
pub fn recover(
    log: &LogManager,
    cache: &ObjectCache,
    store: &ObjectStore,
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();

    let analysis = analyze(log.scan_and_chop()?);
    let LogAnalysis {
        mut pending,
        committed,
        aborted: _aborted,
        redo,
        prepared,
        max_tid,
    } = analysis;
    report.max_tid = max_tid;

    // --- Redo -------------------------------------------------------------
    report.redone = redo.len();
    for (_, oid, after) in redo {
        cache.install(oid, after);
    }

    // --- In-doubt ---------------------------------------------------------
    // A prepared transaction with no later decision is neither winner nor
    // loser: its updates stay redone (durable-but-undecided) and the caller
    // resolves it when the coordinator's decision arrives (DESIGN.md §14.3).
    let mut in_doubt: Vec<InDoubt> = prepared
        .into_iter()
        .map(|(tid, group)| InDoubt {
            tid,
            group,
            updates: pending.remove(&tid).unwrap_or_default(),
        })
        .collect();
    in_doubt.sort_by_key(|d| d.tid.raw());
    report.in_doubt = in_doubt;

    // --- Undo -------------------------------------------------------------
    // Losers: any transaction still responsible for updates and not in the
    // committed set (including logged aborts: re-undo is idempotent).
    let mut undo: Vec<PendingUpdate> = Vec::new();
    for (tid, ups) in pending {
        if !committed.contains(&tid) {
            report.losers += 1;
            undo.extend(ups);
        }
    }
    undo.sort_by_key(|u| std::cmp::Reverse(u.lsn));
    report.undone = undo.len();
    for u in undo {
        cache.install(u.oid, u.before);
    }

    report.winners = committed.len();

    // --- Make it durable --------------------------------------------------
    cache.flush(store)?;
    store.flush()?;
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

    fn get(store: &ObjectStore, oid: Oid) -> Option<Vec<u8>> {
        store.get(oid).unwrap()
    }

    #[test]
    fn committed_updates_are_redone() {
        let (log, cache, store) = setup();
        log.append(&LogRecord::Begin { tid: Tid(1) }).unwrap();
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
        assert_eq!(get(&store, Oid(10)).unwrap(), b"v1");
        assert_eq!(report.max_tid, 1);
    }

    #[test]
    fn uncommitted_updates_are_undone() {
        let (log, cache, store) = setup();
        store.put(Oid(10), b"orig").unwrap();
        log.append(&LogRecord::Begin { tid: Tid(1) }).unwrap();
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
        assert_eq!(get(&store, Oid(10)).unwrap(), b"orig");
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
        assert_eq!(get(&store, Oid(5)), None);
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"new1");
        assert_eq!(get(&store, Oid(2)).unwrap(), b"orig2");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"a");
        assert_eq!(get(&store, Oid(2)).unwrap(), b"b");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"orig");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"t2-committed");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"a0");
        assert_eq!(get(&store, Oid(2)).unwrap(), b"b0");
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
        let r2 = recover(&log, &ObjectCache::new(), &store).unwrap();
        assert_eq!(r1.redone, r2.redone);
        assert_eq!(get(&store, Oid(1)).unwrap(), b"committed");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"settled");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"v0");
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
            get(&store, Oid(1)).unwrap(),
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"v");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"v0");
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
        let r2 = recover(&log, &ObjectCache::new(), &store).unwrap();
        assert_eq!(r1.in_doubt, r2.in_doubt);
        assert_eq!(get(&store, Oid(1)).unwrap(), b"p");
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
        assert_eq!(get(&store, Oid(1)).unwrap(), b"a");
        assert_eq!(get(&store, Oid(2)).unwrap(), b"b");
    }
}
