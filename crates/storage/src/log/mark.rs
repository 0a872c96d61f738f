//! The WAL rule, checked by running: the log hears of a change before the
//! cache or a transaction's descriptor shows it (§4.2). In debug builds
//! outside loom each thread marks the last record it asked the log for —
//! at the attempt, since abort and undo go on after a refused append — and
//! a site that makes a logged change visible calls [`expect`] first.
//! [`StorageEngine::log_record`](crate::StorageEngine::log_record) marks a
//! forced record before the flusher takes it, whichever thread runs it.

use super::RecordRef;

/// The record a change waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An `Update` or `Overwrite` of the object.
    Write,
    /// A `Clr` of the object.
    Clr,
    /// A `Commit` naming the transaction.
    Commit,
    /// An `Abort` of the transaction.
    Abort,
    /// A `Delegate` from the transaction.
    Delegate,
    /// A `Prepared` naming the transaction.
    Prepared,
}

#[cfg(all(debug_assertions, not(loom)))]
thread_local! {
    static MARK: std::cell::RefCell<Option<(Kind, Vec<u64>)>> =
        const { std::cell::RefCell::new(None) };
}

/// Mark `rec` as the record this thread last asked the log for.
#[cfg(all(debug_assertions, not(loom)))]
pub(crate) fn note(rec: &RecordRef<'_>) {
    let mark = match *rec {
        RecordRef::Update { oid, .. } | RecordRef::Overwrite { oid, .. } => {
            Some((Kind::Write, vec![oid.raw()]))
        }
        RecordRef::Clr { oid, .. } => Some((Kind::Clr, vec![oid.raw()])),
        RecordRef::Abort { tid } => Some((Kind::Abort, vec![tid.raw()])),
        RecordRef::Delegate { from, .. } => Some((Kind::Delegate, vec![from.raw()])),
        RecordRef::Commit { tids } => Some((Kind::Commit, tids.iter().map(|t| t.raw()).collect())),
        RecordRef::Prepared { tids } => {
            Some((Kind::Prepared, tids.iter().map(|t| t.raw()).collect()))
        }
        RecordRef::Checkpoint => None,
    };
    let _ = MARK.try_with(|held| held.replace(mark));
}

/// Panic unless this thread's mark is a `kind` record naming `id`.
#[cfg(all(debug_assertions, not(loom)))]
#[track_caller]
#[expect(clippy::panic, reason = "the WAL-rule check of debug builds")]
pub fn expect(kind: Kind, id: u64) {
    let Ok(mark) = MARK.try_with(|held| held.borrow().clone()) else {
        return;
    };
    let named = mark
        .as_ref()
        .is_some_and(|(k, ids)| *k == kind && ids.contains(&id));
    if !named {
        panic!(
            "WAL rule: a change before its {kind:?} record naming {id}; \
             the last record this thread asked the log for: {mark:?}"
        );
    }
}

/// Marks `rec` in debug builds.
#[cfg(not(all(debug_assertions, not(loom))))]
#[inline(always)]
pub(crate) fn note(_rec: &RecordRef<'_>) {}

/// Checks the mark in debug builds.
#[cfg(not(all(debug_assertions, not(loom))))]
#[inline(always)]
pub fn expect(_kind: Kind, _id: u64) {}
