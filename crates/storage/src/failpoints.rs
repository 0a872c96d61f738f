//! Named failpoints compiled into the storage layer.
//!
//! Each constant names a site where the `faults` feature lets a test
//! harness inject a failure (see `asset-faults`): an I/O error, a torn
//! write, an elided `sync_data`, or a process-local crash. With the
//! feature off the sites expand to nothing; the constants remain so that
//! harness code can enumerate them unconditionally.
//!
//! The crash-recovery matrix (`tests/crash_matrix.rs` at the workspace
//! root) crashes a scripted workload at every point in [`ALL`] and asserts
//! the §4 recovery invariants after reopening.

/// In the log's append path: after the frames are encoded, before they
/// are accepted into the user-space buffer. `Torn` keeps a prefix of them,
/// drains it to the file (unsynced), then crashes.
pub const LOG_APPEND: &str = "log.append.write";

/// Guarding every `sync_data` of a log drain
/// ([`LogManager::drain`](crate::LogManager::drain): forced appends under
/// strict durability, and [`LogManager::flush`](crate::LogManager::flush)).
/// `ElideSync` skips the sync while reporting success.
pub const LOG_SYNC: &str = "log.sync";

/// In [`LogManager::drain`](crate::LogManager::drain): after the pending
/// buffer is swapped out, before its one `write` to the OS. `Error` puts
/// the bytes back; `Torn` writes a prefix of them, then crashes.
pub const LOG_FLUSH: &str = "log.flush.write";

/// In [`LogManager::truncate`](crate::LogManager::truncate): before the
/// file is cut to zero; and in
/// [`LogManager::replay`](crate::LogManager::replay): before a torn tail
/// is cut off at recovery.
pub const LOG_TRUNCATE: &str = "log.truncate";

/// In `FilePageStore::{write_page, allocate}`: before the page's bytes
/// reach the heap file. `Torn` writes a prefix of the page, then crashes.
pub const STORE_PAGE_WRITE: &str = "store.page.write";

/// Guarding `sync_data` on the heap file (`FilePageStore::sync`).
pub const STORE_SYNC: &str = "store.sync";

/// In [`StorageEngine::checkpoint`](crate::StorageEngine::checkpoint):
/// after cache and store are flushed, before the log is truncated.
pub const CHECKPOINT_BEFORE_TRUNCATE: &str = "checkpoint.before_truncate";

/// In [`StorageEngine::checkpoint`](crate::StorageEngine::checkpoint):
/// after the log is truncated, before the checkpoint marker is appended.
pub const CHECKPOINT_AFTER_TRUNCATE: &str = "checkpoint.after_truncate";

/// In [`recover`](crate::recover)'s undo phase: before each undo step (a
/// loser's before image installed and its CLR appended) and once more
/// before the losers' `Abort` records. `Crash` at the n-th hit leaves a
/// rollback that restart itself only half logged; the next restart must
/// converge to the same state.
pub const RECOVERY_UNDO: &str = "recovery.undo";

/// In [`GroupFlusher`](crate::log::GroupFlusher): while the flusher thread
/// assembles a flush window, before any of the window's commit records is
/// appended. `Torn` appends a prefix of the window's records (tickets, not
/// bytes), drains it to the file unsynced, then crashes — modelling a
/// crash with the window half-written.
pub const FLUSH_WINDOW_ASSEMBLE: &str = "flush.window.assemble";

/// In [`GroupFlusher`](crate::log::GroupFlusher): guarding the single
/// forced sync that makes a whole flush window durable. `ElideSync` skips
/// the sync while acknowledging every commit in the window.
pub const FLUSH_WINDOW_SYNC: &str = "flush.window.sync";

/// Every failpoint the storage layer registers, for matrix sweeps.
pub const ALL: &[&str] = &[
    LOG_APPEND,
    LOG_SYNC,
    LOG_FLUSH,
    LOG_TRUNCATE,
    STORE_PAGE_WRITE,
    STORE_SYNC,
    CHECKPOINT_BEFORE_TRUNCATE,
    CHECKPOINT_AFTER_TRUNCATE,
    RECOVERY_UNDO,
    FLUSH_WINDOW_ASSEMBLE,
    FLUSH_WINDOW_SYNC,
];
