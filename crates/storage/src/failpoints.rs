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

/// In the log's append path: after the records are encoded, before they
/// are accepted into the user-space buffer. `Torn` cuts short the write
/// that would have carried them: a byte prefix of the block being
/// assembled (the buffer, these records included) reaches the file with no
/// seal behind it, then the process crashes — restart sees none of it.
pub const LOG_APPEND: &str = "log.append.write";

/// Guarding every `sync_data` of a log drain
/// ([`LogManager::drain`](crate::LogManager::drain): forced appends under
/// strict durability, and [`LogManager::flush`](crate::LogManager::flush)).
/// `ElideSync` skips the sync while reporting success.
pub const LOG_SYNC: &str = "log.sync";

/// In [`LogManager::drain`](crate::LogManager::drain): after the pending
/// buffer is swapped out and sealed, before its one `write` to the OS.
/// `Error` puts the bytes back, sealed; `Torn` writes a byte prefix of
/// them — a block without its seal, after any whole blocks an earlier
/// failed drain had put back — then crashes.
pub const LOG_FLUSH: &str = "log.flush.write";

/// Before the log is cut: in
/// [`LogManager::rewrite`](crate::LogManager::rewrite) (checkpoint, log
/// compaction), before the replacement file is created; and in
/// [`LogManager::replay`](crate::LogManager::replay), before a torn tail is
/// cut off at recovery.
pub const LOG_TRUNCATE: &str = "log.truncate";

/// In [`LogManager::rewrite`](crate::LogManager::rewrite): the next
/// generation is whole and synced in its file beside the log,
/// which is not yet renamed over it. A crash here leaves the old log.
pub const LOG_REWRITE_BEFORE_RENAME: &str = "log.rewrite.before_rename";

/// In [`LogManager::rewrite`](crate::LogManager::rewrite): the new file
/// has the log's name and the manager has moved over to it; the directory
/// is not yet synced. A crash here leaves either log, both of them whole.
pub const LOG_REWRITE_AFTER_RENAME: &str = "log.rewrite.after_rename";

/// In `FilePageStore::{write_page, allocate}`: before the page's bytes
/// reach the heap file. `Torn` writes a prefix of the page, then crashes.
pub const STORE_PAGE_WRITE: &str = "store.page.write";

/// Guarding `sync_data` on the heap file (`FilePageStore::sync`).
pub const STORE_SYNC: &str = "store.sync";

/// In [`StorageEngine::checkpoint`](crate::StorageEngine::checkpoint):
/// after cache and store are flushed, before the log is replaced by its
/// checkpoint marker (whose two sides are [`LOG_REWRITE_BEFORE_RENAME`]
/// and [`LOG_REWRITE_AFTER_RENAME`]).
pub const CHECKPOINT_BEFORE_TRUNCATE: &str = "checkpoint.before_truncate";

/// In [`recover`](crate::recover)'s undo phase: before each undo step (a
/// loser's before image installed and its CLR appended) and once more
/// before the losers' `Abort` records. `Crash` at the n-th hit leaves a
/// rollback that restart itself only half logged; the next restart must
/// converge to the same state.
pub const RECOVERY_UNDO: &str = "recovery.undo";

/// In [`GroupFlusher`](crate::log::GroupFlusher): while the flusher thread
/// assembles a flush window, before any of the window's commit records is
/// appended. `Torn` appends the window's records and then cuts short the
/// write that would have carried them, as at [`LOG_APPEND`]: a byte prefix
/// of the window's block lands, unsealed, and the process crashes —
/// modelling a crash with the window half-written.
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
    LOG_REWRITE_BEFORE_RENAME,
    LOG_REWRITE_AFTER_RENAME,
    STORE_PAGE_WRITE,
    STORE_SYNC,
    CHECKPOINT_BEFORE_TRUNCATE,
    RECOVERY_UNDO,
    FLUSH_WINDOW_ASSEMBLE,
    FLUSH_WINDOW_SYNC,
];
