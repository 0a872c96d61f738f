//! # asset-core
//!
//! The ASSET transaction facility (Biliris, Dar, Gehani, Jagadish,
//! Ramamritham — SIGMOD 1994): a small set of transaction primitives from
//! which arbitrary extended transaction models are composed.
//!
//! * **Basic primitives** — [`Database::initiate`], [`Database::begin`],
//!   [`Database::commit`] (blocking), [`Database::wait`],
//!   [`Database::abort`], plus `self()`/`parent()` on [`TxnCtx`].
//! * **New primitives** — [`Database::delegate`] (transfer responsibility
//!   for uncommitted operations), [`Database::permit`] (let another
//!   transaction perform conflicting operations, transitively), and
//!   [`Database::form_dependency`] (CD / AD / GC).
//!
//! Transactions execute as closures on reused transaction threads — or on
//! the caller's, when it would block for the body anyway (`run`, or a
//! `wait`/`commit` that gets to a begun body first); completion is
//! distinct from commit (locks are retained and changes stay volatile until
//! the explicit `commit` runs the paper's §4.2 protocol).
//!
//! For throughput-bound workloads, [`Database::submit`] instead runs a
//! transaction as a resumable state machine ([`TxnStep`]) on a fixed
//! worker pool, and commit records from concurrent transactions are
//! batched by the group-commit log flusher into one write+fsync per flush
//! window (DESIGN.md §12).
//!
//! ```
//! use asset_core::Database;
//!
//! let db = Database::in_memory();
//! let account = db.new_oid();
//! let committed = db.run(move |ctx| {
//!     ctx.write(account, vec![100])?;
//!     Ok(())
//! }).unwrap();
//! assert!(committed);
//! assert_eq!(db.peek(account).unwrap().unwrap(), vec![100]);
//! ```

#![warn(missing_docs)]

pub mod codec;
mod context;
mod database;
mod exec;
pub mod failpoints;
mod threads;
mod txns;

#[cfg(test)]
mod tests;

pub use codec::{Handle, ObjectCodec, RawBytes};
pub use context::TxnCtx;
pub use database::{Database, DatabaseStats, Introspection, Job};
pub use exec::{StepCtx, StepProg, TryOp, TxnOutcome, TxnStep};
pub use threads::IDLE_TXN_THREADS_MAX;

// Re-export the vocabulary so `asset_core` is self-sufficient to use.
pub use asset_common::{
    AssetError, Config, DepType, Durability, LockMode, ObSet, Oid, OpSet, Operation, Result, Tid,
    TxnStatus,
};
