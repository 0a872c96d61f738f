//! # asset-storage
//!
//! An EOS-style storage substrate for the ASSET transaction facility
//! (Biliris et al., SIGMOD 1994), re-implementing the mode of operation the
//! paper describes in §4: applications operate directly on objects in a
//! **shared cache**; short-duration **latches** (S/X, test-and-set with an
//! S-counter and writer-starvation avoidance) protect individual accesses;
//! a **write-ahead log** records before/after images for undo/redo; a
//! checkpoint writes every object into **one image file**.
//!
//! Layering, bottom-up:
//!
//! * [`failpoints`] — named fault-injection sites (active only with the
//!   `faults` feature); `durable` — every file write, cut and sync, each
//!   through the failpoint that guards it;
//! * [`latch`] — the EOS latch (§4.1);
//! * [`cache`] — the shared object cache with per-object latches, the one
//!   map of objects;
//! * [`store`] — the persistent object store: where the cache's image
//!   lives, replaced whole by each checkpoint;
//! * [`log`] — WAL records and the log manager;
//! * [`recovery`] — restart recovery: one pass over the log, then the
//!   runtime's own logged undo for the losers;
//! * [`engine`] — the assembled [`StorageEngine`] facade.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub mod cache;
mod durable;
pub mod engine;
pub mod failpoints;
pub mod latch;
pub mod log;
pub mod recovery;
pub mod store;

pub use cache::{CachedObject, ObjectCache};
pub use engine::StorageEngine;
pub use latch::Latch;
pub use log::{
    FlushCallback, GroupFlusher, LogManager, LogPlace, LogRecord, LogWatermarks, RecordRef,
};
pub use recovery::{recover, InDoubt, PendingUpdate, RecoveryReport};
pub use store::ObjectStore;
