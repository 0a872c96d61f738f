//! # asset-storage
//!
//! An EOS-style storage substrate for the ASSET transaction facility
//! (Biliris et al., SIGMOD 1994), re-implementing the mode of operation the
//! paper describes in §4: applications operate directly on objects in a
//! **shared cache**; short-duration **latches** (S/X, test-and-set with an
//! S-counter and writer-starvation avoidance) protect individual accesses;
//! a **write-ahead log** records before/after images for undo/redo; pages
//! live in a **heap file** behind a **buffer pool**.
//!
//! Layering, bottom-up:
//!
//! * [`failpoints`] — named fault-injection sites (active only with the
//!   `faults` feature);
//! * [`page`] / [`slotted`] — raw pages and the slotted-record layout;
//! * [`heapfile`] — page stores (in-memory and file-backed);
//! * [`buffer`] — a clock-eviction buffer pool;
//! * [`store`] — the persistent object store (oid → record);
//! * [`latch`] — the EOS latch (§4.1);
//! * [`cache`] — the shared object cache with per-object latches;
//! * [`log`] — WAL records and the log manager;
//! * [`recovery`] — restart recovery: one pass over the log, then the
//!   runtime's own logged undo for the losers;
//! * [`engine`] — the assembled [`StorageEngine`] facade.

#![warn(missing_docs)]

pub mod buffer;
pub mod cache;
pub mod engine;
pub mod failpoints;
pub mod heapfile;
pub mod latch;
pub mod log;
pub mod page;
pub mod recovery;
pub mod slotted;
pub mod store;

pub use cache::{CachedObject, ObjectCache};
pub use engine::{CompactionReport, StorageEngine};
pub use latch::Latch;
pub use log::{FlushCallback, GroupFlusher, LogManager, LogRecord, LogWatermarks, RecordRef};
pub use recovery::{recover, InDoubt, PendingUpdate, RecoveryReport};
pub use store::ObjectStore;
