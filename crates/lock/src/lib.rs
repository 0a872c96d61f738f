//! # asset-lock
//!
//! The ASSET lock manager (paper §4): transaction-duration read/write locks
//! organized as object descriptors (OD) with lists of lock-request
//! descriptors (LRD), a doubly-hashed permit-descriptor (PD) table with
//! **transitive** permission semantics, permit-driven lock *suspension*,
//! delegation of locks between transactions, and a waits-for-graph deadlock
//! detector (our addition; the paper is silent on data deadlocks).
//!
//! A lock is requested one way — [`LockTable::request`], a non-blocking
//! pass that queues a blocked request on the object's pending list with a
//! [`Waker`](std::task::Waker) — and waited for in whatever way the caller
//! can: [`LockTable::lock`] sleeps its thread between passes, an executor
//! parks a task. The table wakes both alike and accounts their waits alike
//! (`table.rs`; `waits.rs` holds what a waiter keeps outside its stripe).
//!
//! Layered *above* the storage crate's latches: a latch protects one
//! physical access, a lock protects a transaction's claim until commit,
//! abort or delegation.

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

pub mod permit;
pub mod table;
pub mod waits;

pub use permit::{Permit, PermitTable};
pub use table::{LockTable, Lrd, PendingReq, StripeOccupancy, StripeStats};
pub use waits::WaitGraph;
