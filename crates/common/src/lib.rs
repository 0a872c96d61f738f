//! # asset-common
//!
//! Foundation types shared by every crate in the ASSET workspace: identifiers
//! for transactions and objects, lock modes and operation sets, dependency
//! types, transaction status, error types, and system configuration.
//!
//! The vocabulary follows the paper *ASSET: A System for Supporting Extended
//! Transactions* (Biliris, Dar, Gehani, Jagadish, Ramamritham; SIGMOD 1994):
//!
//! * a **transaction** is identified by a [`Tid`] and moves through the
//!   states of [`TxnStatus`];
//! * transactions invoke **operations** ([`Operation`]) on persistent
//!   **objects** identified by [`Oid`]s;
//! * conflicts are governed by [`LockMode`]s, relaxed by *permits* whose
//!   scope is an [`ObSet`] × [`OpSet`];
//! * inter-transaction constraints are [`DepType`] dependencies (CD/AD/GC).

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod ids;
pub mod mode;
pub mod status;
pub mod sync;

pub use config::{Config, Durability};
pub use error::{AssetError, Result};
pub use ids::{IdMap, IdSet, Lsn, Oid, Tid};
pub use mode::{DepType, LockMode, ObSet, OpSet, Operation};
pub use status::TxnStatus;
