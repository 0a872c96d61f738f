//! # asset-dep
//!
//! The transaction dependency graph of ASSET (paper §4): commit (CD), abort
//! (AD) and group-commit (GC) edges between live transactions, with the
//! commit-gate evaluation the §4.2 `commit` protocol needs, abort
//! propagation, and cycle prevention on `form_dependency`. Fates live in
//! the transaction descriptors: a terminated transaction's edges are
//! dropped at its termination, and nothing of it stays here.

#![warn(missing_docs)]

pub mod graph;

pub use graph::{CommitGate, DepGraph, DepSummary};
