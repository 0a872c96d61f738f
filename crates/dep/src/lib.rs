//! # asset-dep
//!
//! The transaction dependency graph of ASSET (paper §4): commit (CD), abort
//! (AD) and group-commit (GC) dependencies between transactions, with the
//! commit-gate evaluation the §4.2 `commit` protocol needs, abort
//! propagation, and cycle prevention on `form_dependency`.

#![warn(missing_docs)]

pub mod graph;

pub use graph::{CommitGate, DepGraph, DepSummary, TermState};
