//! # asset-bench
//!
//! Workload generators and the experiment harness for the ASSET
//! reproduction.
//!
//! The paper contains **no quantitative tables** and a single figure (the
//! object-descriptor diagram); its evaluation is by construction. What a
//! reproduction owes it are its claims as *comparisons* (see
//! `EXPERIMENTS.md` at the repository root): this crate holds the twelve
//! experiments `asset-benchmark`'s workloads and per-layer sheet cannot
//! express, one function each, run by a row-printing harness
//! (`cargo run -p asset-bench --release --bin experiments`).

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod workload;

pub use table::Table;
