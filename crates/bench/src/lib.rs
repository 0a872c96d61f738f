//! # asset-bench
//!
//! Workload generators and the experiment harness for the ASSET
//! reproduction.
//!
//! The paper contains **no quantitative tables** and a single figure (the
//! object-descriptor diagram); its evaluation is by construction. This
//! crate supplies the quantitative characterization a reproduction needs
//! (see `EXPERIMENTS.md` at the repository root): the E1–E18 experiment
//! suite, one function per experiment, run by a row-printing harness
//! (`cargo run -p asset-bench --release --bin experiments`).

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod workload;

pub use table::Table;
