//! # asset-trace
//!
//! Causal span tracing and export for ASSET. The `asset-obs` layer
//! captures flat events through a drop-don't-block ring; this crate turns
//! a drained trace into the *causal* picture the paper's extended
//! transaction models imply, and exports it in formats existing tools
//! load:
//!
//! * [`span`] — reconstruct a [`CausalGraph`]: one track per transaction
//!   with lock-wait / commit-gate / rollback / log-flush sub-spans, plus
//!   typed causal edges for `delegate`, `permit` (and the transitive
//!   `PermitTable::chain` chains that actually admit a request),
//!   `form_dependency` CD/AD/GC, and group-commit fan-out.
//! * [`chrome`] — Chrome trace-event JSON (Perfetto /
//!   `chrome://tracing`): one named track per transaction, flow arrows
//!   for every causal edge.
//! * [`dot`] — Graphviz DOT of the waits-for graph and the transaction
//!   dependency graph, as a point-in-time pair from
//!   [`Introspection`](asset_core::Introspection).
//! * [`top`] — frame rendering for the `asset-top` live monitor binary.
//!
//! ## Quick start
//!
//! ```
//! use asset_core::Database;
//! use asset_trace::{chrome, span::CausalGraph};
//!
//! let db = Database::in_memory();
//! db.obs().enable_tracing(0); // default ring capacity
//! let account = db.new_oid();
//! db.run(move |ctx| ctx.write(account, vec![42])).unwrap();
//!
//! let graph = CausalGraph::from_events(&db.obs().trace());
//! assert_eq!(graph.tracks.len(), 1);
//! let json = chrome::render(&graph); // load this in ui.perfetto.dev
//! assert!(json.contains("traceEvents"));
//! ```
//!
//! Everything here runs **off** the transaction hot paths: exporters read
//! already-captured snapshots and drained traces; the only live reads are
//! the same lock-free snapshot calls the rest of the system uses (§7 of
//! DESIGN.md).

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

pub mod chrome;
pub mod dot;
pub mod span;
pub mod top;

pub use span::{
    CausalEdge, CausalGraph, CommitGroup, EdgeKind, FlushFlow, Outcome, SpanKind, SubSpan, Track,
};
