//! # asset
//!
//! A Rust reproduction of **ASSET: A System for Supporting Extended
//! Transactions** (A. Biliris, S. Dar, N. Gehani, H. V. Jagadish,
//! K. Ramamritham — SIGMOD 1994).
//!
//! ASSET replaces the fixed atomic transaction model with a small set of
//! *primitives* from which applications compose their own transaction
//! semantics:
//!
//! | Primitive | Meaning |
//! |---|---|
//! | `initiate` / `begin` | register a transaction, then start it (separated so you can delegate to / permit a transaction before it runs) |
//! | `commit` | blocking commit: waits for completion and for every dependency gate |
//! | `wait` / `abort` / `self` / `parent` | as in any TP monitor |
//! | `delegate(ti, tj, obs)` | transfer responsibility for uncommitted operations (locks + undo) |
//! | `permit(ti, tj, obs, ops)` | allow conflicting operations, transitively |
//! | `form_dependency(CD/AD/GC, ti, tj)` | commit / abort / group-commit dependencies |
//!
//! For throughput-bound workloads, [`Database::submit`] runs a transaction
//! as a resumable state machine ([`TxnStep`]) on a fixed worker pool, with
//! commit records batched by the group-commit log flusher into one
//! write+fsync per flush window (`DESIGN.md` §12).
//!
//! This facade re-exports the whole workspace:
//!
//! * [`asset_core`] ([`Database`], [`TxnCtx`]) — the primitives;
//! * [`asset_models`] — nested, split/join, sagas, contingent, distributed,
//!   cooperating transactions, cursor stability, and workflows, each built
//!   from the primitives exactly as §3 of the paper prescribes;
//! * [`asset_storage`] — the EOS-style substrate (shared object cache,
//!   latches, WAL, recovery);
//! * [`asset_lock`] — the lock manager with permits and suspension;
//! * [`asset_dep`] — the dependency graph;
//! * [`asset_mlt`] — multi-level transactions with commutativity-based
//!   semantic locking and logical undo (the paper's §5 future work);
//! * [`asset_obs`] — the observability layer: lifecycle counters, wait-free
//!   histograms, and a structured event trace of every primitive
//!   (`Database::metrics_snapshot` / `Database::obs`);
//! * [`asset_trace`] — causal span reconstruction over that event trace,
//!   plus exporters: Chrome trace-event JSON (Perfetto), a Prometheus
//!   text endpoint, Graphviz DOT of the waits-for and dependency graphs,
//!   and the `asset-top` live monitor;
//! * [`asset_faults`] — deterministic fault injection: named failpoints in
//!   the storage and transaction layers (compiled in only with the
//!   `faults` feature) that the crash-recovery matrix drives;
//! * [`asset_server`] — the network server: the `DESIGN.md` §13
//!   length-prefixed wire protocol over TCP, connections mapped onto
//!   executor-driven session transactions, commit acks riding the
//!   group-commit flush window;
//! * [`asset_client`] — the blocking wire client: pipelined requests,
//!   typed operations, and the conservation-preserving money-ledger
//!   helpers the E16 workload drives;
//! * [`asset_coord`] — distributed commit across nodes (`DESIGN.md`
//!   §14): one Paxos Commit coordinator (one acceptor: classic 2PC;
//!   2F + 1: non-blocking) over the participants' prepare/decide
//!   primitive, with in-process and TCP transports.
//!
//! ## Quickstart
//!
//! ```
//! use asset::{Database, DepType};
//!
//! let db = Database::in_memory();
//!
//! // Two transactions with a group-commit dependency: both or neither.
//! let a = db.new_oid();
//! let b = db.new_oid();
//! let t1 = db.initiate(move |ctx| ctx.write(a, b"alpha".to_vec())).unwrap();
//! let t2 = db.initiate(move |ctx| ctx.write(b, b"beta".to_vec())).unwrap();
//! db.form_dependency(DepType::GC, t1, t2).unwrap();
//! db.begin_many(&[t1, t2]).unwrap();
//! assert!(db.commit(t1).unwrap()); // commits the whole group
//! assert_eq!(db.peek(b).unwrap().unwrap(), b"beta");
//! ```

#![warn(missing_docs)]

pub use asset_client as client;
pub use asset_common as common;
pub use asset_coord as coord;
pub use asset_core as txn;
pub use asset_dep as dep;
pub use asset_faults as faults;
pub use asset_lock as lock;
pub use asset_mlt as mlt;
pub use asset_models as models;
pub use asset_obs as obs;
pub use asset_server as server;
pub use asset_storage as storage;
pub use asset_trace as trace;

pub use asset_common::{
    AssetError, Config, DepType, Durability, LockMode, ObSet, Oid, OpSet, Operation, Result, Tid,
    TxnStatus,
};
pub use asset_core::{
    Database, Handle, ObjectCodec, StepCtx, StepProg, TryOp, TxnCtx, TxnOutcome, TxnStep,
};
pub use asset_models::{
    run_atomic, run_contingent, run_distributed, run_nested, subtransaction, Saga, SagaOutcome,
    Workflow, WorkflowOutcome,
};
