//! # asset-models
//!
//! The extended transaction models of the ASSET paper's §3, each realized
//! purely in terms of the §2 primitives (`initiate`/`begin`/`commit`/
//! `wait`/`abort`/`delegate`/`permit`/`form_dependency`) exposed by
//! [`asset_core`]:
//!
//! * [`atomic`] — `trans { ... }` (§3.1.1);
//! * [`distributed`] — parallel components with group commit (§3.1.2);
//! * [`contingent`] — ordered alternatives, at most one commits (§3.1.3);
//! * [`nested`] — subtransactions via permit + delegate (§3.1.4);
//! * [`split`](mod@split) — split/join via delegation at the split point (§3.1.5);
//! * [`saga`] — compensating transactions, `t1..tk ctk..ct1` (§3.1.6);
//! * [`coop`] — cooperating transactions via permit ping-pong + CD/GC
//!   (§3.2.1);
//! * [`cursor`] — cursor stability via wildcard write permits (§3.2.2);
//! * [`workflow`] — the workflow engine and the appendix's `X_conference`
//!   travel activity (§3.2.3 + appendix);
//! * [`mlt`] — multi-level transactions: semantic locks as locks on guard
//!   objects, kept through logical undo by `delegate` (§5 future work).
//!
//! These play the role the paper assigns to the database-language compiler:
//! users program against the model, the model emits primitive calls. They
//! share one engine: a workflow step is an atomic, contingent or
//! distributed transaction; a saga is a workflow of single steps; and
//! saga, workflow and MLT undo run through one compensation loop that
//! retries each compensation, newest first, until it commits.

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

pub mod atomic;
pub mod contingent;
pub mod coop;
pub mod cursor;
pub mod distributed;
pub mod mlt;
pub mod nested;
pub mod saga;
pub mod split;
pub mod workflow;

pub use atomic::{run_atomic, run_atomic_retrying, Action, RetryOutcome};
pub use contingent::{run_contingent, Alternative};
pub use coop::{CoopSession, Coupling};
pub use cursor::Cursor;
pub use distributed::{run_distributed, Component};
pub use nested::{required_subtransaction, run_nested, subtransaction, SubtxnOutcome};
pub use saga::{Saga, SagaOutcome, SagaTrace};
pub use split::{join, split};
pub use workflow::{Branch, Step, StepResult, Workflow, WorkflowOutcome};
