//! # asset-annot
//!
//! Invariant-annotation attributes for the ASSET workspace. Every macro in
//! this crate is a **no-op at compile time**: it returns the annotated item
//! unchanged and generates no code. The annotations exist to be read by
//! `asset-verify` (the workspace invariant analyzer), which parses source
//! text rather than expanded token streams — the attributes are the
//! machine-checked inventory of WAL-ordering contracts and rule
//! suppressions.
//!
//! See `DESIGN.md` §11 for the rule catalog and suppression syntax.

use proc_macro::TokenStream;

/// Declare a WAL-discipline contract on a function (rule **R1**).
///
/// `#[wal(logs = "log_record", mutates = "slot.status = TxnStatus::Running")]`
/// asserts that the first call to a log-reaching function matching `logs`
/// textually precedes the first occurrence of the `mutates` token sequence
/// in the function body. `asset-verify` checks the ordering and that the
/// `logs` callee actually reaches an append sink through the call graph.
#[proc_macro_attribute]
pub fn wal(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}

/// Suppress one named `asset-verify` rule for the annotated function.
///
/// `#[verify_allow(lock_order, reason = "ordered multi-lock helper")]`
/// — the rule name is one of `wal`, `lock_order`, `failpoint_coverage`,
/// `exec_step`, `status_flow`; the `reason` is mandatory and is surfaced by
/// the analyzer in `--list-allows` output so suppressions stay auditable.
#[proc_macro_attribute]
pub fn verify_allow(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}

/// Mark a function as an **executor worker step** for rule **R5**: the
/// function runs on a worker-pool thread that drives many transactions,
/// so it must never block — no condvar waits, sleeps, fsyncs, joins,
/// channel receives, or synchronous flusher submissions. Suspension is
/// expressed only by *returning* a `TxnStep::Wait*` value; the scheduler
/// parks the transaction and a wake hook requeues it. `asset-verify`
/// scans annotated functions for blocking calls.
#[proc_macro_attribute]
pub fn exec_step(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
