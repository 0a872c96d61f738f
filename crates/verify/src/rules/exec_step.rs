//! **R5 `exec_step`** — no blocking calls inside executor worker steps.
//!
//! Functions annotated `#[exec_step]` run on worker-pool threads that
//! multiplex many transactions; one blocking call stalls every transaction
//! queued behind it. Suspension must be *returned* (`TxnStep::WaitLock`,
//! `WaitDep`, `WaitFlush`) so the scheduler can park the transaction and a
//! wake hook can requeue it — never awaited in place. This rule flags
//! direct calls to blocking primitives in annotated bodies: condvar waits,
//! event-count waits, sleeps, fsyncs, thread joins/parks, channel
//! receives, and synchronous flusher submissions.
//!
//! The check is per-function and syntactic: a helper called from a
//! step is either annotated `#[exec_step]` itself (and checked on its own)
//! or audited at the boundary. Lock *mutex* acquisitions (`.lock()`) are
//! deliberately not flagged — stripe and shard mutexes are short critical
//! sections the whole engine relies on; the rule targets unbounded waits.

use crate::lexer::Kind;
use crate::{Finding, Workspace};

/// Blocking primitives an executor step must never call directly. Matched
/// as `.name(` or `::name(` so field accesses and unrelated identifiers
/// don't trip the rule.
pub const BLOCKING_CALLS: [&str; 14] = [
    "wait",
    "wait_until",
    "wait_while",
    "wait_timeout",
    "wait_event",
    "sleep",
    "sync_data",
    "sync_all",
    "join",
    "recv",
    "recv_timeout",
    "submit_and_wait",
    "park",
    "park_timeout",
];

/// Run R5 over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for (file, item) in ws.runtime_fns() {
        if !item.attrs.iter().any(|a| a.name == "exec_step") {
            continue;
        }
        let body = ws.body(file, item);
        let mut i = 0usize;
        while i < body.len() {
            let t = &body[i];
            let called = t.kind == Kind::Ident
                && i > 0
                && (body[i - 1].text == "." || body[i - 1].text == "::")
                && i + 1 < body.len()
                && body[i + 1].text == "(";
            if called && BLOCKING_CALLS.contains(&t.text.as_str()) {
                out.push(Finding {
                    rule: "exec_step",
                    file: file.path.clone(),
                    line: t.line,
                    func: item.name.clone(),
                    msg: format!(
                        "blocking call `{}` inside an executor step; \
                         return TxnStep::Wait* and park instead",
                        t.text
                    ),
                });
            }
            i += 1;
        }
    }
}
