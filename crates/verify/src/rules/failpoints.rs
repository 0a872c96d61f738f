//! **R3 `failpoint_coverage`** — every durable write is crash-testable.
//!
//! The deterministic fault-injection harness (PR 3) can only exercise a
//! crash point that is guarded by a `failpoint!` / `failpoint_sync!`
//! evaluation. This rule requires every durable-write call site in
//! `asset-storage` (`write_all`, `write_all_at`, `sync_data`, `sync_all`,
//! `set_len`) to be *dominated* — preceded in the same function body — by
//! a failpoint macro or a call to a failpoint-checker function (detected
//! by body inspection: the fn evaluates the macros or consults the fault
//! registry). A checker is no exception: its
//! own durable writes must follow a failpoint evaluation in its own body,
//! so a checker that writes first and evaluates later is reported.

use crate::lexer::Kind;
use crate::{Finding, Workspace, DURABLE_WRITES};

/// Run R3 over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for (file, item) in ws.runtime_fns() {
        if file.krate != "storage" {
            continue;
        }
        let body = ws.body(file, item);
        let mut covered = false;
        let mut i = 0usize;
        while i < body.len() {
            let t = &body[i];
            if !covered && t.kind == Kind::Ident {
                let name = t.text.as_str();
                let is_macro = name == "failpoint" || name == "failpoint_sync";
                let is_checker_call =
                    i + 1 < body.len() && body[i + 1].text == "(" && ws.checkers.contains(name);
                covered = is_macro || is_checker_call;
            }
            if !covered
                && t.kind == Kind::Ident
                && DURABLE_WRITES.contains(&t.text.as_str())
                && i > 0
                && body[i - 1].text == "."
                && i + 1 < body.len()
                && body[i + 1].text == "("
            {
                out.push(Finding {
                    rule: "failpoint_coverage",
                    file: file.path.clone(),
                    line: t.line,
                    func: item.name.clone(),
                    msg: format!(
                        "durable write `.{}()` is not dominated by a failpoint!/\
                         failpoint_sync! evaluation or a failpoint-checker call",
                        t.text
                    ),
                });
            }
            i += 1;
        }
    }
}
