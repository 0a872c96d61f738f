//! **R1 `wal`** — WAL discipline.
//!
//! ASSET's recovery correctness (paper §4) rests on the undo/redo log
//! describing every state transition *before* the in-memory transaction
//! tables reflect it. The rule has three parts:
//!
//! 1. Every `// verify: wal(logs = "...", mutates = "...")` contract (on
//!    the line above a function) is checked: the first call to the `logs`
//!    function must textually precede the first occurrence of the
//!    `mutates` token sequence in the body.
//! 2. The `logs` callee must actually reach a durable append sink
//!    (`write_all` / `sync_data` / buffer extend) through the call graph —
//!    a contract naming a function that never persists anything is stale.
//! 3. Inventory completeness: any runtime function in `asset-core` or
//!    `asset-storage` that calls `log_record` directly must carry a
//!    contract (or an explicit suppression), so new log-writing code
//!    cannot silently skip the ordering check.
//! 4. `Prepared` is entered only through a forced record (§14.2): a
//!    function in any scanned crate that calls
//!    `.set_status(TxnStatus::Prepared)` must construct
//!    `LogRecord::Prepared` earlier in its body. Recovery re-materializes
//!    the state through a struct initializer, a different shape, and is
//!    deliberately exempt.

use crate::lexer::{lex, Kind, Tok};
use crate::{Finding, Workspace};

/// Run R1 over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for (file, item) in ws.runtime_fns() {
        let body = ws.body(file, item);
        check_prepared_entry(file, item, body, out);
        if file.krate != "core" && file.krate != "storage" {
            continue;
        }
        match file.contracts.iter().find(|c| c.line + 1 == item.line) {
            Some(c) => {
                if c.logs.is_empty() || c.mutates.is_empty() {
                    out.push(finding(
                        file,
                        item,
                        item.line,
                        "wal contract needs both `logs` and `mutates` arguments".into(),
                    ));
                    continue;
                }
                check_contract(ws, file, item, body, &c.logs, &c.mutates, out);
            }
            None => {
                // Inventory: direct log_record callers must be annotated.
                if item.name != "log_record" {
                    if let Some(i) = first_call(body, "log_record") {
                        out.push(finding(
                            file,
                            item,
                            body[i].line,
                            "calls `log_record` but carries no `// verify: wal(logs, mutates)` \
                             contract"
                                .into(),
                        ));
                    }
                }
            }
        }
    }
}

fn check_contract(
    ws: &Workspace,
    file: &crate::SrcFile,
    item: &crate::parse::FnItem,
    body: &[Tok],
    logs: &str,
    mutates: &str,
    out: &mut Vec<Finding>,
) {
    let log_idx = match first_call(body, logs) {
        Some(i) => i,
        None => {
            out.push(finding(
                file,
                item,
                item.line,
                format!("wal contract names `{logs}` but the body never calls it"),
            ));
            return;
        }
    };
    if !ws.reaches_sink(logs) {
        out.push(finding(
            file,
            item,
            body[log_idx].line,
            format!("`{logs}` does not reach a durable append sink through the call graph"),
        ));
    }
    let pattern: Vec<String> = lex(mutates).0.into_iter().map(|t| t.text).collect();
    let mut_idx = match find_seq(body, &pattern) {
        Some(i) => i,
        None => {
            out.push(finding(
                file,
                item,
                item.line,
                format!("wal contract is stale: `{mutates}` does not occur in the body"),
            ));
            return;
        }
    };
    if mut_idx < log_idx {
        out.push(finding(
            file,
            item,
            body[mut_idx].line,
            format!(
                "mutates tracked state (`{mutates}`, line {}) before logging via `{logs}` \
                 (line {}) — the WAL record must land first",
                body[mut_idx].line, body[log_idx].line
            ),
        ));
    }
}

/// Part 4: `.set_status(TxnStatus::Prepared)` needs an earlier
/// `LogRecord::Prepared` in the same body.
fn check_prepared_entry(
    file: &crate::SrcFile,
    item: &crate::parse::FnItem,
    body: &[Tok],
    out: &mut Vec<Finding>,
) {
    let assign = [".", "set_status", "(", "TxnStatus", "::", "Prepared"].map(String::from);
    let Some(at) = find_seq(body, &assign) else {
        return;
    };
    let record = ["LogRecord", "::", "Prepared"].map(String::from);
    if find_seq(&body[..at], &record).is_none() {
        out.push(finding(
            file,
            item,
            body[at].line,
            "`status = TxnStatus::Prepared` without a forced `LogRecord::Prepared` earlier \
             in the function — the prepared state must be entered via a forced WAL record \
             (§14.2)"
                .into(),
        ));
    }
}

/// Index of the first call to `name` (`name(` or `.name(`).
fn first_call(body: &[Tok], name: &str) -> Option<usize> {
    let mut i = 0usize;
    while i + 1 < body.len() {
        if body[i].kind == Kind::Ident && body[i].text == name && body[i + 1].text == "(" {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// First index where the token texts of `pattern` occur consecutively.
fn find_seq(body: &[Tok], pattern: &[String]) -> Option<usize> {
    if pattern.is_empty() || body.len() < pattern.len() {
        return None;
    }
    let mut i = 0usize;
    while i + pattern.len() <= body.len() {
        let mut k = 0usize;
        while k < pattern.len() && body[i + k].text == pattern[k] {
            k += 1;
        }
        if k == pattern.len() {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn finding(file: &crate::SrcFile, item: &crate::parse::FnItem, line: u32, msg: String) -> Finding {
    Finding {
        rule: "wal",
        file: file.path.clone(),
        line,
        func: item.name.clone(),
        msg,
    }
}
