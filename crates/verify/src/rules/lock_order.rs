//! **R2 `lock_order`** — stripe lock ordering.
//!
//! The workspace-wide acquisition order is:
//!
//! > txn-table shard (rank 0) → lock-table stripe (rank 1) →
//! > storage latch / cache shard (rank 2)
//!
//! Acquiring a tracked lock whose rank is ≤ the highest rank currently
//! held is a violation — that covers both same-class double acquisition
//! (two stripes, a latch under a cache-shard mutex) and order inversion
//! (a txn shard while holding a latch). The blessed ordered-multi-lock
//! helpers ([`crate::BLESSED`]) are exempt at their call sites and must
//! carry `#[verify_allow(lock_order)]` for their own bodies — a
//! consistency check enforces the annotation.
//!
//! Tracking is intraprocedural with a guard-scope model (`let`-bound
//! guards live to the end of their block or an explicit `drop`;
//! temporaries live to the end of the statement), extended one level
//! through the call graph via per-function *acquisition sets*: calling a
//! function that (transitively) acquires a class of rank ≤ a held rank is
//! flagged at the call site.

use crate::lexer::{Kind, Tok};
use crate::{
    crate_rank, Finding, Workspace, ACQUIRE_METHODS, BLESSED, CLASS_NAMES, COMMON_NAMES,
    CONSTRUCTORS,
};

/// Latch methods (rank 2 when the receiver spine names a latch).
const LATCH_METHODS: [&str; 6] = [
    "shared",
    "exclusive",
    "shared_profiled",
    "exclusive_profiled",
    "try_shared",
    "try_exclusive",
];

/// What an acquisition-candidate token resolved to.
enum Acq {
    /// A guard of this rank is produced.
    Guard(u8),
    /// The callee acquires and releases this rank internally
    /// (`locks.lock(...)` entering the lock table).
    Transient(u8),
}

/// Classify a candidate method call by receiver spine and defining crate.
fn classify(method: &str, spine: &[String], krate: &str) -> Option<Acq> {
    let has = |n: &str| spine.iter().any(|s| s == n);
    if method == "lock" {
        if has("shard") || has("shards") {
            return Some(Acq::Guard(crate_rank(krate)));
        }
        if has("locks") {
            return Some(Acq::Transient(1));
        }
        return None;
    }
    if LATCH_METHODS.contains(&method) && (has("latch") || has("latches")) {
        return Some(Acq::Guard(2));
    }
    None
}

/// Direct acquisition classes visible in a body (for acquisition sets).
pub fn direct_acquisitions(body: &[Tok], krate: &str) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < body.len() {
        if body[i].kind == Kind::Ident && body[i + 1].text == "(" {
            let name = body[i].text.as_str();
            if i > 0 && body[i - 1].text == "." && ACQUIRE_METHODS.contains(&name) {
                match classify(name, &spine(body, i - 1), krate) {
                    Some(Acq::Guard(r)) | Some(Acq::Transient(r)) => out.push(r),
                    None => {}
                }
            } else if CONSTRUCTORS.contains(&name) {
                out.push(0);
            }
        }
        i += 1;
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Walk the receiver spine leftwards from the `.` before a method call,
/// collecting the identifiers of the receiver expression
/// (`self.shard(oid).lock()` → `["self", "shard"]`).
fn spine(body: &[Tok], dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = dot;
    while k > 0 {
        k -= 1;
        let t = &body[k];
        match t.text.as_str() {
            ")" | "]" => {
                // skip the balanced group backwards
                let (close, open) = if t.text == ")" {
                    (")", "(")
                } else {
                    ("]", "[")
                };
                let mut depth = 0i64;
                loop {
                    if body[k].text == close {
                        depth += 1;
                    } else if body[k].text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
            }
            "." | "::" | "?" => {}
            _ if t.kind == Kind::Ident => out.push(t.text.clone()),
            _ => break,
        }
        // after an identifier, only `.`/`::`/`(`… chains continue the spine
        if t.kind == Kind::Ident && k > 0 {
            let prev = &body[k - 1].text;
            if prev != "." && prev != "::" {
                break;
            }
        }
    }
    out.reverse();
    out
}

/// How the acquisition statement binds its guard.
enum Binding {
    Let(String),
    Reassign(String),
    Temp,
}

/// Look back from token `i` to the start of the statement and decide the
/// binding form.
fn stmt_binding(body: &[Tok], i: usize) -> Binding {
    let mut b = i;
    while b > 0 {
        match body[b - 1].text.as_str() {
            ";" | "{" | "}" | "=>" => break,
            _ => b -= 1,
        }
    }
    let mut s = b;
    if body[s].text == "let" {
        s += 1;
        if s < body.len() && body[s].text == "mut" {
            s += 1;
        }
        if s + 1 < body.len() && body[s].kind == Kind::Ident && body[s + 1].text == "=" {
            return Binding::Let(body[s].text.clone());
        }
        return Binding::Temp;
    }
    if s + 1 < body.len() && body[s].kind == Kind::Ident && body[s + 1].text == "=" {
        return Binding::Reassign(body[s].text.clone());
    }
    Binding::Temp
}

struct Guard {
    name: Option<String>,
    rank: u8,
    line: u32,
    /// Brace depth at binding for `let` guards; `None` = statement temp.
    depth: Option<i32>,
}

/// Run R2 over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    consistency_check(ws, out);
    for (file, item) in ws.runtime_fns() {
        scan_fn(ws, file, item, out);
    }
}

/// Blessed multi-lock helpers must declare their exemption explicitly, and
/// every blessed name must name one: a stale entry would exempt the call
/// sites of any later function of that name. The second half needs all of
/// asset-lock in view, so it runs when the crate's `lib.rs` is analyzed.
fn consistency_check(ws: &Workspace, out: &mut Vec<Finding>) {
    let lock_root = ws
        .files
        .iter()
        .find(|f| f.krate == "lock" && f.path.ends_with("src/lib.rs"));
    if let Some(root) = lock_root {
        for name in BLESSED {
            let defined = ws
                .files
                .iter()
                .filter(|f| f.krate == "lock" && !f.is_test_file)
                .flat_map(|f| &f.parsed.fns)
                .any(|i| !i.is_test && i.name == name);
            if !defined {
                out.push(Finding {
                    rule: "meta",
                    file: root.path.clone(),
                    line: 1,
                    func: name.to_string(),
                    msg: format!(
                        "`{name}` is blessed, but no asset-lock function defines it; \
                         remove it from BLESSED"
                    ),
                });
            }
        }
    }
    for (file, item) in ws.runtime_fns() {
        let required = (file.krate == "lock" && BLESSED.contains(&item.name.as_str()))
            || (file.krate == "core" && CONSTRUCTORS.contains(&item.name.as_str()));
        if !required {
            continue;
        }
        let declared = item
            .attrs
            .iter()
            .any(|a| a.name == "verify_allow" && a.first_ident() == Some("lock_order"));
        if !declared {
            out.push(Finding {
                rule: "meta",
                file: file.path.clone(),
                line: item.line,
                func: item.name.clone(),
                msg: format!(
                    "`{}` is a blessed multi-lock helper; it must declare \
                     #[verify_allow(lock_order, reason = \"...\")]",
                    item.name
                ),
            });
        }
    }
}

fn scan_fn(
    ws: &Workspace,
    file: &crate::SrcFile,
    item: &crate::parse::FnItem,
    out: &mut Vec<Finding>,
) {
    let body = ws.body(file, item);
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth.is_none_or(|d| d <= depth));
            }
            ";" => guards.retain(|g| g.depth.is_some()),
            _ => {}
        }
        // drop(NAME) / mem::drop(NAME)
        if t.text == "drop"
            && i + 3 < body.len()
            && body[i + 1].text == "("
            && body[i + 2].kind == Kind::Ident
            && body[i + 3].text == ")"
        {
            let name = &body[i + 2].text;
            guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
            i += 4;
            continue;
        }
        if t.kind == Kind::Ident && i + 1 < body.len() && body[i + 1].text == "(" {
            let name = t.text.as_str();
            let is_method = i > 0 && body[i - 1].text == ".";
            let max_held = guards.iter().map(|g| g.rank).max();
            let held_line = |r: u8, gs: &[Guard]| {
                gs.iter()
                    .filter(|g| g.rank >= r)
                    .map(|g| g.line)
                    .max()
                    .unwrap_or(0)
            };
            if is_method && ACQUIRE_METHODS.contains(&name) {
                if let Some(acq) = classify(name, &spine(body, i - 1), &file.krate) {
                    match acq {
                        Acq::Guard(r) => {
                            let binding = stmt_binding(body, i);
                            if let Binding::Reassign(n) = &binding {
                                // rebind: the old guard is replaced, not
                                // held across the new acquisition
                                guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
                            }
                            if let Some(h) = guards.iter().map(|g| g.rank).max() {
                                if r <= h {
                                    out.push(violation(
                                        file,
                                        item,
                                        t.line,
                                        format!(
                                            "acquires {} while already holding {} \
                                             (acquired line {})",
                                            CLASS_NAMES[r as usize],
                                            CLASS_NAMES[h as usize],
                                            held_line(r, &guards)
                                        ),
                                    ));
                                }
                            }
                            let (gname, gdepth) = match binding {
                                Binding::Let(n) | Binding::Reassign(n) => (Some(n), Some(depth)),
                                Binding::Temp => (None, None),
                            };
                            guards.push(Guard {
                                name: gname,
                                rank: r,
                                line: t.line,
                                depth: gdepth,
                            });
                        }
                        Acq::Transient(r) => {
                            if let Some(h) = max_held {
                                if r <= h {
                                    out.push(violation(
                                        file,
                                        item,
                                        t.line,
                                        format!(
                                            "enters the lock table ({}) while holding {} \
                                             (acquired line {})",
                                            CLASS_NAMES[r as usize],
                                            CLASS_NAMES[h as usize],
                                            held_line(r, &guards)
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                    i += 1;
                    continue;
                }
            }
            if CONSTRUCTORS.contains(&name) {
                if let Some(h) = max_held {
                    // lock_group/lock_all acquire rank 0; holding anything
                    // already breaks the ascending order
                    out.push(violation(
                        file,
                        item,
                        t.line,
                        format!(
                            "constructs a txn-shard group guard while holding {} \
                             (acquired line {})",
                            CLASS_NAMES[h as usize],
                            held_line(0, &guards)
                        ),
                    ));
                }
                let binding = stmt_binding(body, i);
                let (gname, gdepth) = match binding {
                    Binding::Let(n) | Binding::Reassign(n) => (Some(n), Some(depth)),
                    Binding::Temp => (None, None),
                };
                guards.push(Guard {
                    name: gname,
                    rank: 0,
                    line: t.line,
                    depth: gdepth,
                });
                i += 1;
                continue;
            }
            if BLESSED.contains(&name) {
                i += 1;
                continue;
            }
            // `name == item.name` covers both recursion and delegation to a
            // same-named method in another layer (Database::checkpoint →
            // StorageEngine::checkpoint): the name-merged acquisition set
            // would otherwise count the caller's own locks against itself.
            if let Some(h) = max_held {
                if !COMMON_NAMES.contains(&name) && name != item.name {
                    if let Some(set) = ws.acquire.get(name) {
                        if let Some(&r) = set.iter().find(|&&r| r <= h) {
                            out.push(violation(
                                file,
                                item,
                                t.line,
                                format!(
                                    "calls `{}` which acquires {} while holding {} \
                                     (acquired line {})",
                                    name,
                                    CLASS_NAMES[r as usize],
                                    CLASS_NAMES[h as usize],
                                    held_line(r, &guards)
                                ),
                            ));
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

fn violation(
    file: &crate::SrcFile,
    item: &crate::parse::FnItem,
    line: u32,
    msg: String,
) -> Finding {
    Finding {
        rule: "lock_order",
        file: file.path.clone(),
        line,
        func: item.name.clone(),
        msg,
    }
}
