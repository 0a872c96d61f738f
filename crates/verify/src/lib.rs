//! # asset-verify
//!
//! A workspace invariant analyzer for the ASSET codebase. It lexes the
//! runtime crates (`asset-core`, `asset-lock`, `asset-storage`,
//! `asset-server`, `asset-client`, `asset-coord`) with a purpose-built
//! lexer and enforces the two rules that need dominance over source text
//! (each rule's module documents it):
//!
//! - **R1 `wal`** — a log record lands before the state change it covers,
//!   and `Prepared` is entered only after a `LogRecord::Prepared`;
//! - **R3 `failpoint_coverage`** — every durable write in `asset-storage`
//!   is dominated by a failpoint evaluation.
//!
//! The lock order, the no-blocking rule of executor steps and the status
//! machine are checked by running the code instead, in debug builds
//! (`asset_common::sync`, DESIGN.md §11). Ids R2 and R4–R8 are retired,
//! not reused.
//!
//! Annotations are comments the lexer reads: a WAL contract is
//! `// verify: wal(logs = "...", mutates = "...")` on the line above a
//! function, and a suppression is `// verify: allow(rule) — reason` on
//! (or directly above) the offending line. Reason-less suppressions are
//! themselves findings.

pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::Path;

use lexer::{lex, Contract, Directive, Kind, Tok};
use parse::{parse_file, FnItem, ParsedFile};

/// Rule id → human prefix (`wal` → `R1`).
pub fn rule_id(rule: &str) -> &'static str {
    match rule {
        "wal" => "R1",
        "failpoint_coverage" => "R3",
        _ => "R0",
    }
}

/// The rule catalog: `(name, id, one-line description)`, in id order.
/// Drives `--help`, the SARIF `tool.driver.rules` array, and the CLI's
/// rule count.
pub const RULES: [(&str, &str, &str); 2] = [
    (
        "wal",
        "R1",
        "WAL discipline: log records land before the mutations they cover",
    ),
    (
        "failpoint_coverage",
        "R3",
        "every durable write in asset-storage is dominated by a failpoint evaluation",
    ),
];

/// Method names too generic to follow through the name-based call graph
/// (a `HashMap::insert` call must not inherit `TxnTable::insert`'s
/// behavior).
pub const COMMON_NAMES: [&str; 52] = [
    "wait",
    "with",
    "open",
    "truncate",
    "insert",
    "remove",
    "get",
    "get_mut",
    "push",
    "pop",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "extend_from_slice",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "new",
    "default",
    "lock",
    "read",
    "write",
    "drain",
    "retain",
    "take",
    "replace",
    "entry",
    "or_insert",
    "or_insert_with",
    "map",
    "map_err",
    "and_then",
    "ok",
    "ok_or",
    "err",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "to_vec",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "flush",
    "min",
];

/// Durable-write sinks for R1 reachability and R3 coverage.
pub const DURABLE_SINKS: [&str; 5] = [
    "write_all",
    "write_all_at",
    "sync_data",
    "sync_all",
    "extend_from_slice",
];

/// Durable-write methods R3 requires failpoint domination for (the on-disk
/// subset of [`DURABLE_SINKS`] plus truncation).
pub const DURABLE_WRITES: [&str; 5] = [
    "write_all",
    "write_all_at",
    "sync_data",
    "sync_all",
    "set_len",
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`wal`, `failpoint_coverage`, or `meta` for
    /// analyzer-consistency findings).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function name.
    pub func: String,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {}:{} in `{}` — {}",
            rule_id(self.rule),
            self.rule,
            self.file,
            self.line,
            self.func,
            self.msg
        )
    }
}

/// A suppressed finding, retained for `--list-allows` auditing.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The suppressed rule.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the suppressed finding.
    pub line: u32,
    /// Enclosing function.
    pub func: String,
    /// The justification supplied with the suppression.
    pub reason: String,
}

/// Result of one analyzer run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Violations that survived suppression.
    pub findings: Vec<Finding>,
    /// Suppressed violations with their reasons.
    pub allows: Vec<Allow>,
}

/// One loaded source file.
#[derive(Debug)]
pub struct SrcFile {
    /// Short crate name: `core`, `lock`, `storage`.
    pub krate: String,
    /// Workspace-relative display path.
    pub path: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Suppression directives.
    pub dirs: Vec<Directive>,
    /// WAL contracts.
    pub contracts: Vec<Contract>,
    /// Extracted items.
    pub parsed: ParsedFile,
    /// Whole file is test code (declared via `#[cfg(test)] mod x;`).
    pub is_test_file: bool,
}

/// The loaded workspace plus derived indexes.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All loaded files.
    pub files: Vec<SrcFile>,
    /// Name-based call graph over non-test functions.
    pub graph: BTreeMap<String, BTreeSet<String>>,
    /// Failpoint-checker function names (R3 coverage sources).
    pub checkers: BTreeSet<String>,
    /// Analyze the `faults`-feature configuration: functions gated
    /// `#[cfg(feature = "faults")]` are scanned and `#[cfg(not(...))]`
    /// counterparts are skipped (the default mode does the reverse).
    pub cfg_faults: bool,
}

impl Workspace {
    /// Load `crates/{core,lock,storage,server,client,coord}/src` under
    /// `root`. A missing `src` directory is an I/O error: a root that
    /// lacks one of the six crates is not the workspace.
    pub fn from_root(root: &Path) -> io::Result<Self> {
        let mut raw = Vec::new();
        for krate in ["core", "lock", "storage", "server", "client", "coord"] {
            let src = root.join("crates").join(krate).join("src");
            if !src.is_dir() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{}: no such directory", src.display()),
                ));
            }
            let mut paths = Vec::new();
            collect_rs(&src, &mut paths)?;
            paths.sort();
            for p in paths {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = std::fs::read_to_string(&p)?;
                raw.push((krate.to_string(), rel, text));
            }
        }
        Ok(Self::from_sources(raw))
    }

    /// Build a workspace from in-memory sources (used by fixture tests).
    pub fn from_sources(raw: Vec<(String, String, String)>) -> Self {
        let mut files: Vec<SrcFile> = raw
            .into_iter()
            .map(|(krate, path, text)| {
                let (toks, dirs, contracts) = lex(&text);
                let parsed = parse_file(&toks);
                SrcFile {
                    krate,
                    path,
                    toks,
                    dirs,
                    contracts,
                    parsed,
                    is_test_file: false,
                }
            })
            .collect();

        // Mark whole files declared as `#[cfg(test)] mod x;` in the same
        // crate (e.g. core/src/tests.rs).
        let mut test_mods: BTreeSet<(String, String)> = BTreeSet::new();
        for f in &files {
            for m in &f.parsed.cfg_test_mods {
                test_mods.insert((f.krate.clone(), m.clone()));
            }
        }
        for f in &mut files {
            let stem = Path::new(&f.path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let dir_name = if stem == "mod" {
                Path::new(&f.path)
                    .parent()
                    .and_then(|d| d.file_name())
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default()
            } else {
                stem.clone()
            };
            if test_mods.contains(&(f.krate.clone(), stem))
                || test_mods.contains(&(f.krate.clone(), dir_name))
            {
                f.is_test_file = true;
            }
        }

        let mut ws = Workspace {
            files,
            ..Default::default()
        };
        ws.build_graph();
        ws.build_checkers();
        ws
    }

    /// Iterate non-test functions with their file, honoring the active
    /// `faults` configuration (functions gated on the other cfg are
    /// skipped, mirroring what the compiler would build).
    pub fn runtime_fns(&self) -> impl Iterator<Item = (&SrcFile, &FnItem)> {
        let cfg_faults = self.cfg_faults;
        self.files.iter().flat_map(move |f| {
            f.parsed
                .fns
                .iter()
                .filter(move |i| !i.is_test && !f.is_test_file)
                .filter(move |i| {
                    match i.attrs.iter().find_map(|a| a.cfg_faults_gate()) {
                        Some(true) => cfg_faults,   // only with the feature
                        Some(false) => !cfg_faults, // only without it
                        None => true,
                    }
                })
                .map(move |i| (f, i))
        })
    }

    /// Body tokens of a function (including the outer braces).
    pub fn body<'a>(&self, file: &'a SrcFile, item: &FnItem) -> &'a [Tok] {
        &file.toks[item.body.0..=item.body.1]
    }

    fn build_graph(&mut self) {
        let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &self.files {
            for item in &f.parsed.fns {
                if item.is_test || f.is_test_file {
                    continue;
                }
                let body = &f.toks[item.body.0..=item.body.1];
                let entry = graph.entry(item.name.clone()).or_default();
                entry.extend(calls_of(body));
            }
        }
        self.graph = graph;
    }

    fn build_checkers(&mut self) {
        let mut checkers = BTreeSet::new();
        for f in &self.files {
            for item in &f.parsed.fns {
                let body = &f.toks[item.body.0..=item.body.1];
                if body_is_checker(body) {
                    checkers.insert(item.name.clone());
                }
            }
        }
        self.checkers = checkers;
    }

    /// Does `from` reach a durable append sink through the call graph?
    pub fn reaches_sink(&self, from: &str) -> bool {
        let mut seen = BTreeSet::new();
        let mut frontier = vec![(from.to_string(), 0usize)];
        while let Some((n, d)) = frontier.pop() {
            if DURABLE_SINKS.contains(&n.as_str()) {
                return true;
            }
            if d > 12 || !seen.insert(n.clone()) {
                continue;
            }
            if d > 0 && COMMON_NAMES.contains(&n.as_str()) {
                continue;
            }
            if let Some(callees) = self.graph.get(&n) {
                for c in callees {
                    frontier.push((c.clone(), d + 1));
                }
            }
        }
        false
    }

    /// Run every rule and apply suppressions.
    pub fn analyze(&self) -> Analysis {
        let mut raw = Vec::new();
        rules::wal::run(self, &mut raw);
        rules::failpoints::run(self, &mut raw);

        let mut out = Analysis::default();
        for f in raw {
            match self.suppression_for(&f) {
                Some(reason) => {
                    if reason.is_empty() {
                        out.findings.push(Finding {
                            rule: "meta",
                            file: f.file.clone(),
                            line: f.line,
                            func: f.func.clone(),
                            msg: format!(
                                "suppression of `{}` via line directive has no reason; add one",
                                f.rule
                            ),
                        });
                    }
                    out.allows.push(Allow {
                        rule: f.rule,
                        file: f.file,
                        line: f.line,
                        func: f.func,
                        reason,
                    });
                }
                None => out.findings.push(f),
            }
        }
        out.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        out
    }

    /// Is the finding suppressed? Returns the reason if so: a directive
    /// on the finding's line or the line above it.
    fn suppression_for(&self, f: &Finding) -> Option<String> {
        let file = self.files.iter().find(|s| s.path == f.file)?;
        file.dirs
            .iter()
            .find(|d| {
                (d.line == f.line || d.line + 1 == f.line) && d.rules.iter().any(|r| r == f.rule)
            })
            .map(|d| d.reason.clone())
    }
}

/// Collect callee names: identifiers directly followed by `(`, or macro
/// names (`ident !`). Keywords and control-flow constructs are filtered by
/// the caller's graph lookups (only defined fn names resolve).
pub fn calls_of(body: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i + 1 < body.len() {
        if body[i].kind == Kind::Ident && (body[i + 1].text == "(" || body[i + 1].text == "!") {
            out.insert(body[i].text.clone());
        }
        i += 1;
    }
    out
}

/// A function body counts as a failpoint checker if it evaluates the
/// failpoint macros or consults the fault registry directly.
fn body_is_checker(body: &[Tok]) -> bool {
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i].text;
        if t == "failpoint" || t == "failpoint_sync" {
            return true;
        }
        if t == "faults"
            && i + 2 < body.len()
            && body[i + 1].text == "."
            && body[i + 2].text == "check"
        {
            return true;
        }
        i += 1;
    }
    false
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Load and analyze the workspace under `root` in the given `faults`
/// configuration.
pub fn analyze_root_cfg(root: &Path, cfg_faults: bool) -> io::Result<Analysis> {
    let mut ws = Workspace::from_root(root)?;
    ws.cfg_faults = cfg_faults;
    Ok(ws.analyze())
}
