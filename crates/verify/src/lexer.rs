//! A minimal Rust lexer: just enough to recover identifiers, punctuation
//! and literal boundaries with line numbers, while stripping comments and
//! string contents (so `.unwrap()` inside a doc comment or a log message is
//! never mistaken for code).
//!
//! `// verify: allow(rule, ...)` line comments are collected as suppression
//! directives, and `// verify: wal(logs = "...", mutates = "...")` ones as
//! WAL contracts, before being discarded.

/// Token categories. The analyzer mostly matches on exact `text`, so the
/// kinds stay coarse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Operator / delimiter (multi-character operators are one token).
    Punct,
    /// String / char / numeric literal (text is a placeholder, not content).
    Lit,
    /// A lifetime or loop label (`'a`).
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token text; literals are collapsed to `"…"` / `0`.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Coarse category.
    pub kind: Kind,
    /// For string literals only: the interior characters (attribute
    /// arguments like `logs = "log_record"` need them).
    pub raw_str: Option<String>,
}

impl Tok {
    fn new(text: impl Into<String>, line: u32, kind: Kind) -> Self {
        Tok {
            text: text.into(),
            line,
            kind,
            raw_str: None,
        }
    }
}

/// A `// verify: allow(rule, ...) — reason` suppression directive. It
/// applies to findings on its own line and the line directly below it.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule names listed inside `allow(...)`.
    pub rules: Vec<String>,
    /// Free-text justification after the closing paren (may be empty; the
    /// analyzer reports reason-less suppressions as findings).
    pub reason: String,
}

/// A `// verify: wal(logs = "...", mutates = "...")` contract (rule R1).
/// It applies to the function whose `fn` is on the line below it.
#[derive(Debug, Clone)]
pub struct Contract {
    /// 1-based line of the comment.
    pub line: u32,
    /// The function whose call must come first (empty when missing).
    pub logs: String,
    /// The token sequence of the mutation it covers (empty when missing).
    pub mutates: String,
}

/// Two-character operators emitted as single tokens. `<<`/`>>` are left
/// split so angle-bracket depth tracking in signatures stays simple (shift
/// operators cannot appear in the signature positions we scan).
const TWO: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=", "|=",
    "&=", "..",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens, suppression directives and WAL contracts.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Directive>, Vec<Contract>) {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut dirs = Vec::new();
    let mut contracts = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // line comment (may carry a directive)
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            let start = i;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if let Some((rules, reason)) = parse_directive(&text) {
                dirs.push(Directive {
                    line,
                    rules,
                    reason,
                });
            }
            if let Some((logs, mutates)) = parse_contract(&text) {
                contracts.push(Contract {
                    line,
                    logs,
                    mutates,
                });
            }
            continue;
        }
        // block comment (Rust block comments nest)
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // raw / byte string prefixes
        if (c == 'r' || c == 'b') && peek_string_start(&b, i).is_some() {
            let (ni, nl, content) = skip_string(&b, i, line);
            toks.push(Tok {
                raw_str: Some(content),
                ..Tok::new("\"…\"", line, Kind::Lit)
            });
            i = ni;
            line = nl;
            continue;
        }
        if c == '"' {
            let (ni, nl, content) = skip_string(&b, i, line);
            toks.push(Tok {
                raw_str: Some(content),
                ..Tok::new("\"…\"", line, Kind::Lit)
            });
            i = ni;
            line = nl;
            continue;
        }
        // char literal vs lifetime
        if c == '\'' {
            if i + 1 < b.len() && b[i + 1] == '\\' {
                // escaped char literal: '\n', '\u{..}', '\''
                i += 2;
                while i < b.len() && b[i] != '\'' {
                    i += 1;
                }
                i += 1;
                toks.push(Tok::new("'…'", line, Kind::Lit));
                continue;
            }
            if i + 2 < b.len() && b[i + 2] == '\'' {
                i += 3;
                toks.push(Tok::new("'…'", line, Kind::Lit));
                continue;
            }
            // lifetime / label
            let start = i;
            i += 1;
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            toks.push(Tok::new(text, line, Kind::Lifetime));
            continue;
        }
        if c.is_ascii_digit() {
            // number (suffix and hex digits folded in; `..` is left alone)
            let start = i;
            i += 1;
            while i < b.len() {
                let d = b[i];
                let frac = d == '.'
                    && i + 1 < b.len()
                    && b[i + 1].is_ascii_digit()
                    && !b[start..i].contains(&'.');
                if !is_ident_continue(d) && !frac {
                    break;
                }
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            toks.push(Tok::new(text, line, Kind::Lit));
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            toks.push(Tok::new(text, line, Kind::Ident));
            continue;
        }
        // punctuation: prefer two-char operators
        if i + 1 < b.len() {
            let two: String = [c, b[i + 1]].iter().collect();
            if TWO.contains(&two.as_str()) {
                // `..=` is three chars; fold the `=` in
                if two == ".." && i + 2 < b.len() && b[i + 2] == '=' {
                    toks.push(Tok::new("..=", line, Kind::Punct));
                    i += 3;
                    continue;
                }
                toks.push(Tok::new(two, line, Kind::Punct));
                i += 2;
                continue;
            }
        }
        toks.push(Tok::new(c, line, Kind::Punct));
        i += 1;
    }
    (toks, dirs, contracts)
}

/// Does a string literal start at `i` (possibly behind `r`/`b`/`br`
/// prefixes)? Returns the offset of the opening quote machinery.
fn peek_string_start(b: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if j < b.len() && b[j] == 'b' {
        j += 1;
    }
    if j < b.len() && b[j] == 'r' {
        j += 1;
        while j < b.len() && b[j] == '#' {
            j += 1;
        }
    }
    if j > i && j < b.len() && b[j] == '"' {
        Some(j)
    } else {
        None
    }
}

/// Skip a (raw/byte) string literal starting at `i`; returns (next index,
/// line after, interior content).
fn skip_string(b: &[char], i: usize, mut line: u32) -> (usize, u32, String) {
    let mut j = i;
    let mut raw = false;
    let mut hashes = 0usize;
    if b[j] == 'b' {
        j += 1;
    }
    if j < b.len() && b[j] == 'r' {
        raw = true;
        j += 1;
        while j < b.len() && b[j] == '#' {
            hashes += 1;
            j += 1;
        }
    }
    debug_assert!(j < b.len() && b[j] == '"');
    j += 1;
    let body_start = j;
    while j < b.len() {
        let c = b[j];
        if c == '\n' {
            line += 1;
            j += 1;
        } else if !raw && c == '\\' {
            // escape — may hide a line-continuation newline
            if j + 1 < b.len() && b[j + 1] == '\n' {
                line += 1;
            }
            j += 2;
        } else if c == '"' {
            if !raw {
                let content: String = b[body_start..j].iter().collect();
                return (j + 1, line, content);
            }
            // raw string: need `"` followed by `hashes` hash marks
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < b.len() && b[k] == '#' && seen < hashes {
                k += 1;
                seen += 1;
            }
            if seen == hashes {
                let content: String = b[body_start..j].iter().collect();
                return (k, line, content);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    let content: String = b[body_start..j.min(b.len())].iter().collect();
    (j, line, content)
}

/// Parse a `// verify: allow(rule1, rule2) — reason` comment; returns the
/// rules and the trailing justification text.
fn parse_directive(comment: &str) -> Option<(Vec<String>, String)> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("verify:")?.trim();
    let rest = rest.strip_prefix("allow")?.trim();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let reason = inner[close + 1..]
        .trim_start_matches([' ', '-', '—', '–', ':'])
        .trim()
        .to_string();
    if rules.is_empty() {
        None
    } else {
        Some((rules, reason))
    }
}

/// Parse a `// verify: wal(logs = "f", mutates = "x.y = z")` comment;
/// returns the two arguments, empty where one is missing.
fn parse_contract(comment: &str) -> Option<(String, String)> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("verify:")?.trim().strip_prefix("wal")?;
    let args = rest.trim_start().strip_prefix('(')?;
    let arg = |key: &str| {
        let open = format!("{key} = \"");
        let at = args.find(&open)? + open.len();
        let len = args[at..].find('"')?;
        Some(args[at..at + len].to_string())
    };
    Some((
        arg("logs").unwrap_or_default(),
        arg("mutates").unwrap_or_default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let (t, d, _) = lex("let x = \"a.unwrap()\"; // .unwrap()\n/* panic!() */ y");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "\"…\"", ";", "y"]);
        assert!(d.is_empty());
    }

    #[test]
    fn collects_directives() {
        let (_, d, c) =
            lex("x();\n// verify: allow(failpoint_coverage, wal) — both fine here\ny();");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].rules, ["failpoint_coverage", "wal"]);
        assert_eq!(d[0].reason, "both fine here");
        assert!(c.is_empty());
    }

    #[test]
    fn collects_wal_contracts() {
        let (_, d, c) = lex(
            "x();\n// verify: wal(logs = \"log_record\", mutates = \"slot.undo = v\")\nfn f() {}",
        );
        assert!(d.is_empty());
        assert_eq!(c.len(), 1);
        assert_eq!((c[0].line, c[0].logs.as_str()), (2, "log_record"));
        assert_eq!(c[0].mutates, "slot.undo = v");
        let (_, _, c) = lex("// verify: wal(logs = \"log_record\")\nfn f() {}");
        assert_eq!(
            (c[0].logs.as_str(), c[0].mutates.as_str()),
            ("log_record", "")
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let (t, _, _) = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert!(t.iter().any(|t| t.text == "'a" && t.kind == Kind::Lifetime));
        assert_eq!(t.iter().filter(|t| t.text == "'…'").count(), 2);
    }

    #[test]
    fn raw_strings_and_nested_block_comments() {
        let (t, _, _) = lex("a r#\"has \" quote\"# /* outer /* inner */ still */ b");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "\"…\"", "b"]);
    }

    #[test]
    fn two_char_operators_fuse() {
        let (t, _, _) = lex("a::b != c -> d => e..=f");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["a", "::", "b", "!=", "c", "->", "d", "=>", "e", "..=", "f"]
        );
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let (t, _, _) = lex("let s = \"line\nline\nline\";\nfinal_ident");
        let f = t.iter().find(|t| t.text == "final_ident").unwrap();
        assert_eq!(f.line, 4);
    }
}
