//! Structural extraction over the token stream: functions (with their
//! attributes and body ranges), module scopes, and `#[cfg(test)]`
//! boundaries. This is not a full parser — it recovers exactly the shape
//! the rules need: *which tokens belong to which function, and is that
//! function test code*.

use crate::lexer::{Kind, Tok};

/// A parsed attribute, e.g. `#[cfg(feature = "faults")]`.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Last path segment of the attribute name (`std::prelude::test` →
    /// `test`).
    pub name: String,
    /// Tokens inside the argument parentheses (empty when none).
    pub args: Vec<Tok>,
}

impl Attr {
    /// Does the argument list mention `ident` (outside a `not(...)`)?
    fn mentions_outside_not(&self, ident: &str) -> bool {
        let mut depth_not = 0i32;
        let mut paren = 0i32;
        let mut not_at: Vec<i32> = Vec::new();
        for t in &self.args {
            match t.text.as_str() {
                "not" => {
                    depth_not += 1;
                    not_at.push(paren + 1);
                }
                "(" => paren += 1,
                ")" => {
                    if not_at.last() == Some(&paren) {
                        not_at.pop();
                        depth_not -= 1;
                    }
                    paren -= 1;
                }
                s if s == ident && depth_not == 0 => return true,
                _ => {}
            }
        }
        false
    }

    /// Is this `#[cfg(test)]`-like (test mentioned positively)?
    pub fn is_cfg_test(&self) -> bool {
        self.name == "cfg" && self.mentions_outside_not("test")
    }

    /// For `#[cfg(...)]` attributes mentioning the `faults` feature:
    /// `Some(true)` if the item only exists **with** the feature,
    /// `Some(false)` if only **without** it (`not(feature = "faults")`),
    /// `None` when the attribute does not gate on it. The feature name
    /// appears as a string literal, so both token text and string
    /// interiors are checked.
    pub fn cfg_faults_gate(&self) -> Option<bool> {
        if self.name != "cfg" {
            return None;
        }
        let mut paren = 0i32;
        let mut not_at: Vec<i32> = Vec::new();
        for t in &self.args {
            match t.text.as_str() {
                "not" => not_at.push(paren + 1),
                "(" => paren += 1,
                ")" => {
                    if not_at.last() == Some(&paren) {
                        not_at.pop();
                    }
                    paren -= 1;
                }
                _ => {
                    let is_faults = t.text == "faults" || t.raw_str.as_deref() == Some("faults");
                    if is_faults {
                        return Some(not_at.is_empty());
                    }
                }
            }
        }
        None
    }
}

/// One extracted function.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Attributes attached to the item.
    pub attrs: Vec<Attr>,
    /// Token index range of the body, inclusive of its outer braces.
    pub body: (usize, usize),
    /// Is this test code (`#[test]`, or inside a `#[cfg(test)]` scope)?
    pub is_test: bool,
}

/// Result of parsing one file's token stream.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function (including methods and nested fns).
    pub fns: Vec<FnItem>,
    /// Out-of-line `mod x;` declarations carrying `#[cfg(test)]`.
    pub cfg_test_mods: Vec<String>,
}

/// Parse `toks` (the whole file) into functions and test-mod declarations.
pub fn parse_file(toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut i = 0usize;
    items(toks, &mut i, toks.len(), false, &mut out);
    out
}

/// Parse items from `*i` up to `end` (exclusive), at one nesting level.
fn items(toks: &[Tok], i: &mut usize, end: usize, in_test: bool, out: &mut ParsedFile) {
    let mut attrs: Vec<Attr> = Vec::new();
    while *i < end {
        let t = &toks[*i];
        match t.text.as_str() {
            "#" => {
                if let Some(a) = parse_attr(toks, i, end) {
                    attrs.push(a);
                } else {
                    *i += 1;
                }
                continue;
            }
            "pub" => {
                *i += 1;
                // pub(crate) / pub(in path)
                if *i < end && toks[*i].text == "(" {
                    skip_balanced(toks, i, end, "(", ")");
                }
                continue; // attrs stay pending
            }
            "const" | "unsafe" | "async" | "default" => {
                // `const fn` / `unsafe fn` / `unsafe impl` keep scanning;
                // `const NAME: ... = ...;` is handled when the next token
                // is not a declarator keyword.
                if *i + 1 < end
                    && matches!(
                        toks[*i + 1].text.as_str(),
                        "fn" | "impl" | "trait" | "extern" | "unsafe" | "async" | "const"
                    )
                {
                    *i += 1;
                    continue;
                }
                // const item / unsafe block etc.: skip one statement
                skip_statement(toks, i, end);
                attrs.clear();
                continue;
            }
            "extern" => {
                *i += 1; // `extern "C" fn` or extern block
                if *i < end && toks[*i].kind == Kind::Lit {
                    *i += 1;
                }
                continue;
            }
            "mod" => {
                *i += 1;
                let name = ident_at(toks, *i, end);
                *i += 1;
                if *i < end && toks[*i].text == ";" {
                    if attrs.iter().any(|a| a.is_cfg_test()) {
                        if let Some(n) = name {
                            out.cfg_test_mods.push(n);
                        }
                    }
                    *i += 1;
                } else if *i < end && toks[*i].text == "{" {
                    let test = in_test || attrs.iter().any(|a| a.is_cfg_test());
                    let close = matching_brace(toks, *i, end);
                    *i += 1;
                    items(toks, i, close, test, out);
                    *i = close + 1;
                }
                attrs.clear();
                continue;
            }
            "fn" => {
                let line = t.line;
                *i += 1;
                let name = match ident_at(toks, *i, end) {
                    Some(n) => n,
                    None => {
                        attrs.clear();
                        continue; // `fn(` pointer type at item level: skip
                    }
                };
                *i += 1;
                // skip to the body `{` (or `;` for a trait signature),
                // angle-aware so `-> Result<Vec<T>>` cannot fool us
                let mut angle = 0i64;
                let mut body_start = None;
                while *i < end {
                    match toks[*i].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "(" | "[" => {
                            let (o, c) = if toks[*i].text == "(" {
                                ("(", ")")
                            } else {
                                ("[", "]")
                            };
                            skip_balanced(toks, i, end, o, c);
                            continue;
                        }
                        "{" if angle <= 0 => {
                            body_start = Some(*i);
                            break;
                        }
                        ";" if angle <= 0 => break,
                        _ => {}
                    }
                    *i += 1;
                }
                let is_test = in_test || attrs.iter().any(|a| a.name == "test" || a.is_cfg_test());
                if let Some(bs) = body_start {
                    let close = matching_brace(toks, bs, end);
                    out.fns.push(FnItem {
                        name,
                        line,
                        attrs: std::mem::take(&mut attrs),
                        body: (bs, close),
                        is_test,
                    });
                    // scan the body for nested fns (same test context)
                    let mut j = bs + 1;
                    items(toks, &mut j, close, is_test, out);
                    *i = close + 1;
                } else {
                    attrs.clear();
                    *i += 1;
                }
                continue;
            }
            "impl" | "trait" => {
                *i += 1;
                let mut angle = 0i64;
                while *i < end {
                    match toks[*i].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "(" => {
                            skip_balanced(toks, i, end, "(", ")");
                            continue;
                        }
                        "{" if angle <= 0 => break,
                        ";" if angle <= 0 => break, // `impl Trait for X;`? defensive
                        _ => {}
                    }
                    *i += 1;
                }
                if *i < end && toks[*i].text == "{" {
                    let test = in_test || attrs.iter().any(|a| a.is_cfg_test());
                    let close = matching_brace(toks, *i, end);
                    *i += 1;
                    items(toks, i, close, test, out);
                    *i = close + 1;
                } else {
                    *i += 1;
                }
                attrs.clear();
                continue;
            }
            "struct" | "enum" | "union" | "macro_rules" => {
                // skip to `;` or skip the braced definition
                *i += 1;
                while *i < end {
                    match toks[*i].text.as_str() {
                        "{" => {
                            skip_balanced(toks, i, end, "{", "}");
                            break;
                        }
                        "(" => {
                            skip_balanced(toks, i, end, "(", ")");
                            continue; // tuple struct: `;` follows
                        }
                        ";" => {
                            *i += 1;
                            break;
                        }
                        _ => *i += 1,
                    }
                }
                attrs.clear();
                continue;
            }
            "{" => {
                // stray block (e.g. statement inside a fn body we are
                // re-scanning): recurse so nested items are still found
                let close = matching_brace(toks, *i, end);
                *i += 1;
                items(toks, i, close, in_test, out);
                *i = close + 1;
                continue;
            }
            _ => {
                attrs.clear();
                *i += 1;
            }
        }
    }
}

fn ident_at(toks: &[Tok], i: usize, end: usize) -> Option<String> {
    if i < end && toks[i].kind == Kind::Ident {
        Some(toks[i].text.clone())
    } else {
        None
    }
}

/// From `*i` at the opening token, skip past the matching closer.
fn skip_balanced(toks: &[Tok], i: &mut usize, end: usize, open: &str, close: &str) {
    debug_assert_eq!(toks[*i].text, open);
    let mut depth = 0i64;
    while *i < end {
        if toks[*i].text == open {
            depth += 1;
        } else if toks[*i].text == close {
            depth -= 1;
            if depth == 0 {
                *i += 1;
                return;
            }
        }
        *i += 1;
    }
}

/// Skip one `;`-terminated statement, balancing braces/parens on the way
/// (`const X: T = { ... };`).
fn skip_statement(toks: &[Tok], i: &mut usize, end: usize) {
    while *i < end {
        match toks[*i].text.as_str() {
            "{" => skip_balanced(toks, i, end, "{", "}"),
            "(" => skip_balanced(toks, i, end, "(", ")"),
            ";" => {
                *i += 1;
                return;
            }
            _ => *i += 1,
        }
    }
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(toks: &[Tok], open: usize, end: usize) -> usize {
    debug_assert_eq!(toks[open].text, "{");
    let mut depth = 0i64;
    let mut i = open;
    while i < end {
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Parse `#[...]` / `#![...]` starting at `*i` (the `#`). Inner attributes
/// are consumed but return `None` (they attach to the enclosing scope,
/// which the rules don't need).
fn parse_attr(toks: &[Tok], i: &mut usize, end: usize) -> Option<Attr> {
    let start = *i;
    *i += 1;
    let inner = *i < end && toks[*i].text == "!";
    if inner {
        *i += 1;
    }
    if *i >= end || toks[*i].text != "[" {
        *i = start + 1;
        return None;
    }
    let open = *i;
    skip_balanced(toks, i, end, "[", "]");
    let close = *i - 1; // index of `]`
    if inner {
        return None;
    }
    // name: last ident of the leading path
    let mut j = open + 1;
    let mut name = String::new();
    while j < close && (toks[j].kind == Kind::Ident || toks[j].text == "::") {
        if toks[j].kind == Kind::Ident {
            name = toks[j].text.clone();
        }
        j += 1;
    }
    let args = if j < close && toks[j].text == "(" {
        // tokens strictly inside the matching paren pair
        let mut depth = 0i64;
        let mut k = j;
        let mut close_paren = close;
        while k < close {
            match toks[k].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        close_paren = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        toks[j + 1..close_paren].to_vec()
    } else {
        Vec::new()
    };
    Some(Attr { name, args })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns(src: &str) -> ParsedFile {
        parse_file(&lex(src).0)
    }

    #[test]
    fn finds_methods_in_impls() {
        let p = fns("impl Foo { pub fn a(&self) {} fn b() -> Vec<u8> { vec![] } }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let p = fns("fn live() {} #[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }");
        assert!(!p.fns.iter().find(|f| f.name == "live").unwrap().is_test);
        assert!(p.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(p.fns.iter().find(|f| f.name == "t").unwrap().is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let p = fns("#[cfg(not(test))] fn live() {}");
        assert!(!p.fns[0].is_test);
    }

    #[test]
    fn out_of_line_test_mod_recorded() {
        let p = fns("#[cfg(test)] mod tests; mod live;");
        assert_eq!(p.cfg_test_mods, ["tests"]);
    }

    #[test]
    fn attributes_attach_through_pub_and_const() {
        let p = fns("#[cfg(unix)] pub const fn f() {}");
        assert_eq!(p.fns[0].attrs.len(), 1);
        assert_eq!(p.fns[0].attrs[0].name, "cfg");
    }

    #[test]
    fn generic_return_types_do_not_eat_the_body() {
        let p = fns("fn f<T: Ord>(x: Vec<HashMap<u8, T>>) -> Result<Vec<T>> { body() }");
        assert_eq!(p.fns.len(), 1);
        let (b0, b1) = p.fns[0].body;
        assert!(b1 > b0);
    }

    #[test]
    fn nested_fns_found() {
        let p = fns("fn outer() { fn inner() {} }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn cfg_faults_gates_resolve_in_both_polarities() {
        let p = fns("#[cfg(feature = \"faults\")] fn with() {}\n\
             #[cfg(not(feature = \"faults\"))] fn without() {}\n\
             #[cfg(all(unix, not(feature = \"faults\")))] fn nested() {}\n\
             #[cfg(feature = \"other\")] fn unrelated() {}\n\
             fn plain() {}");
        let gate = |i: usize| p.fns[i].attrs.iter().find_map(|a| a.cfg_faults_gate());
        assert_eq!(gate(0), Some(true));
        assert_eq!(gate(1), Some(false));
        assert_eq!(gate(2), Some(false));
        assert_eq!(gate(3), None);
        assert_eq!(gate(4), None);
    }
}
