//! Machine-readable output: JSON, SARIF 2.1.0, and the baseline diff
//! format. Hand-rolled emitters over [`asset_common::json::escape`],
//! driven by the [`crate::RULES`] catalog.
//!
//! The **baseline** format is line-number-insensitive: one key per
//! finding (`rule<TAB>file<TAB>func<TAB>msg`), sorted and de-duplicated,
//! so a saved baseline survives unrelated edits that shift lines.
//! `--baseline FILE` subtracts those keys from a run and reports only
//! *new* findings — the CI gating mode.

use crate::{rule_id, Analysis, Finding, RULES};
use asset_common::json::escape;

/// The analyzer's own JSON document: rule count, findings, allows.
pub fn to_json(a: &Analysis) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n  \"tool\": \"asset-verify\",\n  \"rules\": {},\n  \"findings\": [",
        RULES.len()
    ));
    for (i, f) in a.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"id\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"func\": \"{}\", \"msg\": \"{}\"}}",
            rule_id(f.rule),
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.func),
            escape(&f.msg)
        ));
    }
    s.push_str("\n  ],\n  \"allows\": [");
    for (i, al) in a.allows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"id\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"func\": \"{}\", \"reason\": \"{}\"}}",
            rule_id(al.rule),
            escape(al.rule),
            escape(&al.file),
            al.line,
            escape(&al.func),
            escape(&al.reason)
        ));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// SARIF 2.1.0 log: one run, the R0 meta rule and the rule catalog in
/// `tool.driver.rules`, one `error`-level result per finding.
pub fn to_sarif(a: &Analysis) -> String {
    let mut s = String::new();
    s.push_str(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"asset-verify\",\n          \
         \"informationUri\": \"https://example.invalid/asset-verify\",\n          \
         \"rules\": [",
    );
    let meta = (
        "meta",
        "R0",
        "analyzer-consistency findings (reason-less suppressions, missing exemptions)",
    );
    for (i, (name, id, desc)) in RULES.iter().chain([&meta]).enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n            {{\"id\": \"{id}\", \"name\": \"{}\", \
             \"shortDescription\": {{\"text\": \"{}\"}}}}",
            escape(name),
            escape(desc)
        ));
    }
    s.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in a.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \
             \"level\": \"error\",\n          \"message\": {{\"text\": \"{}\"}},\n          \
             \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \
             \"artifactLocation\": {{\"uri\": \"{}\"}},\n                \
             \"region\": {{\"startLine\": {}}}\n              }}\n            }}\n          ]\n        }}",
            rule_id(f.rule),
            escape(&format!("in `{}` — {}", f.func, f.msg)),
            escape(&f.file),
            f.line.max(1)
        ));
    }
    s.push_str("\n      ]\n    }\n  ]\n}\n");
    s
}

/// The line-number-insensitive identity of a finding.
pub fn baseline_key(f: &Finding) -> String {
    format!("{}\t{}\t{}\t{}", f.rule, f.file, f.func, f.msg)
}

/// Render the baseline document: sorted unique keys, one per line.
pub fn to_baseline(a: &Analysis) -> String {
    let mut keys: Vec<String> = a.findings.iter().map(baseline_key).collect();
    keys.sort();
    keys.dedup();
    let mut s = keys.join("\n");
    if !s.is_empty() {
        s.push('\n');
    }
    s
}

/// Findings not present in `baseline_text` (the CI gating subtraction).
pub fn filter_new(findings: &[Finding], baseline_text: &str) -> Vec<Finding> {
    let known: std::collections::BTreeSet<&str> = baseline_text
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty())
        .collect();
    findings
        .iter()
        .filter(|f| !known.contains(baseline_key(f).as_str()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;

    fn one() -> Analysis {
        Analysis {
            findings: vec![Finding {
                rule: "status_flow",
                file: "crates/server/src/server.rs".into(),
                line: 7,
                func: "drain".into(),
                msg: "`let _ =` discards \"quoted\"".into(),
            }],
            allows: Vec::new(),
        }
    }

    #[test]
    fn json_and_sarif_escape_and_embed_the_finding() {
        let a = one();
        let j = to_json(&a);
        assert!(j.contains("\"id\": \"R7\""));
        assert!(j.contains("discards \\\"quoted\\\""));
        let s = to_sarif(&a);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"R7\""));
        assert!(s.contains("\"startLine\": 7"));
        // all six catalog entries are declared
        assert_eq!(s.matches("\"shortDescription\"").count(), 6);
    }

    #[test]
    fn baseline_subtracts_known_findings_ignoring_lines() {
        let a = one();
        let base = to_baseline(&a);
        let mut moved = a.findings.clone();
        moved[0].line = 99; // unrelated edit shifted the line
        assert!(filter_new(&moved, &base).is_empty());
        moved[0].msg = "different".into();
        assert_eq!(filter_new(&moved, &base).len(), 1);
    }
}
