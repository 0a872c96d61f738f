//! The analyzer must pass over the workspace that ships it: zero findings,
//! in both `faults` configurations, and every suppression justified. This
//! is the test the CI `verify` job duplicates as a binary run; keeping it
//! as a test too means plain `cargo test` catches invariant regressions
//! without the extra job. The SARIF report CI uploads is checked the same
//! way: parsed back by an independent JSON reader, not string-matched.

use asset_trace::json;
use asset_verify::{report, Analysis, Finding};
use std::path::Path;

/// The structure a SARIF 2.1.0 consumer relies on: one run by the
/// `asset-verify` driver, the nine-rule catalog (R1–R8 plus the R0 meta
/// rule), one located result per finding.
fn assert_sarif_is_structurally_valid(a: &Analysis) {
    let doc = json::parse(&report::to_sarif(a)).expect("SARIF parses as JSON");
    fn text<'a>(v: &'a json::Value, key: &str) -> Option<&'a str> {
        v.get(key).and_then(|s| s.as_str())
    }
    assert_eq!(text(&doc, "version"), Some("2.1.0"));
    assert!(text(&doc, "$schema").is_some_and(|s| s.contains("sarif-2.1.0")));
    let runs = doc.get("runs").and_then(|r| r.as_array()).expect("runs");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("driver");
    assert_eq!(text(driver, "name"), Some("asset-verify"));
    let rules = driver
        .get("rules")
        .and_then(|r| r.as_array())
        .expect("rules");
    assert_eq!(rules.len(), 9);
    let results = runs[0]
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results");
    assert_eq!(results.len(), a.findings.len());
    for res in results {
        let line = res
            .get("locations")
            .and_then(|l| l.as_array())
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .and_then(|r| r.get("startLine"))
            .and_then(|n| n.as_f64())
            .expect("startLine");
        assert!(line >= 1.0, "SARIF lines are 1-based, got {line}");
    }
}

fn check(cfg_faults: bool) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let a = asset_verify::analyze_root_cfg(&root, cfg_faults).expect("workspace sources load");
    assert!(
        a.findings.is_empty(),
        "asset-verify findings (cfg_faults = {cfg_faults}):\n{}",
        a.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        !a.allows.is_empty(),
        "expected the audited suppressions to load"
    );
    for al in &a.allows {
        assert!(
            !al.reason.is_empty(),
            "reason-less suppression at {}:{} in `{}`",
            al.file,
            al.line,
            al.func
        );
    }
    assert_sarif_is_structurally_valid(&a);
}

#[test]
fn workspace_is_clean_and_all_suppressions_are_justified() {
    check(false);
}

#[test]
fn workspace_is_clean_under_the_faults_cfg_too() {
    check(true);
}

/// The clean workspace has no results to locate; a finding the analyzer
/// could not place on a line (line 0) must still come out 1-based.
#[test]
fn sarif_locates_every_result_on_a_positive_line() {
    assert_sarif_is_structurally_valid(&Analysis {
        findings: vec![Finding {
            rule: "no_panics",
            file: "crates/core/src/lib.rs".into(),
            line: 0,
            func: "f".into(),
            msg: ".unwrap() in runtime path".into(),
        }],
        allows: Vec::new(),
    });
}
