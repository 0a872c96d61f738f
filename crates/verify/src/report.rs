//! The machine-readable report: a SARIF 2.1.0 log, written through
//! [`asset_common::json::Writer`] and driven by the [`crate::RULES`]
//! catalog.

use crate::{rule_id, Analysis, RULES};
use asset_common::json::Writer;

/// SARIF 2.1.0 log: one run, the rule catalog and the R0 meta rule in
/// `tool.driver.rules`, one `error`-level result per finding.
pub fn to_sarif(a: &Analysis) -> String {
    let meta = (
        "meta",
        "R0",
        "analyzer-consistency findings (reason-less suppressions)",
    );
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("$schema")
            .str("https://json.schemastore.org/sarif-2.1.0.json");
        w.key("version").str("2.1.0");
        w.key("runs").arr(|w| {
            w.obj(|w| {
                w.key("tool").obj(|w| {
                    w.key("driver").obj(|w| {
                        w.key("name").str("asset-verify");
                        w.key("informationUri")
                            .str("https://example.invalid/asset-verify");
                        w.key("rules").arr(|w| {
                            for (name, id, desc) in RULES.iter().chain([&meta]) {
                                w.obj(|w| {
                                    w.key("id").str(id).key("name").str(name);
                                    w.key("shortDescription").obj(|w| {
                                        w.key("text").str(desc);
                                    });
                                });
                            }
                        });
                    });
                });
                w.key("results").arr(|w| {
                    for f in &a.findings {
                        w.obj(|w| {
                            w.key("ruleId").str(rule_id(f.rule));
                            w.key("level").str("error");
                            w.key("message").obj(|w| {
                                w.key("text").str(&format!("in `{}` — {}", f.func, f.msg));
                            });
                            w.key("locations").arr(|w| {
                                w.obj(|w| {
                                    w.key("physicalLocation").obj(|w| {
                                        w.key("artifactLocation").obj(|w| {
                                            w.key("uri").str(&f.file);
                                        });
                                        w.key("region").obj(|w| {
                                            w.key("startLine").u64(u64::from(f.line.max(1)));
                                        });
                                    });
                                });
                            });
                        });
                    }
                });
            });
        });
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;
    use asset_common::json;

    #[test]
    fn sarif_escapes_and_embeds_the_finding() {
        let a = Analysis {
            findings: vec![Finding {
                rule: "failpoint_coverage",
                file: "crates/server/src/server.rs".into(),
                line: 7,
                func: "drain".into(),
                msg: "`let _ =` discards \"quoted\"".into(),
            }],
            allows: Vec::new(),
        };
        let doc = json::parse(&to_sarif(&a)).expect("SARIF parses as JSON");
        let run = &doc.get("runs").and_then(|r| r.as_array()).unwrap()[0];
        let result = &run.get("results").and_then(|r| r.as_array()).unwrap()[0];
        assert_eq!(result.get("ruleId").and_then(|s| s.as_str()), Some("R3"));
        let text = result.get("message").and_then(|m| m.get("text"));
        assert_eq!(
            text.and_then(|t| t.as_str()),
            Some("in `drain` — `let _ =` discards \"quoted\"")
        );
    }
}
