//! `asset-verify` CLI: run the workspace invariant analyzer and exit
//! non-zero when any rule is violated.
//!
//! ```text
//! cargo run -p asset-verify                      # analyze the workspace
//! cargo run -p asset-verify -- --list-allows     # audit suppressions
//! cargo run -p asset-verify -- --root PATH       # explicit workspace root
//! cargo run -p asset-verify -- --format sarif    # SARIF 2.1.0 log
//! cargo run -p asset-verify -- --cfg-faults      # analyze the faults-injected cfg
//! ```
//!
//! Exit codes (pinned, tested by `tests/cli_exit_codes.rs`):
//! `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use asset_verify::report;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut list_allows = false;
    let mut sarif = false;
    let mut cfg_faults = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--list-allows" => list_allows = true,
            "--cfg-faults" => cfg_faults = true,
            "--format" => {
                sarif = match args.next().as_deref() {
                    Some("text") => false,
                    Some("sarif") => true,
                    other => {
                        eprintln!(
                            "asset-verify: `--format` must be text|sarif, got {:?}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "asset-verify — workspace invariant analyzer ({} rules)",
                    asset_verify::RULES.len()
                );
                for (name, id, desc) in asset_verify::RULES {
                    println!("  {id} {name:<20} {desc}");
                }
                println!(
                    "usage: asset-verify [--root PATH] [--list-allows] [--cfg-faults]\n\
                     \x20                   [--format text|sarif]\n\
                     exit codes: 0 clean, 1 findings, 2 usage/load error"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("asset-verify: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        let cwd = PathBuf::from(".");
        if cwd.join("crates/core/src").exists() {
            cwd
        } else {
            // fall back to the workspace containing this crate
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });

    let analysis = match asset_verify::analyze_root_cfg(&root, cfg_faults) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "asset-verify: failed to load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    if list_allows {
        println!("{} suppression(s):", analysis.allows.len());
        for a in &analysis.allows {
            println!(
                "  {} {}: {}:{} in `{}` — allowed: {}",
                asset_verify::rule_id(a.rule),
                a.rule,
                a.file,
                a.line,
                a.func,
                if a.reason.is_empty() {
                    "(no reason)"
                } else {
                    &a.reason
                }
            );
        }
    }

    let findings = &analysis.findings;
    if sarif {
        print!("{}", report::to_sarif(&analysis));
    } else if findings.is_empty() {
        println!(
            "asset-verify: OK — {} rules, 0 findings, {} audited suppression(s)",
            asset_verify::RULES.len(),
            analysis.allows.len()
        );
    } else {
        for f in findings {
            println!("{f}");
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("asset-verify: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
