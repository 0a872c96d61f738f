//! The CLI's exit codes are part of its contract (CI gates on them):
//! `0` clean, `1` findings, `2` usage or I/O error. This test runs the
//! real binary against synthetic workspace roots.

use asset_common::json;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asset-verify"))
}

/// A workspace root holding the six analyzed crates, with `lib_rs` as
/// the server's only source.
fn mk_root(name: &str, lib_rs: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("asset-verify-exit-{}-{name}", std::process::id()));
    for krate in ["core", "lock", "storage", "server", "client", "coord"] {
        std::fs::create_dir_all(root.join("crates").join(krate).join("src"))
            .expect("temp workspace dirs");
    }
    std::fs::write(root.join("crates/server/src/lib.rs"), lib_rs).expect("temp lib.rs");
    root
}

#[test]
fn exit_codes_are_pinned() {
    let clean = mk_root("clean", "pub fn status_of(v: u8) -> u8 {\n    v\n}\n");
    let bad = mk_root(
        "bad",
        "pub fn prepare(slot: &mut Slot) {\n    slot.set_status(TxnStatus::Prepared);\n}\n",
    );

    // 0: clean workspace
    let s = bin().arg("--root").arg(&clean).status().expect("run");
    assert_eq!(s.code(), Some(0));

    // 1: findings (an R1 `Prepared` entry with no record before it)
    let out = bin().arg("--root").arg(&bad).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("R1 wal"));

    // 2: usage errors, a format that is not offered among them
    let s = bin().arg("--nonsense").status().expect("run");
    assert_eq!(s.code(), Some(2));
    let s = bin()
        .arg("--root")
        .arg(&clean)
        .args(["--format", "json"])
        .status()
        .expect("run");
    assert_eq!(s.code(), Some(2));

    // 2: a source file that cannot be read as text
    let unreadable = mk_root("unreadable", "");
    std::fs::write(unreadable.join("crates/server/src/lib.rs"), [0xff, 0xfe]).expect("temp lib.rs");
    let s = bin().arg("--root").arg(&unreadable).status().expect("run");
    assert_eq!(s.code(), Some(2));

    // 2: a root that is not the workspace, or lacks one of its crates
    let s = bin()
        .args(["--root", "/nonexistent/workspace"])
        .status()
        .expect("run");
    assert_eq!(s.code(), Some(2));
    let five = mk_root("five", "");
    std::fs::remove_dir_all(five.join("crates/coord")).expect("drop one crate");
    let s = bin().arg("--root").arg(&five).status().expect("run");
    assert_eq!(s.code(), Some(2));

    // the SARIF document carries the finding and the rule catalog
    let sarif = bin()
        .arg("--root")
        .arg(&bad)
        .args(["--format", "sarif"])
        .output()
        .expect("run");
    assert_eq!(sarif.status.code(), Some(1));
    let doc = json::parse(&String::from_utf8_lossy(&sarif.stdout)).expect("SARIF is JSON");
    assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
    let result = &doc.get("runs").and_then(|r| r.as_array()).expect("runs")[0]
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results")[0];
    assert_eq!(result.get("ruleId").and_then(|v| v.as_str()), Some("R1"));
    let uri = result
        .get("locations")
        .and_then(|l| l.as_array())
        .and_then(|l| l[0].get("physicalLocation"))
        .and_then(|p| p.get("artifactLocation"))
        .and_then(|a| a.get("uri"))
        .and_then(|u| u.as_str());
    assert_eq!(uri, Some("crates/server/src/lib.rs"));

    std::fs::remove_dir_all(&five).ok();
    std::fs::remove_dir_all(&unreadable).ok();
    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&bad).ok();
}
