//! The CLI's exit codes are part of its contract (CI gates on them):
//! `0` clean, `1` findings, `2` usage or I/O error. This test runs the
//! real binary against synthetic workspace roots.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asset-verify"))
}

fn mk_root(name: &str, lib_rs: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("asset-verify-exit-{}-{name}", std::process::id()));
    let src = root.join("crates/server/src");
    std::fs::create_dir_all(&src).expect("temp workspace dirs");
    std::fs::write(src.join("lib.rs"), lib_rs).expect("temp lib.rs");
    root
}

#[test]
fn exit_codes_are_pinned() {
    let clean = mk_root("clean", "pub fn status_of(v: u8) -> u8 {\n    v\n}\n");
    let bad = mk_root(
        "bad",
        "pub fn prepare(slot: &mut Slot) {\n    slot.status = TxnStatus::Prepared;\n}\n",
    );

    // 0: clean workspace
    let s = bin().arg("--root").arg(&clean).status().expect("run");
    assert_eq!(s.code(), Some(0));

    // 1: findings (an R1 `Prepared` entry with no record before it)
    let out = bin().arg("--root").arg(&bad).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("R1 wal"));

    // 0 again: the same findings accepted via a saved baseline
    let base = bin()
        .arg("--root")
        .arg(&bad)
        .args(["--format", "baseline"])
        .output()
        .expect("run");
    assert_eq!(base.status.code(), Some(1), "baseline emit still reports");
    let bl = clean.join("accepted.baseline");
    std::fs::write(&bl, &base.stdout).expect("write baseline");
    let s = bin()
        .arg("--root")
        .arg(&bad)
        .arg("--baseline")
        .arg(&bl)
        .status()
        .expect("run");
    assert_eq!(
        s.code(),
        Some(0),
        "baseline subtraction gates only new findings"
    );

    // 2: usage error
    let s = bin().arg("--nonsense").status().expect("run");
    assert_eq!(s.code(), Some(2));

    // 2: unreadable baseline file
    let s = bin()
        .arg("--root")
        .arg(&clean)
        .args(["--baseline", "/nonexistent/accepted.baseline"])
        .status()
        .expect("run");
    assert_eq!(s.code(), Some(2));

    // the SARIF document carries the finding and the rule catalog
    let sarif = bin()
        .arg("--root")
        .arg(&bad)
        .args(["--format", "sarif"])
        .output()
        .expect("run");
    assert_eq!(sarif.status.code(), Some(1));
    let doc = String::from_utf8_lossy(&sarif.stdout);
    assert!(doc.contains("\"version\": \"2.1.0\""));
    assert!(doc.contains("\"ruleId\": \"R1\""));
    assert!(doc.contains("crates/server/src/lib.rs"));

    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&bad).ok();
}
