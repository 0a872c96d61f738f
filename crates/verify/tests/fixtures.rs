//! Fixture-driven end-to-end tests.
//!
//! Each rule has violating and conforming fixtures under
//! `tests/fixtures/`; the violating ones assert the exact rendered
//! diagnostics, so a wording or line-number regression in the analyzer is
//! caught here. The R1 pair reproduces the two real WAL bugs this
//! repository shipped before the fault-injection era (commit 2611af2):
//! `begin` set the slot status and `delegate` spliced undo entries before
//! the matching log record was appended. It also holds the §14.2 case: a
//! `Prepared` entry with no `LogRecord::Prepared` before it.

use asset_verify::{Analysis, Workspace};

fn analyze(krate: &str, path: &str, src: &str) -> Analysis {
    Workspace::from_sources(vec![(krate.to_string(), path.to_string(), src.to_string())]).analyze()
}

fn rendered(a: &Analysis) -> Vec<String> {
    a.findings.iter().map(|f| f.to_string()).collect()
}

#[test]
fn r1_redetects_the_historical_reorders_and_an_unforced_prepared_entry() {
    let a = analyze(
        "core",
        "tests/fixtures/r1_violating.rs",
        include_str!("fixtures/r1_violating.rs"),
    );
    assert_eq!(
        rendered(&a),
        [
            "R1 wal: tests/fixtures/r1_violating.rs:14 in `begin` — mutates tracked state \
             (`slot.status = TxnStatus::Running`, line 14) before logging via `log_record` \
             (line 16) — the WAL record must land first",
            "R1 wal: tests/fixtures/r1_violating.rs:25 in `delegate` — mutates tracked state \
             (`mem::take(&mut slot.undo)`, line 25) before logging via `log_record` \
             (line 32) — the WAL record must land first",
            "R1 wal: tests/fixtures/r1_violating.rs:53 in `mark_prepared` — `status = \
             TxnStatus::Prepared` without a forced `LogRecord::Prepared` earlier in the \
             function — the prepared state must be entered via a forced WAL record (§14.2)",
        ]
    );
}

#[test]
fn r1_accepts_the_log_first_shape_and_a_forced_prepared_entry() {
    let a = analyze(
        "core",
        "tests/fixtures/r1_conforming.rs",
        include_str!("fixtures/r1_conforming.rs"),
    );
    assert_eq!(rendered(&a), [] as [&str; 0]);
}

#[test]
fn r3_detects_an_uncovered_durable_write() {
    let a = analyze(
        "storage",
        "tests/fixtures/r3_violating.rs",
        include_str!("fixtures/r3_violating.rs"),
    );
    assert_eq!(
        rendered(&a),
        [
            "R3 failpoint_coverage: tests/fixtures/r3_violating.rs:9 in `append_frame` — \
          durable write `.write_all()` is not dominated by a failpoint!/failpoint_sync! \
          evaluation or a failpoint-checker call"
        ]
    );
}

#[test]
fn r3_accepts_macro_and_checker_coverage() {
    let a = analyze(
        "storage",
        "tests/fixtures/r3_conforming.rs",
        include_str!("fixtures/r3_conforming.rs"),
    );
    assert_eq!(rendered(&a), [] as [&str; 0]);
}

#[test]
fn r3_checks_a_checker_s_own_writes() {
    let a = analyze(
        "storage",
        "tests/fixtures/r3_checker_violating.rs",
        include_str!("fixtures/r3_checker_violating.rs"),
    );
    assert_eq!(
        rendered(&a),
        [
            "R3 failpoint_coverage: tests/fixtures/r3_checker_violating.rs:9 in `replace` — \
          durable write `.write_all()` is not dominated by a failpoint!/failpoint_sync! \
          evaluation or a failpoint-checker call"
        ]
    );
    let a = analyze(
        "storage",
        "tests/fixtures/r3_checker_conforming.rs",
        include_str!("fixtures/r3_checker_conforming.rs"),
    );
    assert_eq!(rendered(&a), [] as [&str; 0]);
}

/// The store's image writer with its `STORE_WRITE` guard dropped is
/// reported, though it still evaluates `STORE_SYNC` after the write (R3
/// used to skip any fn that evaluates a failpoint).
#[test]
fn r3_reports_the_image_writer_without_its_store_write_guard() {
    let path = "crates/storage/src/store.rs";
    let src = include_str!("../../storage/src/store.rs");
    assert_eq!(rendered(&analyze("storage", path, src)), [] as [&str; 0]);
    let guard = "asset_faults::failpoint!(&self.faults, crate::failpoints::STORE_WRITE";
    let start = src.find(guard).expect("the image writer's guard");
    let end = start + src[start..].find("});\n").expect("its end") + 4;
    let unguarded = format!("{}{}", &src[..start], &src[end..]);
    let found = rendered(&analyze("storage", path, &unguarded));
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains("in `write`") && found[0].contains("`.write_all()`"),
        "{}",
        found[0]
    );
}

#[test]
fn meta_reasonless_suppressions_are_flagged() {
    let src = "impl T {\n    pub fn f(&mut self) {\n        // verify: allow(wal)\n        self.set_status(TxnStatus::Prepared);\n    }\n}\n";
    let a = analyze("core", "t.rs", src);
    assert_eq!(
        rendered(&a),
        ["R0 meta: t.rs:4 in `f` — suppression of `wal` via line directive has no reason; add one"]
    );
    assert_eq!(a.allows.len(), 1);
    assert!(a.allows[0].reason.is_empty());
}
