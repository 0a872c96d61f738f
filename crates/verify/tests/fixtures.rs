//! Fixture-driven end-to-end tests.
//!
//! Each rule has one violating and one conforming fixture under
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
fn r2_detects_latching_under_a_shard_mutex() {
    let a = analyze(
        "storage",
        "tests/fixtures/r2_violating.rs",
        include_str!("fixtures/r2_violating.rs"),
    );
    assert_eq!(
        rendered(&a),
        [
            "R2 lock_order: tests/fixtures/r2_violating.rs:11 in `evict_clean` — calls \
             `take_if_dirty` which acquires storage-latch while holding storage-latch \
             (acquired line 11)",
            "R2 lock_order: tests/fixtures/r2_violating.rs:18 in `write_back` — acquires \
             storage-latch while already holding storage-latch (acquired line 16)",
        ]
    );
}

#[test]
fn r2_accepts_the_guard_dropping_shape() {
    let a = analyze(
        "storage",
        "tests/fixtures/r2_conforming.rs",
        include_str!("fixtures/r2_conforming.rs"),
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
fn r5_detects_blocking_calls_inside_executor_steps() {
    let a = analyze(
        "core",
        "tests/fixtures/r5_violating.rs",
        include_str!("fixtures/r5_violating.rs"),
    );
    assert_eq!(
        rendered(&a),
        [
            "R5 exec_step: tests/fixtures/r5_violating.rs:10 in `exec_commit_blocking` — \
             blocking call `wait_event` inside an executor step; return TxnStep::Wait* and \
             park instead",
            "R5 exec_step: tests/fixtures/r5_violating.rs:12 in `exec_commit_blocking` — \
             blocking call `submit_and_wait` inside an executor step; return TxnStep::Wait* \
             and park instead",
            "R5 exec_step: tests/fixtures/r5_violating.rs:18 in `exec_backoff` — blocking \
             call `sleep` inside an executor step; return TxnStep::Wait* and park instead",
        ]
    );
}

#[test]
fn r5_accepts_returned_suspension_and_unannotated_blocking_paths() {
    let a = analyze(
        "core",
        "tests/fixtures/r5_conforming.rs",
        include_str!("fixtures/r5_conforming.rs"),
    );
    assert_eq!(rendered(&a), [] as [&str; 0]);
}

#[test]
fn r7_detects_the_three_swallow_shapes() {
    let a = analyze(
        "server",
        "tests/fixtures/r7_violating.rs",
        include_str!("fixtures/r7_violating.rs"),
    );
    assert_eq!(
        rendered(&a),
        [
            "R7 status_flow: tests/fixtures/r7_violating.rs:26 in `drain_session` — \
             `let _ =` discards the result of `outcome_kind`, which can carry a \
             CommitAmbiguous outcome; consume it and surface the ambiguity (§13.4)",
            "R7 status_flow: tests/fixtures/r7_violating.rs:31 in `probe` — `.ok()` \
             swallows the error path of `outcome_kind`, which can carry a CommitAmbiguous \
             outcome (§13.4)",
            "R7 status_flow: tests/fixtures/r7_violating.rs:38 in `report` — empty \
             `Err(_)` arm swallows an error from `outcome_kind`, which can carry a \
             CommitAmbiguous outcome (§13.4)",
        ]
    );
}

#[test]
fn r7_accepts_consumed_and_surfaced_outcomes() {
    let a = analyze(
        "server",
        "tests/fixtures/r7_conforming.rs",
        include_str!("fixtures/r7_conforming.rs"),
    );
    assert_eq!(rendered(&a), [] as [&str; 0]);
}

#[test]
fn meta_blessed_helper_must_declare_its_exemption() {
    let src = "impl LockTable {\n    pub fn release_all(&self, tid: Tid) -> Vec<Oid> {\n        Vec::new()\n    }\n}\n";
    let a = analyze("lock", "table.rs", src);
    assert_eq!(
        rendered(&a),
        [
            "R0 meta: table.rs:2 in `release_all` — `release_all` is a blessed multi-lock \
          helper; it must declare #[verify_allow(lock_order, reason = \"...\")]"
        ]
    );
}

#[test]
fn meta_a_blessed_name_must_name_an_asset_lock_function() {
    let a = analyze(
        "lock",
        "crates/lock/src/lib.rs",
        include_str!("fixtures/meta_stale_blessed.rs"),
    );
    assert_eq!(
        rendered(&a),
        [
            "R0 meta: crates/lock/src/lib.rs:1 in `poison` — `poison` is blessed, but no \
          asset-lock function defines it; remove it from BLESSED"
        ]
    );
}

#[test]
fn meta_reasonless_suppressions_are_flagged() {
    let src = "impl T {\n    pub fn f(&mut self) {\n        // verify: allow(wal)\n        self.status = TxnStatus::Prepared;\n    }\n}\n";
    let a = analyze("core", "t.rs", src);
    assert_eq!(
        rendered(&a),
        ["R0 meta: t.rs:4 in `f` — suppression of `wal` via line directive has no reason; add one"]
    );
    assert_eq!(a.allows.len(), 1);
    assert!(a.allows[0].reason.is_empty());
}
