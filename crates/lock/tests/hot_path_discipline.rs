//! Regression guard for the stripe-mutex hot-path discipline (DESIGN.md
//! §7): no clock read and no histogram update may happen while a stripe
//! mutex is held on the lock-request path.
//!
//! The discipline is structural, so the guard is structural too: the test
//! scans `src/table.rs` (compiled into the test binary via `include_str!`,
//! so it always sees the sources it was built from) and asserts:
//!
//! 1. `attempt()` — the shard-local grant attempt, always called with the
//!    stripe mutex held — must not touch `Instant::now` or record into any
//!    histogram; it hands chain depths out through the `chains` out-param.
//! 2. `request()` — the one lock-request pass both drivers run — reads the
//!    clock (the wait-start stamp) and records (histograms, events, and
//!    `settle`, which does both) only after `drop(inner)` releases the
//!    stripe guard.
//! 3. `request()` takes the wait graph's mutex to end a wait only behind
//!    its waiter count: a grant while nothing waits never touches it.
//! 4. `lock()` reads `Instant::now` (its deadline) only after a pass has
//!    returned blocked: an uncontended lock reads no clock.
//!
//! A behavioral companion checks the wait metrics still arrive.

use asset_common::{AssetError, Oid, Operation, Tid};
use asset_lock::LockTable;
use std::time::Duration;

const TABLE_SRC: &str = include_str!("../src/table.rs");

/// The body of one `fn name(` item, up to the next top-level method of the
/// impl block (crude but stable: methods in table.rs are separated by
/// `\n    /// ` doc comments or `\n    pub fn ` / `\n    fn ` at 4-space
/// indent).
fn fn_body<'a>(src: &'a str, header: &str) -> &'a str {
    let start = src
        .find(header)
        .unwrap_or_else(|| panic!("{header} not found in table.rs"));
    let rest = &src[start + header.len()..];
    // End of the item: the next fn definition at impl-block indentation.
    let end = ["\n    pub fn ", "\n    fn ", "\n    pub const ", "\n}"]
        .iter()
        .filter_map(|pat| rest.find(pat))
        .min()
        .unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn attempt_never_reads_the_clock_or_records_histograms_under_the_guard() {
    let body = fn_body(TABLE_SRC, "fn attempt(");
    assert!(
        !body.contains("Instant::now"),
        "attempt() runs under the stripe mutex: clock reads moved out in \
         the executor PR must not come back"
    );
    assert!(
        !body.contains(".record("),
        "attempt() runs under the stripe mutex: histogram updates must go \
         through the `chains`/`through` out-params and be recorded by the \
         caller after the guard drops"
    );
}

#[test]
fn the_pass_reads_the_clock_and_records_only_with_the_stripe_guard_dropped() {
    let body = fn_body(TABLE_SRC, "pub fn request(");
    let locked_from = body
        .find("shard.inner.lock()")
        .expect("request() takes the stripe mutex");
    let locked_to = body.find("drop(inner)").expect("request() drops the guard");
    assert!(locked_from < locked_to);
    let locked = &body[locked_from..locked_to];
    for forbidden in ["Instant::now", ".record(", "settle("] {
        assert!(
            !locked.contains(forbidden),
            "`{forbidden}` inside request()'s stripe critical section"
        );
    }
    let unlocked = &body[locked_to..];
    assert!(
        unlocked.contains("Instant::now()") && unlocked.contains("settle("),
        "the wait-start stamp and the wait accounting run after the guard drops"
    );
    assert!(
        !unlocked.contains(".inner.lock()"),
        "request() takes the stripe mutex once"
    );
}

#[test]
fn a_grant_ends_a_wait_only_behind_the_waiter_count() {
    let body = fn_body(TABLE_SRC, "pub fn request(");
    assert_eq!(
        body.matches("waits.clear(").count(),
        1,
        "request() ends a wait in one place"
    );
    let ended = body
        .find("let ended = match")
        .expect("request() ends the wait it had");
    let gate = body
        .find("self.waits.waiter_count() == 0")
        .expect("the waiter count gates the wait graph");
    let clear = body.find("self.waits.clear(").unwrap();
    assert!(
        ended < gate && gate < clear,
        "the waiter-count arm must come before the arm that clears"
    );
}

#[test]
fn lock_reads_the_clock_only_after_a_blocked_pass() {
    let body = fn_body(TABLE_SRC, "pub fn lock(");
    assert_eq!(
        body.matches("Instant::now").count(),
        1,
        "lock() reads the clock once, for its deadline"
    );
    let granted = body
        .find("self.request(")
        .and_then(|pass| body[pass..].find("return Ok(())").map(|r| pass + r))
        .expect("lock() returns on a granted pass");
    assert!(
        granted < body.find("Instant::now").unwrap(),
        "the deadline is computed only once a pass did not grant"
    );
}

#[test]
fn blocked_waits_still_record_wait_metrics() {
    // Behavioral companion: moving the clock read off the mutex must not
    // lose the wait accounting itself.
    let t = LockTable::with_shards(4);
    t.lock(Tid(1), Oid(9), Operation::Write, None).unwrap();
    let err = t
        .lock(
            Tid(2),
            Oid(9),
            Operation::Write,
            Some(Duration::from_millis(30)),
        )
        .unwrap_err();
    assert!(matches!(err, AssetError::LockTimeout { .. }));
    let stats = t
        .stripe_stats()
        .into_iter()
        .find(|s| s.waits > 0)
        .expect("the blocked request registered a distinct wait");
    assert!(stats.blocks >= 1);
    assert!(
        stats.wait_ns_total > 0,
        "wait duration still measured (outside the guard)"
    );
    assert_eq!(stats.timeouts, 1);
}
