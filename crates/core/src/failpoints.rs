//! Named failpoints compiled into the transaction layer.
//!
//! Companions to [`asset_storage::failpoints`]: these sit in the §4.2
//! protocol steps themselves — the commit point, the CLR undo loop, and
//! the delegation hand-off — where the storage-layer points cannot
//! distinguish *which* protocol step was in flight. `Error` at any of the
//! first five is a failed log write, and stops the database. Active only
//! with the `faults` feature; the constants remain so harnesses can
//! enumerate them unconditionally.

/// In `commit_pass` step 4 (either driver), under the group's shards,
/// before its commit record is appended: `Error` is the append failing
/// with nothing written.
pub const COMMIT_RECORD: &str = "commit.record";

/// In the blocking `commit`, after a window made the commit record
/// durable, before any status changes (the locks went at the record's
/// append): `Crash` models the classic
/// "committed on disk, dead before anyone heard" window; `Error` models a
/// post-append failure report, whose commit restart keeps.
pub const COMMIT_AFTER_RECORD: &str = "commit.after_record";

/// In the `abort_many` undo loop, before each undo step (before image
/// installed and CLR appended, one latched engine call): a rollback
/// stopped halfway logs no `Abort` record, and restart recovery finishes
/// it from the log.
pub const ABORT_CLR: &str = "abort.clr";

/// In `delegate`, before the `Delegate` record is appended (which is
/// before any in-memory splice — WAL discipline): nothing has moved.
pub const DELEGATE_RECORD: &str = "delegate.record";

/// In `prepare_group`, before the `Prepared` record is forced: nothing is
/// written, and the vote the coordinator gets is a *no*.
pub const PREPARE_RECORD: &str = "prepare.record";

/// In `prepare_group`, after the `Prepared` record is durable but before
/// the vote can reach the coordinator: `Crash` models the participant
/// dying prepared — restart recovery must restore it in-doubt, holding its
/// locks, until the coordinator's decision arrives (§14.3).
pub const PART_AFTER_PREPARE: &str = "prepare.after_record";

/// In `decide_commit_group`, after the group is committed in memory, its
/// `Commit` record appended but not forced: `Crash` models the participant
/// dying before its next force — the record dies with it, and restart
/// restores the group in doubt until cooperative termination re-delivers
/// the decision (§14.3); `Error` models the acknowledgement being lost.
pub const PART_AFTER_DECIDE: &str = "decide.after_apply";

/// Every failpoint the transaction layer registers, for matrix sweeps.
pub const ALL: &[&str] = &[
    COMMIT_RECORD,
    COMMIT_AFTER_RECORD,
    ABORT_CLR,
    DELEGATE_RECORD,
    PREPARE_RECORD,
    PART_AFTER_PREPARE,
    PART_AFTER_DECIDE,
];
