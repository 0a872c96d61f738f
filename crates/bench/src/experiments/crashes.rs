//! E13 — the crash matrix as an experiment: for every registered
//! failpoint, crash an on-disk workload at that point, then measure what
//! restart recovery has to do (wall time, redo/undo work). Quantifies the
//! cost of crash recovery as a function of *where* the crash lands.
//!
//! The fault-injected internals need the `faults` feature; without it the
//! table carries a single placeholder row so the suite keeps a stable
//! shape.

use super::Scale;
use crate::table::Table;

/// E13 — crash/recover cycle per failpoint (see `tests/crash_matrix.rs`
/// for the correctness side; this measures the recovery work).
pub fn e13_crash_matrix(scale: Scale) -> Table {
    let table = Table::new(
        "E13: crash matrix",
        "per-failpoint crash/recover cycle: injected crash, then restart recovery time and redo/undo volume",
    )
    .headers(&["failpoint", "fired", "recovery", "winners", "losers", "redone", "undone"]);
    fill(table, scale)
}

#[cfg(not(feature = "faults"))]
fn fill(mut table: Table, _scale: Scale) -> Table {
    table.row(vec![
        "(build with --features faults)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    table
}

#[cfg(feature = "faults")]
fn fill(mut table: Table, scale: Scale) -> Table {
    use crate::table::fmt_duration;
    use crate::workload::enc_i64;
    use asset_common::Config;
    use asset_core::Database;
    use asset_faults::{FaultAction, FaultRegistry, Trigger};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Instant;

    asset_faults::silence_crash_panics();

    struct TempDir(std::path::PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    let points: Vec<&'static str> = asset_storage::failpoints::ALL
        .iter()
        .chain(asset_core::failpoints::ALL.iter())
        .copied()
        .collect();
    let n = scale.n(100);

    for (i, point) in points.iter().enumerate() {
        let dir = TempDir(std::env::temp_dir().join(format!(
            "asset-e13-{i}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        )));
        let _ = std::fs::remove_dir_all(&dir.0);
        std::fs::create_dir_all(&dir.0).unwrap();

        let faults = Arc::new(FaultRegistry::new());
        let config = Config::on_disk(&dir.0).with_faults(Arc::clone(&faults));

        // a log worth recovering: n committed single-write transactions
        let (db, _) = Database::open(config.clone()).unwrap();
        let oids: Vec<_> = (0..n).map(|_| db.new_oid()).collect();
        for (v, oid) in oids.iter().enumerate() {
            let oid = *oid;
            assert!(db
                .run(move |ctx| ctx.write(oid, enc_i64(v as i64)))
                .unwrap());
        }

        // crash at the failpoint during one more group of work
        faults.arm(point, Trigger::Once, FaultAction::Crash);
        let _ = catch_unwind(AssertUnwindSafe(|| -> asset_common::Result<()> {
            let o = oids[0];
            let t = db.initiate(move |ctx| ctx.write(o, enc_i64(-1)))?;
            db.begin(t)?;
            db.wait(t)?;
            db.commit(t)?;
            db.checkpoint()?;
            Ok(())
        }));
        let fired = faults.fired(point) > 0;
        drop(db);

        // restart: measure recovery
        faults.reset();
        let start = Instant::now();
        let (db, report) = Database::open(config).unwrap();
        let elapsed = start.elapsed();
        drop(db);

        table.row(vec![
            (*point).into(),
            if fired { "yes".into() } else { "no".into() },
            fmt_duration(elapsed),
            report.winners.to_string(),
            report.losers.to_string(),
            report.redone.to_string(),
            report.undone.to_string(),
        ]);
    }
    table
}
