//! R1 fixture (violating) — distilled from the pre-failpoint-era
//! `Database` (commit 2611af2), where `begin` flipped the slot to
//! `Running` and `delegate` spliced undo entries *before* the matching
//! log record was appended. A crash between the two steps leaves
//! recovery with in-memory state the log cannot explain. The analyzer
//! must re-detect both reorders, and a `Prepared` entry with no record.

// The contracts are `verify: wal` comments, read by the analyzer.

impl Database {
    // verify: wal(logs = "log_record", mutates = "slot.status = TxnStatus::Running")
    pub fn begin(&self, t: Tid) -> Result<()> {
        self.inner.txns.with(t, |slot| {
            slot.status = TxnStatus::Running; // mutate first — the bug
            slot.thread_live = true;
            self.inner.engine.log_record(&LogRecord::Begin { tid: t })?;
            Ok(())
        })
    }

    // verify: wal(logs = "log_record", mutates = "mem::take(&mut slot.undo)")
    pub fn delegate(&self, from: Tid, to: Tid) -> Result<()> {
        let mut guard = self.inner.txns.lock_group(&[from, to]);
        if let Some(slot) = guard.get_mut(from) {
            let moved = mem::take(&mut slot.undo); // splice first — the bug
            if let Some(dst) = guard.get_mut(to) {
                dst.undo.extend(moved);
            }
        }
        self.inner
            .engine
            .log_record(&LogRecord::Delegate { from, to })?;
        drop(guard);
        Ok(())
    }
}

impl StorageEngine {
    pub fn log_record(&self, rec: &LogRecord) -> Result<()> {
        self.wal.append(rec)
    }

    fn append(&self, rec: &LogRecord) -> Result<()> {
        let frame = rec.encode();
        self.file.write_all(&frame)?;
        Ok(())
    }
}

impl Slot {
    /// Enters `Prepared` without forcing the WAL record first (§14.2).
    pub fn mark_prepared(&mut self) {
        self.set_status(TxnStatus::Prepared);
    }
}
