//! R1 fixture (conforming) — the post-fix shape of the same two
//! operations, and a `Prepared` entry after its record: the log record
//! lands before the tracked state changes, so a crash at any point
//! leaves recovery a log that explains everything it finds.

// The contracts are `verify: wal` comments, read by the analyzer.

impl Database {
    // verify: wal(logs = "log_record", mutates = "slot.status = TxnStatus::Running")
    pub fn begin(&self, t: Tid) -> Result<()> {
        self.inner.txns.with(t, |slot| {
            self.inner.engine.log_record(&LogRecord::Begin { tid: t })?;
            slot.status = TxnStatus::Running;
            slot.thread_live = true;
            Ok(())
        })
    }

    // verify: wal(logs = "log_record", mutates = "mem::take(&mut slot.undo)")
    pub fn delegate(&self, from: Tid, to: Tid) -> Result<()> {
        let mut guard = self.inner.txns.lock_group(&[from, to]);
        self.inner
            .engine
            .log_record(&LogRecord::Delegate { from, to })?;
        if let Some(slot) = guard.get_mut(from) {
            let moved = mem::take(&mut slot.undo);
            if let Some(dst) = guard.get_mut(to) {
                dst.undo.extend(moved);
            }
        }
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
    /// Forces the record, then enters `Prepared` (§14.2).
    pub fn mark_prepared(&mut self, log: &mut Vec<LogRecord>) {
        log.push(LogRecord::Prepared { tids: Vec::new() });
        self.set_status(TxnStatus::Prepared);
    }
}
