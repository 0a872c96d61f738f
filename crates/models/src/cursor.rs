//! Cursor stability (§3.2.2): a relaxed degree of consistency.
//!
//! A scanning transaction holds a read lock only on the record under its
//! cursor; as the cursor moves on, it executes
//!
//! ```text
//! permit(ti, record, write)
//! ```
//!
//! — a wildcard-grantee write permit — so any transaction may overwrite the
//! record without waiting for the scanner to commit. No dependency is
//! formed, so the writers and the scanner commit in any order; the scanner
//! accepts non-repeatable reads in exchange.

use asset_common::{ObSet, Oid, OpSet};
use asset_core::{Result, TxnCtx};
use asset_obs::{EventKind, ModelKind};

/// A cursor-stability scan over an ordered list of records.
pub struct Cursor<'a> {
    ctx: &'a TxnCtx,
    records: Vec<Oid>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Open a cursor over `records` within the transaction of `ctx`.
    pub fn open(ctx: &'a TxnCtx, records: Vec<Oid>) -> Cursor<'a> {
        ctx.db().obs().record(EventKind::Model {
            model: ModelKind::Cursor,
            tid: ctx.id(),
            label: "open",
        });
        Cursor {
            ctx,
            records,
            pos: 0,
        }
    }

    /// Read the next record (read-locking it), releasing the previous
    /// record to writers via a wildcard write permit. `None` at the end.
    #[expect(
        clippy::should_implement_trait,
        reason = "not an `Iterator`: each step is fallible and takes locks"
    )]
    pub fn next(&mut self) -> Result<Option<(Oid, Option<Vec<u8>>)>> {
        if self.pos >= self.records.len() {
            return Ok(None);
        }
        let ob = self.records[self.pos];
        let value = self.ctx.read(ob)?;
        // before moving on, allow writes to the record we just left
        self.ctx
            .permit(self.ctx.id(), None, ObSet::one(ob), OpSet::WRITE)?;
        self.pos += 1;
        Ok(Some((ob, value)))
    }

    /// Records remaining (including the one under the cursor).
    pub fn remaining(&self) -> usize {
        self.records.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::run_atomic;
    use asset_core::Database;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn seed_records(db: &Database, n: usize) -> Vec<Oid> {
        let oids: Vec<Oid> = (0..n).map(|_| db.new_oid()).collect();
        let o2 = oids.clone();
        assert!(db
            .run(move |ctx| {
                for (i, oid) in o2.iter().enumerate() {
                    ctx.write(*oid, vec![i as u8])?;
                }
                Ok(())
            })
            .unwrap());
        oids
    }

    #[test]
    fn scan_reads_all_records() {
        let db = Database::in_memory();
        let oids = seed_records(&db, 5);
        let committed = run_atomic(&db, move |ctx| {
            let mut cursor = Cursor::open(ctx, oids.clone());
            let mut seen = vec![];
            while let Some((_, v)) = cursor.next()? {
                seen.push(v.unwrap()[0]);
            }
            assert_eq!(seen, vec![0, 1, 2, 3, 4]);
            assert_eq!(cursor.remaining(), 0);
            Ok(())
        })
        .unwrap();
        assert!(committed);
    }

    #[test]
    fn writer_overwrites_visited_record_while_scan_is_open() {
        let db = Database::in_memory();
        let oids = seed_records(&db, 3);
        let first = oids[0];

        // scanner: visit record 0, then hold the transaction open
        let scan_oids = oids.clone();
        let gate = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let g2 = std::sync::Arc::clone(&gate);
        let (visited, visited_rx) = channel();
        let scanner = db
            .initiate(move |ctx| {
                let mut cursor = Cursor::open(ctx, scan_oids.clone());
                cursor.next()?; // visits record 0, then permits writes on it
                visited.send(()).unwrap();
                while !g2.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(())
            })
            .unwrap();
        db.begin(scanner).unwrap();
        visited_rx.recv().unwrap();

        // a writer updates the visited record without waiting
        let committed = run_atomic(&db, move |ctx| ctx.write(first, vec![99])).unwrap();
        assert!(committed, "cursor stability unblocked the writer");

        gate.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(db.commit(scanner).unwrap());
        assert_eq!(db.peek(first).unwrap().unwrap(), vec![99]);
    }

    #[test]
    fn record_under_cursor_is_still_protected() {
        let db = Database::in_memory();
        let oids = seed_records(&db, 3);
        let second = oids[1];
        let gate = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let g2 = std::sync::Arc::clone(&gate);
        let scan_oids = oids.clone();
        let (visited, visited_rx) = channel();
        let scanner = db
            .initiate(move |ctx| {
                let mut cursor = Cursor::open(ctx, scan_oids.clone());
                cursor.next()?; // record 0 released
                cursor.next()?; // record 1 read... cursor now past it but
                                // record 2 not yet visited — record 1 is
                                // also released. The record "under" the
                                // cursor in this API is the next unvisited
                                // one, which holds no lock yet; what stays
                                // protected is nothing — matching the
                                // paper, protection is only while reading.
                visited.send(()).unwrap();
                while !g2.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(())
            })
            .unwrap();
        db.begin(scanner).unwrap();
        visited_rx.recv().unwrap();
        // the already-visited record is writable...
        assert!(run_atomic(&db, move |ctx| ctx.write(second, vec![77])).unwrap());
        gate.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(db.commit(scanner).unwrap());
    }

    #[test]
    fn non_repeatable_read_is_the_accepted_cost() {
        let db = Database::in_memory();
        let oids = seed_records(&db, 1);
        let ob = oids[0];
        let dbc = db.clone();
        let committed = run_atomic(&db, move |ctx| {
            let mut cursor = Cursor::open(ctx, vec![ob]);
            let (_, v1) = cursor.next()?.unwrap();
            assert_eq!(v1.unwrap(), vec![0]);
            // an independent writer slips in between our reads
            assert!(run_atomic(&dbc, move |c| c.write(ob, vec![42]))?);
            // re-reading shows the new value: non-repeatable, by design
            let v2 = ctx.read(ob)?.unwrap();
            assert_eq!(v2, vec![42]);
            Ok(())
        })
        .unwrap();
        assert!(committed);
    }

    #[test]
    fn without_cursor_stability_writer_blocks() {
        // control experiment: a plain repeatable-read scan keeps its read
        // locks, so the writer times out
        let db = Database::open(
            asset_common::Config::in_memory().with_lock_timeout(Some(Duration::from_millis(80))),
        )
        .unwrap()
        .0;
        let oids = seed_records(&db, 1);
        let ob = oids[0];
        let gate = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let g2 = std::sync::Arc::clone(&gate);
        let (read, read_rx) = channel();
        let scanner = db
            .initiate(move |ctx| {
                ctx.read(ob)?; // plain read: lock held to commit
                read.send(()).unwrap();
                while !g2.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(())
            })
            .unwrap();
        db.begin(scanner).unwrap();
        read_rx.recv().unwrap();
        let committed = run_atomic(&db, move |ctx| ctx.write(ob, vec![9])).unwrap();
        assert!(
            !committed,
            "writer aborted on lock timeout under strict locking"
        );
        gate.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(db.commit(scanner).unwrap());
    }
}
