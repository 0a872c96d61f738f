//! Sessions: mapping one connection's requests onto executor-driven
//! transactions.
//!
//! A wire `BEGIN` submits a **mailbox-fed step program** to the [`Database`]
//! executor. The program loops: pop the next [`TxnOp`] from the session's
//! mailbox and run it with the step context's non-blocking operations; when
//! the mailbox is empty it returns [`TxnStep::WaitExternal`] and the worker
//! parks the transaction without occupying a thread. The session (connection)
//! thread is the producer: it pushes an op, calls [`Database::nudge`], and
//! blocks on the mailbox condvar until the program replies or is gone (the
//! executor drops a finished task's program, and the program's `Closer`
//! closes the mailbox). `COMMIT` is the exception — the program consumes the
//! op and returns `Done(Ok(()))`, entering the executor's group-commit
//! pipeline, and the session thread awaits [`Database::outcome`] instead of a
//! mailbox reply, so the commit acknowledgement rides the group-commit flush
//! window (DESIGN.md §13.2).
//!
//! ## Why the mailbox never loses a wakeup
//!
//! The session pushes the op **before** nudging, and `nudge` on a
//! `RUNNING` task marks it `RUNNING_DIRTY` so a concurrent park
//! attempt requeues instead of parking (the executor's usual
//! discipline). A parked task is re-enqueued directly. Either way the
//! program re-enters and sees the op.

use crate::protocol::status_of;
use asset_common::sync::{Condvar, Mutex};
use asset_core::{AssetError, Database, Oid, Tid, TryOp, TxnStep};
use std::collections::VecDeque;
use std::sync::Arc;

/// One operation fed to a session transaction's step program.
#[derive(Clone, Debug)]
pub(crate) enum TxnOp {
    /// Transactional read of an object.
    Read(Oid),
    /// Transactional write of an object.
    Write(Oid, Vec<u8>),
    /// Finish the program successfully: enters the commit pipeline.
    Commit,
    /// Finish the program with an abort.
    Abort,
    /// Finish the program leaving the transaction `Completed` — locks
    /// held, nothing committed or aborted — for the distributed-commit
    /// prepare path (wire `PREPARE`, DESIGN.md §14): the session thread
    /// then drives [`Database::prepare_group`] and the coordinator's
    /// decision resolves the transaction.
    Hold,
}

/// What the program reports back for one consumed [`TxnOp`].
#[derive(Clone, Debug)]
pub(crate) enum OpReply {
    /// A read's result.
    Value(Option<Vec<u8>>),
    /// A write landed.
    Done,
    /// The op failed; the transaction is terminating. Carries the wire
    /// status code and a diagnostic message.
    Fail(u8, String),
}

#[derive(Default)]
struct MailboxInner {
    queue: VecDeque<TxnOp>,
    /// The op being executed; retained across `WouldBlock` parks so a
    /// re-entered program retries the same op (try-ops are retryable).
    current: Option<TxnOp>,
    replies: VecDeque<OpReply>,
    /// The program is gone: no further reply will come.
    closed: bool,
}

/// The channel between a session thread and its transaction's step
/// program. Ops flow in (session → program), replies flow out.
#[derive(Default)]
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    ready: Condvar,
}

impl Mailbox {
    /// Queue an op. Call [`Database::nudge`] afterwards — push, then
    /// nudge, never the other way around.
    pub(crate) fn push(&self, op: TxnOp) {
        self.inner.lock().queue.push_back(op);
    }

    /// Program side: finish the current op with a reply and wake the
    /// session thread.
    fn finish(&self, reply: OpReply) {
        {
            let mut g = self.inner.lock();
            g.current = None;
            g.replies.push_back(reply);
        }
        self.ready.notify_all();
    }

    /// Program side: consume the current op without a reply (terminal
    /// ops — the session thread awaits the transaction outcome
    /// instead).
    fn consume_silently(&self) {
        self.inner.lock().current = None;
    }

    /// Program side: the op to run now — the retained current op, or
    /// the next queued one. `None` means park on `WaitExternal`.
    fn next_op(&self) -> Option<TxnOp> {
        let mut g = self.inner.lock();
        if let Some(op) = &g.current {
            return Some(op.clone());
        }
        let op = g.queue.pop_front()?;
        g.current = Some(op.clone());
        Some(op)
    }

    /// Session side: wait for a reply; `None` once the program is gone
    /// with nothing left to say.
    fn take_reply(&self) -> Option<OpReply> {
        let mut g = self.inner.lock();
        loop {
            if let Some(r) = g.replies.pop_front() {
                return Some(r);
            }
            if g.closed {
                return None;
            }
            self.ready.wait(&mut g);
        }
    }
}

/// Owned by a session's step program and dropped with it — when the
/// executor retires the task, however the transaction ended: closes the
/// mailbox and wakes a session thread waiting for a reply that will not
/// come.
struct Closer(Arc<Mailbox>);

impl Drop for Closer {
    fn drop(&mut self) {
        self.0.inner.lock().closed = true;
        self.0.ready.notify_all();
    }
}

/// One wire-visible transaction: the executor task plus its mailbox.
pub(crate) struct SessionTxn {
    pub(crate) tid: Tid,
    pub(crate) mailbox: Arc<Mailbox>,
}

impl SessionTxn {
    /// Submit a new mailbox-fed transaction to `db`'s executor. The
    /// program parks on [`TxnStep::WaitExternal`] immediately (the
    /// mailbox starts empty).
    pub(crate) fn submit(db: &Database) -> Result<SessionTxn, AssetError> {
        let mailbox = Arc::new(Mailbox::default());
        let closer = Closer(Arc::clone(&mailbox));
        let tid = db.submit(move |sc| loop {
            let mb = &closer.0;
            let Some(op) = mb.next_op() else {
                return TxnStep::WaitExternal;
            };
            match op {
                TxnOp::Read(ob) => match sc.try_read(ob) {
                    Ok(TryOp::Done(v)) => mb.finish(OpReply::Value(v)),
                    Ok(TryOp::WouldBlock) => return TxnStep::WaitLock { ob },
                    Err(e) => {
                        mb.finish(OpReply::Fail(status_of(&e), e.to_string()));
                        return TxnStep::Done(Err(e));
                    }
                },
                TxnOp::Write(ob, bytes) => match sc.try_write(ob, bytes) {
                    Ok(TryOp::Done(())) => mb.finish(OpReply::Done),
                    Ok(TryOp::WouldBlock) => return TxnStep::WaitLock { ob },
                    Err(e) => {
                        mb.finish(OpReply::Fail(status_of(&e), e.to_string()));
                        return TxnStep::Done(Err(e));
                    }
                },
                TxnOp::Commit => {
                    mb.consume_silently();
                    return TxnStep::Done(Ok(()));
                }
                TxnOp::Abort => {
                    mb.consume_silently();
                    return TxnStep::Done(Err(AssetError::TxnAborted(sc.id())));
                }
                TxnOp::Hold => {
                    // reply first so the session thread unblocks, then
                    // retire the task with the txn resting at Completed
                    mb.finish(OpReply::Done);
                    return TxnStep::Hold;
                }
            }
        })?;
        Ok(SessionTxn { tid, mailbox })
    }

    /// Push an op, nudge the executor, and wait for the program's
    /// reply. Returns `None` when the transaction reached a terminal
    /// state without answering (e.g. it was aborted by dependency
    /// propagation while the op was queued).
    pub(crate) fn call(&self, db: &Database, op: TxnOp) -> Option<OpReply> {
        self.mailbox.push(op);
        db.nudge(self.tid);
        self.mailbox.take_reply()
    }

    /// Queue a terminal op (Commit/Abort) and nudge; the caller awaits
    /// the transaction outcome, not a mailbox reply.
    pub(crate) fn finishing(&self, db: &Database, op: TxnOp) {
        self.mailbox.push(op);
        db.nudge(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn exec_db() -> Database {
        use asset_common::Config;
        Database::open(
            Config::in_memory()
                .with_exec_workers(2)
                .with_commit_flush_window(Duration::from_micros(100)),
        )
        .expect("in-memory open")
        .0
    }

    #[test]
    fn mailbox_feeds_reads_and_writes_through_the_executor() {
        let db = exec_db();
        let oid = db.new_oid();
        let st = SessionTxn::submit(&db).unwrap();
        match st.call(&db, TxnOp::Write(oid, b"42".to_vec())) {
            Some(OpReply::Done) => {}
            other => panic!("write reply: {other:?}"),
        }
        match st.call(&db, TxnOp::Read(oid)) {
            Some(OpReply::Value(Some(v))) => assert_eq!(v, b"42"),
            other => panic!("read reply: {other:?}"),
        }
        st.finishing(&db, TxnOp::Commit);
        assert!(db.outcome(st.tid).unwrap());
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"42");
    }

    #[test]
    fn abort_op_rolls_back() {
        let db = exec_db();
        let oid = db.new_oid();
        assert!(db.run(move |ctx| ctx.write(oid, b"old".to_vec())).unwrap());
        let st = SessionTxn::submit(&db).unwrap();
        assert!(matches!(
            st.call(&db, TxnOp::Write(oid, b"new".to_vec())),
            Some(OpReply::Done)
        ));
        st.finishing(&db, TxnOp::Abort);
        assert!(!db.outcome(st.tid).unwrap());
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"old");
    }

    #[test]
    fn contended_write_parks_and_resumes() {
        let db = exec_db();
        let oid = db.new_oid();
        assert!(db.run(move |ctx| ctx.write(oid, b"seed".to_vec())).unwrap());
        let a = SessionTxn::submit(&db).unwrap();
        let b = SessionTxn::submit(&db).unwrap();
        assert!(matches!(
            a.call(&db, TxnOp::Write(oid, b"a".to_vec())),
            Some(OpReply::Done)
        ));
        // b blocks on the lock a holds; commit a from another thread
        let db2 = db.clone();
        let b_tid = b.tid;
        let h = std::thread::spawn(move || {
            // b's write has hit the conflict once its request is listed
            while !db2.locks().pending(oid).iter().any(|p| p.tid == b_tid) {
                std::thread::yield_now();
            }
            a.finishing(&db2, TxnOp::Commit);
            db2.outcome(a.tid)
        });
        assert!(matches!(
            b.call(&db, TxnOp::Write(oid, b"b".to_vec())),
            Some(OpReply::Done)
        ));
        assert!(h.join().unwrap().unwrap());
        b.finishing(&db, TxnOp::Commit);
        assert!(db.outcome(b.tid).unwrap());
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"b");
    }

    #[test]
    fn an_outside_abort_under_a_queued_op_answers_none() {
        let db = exec_db();
        let oid = db.new_oid();
        let a = SessionTxn::submit(&db).unwrap();
        let b = SessionTxn::submit(&db).unwrap();
        assert!(matches!(
            a.call(&db, TxnOp::Write(oid, b"a".to_vec())),
            Some(OpReply::Done)
        ));
        // b's write parks behind a's lock; abort b from outside meanwhile
        let (db2, b_tid) = (db.clone(), b.tid);
        let h = std::thread::spawn(move || {
            while !db2.locks().pending(oid).iter().any(|p| p.tid == b_tid) {
                std::thread::yield_now();
            }
            db2.abort(b_tid)
        });
        assert!(b.call(&db, TxnOp::Write(oid, b"b".to_vec())).is_none());
        assert!(h.join().unwrap().unwrap());
        assert!(!db.outcome(b.tid).unwrap());
        // the program is gone: a later op is answered at once
        assert!(b.call(&db, TxnOp::Read(oid)).is_none());
        a.finishing(&db, TxnOp::Commit);
        assert!(db.outcome(a.tid).unwrap());
        assert_eq!(db.peek(oid).unwrap().unwrap(), b"a");
    }
}
