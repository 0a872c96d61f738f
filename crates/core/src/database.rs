//! The ASSET transaction manager: the paper's primitives over the EOS-style
//! substrate.
//!
//! `Database` owns the storage engine, the lock table, the dependency graph
//! and the transaction table (TDs). Every primitive of §2 is a method here;
//! [`TxnCtx`](crate::context::TxnCtx) proxies them with `self()` filled in
//! for code running inside a transaction.
//!
//! Both descriptor tables are sharded per the paper's §4.1 double hashing:
//! the lock table by object id (inside `asset-lock`) and the transaction
//! table by tid ([`TxnTable`]), so the per-operation hot path touches only
//! the stripes of the descriptors involved. The TD is the one
//! per-transaction record; the global dependency graph holds only edges
//! between live transactions and is taken only on `form_dependency`, the
//! commit gates and terminations, never on the read/write path.
//! Cross-shard atomicity rules:
//!
//! * shard locks are acquired in ascending index order ([`GroupGuard`]);
//! * the `deps` mutex is acquired only *after* any held transaction
//!   shards, never before;
//! * the commit point re-validates the gate while holding every group
//!   member's shard, which blocks concurrent `form_dependency`/abort of a
//!   member (both need a member's shard) — the atomicity the old global
//!   mutex provided, now scoped to the group — and, in that visit,
//!   appends the group's commit record, **pins** the group
//!   (`commit_pending`) and releases its locks before letting the shards
//!   go: no shard or lock is held across the record's fsync. The
//!   distributed participant's `prepare_group` is the exception: it
//!   forces its `Prepared` record with the group's shards held (and, on
//!   an idle flusher, runs its window and syncs under them) — which is
//!   why a window a waiter runs acknowledges that waiter alone: the
//!   executor's acknowledgement callbacks run only on the flusher thread.
//!   (`decide_commit_group` appends its `Commit` record under the shards
//!   but forces nothing.)
//!
//! ## Execution model
//!
//! `initiate` registers a closure, kept in the TD; `begin` marks it running
//! and hands it to a reused transaction thread (`threads.rs`), which runs it
//! with a `TxnCtx` — unless a caller of `wait` or `commit` claims it first
//! and runs it itself (`run` always does). When the closure returns `Ok`, the
//! transaction is *completed* — locks retained, changes not durable — until
//! an explicit `commit` runs the §4.2 protocol. Returning `Err` (or
//! panicking) aborts. `submit` ([`crate::exec`]) runs a step program on a
//! worker pool instead. Both drivers go through the same non-blocking passes
//! (`start`, `complete`, `install`, `commit_pass`, `finish_commit`): where a
//! pass says *wait*, the blocking primitives sleep on the event count and the
//! executor parks the task.
//!
//! ## Commit protocol (paper §4.2, `commit(ti)`)
//!
//! The mark-based group-commit discovery of the paper is implemented as GC
//! *component* evaluation: the committing transaction's whole GC component
//! must be gate-free and fully executed, then the component commits
//! atomically under one forced log record. AD gates wait for the parent to
//! commit (and doom on its abort); CD gates wait for termination either
//! way. Blocked commits wait on the transaction table's event count and
//! "retry starting at step 1" on every termination event.
//!
//! There is one implementation, `commit_pass`: status check, then
//! `ready_group` (gates resolved, every member's shard locked, gates
//! re-validated, every member completed), then, in the same visit, the
//! commit point: the group's one commit record is appended, the group
//! pinned and its locks released (early lock release: whoever takes them
//! commits behind the record in the one log). A group with no undo entry
//! appends nothing; it waits for the latest commit record not yet durable,
//! since it may have read what that commit released, or — none — goes
//! straight to `finish_commit`. The driver then waits until the log is
//! durable through that LSN — `commit` in the group flusher, running the
//! flush window on its own thread when the flusher is idle and riding the
//! flusher thread's next window when not; the executor with a callback,
//! parked — and `finish_commit` (statuses, dependency cleanup) follows.
//! While a group is pinned its fate is the flush outcome's alone: aborts
//! skip its members, other commits wait, `checkpoint` refuses, and
//! `delegate`/`form_dependency`/`abort` wait the window out and then meet
//! the terminal status. `prepare_group` shares `ready_group`;
//! `decide_commit_group` shares `finish_commit`.
//!
//! ## Abort protocol (paper §4.2, `abort(ti)`)
//!
//! Install before images in reverse order — each with its CLR, one latched
//! engine call per step — log `Abort` (if the log has heard of the
//! transaction at all), then, in one visit to the victim's shard, release
//! the locks its TD lists and its permits, propagate along incoming AD/GC
//! edges (CD edges are dropped) and mark aborted. A
//! *running* victim is marked `Aborting` and its lock waits are poisoned;
//! whoever runs its body performs the steps when the closure unwinds (a
//! body nobody has claimed yet is dropped unrun) — the paper's "mark tj in
//! its TD structure as aborting". The
//! `abort_performed` flag claims finalization under the victim's shard, so
//! the undo itself can run without holding any table lock.
//!
//! ## Fail-stop
//!
//! A failed write or sync of the live log, or a panic out of a
//! `SystemSection` (each primitive, step and window), stops the database:
//! every later primitive and every woken waiter returns
//! [`AssetError::Stopped`], and restart decides what was in flight.

use crate::context::TxnCtx;
use crate::exec::Task;
#[cfg(feature = "faults")]
use crate::failpoints as fp;
use crate::threads::{txn_threads, TxnThreads};
use crate::txns::{GroupGuard, Td, TxnTable};
use asset_common::ids::IdGen;
use asset_common::sync::Mutex;
use asset_common::{AssetError, Config, DepType, Lsn, ObSet, Oid, OpSet, Result, Tid, TxnStatus};
use asset_dep::{CommitGate, DepGraph};
use asset_lock::LockTable;
use asset_obs::{add, bump, EventKind, Obs, SpanName};
use asset_storage::log::mark::{self, Kind};
use asset_storage::log::{OnStop, SystemSection};
use asset_storage::{LogPlace, LogRecord, RecordRef, RecoveryReport, StorageEngine};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::Wake;
use std::time::Instant;

/// The closure a transaction executes.
pub type Job = Box<dyn FnOnce(&TxnCtx) -> Result<()> + Send + 'static>;

/// One undo-log entry: installing `before` over `oid` reverses one update.
#[derive(Clone, Debug)]
pub(crate) struct UndoEntry {
    /// The update record's place in the log: undo (newest first) runs in
    /// log order by construction.
    pub seq: LogPlace,
    pub oid: Oid,
    pub before: Option<Vec<u8>>,
}

/// What a live transaction holds: its undo chain and its lock list (§4.1:
/// the TD's list of LRDs, each object once; the lock table keeps no copy).
#[derive(Default)]
pub(crate) struct Held {
    /// In-memory undo chain; delegation splices entries between TDs.
    pub undo: Vec<UndoEntry>,
    pub locks: Vec<Oid>,
}

/// A transaction descriptor (the paper's TD). The default is a fresh
/// top-level one: `Initiated`, nothing claimed, pinned or prepared. It
/// lives from `initiate` (or restart's in-doubt restore) until the visit
/// that ends the transaction, which keeps only its fate ([`Td::Ended`]).
#[derive(Default)]
pub(crate) struct TxnSlot {
    pub parent: Tid,
    pub status: TxnStatus,
    /// The body, from `initiate` until it is claimed (`Database::claim`)
    /// by the thread that runs it; `None` for a step program, which lives
    /// in its executor task.
    pub job: Option<Job>,
    /// Filled by writes, locks and delegations to it; taken by the pin
    /// or by the visit that ends it.
    pub held: Held,
    /// Abort steps already performed? (guards against double undo when
    /// commit/abort/wrapper race to finalize an `Aborting` transaction)
    pub abort_performed: bool,
    /// Is the body begun and not yet finished — waiting to be claimed, or
    /// running on whichever thread claimed it? While it is, abort only
    /// *marks* (§4.2: "mark tj in its TD structure as aborting"); the undo
    /// steps run when that thread finishes, so a late in-flight write can
    /// never land after its own undo. Executor-driven transactions set
    /// this too: the worker pool plays the role of the thread and
    /// finalizes marked aborts at the next dispatch.
    pub thread_live: bool,
    /// The pin: a commit record containing this transaction (or, for a
    /// group that logged nothing, one it read behind) is in the log and
    /// not yet durable, its locks are released, and its fate is decided
    /// solely by the flush outcome. While set, `abort_many` skips the
    /// slot, a concurrent commit waits instead of appending a second record
    /// for the same group, and `delegate`/`form_dependency`/`abort` wait
    /// the window out (`lock_unpinned`). Set under the group's shards by
    /// `commit_pass`, cleared under them by `finish_commit`; no shard is
    /// held in between. A failed window leaves it set: it stops the
    /// database.
    pub commit_pending: bool,
    /// The executor task of a step program, from `submit` until the
    /// visit that sets the terminal status: what `nudge` and an abort's
    /// wake requeue.
    pub task: Option<Arc<Task>>,
    /// When the `Prepared` record was forced (§14.2): set by
    /// `prepare_group` with the status, taken by the decide that ends the
    /// in-doubt window. `None` after a restart, which records nothing.
    pub prepared_at: Option<Instant>,
}

impl TxnSlot {
    /// Move `t`'s TD to `next`: the one store of a status after the TD is
    /// made, checked against the status machine in debug builds — and
    /// `Prepared` only behind a `Prepared` record naming `t` (§14.2).
    pub(crate) fn set_status(&mut self, t: Tid, next: TxnStatus) {
        debug_assert!(
            self.status.can_transition_to(next),
            "{t}: {:?} -> {next:?} is not a status transition",
            self.status
        );
        if next == TxnStatus::Prepared {
            mark::expect(Kind::Prepared, t.raw());
        }
        self.status = next;
    }
}

pub(crate) struct DbInner {
    pub config: Config,
    pub engine: StorageEngine,
    pub locks: LockTable,
    pub deps: Mutex<DepGraph>,
    pub txns: TxnTable,
    pub tid_gen: IdGen,
    pub oid_gen: IdGen,
    /// Non-terminated transaction count. The `initiate` cap is enforced
    /// with a compare-exchange on this counter, so admission control never
    /// takes a table lock.
    pub live_count: AtomicUsize,
    /// Observability hub shared with the storage engine and lock table:
    /// lifecycle counters, latency histograms, and the event trace.
    pub obs: Arc<Obs>,
    /// The state-machine executor (worker pool + run queues), spawned
    /// lazily by the first [`Database::submit`] so databases that only use
    /// the blocking API pay nothing.
    pub exec: std::sync::OnceLock<Arc<crate::exec::ExecInner>>,
    /// The transaction threads `begin` hands bodies to.
    pub threads: Arc<TxnThreads>,
}

impl Drop for DbInner {
    fn drop(&mut self) {
        // Workers hold only `Weak<DbInner>`/strong executor handles, so the
        // executor cannot shut itself down by reference counting alone:
        // signal it here, once the last database handle is gone. Idle
        // transaction threads hold no handle either; they are let go too.
        if let Some(exec) = self.exec.get() {
            exec.begin_shutdown();
        }
        self.threads.close();
    }
}

impl OnStop for DbInner {
    /// Wake every waiter to meet the stop: on a thread of its own, since
    /// the stopping thread may hold any lock. With no thread to be had,
    /// bump the event count here: no stopping path holds its epoch mutex.
    fn stopped(self: Arc<Self>) {
        let inner = Arc::clone(&self);
        let wake = move || {
            inner.txns.bump();
            inner.txns.for_each(|t, s| {
                inner.locks.poison(t);
                if let Some(task) = s.task.clone() {
                    task.wake();
                }
            });
        };
        let thread = std::thread::Builder::new().name("asset-stop".into());
        if thread.spawn(wake).is_err() {
            self.txns.bump();
        }
    }
}

/// A one-call cross-layer introspection view, assembled by
/// [`Database::introspect`] for live monitoring surfaces (`asset-top`, the
/// DOT exporters). Each section is internally consistent (read under its
/// own layer's synchronization); sections may lag each other by in-flight
/// operations, exactly like [`MetricsSnapshot`](asset_obs::MetricsSnapshot).
#[derive(Clone, Debug)]
pub struct Introspection {
    /// Live (non-terminated) transactions, counted in one walk of the
    /// TDs with the three counts that follow.
    pub live: usize,
    /// Live transactions registered but not begun.
    pub initiated: usize,
    /// Live transactions executing their body.
    pub running: usize,
    /// Live transactions completed, committing or prepared: awaiting
    /// their commit point.
    pub completed: usize,
    /// Live permit descriptors.
    pub permits: usize,
    /// Per-stripe cumulative contention counters.
    pub stripe_stats: Vec<asset_lock::StripeStats>,
    /// Per-stripe point-in-time occupancy (holders, waiters, permits).
    pub stripes: Vec<asset_lock::StripeOccupancy>,
    /// Current waits-for edges (waiter → holders).
    pub waits: std::collections::HashMap<Tid, std::collections::HashSet<Tid>>,
    /// Live dependency edges in paper orientation `(kind, ti, tj)`.
    pub dep_edges: Vec<(DepType, Tid, Tid)>,
    /// Dependency-graph aggregate counts (doomed, per-kind edges).
    pub deps: asset_dep::DepSummary,
    /// Log durability watermarks (tail LSN, pending/unsynced bytes).
    pub log: asset_storage::LogWatermarks,
}

/// A handle to an ASSET database. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl Database {
    /// Open a database per `config`, running restart recovery. Returns the
    /// handle and the recovery report.
    pub fn open(config: Config) -> Result<(Database, RecoveryReport)> {
        // One observability hub shared by every layer: the engine reports
        // cache/log metrics, the lock table reports waits and permits, and
        // the transaction manager reports lifecycle events — all into the
        // same counters and trace.
        let obs = Obs::shared();
        let (engine, report) = StorageEngine::open_with_obs(&config, Arc::clone(&obs))?;
        let tid_gen = IdGen::starting_at(report.max_tid + 1);
        // the lowest tid this open can name: the generator's first, or
        // below it an in-doubt transaction restored from the log
        let first = (report.in_doubt.iter().map(|d| d.tid)).fold(Tid(report.max_tid + 1), Tid::min);
        let oid_gen = IdGen::starting_at(report.max_oid + 1);
        let inner = Arc::new(DbInner {
            // 0 = the resolved default, `next_power_of_two(4 x cores)`
            locks: LockTable::with_shards_obs(0, Arc::clone(&obs)),
            txns: TxnTable::new(first),
            config,
            engine,
            deps: Mutex::new(DepGraph::new()),
            tid_gen,
            oid_gen,
            live_count: AtomicUsize::new(0),
            threads: txn_threads(Arc::clone(&obs)),
            obs,
            exec: std::sync::OnceLock::new(),
        });
        let on_stop: Weak<DbInner> = Arc::downgrade(&inner);
        inner.engine.log().on_stop(on_stop);
        // Restore prepared-but-undecided participants (§14.3): each
        // in-doubt transaction re-enters the table as `Prepared` — undo
        // chain rebuilt from the log (for a later decide-abort), X locks
        // reacquired on its updated objects (uncontended: nothing else
        // runs yet), GC links re-formed within its group — and waits for
        // the coordinator's decision.
        for d in &report.in_doubt {
            let undo: Vec<UndoEntry> = d
                .updates
                .iter()
                .map(|u| UndoEntry {
                    seq: (inner.engine.log().generation(), u.lsn),
                    oid: u.oid,
                    before: u.before.clone(),
                })
                .collect();
            let locks: BTreeSet<Oid> = d.updates.iter().map(|u| u.oid).collect();
            for &oid in &locks {
                let write = asset_common::Operation::Write;
                if !matches!(inner.locks.request(d.tid, oid, write, None), Ok(Ok(true))) {
                    return Err(AssetError::Corrupt(format!(
                        "in-doubt lock conflict on {oid} restoring {}",
                        d.tid
                    )));
                }
            }
            let locks = locks.into_iter().collect();
            let slot = TxnSlot {
                status: TxnStatus::Prepared,
                held: Held { undo, locks },
                ..TxnSlot::default()
            };
            inner.txns.insert(d.tid, slot);
            inner.live_count.fetch_add(1, Ordering::Relaxed);
        }
        {
            let present: BTreeSet<Tid> = report.in_doubt.iter().map(|d| d.tid).collect();
            let mut deps = inner.deps.lock();
            for d in &report.in_doubt {
                for m in &d.group {
                    if *m != d.tid && present.contains(m) {
                        // re-link the surviving group (ignore duplicates)
                        let _ = deps.form(DepType::GC, d.tid, *m);
                    }
                }
            }
        }
        Ok((Database { inner }, report))
    }

    /// An in-memory database with default configuration (tests, examples).
    #[expect(clippy::expect_used, reason = "in-memory open performs no I/O")]
    pub fn in_memory() -> Database {
        Database::open(Config::in_memory())
            // the only open failures are I/O errors from the file-backed path
            .expect("in-memory open cannot fail")
            .0
    }

    // --- basic primitives (paper §2.1) ---------------------------------

    /// `initiate(f, args)` — paper §2.1: register a new transaction that
    /// will execute `f`, allocating its transaction descriptor (the TD of
    /// §4.1). (Arguments are closure captures in Rust.) The transaction
    /// does not run until [`begin`](Self::begin); the gap is the point —
    /// you can [`permit`](Self::permit), [`delegate`](Self::delegate) to,
    /// or [`form_dependency`](Self::form_dependency) on a transaction
    /// before it starts. Fails with `ResourceExhausted` when the
    /// configured transaction cap is reached.
    ///
    /// ```
    /// use asset_core::Database;
    ///
    /// let db = Database::in_memory();
    /// let oid = db.new_oid();
    /// let t = db.initiate(move |ctx| ctx.write(oid, b"hello".to_vec())).unwrap();
    /// db.begin(t).unwrap();
    /// assert!(db.commit(t).unwrap());
    /// assert_eq!(db.peek(oid).unwrap().unwrap(), b"hello");
    /// ```
    pub fn initiate(&self, f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static) -> Result<Tid> {
        self.initiate_with_parent(Tid::NULL, Some(Box::new(f)), |_| None)
    }

    /// Register a transaction; `job` is `None` for a step program, whose
    /// TD is born holding the executor task `task` makes from the tid.
    pub(crate) fn initiate_with_parent(
        &self,
        parent: Tid,
        job: Option<Job>,
        task: impl FnOnce(Tid) -> Option<Arc<Task>>,
    ) -> Result<Tid> {
        let _section = self.enter()?;
        let cap = self.inner.config.max_transactions;
        // exact admission without a table lock: claim a live slot or fail
        if self
            .inner
            .live_count
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                if n >= cap {
                    None
                } else {
                    Some(n + 1)
                }
            })
            .is_err()
        {
            return Err(AssetError::ResourceExhausted { limit: cap });
        }
        let tid = Tid(self.inner.tid_gen.next());
        let slot = TxnSlot {
            parent,
            job,
            task: task(tid),
            ..TxnSlot::default()
        };
        self.inner.txns.insert(tid, slot);
        bump(&self.inner.obs.counters.txn_initiated);
        self.inner
            .obs
            .record(EventKind::TxnInitiate { tid, parent });
        Ok(tid)
    }

    /// `begin(t)` — paper §2.1: start execution of `t` concurrently with
    /// the caller. The body is handed to a reused transaction thread (one
    /// is spawned only when none is free), so it runs whether or not
    /// anyone waits for it; a caller that does `wait` or `commit` before
    /// any thread has taken it runs it itself.
    ///
    /// Beginning a transaction that was already doomed (e.g. aborted
    /// through a dependency formed before it started — the point of
    /// separating `initiate` from `begin`) is a benign no-op: the paper's
    /// `begin` returns 0 there, and the subsequent `commit` reports the
    /// abort. Beginning a transaction in any other non-`Initiated` state is
    /// a programming error.
    ///
    /// ```
    /// use asset_core::Database;
    ///
    /// let db = Database::in_memory();
    /// let t = db.initiate(|_| Ok(())).unwrap();
    /// db.begin(t).unwrap();            // the closure now runs concurrently
    /// assert!(db.wait(t).unwrap());    // completed — but not yet durable
    /// assert!(db.commit(t).unwrap());
    /// ```
    pub fn begin(&self, t: Tid) -> Result<()> {
        // false: doomed before it started; commit reports it
        if self.start(t)? {
            self.inner.threads.hand((self.clone(), t));
        }
        Ok(())
    }

    /// `begin(t1, ..., tn)`: start several transactions.
    pub fn begin_many(&self, ts: &[Tid]) -> Result<()> {
        for t in ts {
            self.begin(*t)?;
        }
        Ok(())
    }

    /// `wait(t)` — paper §2.1: block until `t`'s code has completed.
    /// Returns `true` on completion (or if already committed), `false` if
    /// `t` aborted. Completion is *not* commit: `t`'s locks are retained
    /// and its changes stay volatile until [`commit`](Self::commit). A
    /// begun body no thread has taken yet runs on the caller's thread.
    ///
    /// ```
    /// use asset_core::Database;
    ///
    /// let db = Database::in_memory();
    /// let ok = db.initiate(|_| Ok(())).unwrap();
    /// let bad = db.initiate(|ctx| ctx.abort_self::<()>().map(|_| ())).unwrap();
    /// db.begin_many(&[ok, bad]).unwrap();
    /// assert!(db.wait(ok).unwrap());
    /// assert!(!db.wait(bad).unwrap(), "aborted transactions report false");
    /// ```
    pub fn wait(&self, t: Tid) -> Result<bool> {
        self.run_unclaimed(t);
        self.settle(&[t]).map(|(_, completed)| completed)
    }

    /// [`wait`](Self::wait) for the first of `ts` to finish: block until
    /// one of them has completed or aborted and return its index. Unlike
    /// `wait` it runs no body — the others keep running on their own
    /// threads (a race of alternatives, the paper's appendix). An empty
    /// `ts` is refused, since nothing in it could ever finish.
    ///
    /// ```
    /// use asset_core::Database;
    ///
    /// let db = Database::in_memory();
    /// let bad = db.initiate(|ctx| ctx.abort_self::<()>().map(|_| ())).unwrap();
    /// db.begin(bad).unwrap();
    /// assert_eq!(db.wait_any(&[bad]).unwrap(), 0);
    /// assert!(!db.wait(bad).unwrap());
    /// ```
    pub fn wait_any(&self, ts: &[Tid]) -> Result<usize> {
        self.settle(ts).map(|(i, _)| i)
    }

    /// The one wait loop over the event count: the index of the first of
    /// `ts` that has finished, and whether it completed (`true`) or aborted.
    fn settle(&self, ts: &[Tid]) -> Result<(usize, bool)> {
        if ts.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "wait_any over no transactions",
            )
            .into());
        }
        loop {
            let epoch = self.inner.txns.epoch();
            for (i, t) in ts.iter().enumerate() {
                match self.status(*t)? {
                    TxnStatus::Completed
                    | TxnStatus::Committing
                    | TxnStatus::Prepared
                    | TxnStatus::Committed => return Ok((i, true)),
                    TxnStatus::Aborted => return Ok((i, false)),
                    // Aborting is transient (whoever runs the victim's body
                    // finalizes it); report failure only once the undo has
                    // run.
                    TxnStatus::Initiated | TxnStatus::Running | TxnStatus::Aborting => {}
                }
            }
            self.inner.txns.wait_event(epoch);
        }
    }

    /// `commit(t)` — paper §2.1, protocol in §4.2: the blocking commit.
    /// Blocks until `t` completes execution and every dependency gate
    /// opens (CD: the depended-on transaction terminated; AD: the parent
    /// committed; GC: the whole group is ready). Returns `true` if `t`
    /// (and its GC group) committed under one forced log record, `false`
    /// if it aborted. Like [`wait`](Self::wait), it runs a begun body no
    /// thread has taken yet on the caller's thread.
    ///
    /// ```
    /// use asset_core::{Database, DepType};
    ///
    /// let db = Database::in_memory();
    /// let (a, b) = (db.new_oid(), db.new_oid());
    /// let t1 = db.initiate(move |ctx| ctx.write(a, b"alpha".to_vec())).unwrap();
    /// let t2 = db.initiate(move |ctx| ctx.write(b, b"beta".to_vec())).unwrap();
    /// db.form_dependency(DepType::GC, t1, t2).unwrap();
    /// db.begin_many(&[t1, t2]).unwrap();
    /// assert!(db.commit(t1).unwrap()); // commits the whole GC group
    /// assert!(db.is_committed(t2).unwrap());
    /// ```
    pub fn commit(&self, t: Tid) -> Result<bool> {
        let _section = self.enter()?;
        let t0 = self.open_commit_span(t);
        self.run_unclaimed(t);
        // The blocking driver of the one §4.2 protocol: where the executor
        // parks the task, this thread sleeps on the event count and
        // "retries starting at step 1".
        let res = loop {
            let epoch = self.inner.txns.epoch();
            match self.commit_pass(t) {
                Ok(CommitPass::Done(committed)) => break Ok(committed),
                Ok(CommitPass::Wait) => self.inner.txns.wait_event(epoch),
                Ok(CommitPass::Flush(group, lsn)) => {
                    break self.await_durable(t, &group, lsn).map(|()| true)
                }
                Err(e) => break Err(e),
            }
        };
        self.close_commit_span(t, t0);
        res
    }

    /// Commit-phase entry, the same for both drivers: the span and the
    /// latency clock wrap the whole terminal processing (gate evaluation,
    /// parking, the forced record), and both are gated on tracing so the
    /// default commit path stays clock-free.
    pub(crate) fn open_commit_span(&self, t: Tid) -> Option<Instant> {
        let obs = &self.inner.obs;
        let t0 = obs.tracing_enabled().then(Instant::now);
        if t0.is_some() {
            obs.record(EventKind::SpanOpen {
                tid: t,
                span: SpanName::CommitGate,
            });
        }
        t0
    }

    /// Commit-phase exit (committed, aborted, or flush-failed): record
    /// the end-to-end commit latency and close the span.
    pub(crate) fn close_commit_span(&self, t: Tid, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let obs = &self.inner.obs;
            obs.commit_ns.record(t0.elapsed().as_nanos() as u64);
            obs.record(EventKind::SpanClose {
                tid: t,
                span: SpanName::CommitGate,
            });
        }
    }

    /// The rest of step 4 for a caller that may block: wait until the log
    /// is durable through `lsn`, the pinned group's record or the commit it
    /// read behind (on an idle flusher this thread runs the window itself,
    /// otherwise it waits for the flusher thread's next one), then steps
    /// 5–6; a failed window stops the database. No transaction-table shard
    /// is held across the wait; the pin is what excludes.
    fn await_durable(&self, t: Tid, group: &[Tid], lsn: Lsn) -> Result<()> {
        let window = self.inner.engine.flusher().wait(lsn)?;
        // the record is durable: a failure reported now is the
        // "committed on disk, reported as failed" outcome
        asset_faults::failpoint!(&self.inner.config.faults, fp::COMMIT_AFTER_RECORD, |act| {
            return Err(self.fail_stop(fp::COMMIT_AFTER_RECORD, act));
        });
        self.flushed(group, window);
        self.finish_commit(t, group, self.inner.txns.lock_group(group));
        Ok(())
    }

    /// Trace `group`'s hand-off onto flush window `window`, which made its
    /// commit durable.
    pub(crate) fn flushed(&self, group: &[Tid], window: u64) {
        let obs = &self.inner.obs;
        if obs.tracing_enabled() {
            for &tid in group {
                obs.record(EventKind::CommitFlushed { tid, window });
            }
        }
    }

    /// `abort(t)` — paper §2.1, protocol in §4.2: roll `t` back by
    /// installing its before images in reverse order, release its locks
    /// and permits, and propagate the abort along incoming AD/GC edges.
    /// Returns `true` if the abort succeeds (or `t` was already aborted),
    /// `false` if `t` has already committed. A `Prepared` transaction is
    /// refused with `InvalidState`: only the coordinator's decision may
    /// resolve it (DESIGN.md §14.2).
    ///
    /// ```
    /// use asset_core::Database;
    ///
    /// let db = Database::in_memory();
    /// let oid = db.new_oid();
    /// assert!(db.run(move |ctx| ctx.write(oid, b"v1".to_vec())).unwrap());
    /// let t = db.initiate(move |ctx| ctx.write(oid, b"v2".to_vec())).unwrap();
    /// db.begin(t).unwrap();
    /// db.wait(t).unwrap();
    /// assert!(db.abort(t).unwrap());
    /// assert_eq!(db.peek(oid).unwrap().unwrap(), b"v1", "before image restored");
    /// ```
    pub fn abort(&self, t: Tid) -> Result<bool> {
        let _section = self.enter()?;
        loop {
            let epoch = self.inner.txns.epoch();
            self.live()?;
            let td = (self.inner.txns).with(t, |td| td.map(|td| (td.status(), td.pinned())));
            match td.ok_or(AssetError::TxnNotFound(t))? {
                (TxnStatus::Committed, _) => return Ok(false),
                (TxnStatus::Aborted, _) => return Ok(true),
                // pinned: the flush outcome decides; wait the window out
                // and report what it decided
                (_, true) => self.inner.txns.wait_event(epoch),
                // a `Prepared` `t` is refused in the visit that would claim
                // it, so a `prepare_group` racing this call cannot slip in
                _ if self.abort_claiming(&[t], Some(t)) => return self.live().map(|()| true),
                _ => return Err(prepared(t, "abort")),
            }
        }
    }

    /// `self()` and `parent()` are on [`TxnCtx`]; this is the parent query
    /// by tid, for a transaction that has not ended: an ended one keeps
    /// only its fate, so `parent_of` answers `TxnNotFound` for it.
    pub fn parent_of(&self, t: Tid) -> Result<Tid> {
        self.live()?;
        self.inner
            .txns
            .with(t, |td| td.and_then(Td::live).map(|s| s.parent))
            .ok_or(AssetError::TxnNotFound(t))
    }

    /// Status query (the paper mentions status primitives without listing
    /// them).
    pub fn status(&self, t: Tid) -> Result<TxnStatus> {
        self.live()?;
        self.inner
            .txns
            .with(t, |td| td.map(|td| td.status()))
            .ok_or(AssetError::TxnNotFound(t))
    }

    /// Has `t` committed? (One of the paper's unnamed status queries.)
    pub fn is_committed(&self, t: Tid) -> Result<bool> {
        Ok(self.status(t)? == TxnStatus::Committed)
    }

    /// Has `t` aborted or is it doomed ("determine whether a transaction
    /// has aborted", §2.1)?
    pub fn is_aborted(&self, t: Tid) -> Result<bool> {
        Ok(self.status(t)?.is_abort_path())
    }

    /// Is `t` active in the paper's sense — begun and not terminated?
    pub fn is_active(&self, t: Tid) -> Result<bool> {
        Ok(self.status(t)?.is_active())
    }

    // --- new primitives (paper §2.2) ------------------------------------

    /// `delegate(ti, tj, ob_set)` / `delegate(ti, tj)` (with `obs: None`)
    /// — paper §2.2, implementation in §4.2: transfer responsibility for
    /// `ti`'s uncommitted operations to `tj` — locks, permits granted, and
    /// undo responsibility all move; a `Delegate` log record makes the
    /// transfer crash-safe. The building block of split/join (§3.1.5) and
    /// nested transactions (§3.1.4). Delegating from or to a `Prepared`
    /// (§14.2) or terminated transaction, to an aborting one (no end of it
    /// would release or undo what it received), or writes from an aborting
    /// one (its abort must undo them), is refused with `InvalidState`.
    ///
    /// ```
    /// use asset_core::Database;
    ///
    /// let db = Database::in_memory();
    /// let oid = db.new_oid();
    /// let t1 = db.initiate(move |ctx| ctx.write(oid, b"draft".to_vec())).unwrap();
    /// let t2 = db.initiate(|_| Ok(())).unwrap();
    /// db.begin(t1).unwrap();
    /// db.wait(t1).unwrap();
    /// db.delegate(t1, t2, None).unwrap();  // t2 now owns the lock and the undo
    /// assert!(db.commit(t1).unwrap());     // nothing left to commit: a formality
    /// db.begin(t2).unwrap();
    /// db.wait(t2).unwrap();
    /// assert!(db.abort(t2).unwrap());      // aborting t2 undoes t1's write
    /// assert_eq!(db.peek(oid).unwrap(), None);
    /// ```
    pub fn delegate(&self, from: Tid, to: Tid, obs: Option<ObSet>) -> Result<()> {
        let _section = self.enter()?;
        let mut guard = self.lock_unpinned(&[from, to])?;
        if guard.get(from).is_none() {
            return Err(AssetError::TxnNotFound(from));
        }
        if guard.get(to).is_none() {
            return Err(AssetError::TxnNotFound(to));
        }
        let fated = |s: TxnStatus| s == TxnStatus::Prepared || s.is_terminated();
        refuse(&mut guard, &[from], "delegate", fated)?;
        refuse(&mut guard, &[to], "delegate", |s| {
            fated(s) || s.is_abort_path()
        })?;
        if from == to {
            return Ok(());
        }
        // An aborting delegator's writes are its abort's to undo: handed to
        // a survivor, that survivor's commit would keep them. Locks it
        // never wrote under may still go (MLT hands its guards to `H`).
        let moves = |ob: Oid| obs.as_ref().is_none_or(|set| set.contains(ob));
        let held = guard.get(from).and_then(Td::live).map(|s| &s.held);
        let writes = held.is_some_and(|h| h.undo.iter().any(|u| moves(u.oid)));
        refuse(&mut guard, &[from], "delegate", |s| {
            writes && s.is_abort_path()
        })?;
        // Crash safety — WAL discipline: the Delegate record lands before
        // any in-memory state moves, so a failed append leaves the
        // delegation entirely un-happened on both sides of a restart
        // (recovery applies a logged Delegate whether or not the splice
        // below ran; an unlogged splice, by contrast, would strand the
        // delegatee's undo responsibility on the delegator after a crash).
        let logged_obs = match &obs {
            Some(ObSet::Objects(s)) => Some(s.iter().copied().collect()),
            None | Some(ObSet::All) => None, // delegate-all
        };
        asset_faults::failpoint!(&self.inner.config.faults, fp::DELEGATE_RECORD, |act| {
            return Err(self.fail_stop(fp::DELEGATE_RECORD, act));
        });
        self.inner.engine.log_record(&LogRecord::Delegate {
            from,
            to,
            obs: logged_obs,
        })?;
        // splice the undo entries and the lock list (both slots exist, and
        // the guard has held their shards throughout)
        let Some(slot) = guard.get(from).and_then(Td::live) else {
            return Err(AssetError::TxnNotFound(from));
        };
        let held = &mut slot.held;
        mark::expect(Kind::Delegate, from.raw());
        let undo: Vec<_> = held.undo.extract_if(.., |u| moves(u.oid)).collect();
        let mut moving: Vec<_> = held.locks.extract_if(.., |ob| moves(*ob)).collect();
        let listed = (self.inner.locks).delegate(from, to, &mut moving, obs.as_ref());
        let Some(dst) = guard.get(to).and_then(Td::live) else {
            return Err(AssetError::TxnNotFound(to));
        };
        let held = &mut dst.held;
        held.undo.extend(undo);
        held.undo.sort_by_key(|u| u.seq);
        held.locks.extend(listed);
        drop(guard);
        self.inner.txns.bump();
        Ok(())
    }

    /// `permit(ti, tj, ob_set, operations)` — paper §2.2, descriptor (PD)
    /// in §4.1: allow `tj` to perform conflicting operations on `ti`'s
    /// objects without waiting for `ti` to terminate. Permits compose
    /// transitively (§2.2 property 3). Wildcard forms: `grantee: None` =
    /// any transaction, `ObSet::All` = any object, `OpSet::ALL` = any
    /// operation. A grantor or named grantee that has terminated, or whose
    /// commit has already released its permits, is refused with
    /// `InvalidState`: no later release would drop the PD.
    ///
    /// ```
    /// use asset_core::{Database, ObSet, OpSet};
    ///
    /// let db = Database::in_memory();
    /// let oid = db.new_oid();
    /// let t1 = db.initiate(move |ctx| ctx.write(oid, b"theirs".to_vec())).unwrap();
    /// db.begin(t1).unwrap();
    /// db.wait(t1).unwrap(); // completed, write lock still held
    /// db.permit(t1, None, ObSet::one(oid), OpSet::ALL).unwrap();
    /// // despite t1's lock, another transaction may now write the object
    /// assert!(db.run(move |ctx| ctx.write(oid, b"mine".to_vec())).unwrap());
    /// assert!(db.commit(t1).unwrap());
    /// ```
    pub fn permit(&self, grantor: Tid, grantee: Option<Tid>, obs: ObSet, ops: OpSet) -> Result<()> {
        let _section = self.enter()?;
        let _guard = self.lock_permit_parties(grantor, grantee)?;
        self.inner.locks.permit(grantor, grantee, obs, ops);
        Ok(())
    }

    /// The paper's `permit(ti, tj, operations)` — materialize the object
    /// set from what `grantor` has accessed or has permission to access,
    /// at call time (§4.2). Refused as [`permit`](Self::permit) is.
    pub fn permit_accessed(&self, grantor: Tid, grantee: Option<Tid>, ops: OpSet) -> Result<()> {
        let _section = self.enter()?;
        let mut guard = self.lock_permit_parties(grantor, grantee)?;
        let slot = guard.get(grantor).and_then(Td::live);
        let held = slot.map_or_else(Vec::new, |s| s.held.locks.clone());
        (self.inner.locks).permit_accessed(grantor, grantee, &held, ops);
        Ok(())
    }

    /// The shards of a permit's grantor and named grantee, held while its
    /// PD goes in: a party's release runs in a visit to its shard, so the
    /// PD lands before the release that drops it — or the party is
    /// refused, with `InvalidState`, for having terminated or for being
    /// pinned, its commit's release already run.
    fn lock_permit_parties(&self, grantor: Tid, grantee: Option<Tid>) -> Result<GroupGuard<'_>> {
        let parties: Vec<Tid> = std::iter::once(grantor).chain(grantee).collect();
        let mut guard = self.inner.txns.lock_group(&parties);
        for tid in parties {
            let ended = |td: &Td<'_>| td.pinned() || td.status().is_terminated();
            if let Some(td) = guard.get(tid).filter(ended) {
                let status = td.status();
                return Err(AssetError::InvalidState {
                    tid,
                    status,
                    op: "permit",
                });
            }
        }
        Ok(guard)
    }

    /// The objects `t` holds locks on, from its TD (none for an unknown `t`).
    pub(crate) fn locked_objects(&self, t: Tid) -> Vec<Oid> {
        let held = |td: Option<Td<'_>>| td.and_then(Td::live).map(|s| s.held.locks.clone());
        (self.inner.txns).with(t, held).unwrap_or_default()
    }

    /// `form_dependency(type, ti, tj)` — paper §2.2, edges kept in the
    /// waits-for/dependency graph of §4.1 — with the paper's argument
    /// order:
    /// * CD — `tj` cannot commit before `ti` commits;
    /// * AD — if `ti` aborts, `tj` must abort;
    /// * GC — both commit or neither.
    ///
    /// A terminated party resolves the edge at once: a terminated
    /// dependent is sealed, a committed `on` satisfies it, an aborted `on`
    /// dooms a live AD dependent or GC partner. Making a `Prepared`
    /// transaction a CD/AD dependent or a GC partner is refused with
    /// `InvalidState` (§14.2).
    ///
    /// ```
    /// use asset_core::{Database, DepType};
    ///
    /// let db = Database::in_memory();
    /// let t1 = db.initiate(|ctx| ctx.abort_self::<()>().map(|_| ())).unwrap();
    /// let t2 = db.initiate(|_| Ok(())).unwrap();
    /// db.form_dependency(DepType::AD, t1, t2).unwrap();
    /// db.begin_many(&[t1, t2]).unwrap();
    /// assert!(!db.commit(t2).unwrap(), "t1's abort dooms t2 through the AD edge");
    /// ```
    pub fn form_dependency(&self, kind: DepType, ti: Tid, tj: Tid) -> Result<()> {
        // hold both parties' shards, then deps: a termination drops the
        // transaction's edges in the shard visit that sets its status, so
        // the statuses read here are exactly what the graph holds
        let _section = self.enter()?;
        let mut guard = self.lock_unpinned(&[ti, tj])?;
        let mut status = |t| guard.get(t).map(|td| td.status());
        let si = status(ti).ok_or(AssetError::TxnNotFound(ti))?;
        let sj = status(tj).ok_or(AssetError::TxnNotFound(tj))?;
        if ti == tj {
            return Err(AssetError::DependencyCycle {
                dependent: tj,
                on: ti,
            });
        }
        // a prepared transaction may be the `on` of a CD/AD edge only
        let bound = [tj, if kind == DepType::GC { ti } else { tj }];
        let prepared = |s| s == TxnStatus::Prepared;
        refuse(&mut guard, &bound, "form_dependency", prepared)?;
        let live = |s: TxnStatus| !s.is_terminated();
        let mut deps = self.inner.deps.lock();
        match (kind, si, sj) {
            _ if live(si) && live(sj) => deps.form(kind, ti, tj)?,
            (DepType::AD | DepType::GC, TxnStatus::Aborted, _) if live(sj) => deps.doom(tj),
            (DepType::GC, _, TxnStatus::Aborted) if live(si) => deps.doom(ti),
            _ => {}
        }
        drop(deps);
        drop(guard);
        bump(&self.inner.obs.counters.dep_edges_formed);
        self.inner.obs.record(EventKind::DepFormed { kind, ti, tj });
        self.inner.txns.bump();
        Ok(())
    }

    /// Lock the shards of `parties` once none of them is pinned. A pinned
    /// transaction's commit record is in the flush window and its fate is
    /// the flush outcome's alone, so an operation that would move its undo
    /// chain, its locks or its group waits the window out and then meets
    /// the terminal status — what blocking on the shards the committer
    /// used to hold across the force gave it — or the stop.
    fn lock_unpinned(&self, parties: &[Tid]) -> Result<GroupGuard<'_>> {
        loop {
            let epoch = self.inner.txns.epoch();
            self.live()?;
            let mut guard = self.inner.txns.lock_group(parties);
            let pinned = parties
                .iter()
                .any(|t| guard.get(*t).is_some_and(|td| td.pinned()));
            if !pinned {
                return Ok(guard);
            }
            drop(guard);
            self.inner.txns.wait_event(epoch);
        }
    }

    // --- convenience -----------------------------------------------------

    /// Initiate, begin and commit a transaction in one call — the code the
    /// O++ compiler emits for `trans { ... }` (§3.1.1). Returns `true` if
    /// it committed. The caller would block in `commit` until the body
    /// ended, so the body runs on the caller's thread.
    pub fn run(&self, f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static) -> Result<bool> {
        let t = self.initiate(f)?;
        if self.start(t)? {
            // claimed at begin: no one else has the tid, nothing is queued
            if let Some(job) = self.claim(t) {
                self.run_claimed(t, job);
            }
        }
        self.commit(t)
    }

    /// Claim `t`'s begun body: take its job out of the TD under `t`'s
    /// shard, unless another thread already has. `None` when there is
    /// nothing to claim; `Some(None)` when the body was aborted before
    /// anyone ran it — it is dropped unrun, and completing it finalizes
    /// the abort.
    pub(crate) fn claim(&self, t: Tid) -> Option<Option<Job>> {
        self.inner.txns.with(t, |td| {
            let slot = td.and_then(Td::live).filter(|s| s.thread_live)?;
            let job = slot.job.take()?;
            Some((slot.status == TxnStatus::Running).then_some(job))
        })
    }

    /// Run a claimed body on this thread and complete `t` with its
    /// outcome. A panic in the body is its abort, never the caller's. A
    /// panic after it — in the completion or its rollback — is one in
    /// system code: it stops the database and goes on to the caller.
    pub(crate) fn run_claimed(&self, t: Tid, job: Option<Job>) {
        let Ok(_section) = self.enter() else { return };
        let ok = job.is_some_and(|job| {
            let ctx = TxnCtx::new(self.clone(), t);
            matches!(catch_unwind(AssertUnwindSafe(|| job(&ctx))), Ok(Ok(())))
        });
        self.complete(t, ok);
    }

    /// `wait`/`commit` are about to block until `t`'s body ends: if no
    /// thread has taken it yet, run it here and drop its queued entry.
    fn run_unclaimed(&self, t: Tid) {
        if let Some(job) = self.claim(t) {
            self.inner.threads.reclaim(|(_, q)| *q == t);
            self.run_claimed(t, job);
        }
    }

    /// Allocate a fresh object id.
    pub fn new_oid(&self) -> Oid {
        Oid(self.inner.oid_gen.next())
    }

    /// Read an object's last installed image without any locking — a dirty
    /// diagnostic peek for tests and benchmarks, not a primitive.
    pub fn peek(&self, oid: Oid) -> Result<Option<Vec<u8>>> {
        Ok(self.inner.engine.read_object(oid))
    }

    /// Checkpoint: write every object's current image to the store and
    /// replace the write-ahead log with a new one that holds only what
    /// live transactions still need ([`StorageEngine::checkpoint`]).
    ///
    /// Settled history (committed and aborted work) leaves the log; the
    /// pending updates of live transactions are re-logged under their
    /// *current* owner (delegations folded in), and in-doubt `Prepared`
    /// groups are re-logged too. Admits transactions that append nothing
    /// while it runs — `Initiated`, `Completed` (and `Committing` behind
    /// its gates), `Prepared` — and refuses with `InvalidState` while one
    /// is `Running`, `Aborting` (its rollback still to append) or pinned
    /// at its commit point, its record not yet durable.
    pub fn checkpoint(&self) -> Result<()> {
        let _section = self.enter()?;
        let guard = self.inner.txns.lock_all();
        let appending = |s: &TxnSlot| {
            s.commit_pending || matches!(s.status, TxnStatus::Running | TxnStatus::Aborting)
        };
        if let Some((tid, slot)) = guard.iter().find(|(_, s)| appending(s)) {
            return Err(AssetError::InvalidState {
                tid: *tid,
                status: slot.status,
                op: "checkpoint",
            });
        }
        let live: std::collections::HashSet<Tid> = guard.iter().map(|(t, _)| *t).collect();
        // holding every table shard keeps out what appends: commits,
        // aborts and new transactions
        self.inner.engine.checkpoint(&live)
    }

    /// The observability hub shared by the storage engine, the lock table
    /// and the transaction manager. Enable tracing with
    /// `db.obs().enable_tracing(capacity)`; read metrics any time with
    /// [`metrics_snapshot`](Self::metrics_snapshot).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// A lock-free point-in-time view of every counter and histogram the
    /// facility records (see `asset_obs::MetricsSnapshot`): the one reader
    /// of the counts the lock stripes and the log keep themselves, which
    /// it fills in from there.
    pub fn metrics_snapshot(&self) -> asset_obs::MetricsSnapshot {
        let mut snap = self.inner.obs.snapshot();
        let log = self.inner.engine.log().watermarks();
        let c = &mut snap.counters;
        self.inner.locks.fill_counters(c);
        (c.log_appends, c.log_coalesced) = (log.records_appended, log.records_coalesced);
        snap
    }

    /// Assemble the full cross-layer [`Introspection`] view: live
    /// transactions by status, per-stripe lock occupancy and contention,
    /// the waits-for and dependency graphs, and log watermarks. Built for
    /// polling from a monitoring thread (`asset-top` renders it once per frame): each
    /// layer is read under its own short-lived synchronization, never all
    /// at once, so polling cannot stall the workload.
    pub fn introspect(&self) -> Introspection {
        let (dep_edges, deps) = {
            let graph = self.inner.deps.lock();
            (graph.edges(), graph.summary())
        };
        let (mut live, mut initiated, mut running, mut completed) = (0, 0, 0, 0);
        self.inner.txns.for_each(|_, s| {
            live += 1;
            match s.status {
                TxnStatus::Initiated => initiated += 1,
                TxnStatus::Running => running += 1,
                TxnStatus::Completed | TxnStatus::Committing | TxnStatus::Prepared => {
                    completed += 1
                }
                TxnStatus::Aborting | TxnStatus::Committed | TxnStatus::Aborted => {}
            }
        });
        Introspection {
            live,
            initiated,
            running,
            completed,
            permits: self.inner.locks.permit_count(),
            stripe_stats: self.inner.locks.stripe_stats(),
            stripes: self.inner.locks.stripe_occupancy(),
            waits: self.inner.locks.waits_snapshot(),
            dep_edges,
            deps,
            log: self.inner.engine.log().watermarks(),
        }
    }

    /// Enter system code (a primitive, a session loop): refused once the
    /// database has stopped; a panic out of the section stops it.
    pub fn enter(&self) -> Result<SystemSection<'_>> {
        self.inner.engine.log().enter()
    }

    /// Realize failpoint `point`'s `act` at a log write, and stop for it.
    #[cfg(feature = "faults")]
    fn fail_stop(&self, point: &'static str, act: asset_faults::FaultAction) -> AssetError {
        self.stop(self.inner.config.faults.realize_plain(point, act))
    }

    /// `Err(Stopped)` once the database has stopped.
    pub fn live(&self) -> Result<()> {
        self.inner.engine.log().live()
    }

    /// Stop the database for `cause`; returns the stop.
    pub(crate) fn stop(&self, cause: impl std::fmt::Display) -> AssetError {
        self.inner.engine.log().stop(&cause)
    }

    /// Direct access to the lock table (diagnostics, benches).
    pub fn locks(&self) -> &LockTable {
        &self.inner.locks
    }

    /// Direct access to the storage engine (diagnostics, benches).
    pub fn engine(&self) -> &StorageEngine {
        &self.inner.engine
    }

    /// Number of live (non-terminated) transactions.
    pub fn live_transactions(&self) -> usize {
        self.inner.live_count.load(Ordering::Relaxed)
    }

    // --- abort machinery --------------------------------------------------

    /// Abort every transaction in `seeds` and propagate along incoming
    /// AD/GC edges. Holds at most one transaction shard at a time: each
    /// victim's finalization is *claimed* under its shard (via
    /// `abort_performed`), then the undo/log/release steps run lock-free,
    /// then the terminal status is published, in the shard visit that
    /// drops the victim from the dependency graph. Running victims are
    /// marked and poisoned; whoever runs (or claims) the body finalizes.
    pub(crate) fn abort_many(&self, seeds: &[Tid]) {
        self.abort_claiming(seeds, None);
    }

    /// [`abort_many`](Self::abort_many), except that `local` (a local
    /// `abort`'s seed) is refused if its claim visit finds it `Prepared`:
    /// then nothing happens to it and this returns `false` (§14.2).
    // Each undo step logs its CLR and installs the image in one latched
    // engine call; the Abort record follows the last of them and precedes
    // the terminal status. A step that fails stops the database, and the
    // rest is restart's: nothing more is logged.
    fn abort_claiming(&self, seeds: &[Tid], local: Option<Tid>) -> bool {
        let Ok(_section) = self.enter() else {
            return true;
        };
        enum Act {
            Skip,
            Wake(Option<Arc<Task>>),
            /// The claimed undo chain, and whether the log has heard of
            /// the transaction (it wrote, or it is named by a `Prepared`
            /// record): only then is there anything for an `Abort` record
            /// to close.
            Undo(Vec<UndoEntry>, bool),
        }
        let mut queue: Vec<Tid> = seeds.to_vec();
        let mut refused = false;
        while let Some(x) = queue.pop() {
            let act = self.inner.txns.with(x, |td| {
                let Some(slot) = td.and_then(Td::live) else {
                    return Act::Skip;
                };
                if slot.commit_pending {
                    // the group's commit record is in the flush window; its
                    // fate is the flush outcome's to decide: a successful
                    // flush commits the member (the abort request loses the
                    // race), a failed one stops the database.
                    return Act::Skip;
                }
                match slot.status {
                    TxnStatus::Committed | TxnStatus::Aborted => Act::Skip,
                    TxnStatus::Running => {
                        // mark; the thread that runs or claims the body
                        // (or the executor worker) performs the steps
                        slot.set_status(x, TxnStatus::Aborting);
                        self.inner.locks.poison(x);
                        Act::Wake(slot.task.clone())
                    }
                    TxnStatus::Aborting if slot.thread_live => {
                        // already marked; its body's thread will finalize
                        Act::Skip
                    }
                    TxnStatus::Prepared if local == Some(x) => {
                        refused = true;
                        Act::Skip
                    }
                    _ => {
                        if slot.abort_performed {
                            Act::Skip
                        } else {
                            let undo = std::mem::take(&mut slot.held.undo);
                            let in_log = !undo.is_empty() || slot.status == TxnStatus::Prepared;
                            slot.abort_performed = true;
                            if slot.status != TxnStatus::Aborting {
                                slot.set_status(x, TxnStatus::Aborting);
                            }
                            Act::Undo(undo, in_log)
                        }
                    }
                }
            });
            let (mut undo, in_log) = match act {
                Act::Skip => continue,
                Act::Wake(task) => {
                    // the poison wakes a task parked on a lock and the bump
                    // below one parked on a gate; one parked on
                    // `WaitExternal` has no wake registry, so run it: its
                    // next step sees `Aborting` and finalizes
                    if let Some(task) = task {
                        task.wake();
                    }
                    continue;
                }
                Act::Undo(undo, in_log) => (undo, in_log),
            };
            let undo_records = undo.len();
            self.inner.obs.record(EventKind::SpanOpen {
                tid: x,
                span: SpanName::Rollback,
            });
            // §4.2 abort step 2: install before images, newest first, each
            // with its CLR so restart recovery replays the rollback
            // instead of re-deriving it (and never clobbers later
            // committed overwrites).
            undo.sort_by_key(|u| std::cmp::Reverse(u.seq));
            for u in undo {
                asset_faults::failpoint!(&self.inner.config.faults, fp::ABORT_CLR, |act| {
                    self.fail_stop(fp::ABORT_CLR, act);
                    return true;
                });
                if self.inner.engine.undo_object(u.oid, u.before).is_err() {
                    return true; // stopped: restart finishes the rollback
                }
            }
            let abort = LogRecord::Abort { tid: x };
            if in_log && self.inner.engine.log_record(&abort).is_err() {
                return true;
            }
            self.inner.obs.record(EventKind::SpanClose {
                tid: x,
                span: SpanName::Rollback,
            });
            // steps 3–6 in one visit to x's shard (shard, then deps): end
            // the TD, release what it lists (left here by a rollback a panic
            // cut short) and permits, propagate along incoming AD/GC, drop
            // CD — so x's shard shows `Aborted` exactly when the graph drops x
            let mut guard = self.inner.txns.lock_group(&[x]);
            if in_log {
                mark::expect(Kind::Abort, x.raw());
            }
            let job = guard.end(x, TxnStatus::Aborted).and_then(|slot| {
                self.release(x, slot.held);
                slot.job
            });
            let (victims, resolved) = self.inner.deps.lock().aborted(x);
            drop(guard);
            drop(job); // a body nobody ran: dropped with no shard held
            queue.extend(victims);
            self.inner.live_count.fetch_sub(1, Ordering::Relaxed);
            let obs = &self.inner.obs;
            bump(&obs.counters.txn_aborted);
            add(&obs.counters.dep_edges_resolved, resolved as u64);
            obs.undo_records.record(undo_records as u64);
            obs.record(EventKind::TxnAbort {
                tid: x,
                undo_records: undo_records as u32,
            });
        }
        self.inner.txns.bump();
        !refused
    }

    // --- distributed commit participant (§14) --------------------------
    //
    // A node participating in cross-node commit exposes three primitives
    // to the coordinator: `prepare_group` (the vote), and the two decide
    // calls. Prepared transactions are durable-but-undecided: locks held,
    // updates forced, fate owned by the coordinator — they survive
    // restart via the `Prepared` WAL record and the in-doubt restoration
    // in `open`.

    /// Prepare the local GC group(s) of `seeds` for distributed commit
    /// (DESIGN.md §14.2): wait for every member to complete execution and
    /// every commit gate to open, then force one `Prepared` record
    /// through the group-commit flusher and move the whole group to
    /// [`TxnStatus::Prepared`] with locks retained. Returns the full
    /// prepared group (the union of the seeds' GC components).
    ///
    /// A successful return is this participant's *yes* vote: the group
    /// can no longer abort or commit locally — only
    /// [`decide_commit_group`](Self::decide_commit_group) or
    /// [`decide_abort_group`](Self::decide_abort_group) may resolve it.
    /// An error is a *no* vote (a doomed group is aborted locally, a
    /// failed force stops the participant) — **except** when it surfaces
    /// after the record became durable (see
    /// [`PART_AFTER_PREPARE`](crate::failpoints::PART_AFTER_PREPARE)).
    /// Idempotent: re-preparing an already-prepared group returns it.
    pub fn prepare_group(&self, seeds: &[Tid]) -> Result<Vec<Tid>> {
        let _section = self.enter()?;
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        // steps 2–3 over the seed union; the blocking wait for a closed
        // gate or an unfinished member lives here, in the adapter
        let (group, mut guard) = loop {
            let epoch = self.inner.txns.epoch();
            self.live()?;
            match self.ready_group(seeds)? {
                Ready::Go(group, guard) => break (group, guard),
                Ready::Wait => self.inner.txns.wait_event(epoch),
                Ready::Doomed(group, culprit) => {
                    self.abort_many(&group);
                    return Err(AssetError::TxnAborted(culprit));
                }
            }
        };
        // a committed member fails the vote; an all-prepared group is an
        // idempotent re-prepare
        let mut prepared = 0usize;
        for m in &group {
            match guard.get(*m).map(|td| td.status()) {
                Some(TxnStatus::Committed) => {
                    drop(guard);
                    self.abort_many(&group);
                    return Err(AssetError::InvalidState {
                        tid: *m,
                        status: TxnStatus::Committed,
                        op: "prepare",
                    });
                }
                Some(TxnStatus::Prepared) => prepared += 1,
                _ => {}
            }
        }
        if prepared == group.len() {
            return Ok(group);
        }
        // the vote: one forced Prepared record for the group
        asset_faults::failpoint!(&self.inner.config.faults, fp::PREPARE_RECORD, |act| {
            return Err(self.fail_stop(fp::PREPARE_RECORD, act));
        });
        (self.inner.engine).log_record(&LogRecord::Prepared {
            tids: group.clone(),
        })?;
        // the in-doubt clock starts at the durable prepare force (§14.2)
        let now = Instant::now();
        for m in &group {
            let slot = guard.member(*m);
            slot.set_status(*m, TxnStatus::Prepared);
            slot.prepared_at = Some(now);
        }
        drop(guard);
        self.inner.txns.bump();
        self.inner.obs.record(EventKind::PrepareForced {
            tid: group[0],
            group: group.len() as u32,
        });
        // the record is durable and the group is Prepared; a failure
        // here models the participant dying (Crash) or the vote being
        // lost in transit (Error) — either way the group must STAY
        // prepared: only the coordinator's decision resolves it
        asset_faults::failpoint!(&self.inner.config.faults, fp::PART_AFTER_PREPARE, |act| {
            return Err(self
                .inner
                .config
                .faults
                .realize_plain(fp::PART_AFTER_PREPARE, act)
                .into());
        });
        Ok(group)
    }

    /// Apply the coordinator's *commit* decision to a prepared group
    /// (DESIGN.md §14.2): append the group's `Commit` record, move every
    /// member to `Committed`, and release locks and dependencies.
    /// Idempotent — re-deciding a committed group is a no-op, so the
    /// coordinator may re-send decisions after a crash. Rejects groups
    /// with unprepared members (`InvalidState`): a decide may only follow
    /// a successful prepare.
    ///
    /// The record is not forced, exactly as `decide_abort_group`'s
    /// `Abort` records are not: the decision is already durable at the
    /// coordinator's acceptors, and any local commit that could depend on
    /// the group's effects forces the log through this record first. A
    /// node that dies before its next force loses only the record and
    /// restarts with the group in doubt, which cooperative termination
    /// resolves (§14.3). So a participant forces one record per global
    /// transaction, its vote.
    pub fn decide_commit_group(&self, group: &[Tid]) -> Result<()> {
        let _section = self.enter()?;
        let mut guard = self.inner.txns.lock_group(group);
        let mut pending: Vec<Tid> = Vec::with_capacity(group.len());
        for m in group {
            match guard.get(*m).map(|td| td.status()) {
                Some(TxnStatus::Committed) => {} // already decided
                Some(TxnStatus::Prepared) => pending.push(*m),
                Some(status) => {
                    return Err(AssetError::InvalidState {
                        tid: *m,
                        status,
                        op: "decide-commit",
                    })
                }
                None => return Err(AssetError::TxnNotFound(*m)),
            }
        }
        if pending.is_empty() {
            return Ok(()); // empty group, or an idempotent re-decide
        }
        self.inner.engine.log().append(&LogRecord::Commit {
            tids: pending.clone(),
        })?;
        let decided: Vec<Instant> = pending
            .iter()
            .filter_map(|m| guard.get(*m)?.live()?.prepared_at.take())
            .collect();
        mark::expect(Kind::Commit, pending[0].raw());
        self.finish_commit(pending[0], &pending, guard);
        self.record_decide(&pending, true, &decided);
        // the decision is applied and its record only buffered; a failure
        // here models the participant dying before its next force (Crash:
        // the record dies with it, and restart restores the group in
        // doubt) or the acknowledgement being lost (Error)
        asset_faults::failpoint!(&self.inner.config.faults, fp::PART_AFTER_DECIDE, |act| {
            return Err(self
                .inner
                .config
                .faults
                .realize_plain(fp::PART_AFTER_DECIDE, act)
                .into());
        });
        Ok(())
    }

    /// Close the in-doubt window for `members` (§14.2 observability):
    /// record each prepare-force → decision duration (`decided` holds the
    /// prepare instants the decide took from the TDs) into
    /// `Obs::in_doubt_ns` and emit one `DecideApplied` event. Members
    /// without a prepare instant (restart recovery restored them) record
    /// nothing. Never called with a shard guard held.
    fn record_decide(&self, members: &[Tid], commit: bool, decided: &[Instant]) {
        if decided.is_empty() {
            return;
        }
        let obs = &self.inner.obs;
        for t0 in decided {
            obs.in_doubt_ns.record(t0.elapsed().as_nanos() as u64);
        }
        obs.record(EventKind::DecideApplied {
            tid: members[0],
            commit,
            group: decided.len() as u32,
        });
    }

    /// Apply the coordinator's *abort* decision to a prepared group
    /// (DESIGN.md §14.2): roll every member back through the standard
    /// abort protocol (before images + CLRs + `Abort` records — exactly
    /// what a restart would replay). Idempotent: already-aborted members
    /// are skipped; members that committed are left untouched (the
    /// coordinator never mixes decisions within one group). A stopped
    /// database — stopped before the call or by a failed write of the
    /// rollback — answers the stop: the decision was not applied, and
    /// restart restores the group in doubt.
    pub fn decide_abort_group(&self, group: &[Tid]) -> Result<()> {
        let _section = self.enter()?;
        let decided: Vec<Instant> = {
            let mut guard = self.inner.txns.lock_group(group);
            group
                .iter()
                .filter_map(|m| guard.get(*m)?.live()?.prepared_at.take())
                .collect()
        };
        self.abort_many(group);
        self.live()?;
        self.record_decide(group, false, &decided);
        Ok(())
    }

    /// Every transaction currently in [`TxnStatus::Prepared`] — after
    /// [`open`](Self::open), the in-doubt set restart recovery restored
    /// (DESIGN.md §14.3), ascending. A recovering coordinator queries
    /// this (wire opcode `PREPARED`) to learn which decisions are still
    /// owed.
    pub fn in_doubt_transactions(&self) -> Vec<Tid> {
        let mut out = Vec::new();
        self.inner.txns.for_each(|t, s| {
            if s.status == TxnStatus::Prepared {
                out.push(t);
            }
        });
        out.sort_unstable();
        out
    }

    // --- the shared passes ----------------------------------------------
    //
    // The non-blocking decomposition of `begin`, a claimed body's tail,
    // the data operations and the §4.2 commit protocol. Two drivers run
    // them: the blocking primitives above, which sleep on the event count
    // where a pass says `Wait`, and the worker pool (`crate::exec`), which
    // parks the task. None of them may sleep: the pool runs each inside
    // `sync::step`, where a blocking primitive's `may_block` panics
    // (debug builds).

    /// The `Initiated → Running` transition both drivers share; nothing is
    /// logged, a transaction enters the log with its first write. The body
    /// stays in the TD for whoever claims it; [`begin`](Self::begin) then
    /// hands it to the transaction threads, the executor moves on to
    /// stepping. `false` when the transaction was doomed before it started
    /// (the commit then reports the abort).
    pub(crate) fn start(&self, t: Tid) -> Result<bool> {
        let _section = self.enter()?;
        let begun = self.inner.txns.with(t, |td| -> Result<bool> {
            let td = td.ok_or(AssetError::TxnNotFound(t))?;
            let status = td.status();
            if status.is_abort_path() {
                return Ok(false);
            }
            match td {
                Td::Live(slot) if status == TxnStatus::Initiated => {
                    slot.set_status(t, TxnStatus::Running);
                    slot.thread_live = true;
                    Ok(true)
                }
                _ => Err(AssetError::InvalidState {
                    tid: t,
                    status,
                    op: "begin",
                }),
            }
        })?;
        if begun {
            bump(&self.inner.obs.counters.txn_begun);
            self.inner.obs.record(EventKind::TxnBegin { tid: t });
        }
        Ok(begun)
    }

    /// Completion, the tail of a claimed body and of a step program
    /// alike: publish the outcome (`Running → Completed |
    /// Aborting`) and finalize a marked abort if one struck mid-run.
    /// Returns `true` when the transaction completed.
    pub(crate) fn complete(&self, t: Tid, succeeded: bool) -> bool {
        self.inner.obs.record(EventKind::TxnComplete {
            tid: t,
            ok: succeeded,
        });
        let status = self.inner.txns.with(t, |td| {
            let slot = td.and_then(Td::live)?;
            slot.thread_live = false;
            if slot.status == TxnStatus::Running {
                // a failed or panicked job aborts
                slot.set_status(
                    t,
                    if succeeded {
                        TxnStatus::Completed
                    } else {
                        TxnStatus::Aborting
                    },
                );
            }
            Some(slot.status)
        });
        match status {
            Some(TxnStatus::Completed) => self.inner.txns.bump(),
            // failed, or doomed while running: finalize the abort now
            Some(TxnStatus::Aborting) => self.abort_many(&[t]),
            _ => {}
        }
        status == Some(TxnStatus::Completed)
    }

    /// List `ob` in `t`'s TD when the grant that `new` reports created an
    /// LRD: the one visit a read or a bare lock makes, and only then.
    // The gap between grant and append is safe. While `thread_live` is set,
    // only the transaction's own driver (this caller) releases its locks. A
    // delegation or `permit_accessed` that runs in the gap sees only listed
    // LRDs, so the unlisted grant stays with its holder, as if granted just
    // after. `install` appends the same way.
    pub(crate) fn list_grant(&self, t: Tid, ob: Oid, new: bool) {
        if new {
            let list = |s: &mut TxnSlot| s.held.locks.push(ob);
            (self.inner.txns).with(t, |td| td.and_then(Td::live).map(list));
        }
    }

    /// The post-lock half of a write, the same whether the caller blocked
    /// for the lock ([`TxnCtx`]) or tried for it
    /// ([`StepCtx`](crate::StepCtx)): X-latched install with before/after
    /// images logged, then one TD visit: `ob` listed if the grant's LRD is
    /// `new` (as in [`list_grant`](Self::list_grant), even when the write
    /// failed), the undo entry, and the status. A body runs `Running`, or
    /// `Aborting` once an abort struck after the grant: that is reported,
    /// the entry pushed all the same (the undo runs when the body ends).
    /// The caller holds a system section (`enter`) around lock and install.
    pub(crate) fn install(&self, t: Tid, ob: Oid, after: Option<Vec<u8>>, new: bool) -> Result<()> {
        let written = self.inner.engine.write_object(t, ob, after);
        self.inner.txns.with(t, |td| {
            let slot = td.and_then(Td::live).ok_or(AssetError::TxnNotFound(t))?;
            let held = &mut slot.held;
            if new {
                held.locks.push(ob);
            }
            let (before, seq) = written?;
            held.undo.push(UndoEntry {
                seq,
                oid: ob,
                before,
            });
            let running = slot.status == TxnStatus::Running;
            running.then_some(()).ok_or(AssetError::TxnAborted(t))
        })
    }

    /// One non-blocking pass of the §4.2 commit protocol. Either resolves
    /// the commit terminally (`false` only once the abort it reports has
    /// been performed), asks the driver to wait for the next table event
    /// and retry, or — gates open and re-validated under every member's
    /// shard — appends the GC group's one commit record, pins the group
    /// with `commit_pending`, releases its locks, and hands it back for the
    /// driver to wait until the log is durable through the record. The
    /// statuses move to `Committed` only after that
    /// ([`finish_commit`](Self::finish_commit)).
    pub(crate) fn commit_pass(&self, t: Tid) -> Result<CommitPass> {
        enum Step {
            Done(bool),
            Wait,
            FinishAbort,
            Gate,
        }
        loop {
            self.live()?;
            // Step 1: status check.
            let step = self.inner.txns.with(t, |td| -> Result<Step> {
                let td = td.ok_or(AssetError::TxnNotFound(t))?;
                match td.status() {
                    TxnStatus::Committed => Ok(Step::Done(true)),
                    TxnStatus::Aborted => Ok(Step::Done(false)),
                    TxnStatus::Aborting => Ok(Step::FinishAbort),
                    TxnStatus::Initiated | TxnStatus::Running => Ok(Step::Wait),
                    // a prepared participant's fate belongs to the commit
                    // coordinator (§14); local commit must not decide it
                    TxnStatus::Prepared => Err(prepared(t, "commit")),
                    TxnStatus::Completed | TxnStatus::Committing => match td {
                        Td::Live(slot) if !slot.commit_pending => {
                            slot.set_status(t, TxnStatus::Committing);
                            Ok(Step::Gate)
                        }
                        // a commit record for this transaction's group
                        // already sits in the flush window: wait for the
                        // flush outcome rather than appending a second
                        // record for the group
                        _ => Ok(Step::Wait),
                    },
                }
            })?;
            match step {
                Step::Done(committed) => return Ok(CommitPass::Done(committed)),
                Step::Wait => return Ok(CommitPass::Wait),
                Step::FinishAbort => {
                    // transient: finalize the undo unless the victim's own
                    // thread (or another aborter) owns it — then its bump
                    // wakes the driver
                    self.abort_many(&[t]);
                    return Ok(match self.status(t)? {
                        TxnStatus::Aborted => CommitPass::Done(false),
                        _ => CommitPass::Wait,
                    });
                }
                Step::Gate => {}
            }
            // Steps 2–3: dependency gates over the GC component.
            match self.ready_group(&[t])? {
                Ready::Wait => return Ok(CommitPass::Wait),
                // abort the group, then re-enter at step 1: `false` is
                // answered from the terminal status, never ahead of it
                Ready::Doomed(group, _) => self.abort_many(&group),
                Ready::Go(group, mut guard) => {
                    // The group commits as one: every completed member
                    // enters `Committing` with `t`.
                    let mut durable = false;
                    for m in &group {
                        let slot = guard.member(*m);
                        if slot.status == TxnStatus::Completed {
                            slot.set_status(*m, TxnStatus::Committing);
                        }
                        durable |= !slot.held.undo.is_empty();
                    }
                    // Step 4, the commit point: the group's one `Commit`
                    // record gets its LSN. A group that holds no undo entry
                    // (read-only, or all of its work delegated away) has no
                    // record, but may have read what a commit released
                    // before its record was durable: it waits for the
                    // latest one, and for nothing once that is durable —
                    // straight to steps 5–6 under the guard.
                    let lsn = if durable {
                        asset_faults::failpoint!(
                            &self.inner.config.faults,
                            fp::COMMIT_RECORD,
                            |act| {
                                return Err(self.fail_stop(fp::COMMIT_RECORD, act));
                            }
                        );
                        let tids = group.as_slice().into();
                        let lsn = self
                            .inner
                            .engine
                            .log()
                            .append_ref(&RecordRef::Commit { tids })?;
                        mark::expect(Kind::Commit, t.raw());
                        Some(lsn)
                    } else {
                        self.inner.engine.log().undurable_commit()
                    };
                    let Some(lsn) = lsn else {
                        self.finish_commit(t, &group, guard);
                        return Ok(CommitPass::Done(true));
                    };
                    // Pin the group and release its locks and permits: a
                    // later reader's or writer's commit follows this LSN in
                    // the log, so it is durable no sooner. While pinned,
                    // aborts skip the members, other commits wait, and
                    // delegate/form_dependency wait the window out — so
                    // between dropping the shards here and the window's
                    // sync nothing can contradict the record, and nothing
                    // is held across it.
                    for m in &group {
                        let slot = guard.member(*m);
                        slot.commit_pending = true;
                        self.release(*m, std::mem::take(&mut slot.held));
                    }
                    return Ok(CommitPass::Flush(group, lsn));
                }
            }
        }
    }

    /// Steps 2–3 for the union of the seeds' GC components: resolve the
    /// CD/AD/GC gates, lock every member's shard, then re-validate — a
    /// `form_dependency` or abort that would change a gate needs one of
    /// those shards, so gates still open under the guard admit an atomic
    /// commit (or prepare) of the group — and check that every member has
    /// completed execution (the paper's `commit(tj)` inside step 2c-ii is
    /// a blocking wait for the partner).
    fn ready_group(&self, seeds: &[Tid]) -> Result<Ready<'_>> {
        enum Gates {
            Open(Vec<Tid>),
            Closed,
            Doomed(Vec<Tid>, Tid),
        }
        let gates = || {
            let deps = self.inner.deps.lock();
            let mut group: BTreeSet<Tid> = BTreeSet::new();
            let mut closed = false;
            for s in seeds {
                match deps.commit_gate(*s) {
                    CommitGate::Ready(g) => group.extend(g),
                    CommitGate::WaitOn(_) => closed = true,
                    CommitGate::Doomed(g) => return Gates::Doomed(g, *s),
                }
            }
            if closed {
                Gates::Closed
            } else {
                Gates::Open(group.into_iter().collect())
            }
        };
        loop {
            let group = match gates() {
                Gates::Open(group) => group,
                Gates::Closed => return Ok(Ready::Wait),
                Gates::Doomed(group, seed) => return Ok(Ready::Doomed(group, seed)),
            };
            let mut guard = self.inner.txns.lock_group(&group);
            if !matches!(gates(), Gates::Open(g2) if g2 == group) {
                continue; // moved before the shards were held: re-evaluate
            }
            let mut incomplete = false;
            let mut doomed = None;
            for m in &group {
                match guard.get(*m).map(|td| (td.status(), td.pinned())) {
                    // pinned by a commit whose record is in the flush
                    // window: wait for its outcome
                    Some((_, true)) => incomplete = true,
                    Some((TxnStatus::Initiated | TxnStatus::Running, _)) => incomplete = true,
                    Some((TxnStatus::Aborting | TxnStatus::Aborted, _)) => doomed = Some(*m),
                    Some(_) => {}
                    None => return Err(AssetError::TxnNotFound(*m)),
                }
            }
            return Ok(match doomed {
                Some(m) => Ready::Doomed(group, m),
                None if incomplete => Ready::Wait,
                None => Ready::Go(group, guard),
            });
        }
    }

    /// Steps 5–6, once the group's commit record is durable (the flush
    /// ack arrived, or the wait returned), or with no record to wait for:
    /// unpin, statuses, lock release where no pin released them (a
    /// prepared group, or one with nothing to wait for), dependency
    /// cleanup, counters. `guard`
    /// holds the members' shards — the one function that moves a
    /// transaction to `Committed`, ending its TD.
    pub(crate) fn finish_commit(&self, t: Tid, group: &[Tid], mut guard: GroupGuard<'_>) {
        for m in group {
            // pinned or prepared: live until this visit ends them
            #[expect(clippy::expect_used, reason = "guard-internal keys")]
            let slot = guard
                .end(*m, TxnStatus::Committed)
                .expect("group member is live");
            if !slot.commit_pending {
                self.release(*m, slot.held);
            }
            self.inner.live_count.fetch_sub(1, Ordering::Relaxed);
        }
        let resolved = self.inner.deps.lock().committed(group);
        // counted before the shards are released: whoever has seen
        // `Committed` sees the count that includes it
        let obs = &self.inner.obs;
        add(&obs.counters.txn_committed, group.len() as u64);
        add(&obs.counters.dep_edges_resolved, resolved as u64);
        drop(guard);
        obs.commit_group_size.record(group.len() as u64);
        obs.record(EventKind::TxnCommit {
            tid: t,
            group: group.len() as u32,
        });
        self.inner.txns.bump();
    }

    /// Release `t`'s locks and permits, `held` being what its TD held,
    /// taken in the visit that sets its terminal status. Debug builds check
    /// the lock list: each entry was an LRD of `t`'s, once, and a scan of
    /// the OD maps finds none left.
    fn release(&self, t: Tid, held: Held) {
        let mut locks = held.locks;
        let (listed, released) = (locks.len(), self.inner.locks.release(t, &mut locks));
        if cfg!(all(debug_assertions, not(loom))) {
            let left = self.inner.locks.release_all(t);
            assert!(
                (released, left) == (listed, 0),
                "{t}: {released} of {listed}, {left} left"
            );
        }
    }
}

/// The refusal of a local primitive that would resolve or bind `Prepared`
/// `t`: its fate belongs to the commit coordinator (DESIGN.md §14.2).
fn prepared(t: Tid, op: &'static str) -> AssetError {
    AssetError::InvalidState {
        tid: t,
        status: TxnStatus::Prepared,
        op,
    }
}

/// The `InvalidState` refusal of `op` for the first of `parties` whose
/// status is `refused`.
fn refuse(
    guard: &mut GroupGuard<'_>,
    parties: &[Tid],
    op: &'static str,
    refused: impl Fn(TxnStatus) -> bool,
) -> Result<()> {
    for &tid in parties {
        if let Some(status) = guard.get(tid).map(|td| td.status()).filter(|&s| refused(s)) {
            return Err(AssetError::InvalidState { tid, status, op });
        }
    }
    Ok(())
}

/// What one non-blocking commit pass resolved to.
pub(crate) enum CommitPass {
    /// Terminal: committed (`true`) or aborted, the abort performed.
    Done(bool),
    /// Gate closed, group incomplete or pinned, or finalization owned
    /// elsewhere: wait for the next transaction-table event and retry.
    Wait,
    /// Gates open and re-validated: every member is pinned with
    /// `commit_pending` and its locks are released; the driver waits until
    /// the log is durable through the LSN — the group's commit record, or
    /// for a group with none the latest commit not yet durable — (the
    /// executor through the flusher's callback, the blocking `commit` in
    /// the flusher's `wait`) and then calls `finish_commit` — or the
    /// window failed and the database has stopped.
    Flush(Vec<Tid>, Lsn),
}

/// What the gates over a set of seeds resolved to (`ready_group`).
enum Ready<'a> {
    /// A gate is closed, or a member is still executing or pinned.
    Wait,
    /// The group (first field) cannot commit: the named transaction is
    /// aborted or doomed. The caller aborts the group.
    Doomed(Vec<Tid>, Tid),
    /// Every gate is open, still open under the members' shards (which
    /// the guard holds), and every member has completed.
    Go(Vec<Tid>, GroupGuard<'a>),
}
