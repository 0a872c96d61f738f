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
//! the stripes of the descriptors involved. The dependency graph stays
//! global but is taken only on `form_dependency` and the commit gates —
//! never on the read/write path. Cross-shard atomicity rules:
//!
//! * shard locks are acquired in ascending index order ([`GroupGuard`]);
//! * the `deps` mutex is acquired only *after* any held transaction
//!   shards, never before;
//! * the commit point re-validates the gate while holding every group
//!   member's shard, which blocks concurrent `form_dependency`/abort of a
//!   member (both need a member's shard) — the atomicity the old global
//!   mutex provided, now scoped to the group — and **pins** the group
//!   (`commit_pending`) before letting the shards go: no shard is held
//!   across the commit record's fsync. The distributed participant's
//!   `prepare_group` is the exception: it forces its `Prepared` record
//!   with the group's shards held (and, on an idle flusher, runs its
//!   window and syncs under them) — which is why a window a committer runs
//!   carries its own record alone: the executor's acknowledgement
//!   callbacks, which re-enter this table, run only on the flusher thread.
//!   (`decide_commit_group` appends its `Commit` record under the shards
//!   but forces nothing.)
//!
//! ## Execution model
//!
//! `initiate` registers a closure, kept in the TD; `begin` marks it
//! running and hands it to a reused transaction thread (`threads.rs`),
//! which runs it with a `TxnCtx` — unless a caller
//! of `wait` or `commit` claims it first and runs it itself (`run` always
//! does). When the closure returns `Ok`, the transaction is *completed* —
//! locks retained, changes not durable — until an explicit `commit` runs
//! the §4.2 protocol. Returning `Err` (or panicking) aborts.
//! `submit` ([`crate::exec`]) runs a step program on a worker pool
//! instead. Both drivers go through the same non-blocking passes (`start`,
//! `complete`, `install`, `commit_pass`, `finish_commit`, `commit_failed`):
//! where a pass says *wait*, the blocking primitives sleep on the event
//! count and the executor parks the task.
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
//! re-validated, every member completed), then — unless no member holds an
//! undo entry, in which case there is nothing to make durable and the group
//! goes straight to `finish_commit` with no record — the pin. The driver makes
//! the pinned group's one commit record durable — `commit` forces it
//! through the group flusher, running the flush window on its own thread
//! when the flusher is idle and riding the flusher thread's next window
//! when not; the executor submits it with a callback and parks — and
//! `finish_commit` (statuses, locks, dependency
//! cleanup) or `commit_failed` (the ambiguous-record reconciliation)
//! follows. While a group is pinned its fate is the flush outcome's alone:
//! aborts skip its members, other commits wait, `compact_log` refuses, and
//! `delegate`/`form_dependency`/`abort` wait the window out and then meet
//! the terminal status. `prepare_group` shares `ready_group`;
//! `decide_commit_group` shares `finish_commit`.
//!
//! ## Abort protocol (paper §4.2, `abort(ti)`)
//!
//! Install before images in reverse order — each with its CLR, one latched
//! engine call per step — log `Abort` (if the log has heard of the
//! transaction at all), release locks and permits, propagate along
//! incoming AD/GC edges (CD edges are dropped), then mark aborted. A
//! *running* victim is marked `Aborting` and its lock waits are poisoned;
//! whoever runs its body performs the steps when the closure unwinds (a
//! body nobody has claimed yet is dropped unrun) — the paper's "mark tj in
//! its TD structure as aborting". The
//! `abort_performed` flag claims finalization under the victim's shard, so
//! the undo itself can run without holding any table lock.

use crate::context::TxnCtx;
use crate::threads::TxnThreads;
use crate::txns::{GroupGuard, TxnTable};
use asset_annot::{exec_step, wal};
use asset_common::ids::IdGen;
use asset_common::sync::Mutex;
use asset_common::{AssetError, Config, DepType, ObSet, Oid, OpSet, Result, Tid, TxnStatus};
use asset_dep::{CommitGate, DepGraph};
use asset_lock::{LockStats, LockTable};
use asset_obs::{add, bump, EventKind, Obs, SpanName};
use asset_storage::{LogRecord, RecoveryReport, StorageEngine};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The closure a transaction executes.
pub type Job = Box<dyn FnOnce(&TxnCtx) -> Result<()> + Send + 'static>;

/// One undo-log entry: installing `before` over `oid` reverses one update.
#[derive(Clone, Debug)]
pub(crate) struct UndoEntry {
    pub seq: u64,
    pub oid: Oid,
    pub before: Option<Vec<u8>>,
}

/// A transaction descriptor (the paper's TD).
pub(crate) struct TxnSlot {
    pub parent: Tid,
    pub status: TxnStatus,
    /// The body, from `initiate` until it is claimed (`Database::claim`)
    /// by the thread that runs it; `None` for a step program, which lives
    /// in its executor task.
    pub job: Option<Job>,
    /// In-memory undo chain; delegation splices entries between slots.
    pub undo: Vec<UndoEntry>,
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
    /// The pin: a commit record containing this transaction is on its way
    /// through the flusher's window, and its fate is decided solely by the
    /// flush outcome. While set, `abort_many` skips the slot, a concurrent
    /// commit waits instead of forcing a second record for the same group,
    /// and `delegate`/`form_dependency`/`abort` wait the window out
    /// (`lock_unpinned`). Set under the group's shards by `commit_pass`,
    /// cleared under them by `finish_commit`/`commit_failed`; no shard is
    /// held in between.
    pub commit_pending: bool,
    /// A commit record containing this transaction failed at the commit
    /// point: it may or may not have reached stable storage, so the
    /// transaction's durable fate is unknown even though the live system
    /// drove it through abort. Read by [`Database::outcome_kind`] to
    /// report [`TxnOutcome`](crate::TxnOutcome)`::CommitAmbiguous`
    /// instead of a plain abort.
    pub commit_ambiguous: bool,
}

pub(crate) struct DbInner {
    pub config: Config,
    pub engine: StorageEngine,
    pub locks: LockTable,
    pub deps: Mutex<DepGraph>,
    pub txns: TxnTable,
    pub tid_gen: IdGen,
    pub oid_gen: IdGen,
    pub undo_seq: AtomicU64,
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
    /// Prepare-force instants for in-doubt members (§14.2): written by
    /// `prepare_group` once its `Prepared` record is durable, consumed by
    /// the decide paths to feed `Obs::in_doubt_ns`. Taken only *after*
    /// every transaction-shard guard is dropped (the §7 rule: no obs
    /// bookkeeping under a stripe mutex). Absent entries — a restart
    /// between prepare and decide — simply record nothing.
    pub prepared_at: Mutex<std::collections::HashMap<Tid, std::time::Instant>>,
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

/// A point-in-time statistics snapshot of a [`Database`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DatabaseStats {
    /// Transactions registered but not begun.
    pub initiated: usize,
    /// Transactions executing their closure.
    pub running: usize,
    /// Completed (or committing) transactions awaiting the commit point.
    pub completed: usize,
    /// Committed transactions still in the table (not yet retired).
    pub committed: usize,
    /// Aborting/aborted transactions still in the table.
    pub aborted: usize,
    /// Lock-manager counters.
    pub locks: LockStats,
    /// Live permit descriptors.
    pub permits: usize,
    /// Live CD/AD dependency edges.
    pub dep_edges: usize,
    /// Live GC links.
    pub gc_links: usize,
    /// Records appended to the log by this process.
    pub log_records: u64,
}

/// A one-call cross-layer introspection view, assembled by
/// [`Database::introspect`] for live monitoring surfaces (`asset-top`, the
/// DOT exporters). Each section is internally consistent (read under its
/// own layer's synchronization); sections may lag each other by in-flight
/// operations, exactly like [`MetricsSnapshot`](asset_obs::MetricsSnapshot).
#[derive(Clone, Debug)]
pub struct Introspection {
    /// Transaction / lock / dependency aggregate counts.
    pub stats: DatabaseStats,
    /// Live (non-terminated) transactions.
    pub live: usize,
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
    /// Deepest transitive permit chain a permit check has walked so far.
    pub permit_chain_max: u64,
}

impl std::fmt::Display for DatabaseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "txns: {} initiated / {} running / {} completed / {} committed / {} aborted",
            self.initiated, self.running, self.completed, self.committed, self.aborted
        )?;
        writeln!(
            f,
            "locks: {} grants, {} blocks, {} suspensions, {} deadlocks, {} timeouts",
            self.locks.grants,
            self.locks.blocks,
            self.locks.suspensions,
            self.locks.deadlocks,
            self.locks.timeouts
        )?;
        write!(
            f,
            "permits: {}; dependencies: {} CD/AD + {} GC; log records: {}",
            self.permits, self.dep_edges, self.gc_links, self.log_records
        )
    }
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
        let tid_gen = IdGen::new();
        tid_gen.bump_past(report.max_tid);
        // Restart leaves what it replayed in the cache, so the objects the
        // log created are not in the store yet: the log's highest oid counts
        // beside the store's.
        let oid_gen = IdGen::new();
        let stored = engine.store().oids().iter().map(|o| o.raw()).max();
        oid_gen.bump_past(stored.unwrap_or(0).max(report.max_oid));
        let inner = Arc::new(DbInner {
            // 0 = the resolved default, `next_power_of_two(4 x cores)`
            locks: LockTable::with_shards_obs(0, Arc::clone(&obs)),
            txns: TxnTable::new(0),
            config,
            engine,
            deps: Mutex::new(DepGraph::new()),
            tid_gen,
            oid_gen,
            undo_seq: AtomicU64::new(1),
            live_count: AtomicUsize::new(0),
            threads: TxnThreads::new(Arc::clone(&obs)),
            obs,
            exec: std::sync::OnceLock::new(),
            prepared_at: Mutex::new(std::collections::HashMap::new()),
        });
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
                    seq: inner.undo_seq.fetch_add(1, Ordering::Relaxed),
                    oid: u.oid,
                    before: u.before.clone(),
                })
                .collect();
            let oids: BTreeSet<Oid> = d.updates.iter().map(|u| u.oid).collect();
            for oid in oids {
                if inner
                    .locks
                    .try_lock(d.tid, oid, asset_common::Operation::Write)
                    .is_err()
                {
                    return Err(AssetError::Corrupt(format!(
                        "in-doubt lock conflict on {oid} restoring {}",
                        d.tid
                    )));
                }
            }
            inner.txns.insert(
                d.tid,
                TxnSlot {
                    parent: Tid::NULL,
                    status: TxnStatus::Prepared,
                    job: None,
                    undo,
                    abort_performed: false,
                    thread_live: false,
                    commit_pending: false,
                    commit_ambiguous: false,
                },
            );
            inner.live_count.fetch_add(1, Ordering::Relaxed);
            inner.deps.lock().register(d.tid);
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
    pub fn in_memory() -> Database {
        Database::open(Config::in_memory())
            // the only open failures are I/O errors from the file-backed path
            // verify: allow(no_panics) — in-memory open performs no I/O
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
        self.initiate_with_parent(Tid::NULL, Some(Box::new(f)))
    }

    /// Register a transaction; `job` is `None` for a step program.
    pub(crate) fn initiate_with_parent(&self, parent: Tid, job: Option<Job>) -> Result<Tid> {
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
        self.inner.txns.insert(
            tid,
            TxnSlot {
                parent,
                status: TxnStatus::Initiated,
                job,
                undo: Vec::new(),
                abort_performed: false,
                thread_live: false,
                commit_pending: false,
                commit_ambiguous: false,
            },
        );
        self.inner.deps.lock().register(tid);
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
            self.inner.threads.hand(self.clone(), t);
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
        // Span + latency instrumentation wraps the whole terminal
        // processing (gate evaluation, parking, the forced record); both
        // are gated on tracing so the default commit path stays clock-free.
        let obs = &self.inner.obs;
        let t0 = obs.tracing_enabled().then(std::time::Instant::now);
        if t0.is_some() {
            obs.record(EventKind::SpanOpen {
                tid: t,
                span: SpanName::CommitGate,
            });
        }
        self.run_unclaimed(t);
        // The blocking driver of the one §4.2 protocol: where the executor
        // parks the task, this thread sleeps on the event count and
        // "retries starting at step 1".
        let res = loop {
            let epoch = self.inner.txns.epoch();
            match self.commit_pass(t) {
                Ok(CommitPass::Done(committed)) => break Ok(committed),
                Ok(CommitPass::Wait) => self.inner.txns.wait_event(epoch),
                Ok(CommitPass::Flush(group)) => break self.force_commit(t, &group).map(|()| true),
                Err(e) => break Err(e),
            }
        };
        if let Some(t0) = t0 {
            obs.commit_ns.record(t0.elapsed().as_nanos() as u64);
            obs.record(EventKind::SpanClose {
                tid: t,
                span: SpanName::CommitGate,
            });
        }
        res
    }

    /// Step 4 for a caller that may block — the commit point: one forced
    /// record for the pinned group (`log_record` returns once the window
    /// holding the record has synced: on an idle flusher this thread runs
    /// that window itself, otherwise it waits for the flusher thread's
    /// next one), then steps 5–6 or the ambiguous-record reconciliation.
    /// No transaction-table shard is held across the force; the pin is
    /// what excludes.
    #[wal(logs = "log_record", mutates = "self.finish_commit")]
    fn force_commit(&self, t: Tid, group: &[Tid]) -> Result<()> {
        #[allow(unused_mut)]
        let mut forced: Result<()> = Ok(());
        asset_faults::failpoint!(
            &self.inner.config.faults,
            crate::failpoints::COMMIT_RECORD,
            |act| {
                forced = Err(self
                    .inner
                    .config
                    .faults
                    .realize_plain(crate::failpoints::COMMIT_RECORD, act)
                    .into());
            }
        );
        if forced.is_ok() {
            forced = self
                .inner
                .engine
                .log_record(&LogRecord::Commit {
                    tids: group.to_vec(),
                })
                .map(|_| ());
        }
        #[cfg(feature = "faults")]
        if forced.is_ok() {
            if let Some(act) = self
                .inner
                .config
                .faults
                .check(crate::failpoints::COMMIT_AFTER_RECORD)
            {
                // the record is durable; an error here is the ambiguous
                // "committed on disk, reported as failed" outcome the
                // abort path reconciles
                forced = Err(self
                    .inner
                    .config
                    .faults
                    .realize_plain(crate::failpoints::COMMIT_AFTER_RECORD, act)
                    .into());
            }
        }
        if let Err(e) = forced {
            self.commit_failed(t, group);
            return Err(e);
        }
        self.finish_commit(t, group, self.inner.txns.lock_group(group));
        Ok(())
    }

    /// `abort(t)` — paper §2.1, protocol in §4.2: roll `t` back by
    /// installing its before images in reverse order, release its locks
    /// and permits, and propagate the abort along incoming AD/GC edges.
    /// Returns `true` if the abort succeeds (or `t` was already aborted),
    /// `false` if `t` has already committed.
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
        loop {
            let epoch = self.inner.txns.epoch();
            let slot = self
                .inner
                .txns
                .with(t, |slot| slot.map(|s| (s.status, s.commit_pending)));
            match slot.ok_or(AssetError::TxnNotFound(t))? {
                (TxnStatus::Committed, _) => return Ok(false),
                (TxnStatus::Aborted, _) => return Ok(true),
                // pinned: the flush outcome decides; wait the window out
                // and report what it decided
                (_, true) => self.inner.txns.wait_event(epoch),
                _ => {
                    self.abort_many(&[t]);
                    return Ok(true);
                }
            }
        }
    }

    /// `self()` and `parent()` are on [`TxnCtx`]; this is the parent query
    /// by tid.
    pub fn parent_of(&self, t: Tid) -> Result<Tid> {
        self.inner
            .txns
            .with(t, |slot| slot.map(|s| s.parent))
            .ok_or(AssetError::TxnNotFound(t))
    }

    /// Status query (the paper mentions status primitives without listing
    /// them).
    pub fn status(&self, t: Tid) -> Result<TxnStatus> {
        self.inner
            .txns
            .with(t, |slot| slot.map(|s| s.status))
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
    /// nested transactions (§3.1.4).
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
    #[wal(logs = "log_record", mutates = "std::mem::take(&mut slot.undo)")]
    pub fn delegate(&self, from: Tid, to: Tid, obs: Option<ObSet>) -> Result<()> {
        let mut guard = self.lock_unpinned(&[from, to]);
        if guard.get(from).is_none() {
            return Err(AssetError::TxnNotFound(from));
        }
        if guard.get(to).is_none() {
            return Err(AssetError::TxnNotFound(to));
        }
        if from == to {
            return Ok(());
        }
        // Crash safety — WAL discipline: the Delegate record lands before
        // any in-memory state moves, so a failed append leaves the
        // delegation entirely un-happened on both sides of a restart
        // (recovery applies a logged Delegate whether or not the splice
        // below ran; an unlogged splice, by contrast, would strand the
        // delegatee's undo responsibility on the delegator after a crash).
        let logged_obs = obs.as_ref().map(|set| match set {
            ObSet::All => None,
            ObSet::Objects(s) => Some(s.iter().copied().collect::<Vec<_>>()),
        });
        let logged_obs = match logged_obs {
            None => None,       // delegate-all
            Some(None) => None, // ObSet::All == delegate-all
            Some(Some(v)) => Some(v),
        };
        asset_faults::failpoint!(
            &self.inner.config.faults,
            crate::failpoints::DELEGATE_RECORD,
            |act| {
                return Err(self
                    .inner
                    .config
                    .faults
                    .realize_plain(crate::failpoints::DELEGATE_RECORD, act)
                    .into());
            }
        );
        self.inner.engine.log_record(&LogRecord::Delegate {
            from,
            to,
            obs: logged_obs,
        })?;
        // splice undo entries (both slots were validated non-None above and
        // the guard has held their shards throughout)
        let moved: Vec<UndoEntry> = {
            let Some(slot) = guard.get_mut(from) else {
                return Err(AssetError::TxnNotFound(from));
            };
            match &obs {
                None => std::mem::take(&mut slot.undo),
                Some(set) => {
                    let (take, keep): (Vec<_>, Vec<_>) =
                        slot.undo.drain(..).partition(|u| set.contains(u.oid));
                    slot.undo = keep;
                    take
                }
            }
        };
        {
            let Some(dst) = guard.get_mut(to) else {
                return Err(AssetError::TxnNotFound(to));
            };
            dst.undo.extend(moved);
            dst.undo.sort_by_key(|u| u.seq);
        }
        // locks + permit re-attribution
        self.inner.locks.delegate(from, to, obs.as_ref());
        drop(guard);
        self.inner.txns.bump();
        Ok(())
    }

    /// `permit(ti, tj, ob_set, operations)` — paper §2.2, descriptor (PD)
    /// in §4.1: allow `tj` to perform conflicting operations on `ti`'s
    /// objects without waiting for `ti` to terminate. Permits compose
    /// transitively (§2.2 property 3). Wildcard forms: `grantee: None` =
    /// any transaction, `ObSet::All` = any object, `OpSet::ALL` = any
    /// operation.
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
        self.inner.locks.permit(grantor, grantee, obs, ops);
        Ok(())
    }

    /// The paper's `permit(ti, tj, operations)` — materialize the object
    /// set from what `grantor` has accessed or has permission to access,
    /// at call time (§4.2).
    pub fn permit_accessed(&self, grantor: Tid, grantee: Option<Tid>, ops: OpSet) -> Result<()> {
        self.inner.locks.permit_accessed(grantor, grantee, ops);
        Ok(())
    }

    /// `form_dependency(type, ti, tj)` — paper §2.2, edges kept in the
    /// waits-for/dependency graph of §4.1 — with the paper's argument
    /// order:
    /// * CD — `tj` cannot commit before `ti` commits;
    /// * AD — if `ti` aborts, `tj` must abort;
    /// * GC — both commit or neither.
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
        // hold both parties' shards to order against commits, then deps
        let guard = self.lock_unpinned(&[ti, tj]);
        if guard.get(ti).is_none() {
            return Err(AssetError::TxnNotFound(ti));
        }
        if guard.get(tj).is_none() {
            return Err(AssetError::TxnNotFound(tj));
        }
        let mut deps = self.inner.deps.lock();
        // transfer terminal knowledge so retroactive dooming works (both
        // slots were validated non-None above, under the same guard)
        for t in [ti, tj] {
            match guard.get(t).map(|s| s.status) {
                Some(TxnStatus::Committed) => deps.committed(&[t]),
                Some(TxnStatus::Aborted) => {
                    let _ = deps.aborted(t);
                }
                Some(_) => deps.register(t),
                None => {}
            }
        }
        deps.form(kind, ti, tj)?;
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
    /// used to hold across the force gave it.
    fn lock_unpinned(&self, parties: &[Tid]) -> GroupGuard<'_> {
        loop {
            let epoch = self.inner.txns.epoch();
            let guard = self.inner.txns.lock_group(parties);
            let pinned = |t: &Tid| guard.get(*t).is_some_and(|s| s.commit_pending);
            if !parties.iter().any(pinned) {
                return guard;
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
        self.inner.txns.with(t, |slot| {
            let slot = slot.filter(|s| s.thread_live)?;
            let job = slot.job.take()?;
            Some((slot.status == TxnStatus::Running).then_some(job))
        })
    }

    /// Run a claimed body on this thread and complete `t` with its
    /// outcome. A panic in the body is its abort, never the caller's.
    pub(crate) fn run_claimed(&self, t: Tid, job: Option<Job>) {
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
            self.inner.threads.forget(t);
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
        self.inner.engine.read_object(oid)
    }

    /// Quiescent checkpoint; fails if any transaction is not terminated.
    pub fn checkpoint(&self) -> Result<()> {
        let guard = self.inner.txns.lock_all();
        if let Some((tid, slot)) = guard.iter().find(|(_, s)| !s.status.is_terminated()) {
            return Err(AssetError::InvalidState {
                tid: *tid,
                status: slot.status,
                op: "checkpoint",
            });
        }
        // holding every shard keeps new transactions out of the table
        self.inner.engine.checkpoint()
    }

    /// Compact the write-ahead log while long-lived transactions are still
    /// in flight — the fuzzy counterpart to [`checkpoint`](Self::checkpoint).
    ///
    /// Settled history (committed and aborted work) is dropped from the
    /// log; the pending updates of live transactions are re-logged under
    /// their *current* owner (delegations folded in). Requires only that no
    /// transaction is actively `Running` or pinned at its commit point, its
    /// record still to be appended (completed-but-uncommitted transactions
    /// — the ones that block a quiescent checkpoint — are fine); fails
    /// with `InvalidState` otherwise.
    pub fn compact_log(&self) -> Result<asset_storage::CompactionReport> {
        let guard = self.inner.txns.lock_all();
        if let Some((tid, slot)) = guard
            .iter()
            .find(|(_, s)| s.status == TxnStatus::Running || s.commit_pending)
        {
            return Err(AssetError::InvalidState {
                tid: *tid,
                status: slot.status,
                op: "compact_log",
            });
        }
        let live: std::collections::HashSet<Tid> = guard
            .iter()
            .filter(|(_, s)| !s.status.is_terminated())
            .map(|(t, _)| *t)
            .collect();
        // holding the table shards keeps commits/aborts (which append) out
        self.inner.engine.compact_log(&live)
    }

    /// Drop the descriptors of terminated transactions; returns how many
    /// were retired.
    pub fn retire_terminated(&self) -> usize {
        let mut guard = self.inner.txns.lock_all();
        let dead: Vec<Tid> = guard
            .iter()
            .filter(|(_, s)| s.status.is_terminated())
            .map(|(t, _)| *t)
            .collect();
        let mut deps = self.inner.deps.lock();
        for t in &dead {
            guard.remove(*t);
            deps.retire(*t);
        }
        dead.len()
    }

    /// Lock-manager statistics.
    pub fn lock_stats(&self) -> LockStats {
        self.inner.locks.stats()
    }

    /// Aggregate statistics across the whole facility — transaction
    /// counts, lock-manager counters, dependency-graph sizes, permit
    /// count, log volume.
    pub fn stats(&self) -> DatabaseStats {
        let mut c = (0usize, 0usize, 0usize, 0usize, 0usize);
        self.inner.txns.for_each(|_, s| match s.status {
            TxnStatus::Initiated => c.0 += 1,
            TxnStatus::Running => c.1 += 1,
            TxnStatus::Completed | TxnStatus::Committing | TxnStatus::Prepared => c.2 += 1,
            TxnStatus::Committed => c.3 += 1,
            TxnStatus::Aborting | TxnStatus::Aborted => c.4 += 1,
        });
        let (initiated, running, completed, committed, aborted) = c;
        let (dep_edges, gc_links) = {
            let deps = self.inner.deps.lock();
            (deps.edge_count(), deps.gc_link_count())
        };
        DatabaseStats {
            initiated,
            running,
            completed,
            committed,
            aborted,
            locks: self.inner.locks.stats(),
            permits: self.inner.locks.permit_count(),
            dep_edges,
            gc_links,
            log_records: self.inner.engine.log().records_appended(),
        }
    }

    /// The observability hub shared by the storage engine, the lock table
    /// and the transaction manager. Enable tracing with
    /// `db.obs().enable_tracing(capacity)`; read metrics any time with
    /// [`metrics_snapshot`](Self::metrics_snapshot).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// A lock-free point-in-time view of every counter and histogram the
    /// facility records (see `asset_obs::MetricsSnapshot`).
    pub fn metrics_snapshot(&self) -> asset_obs::MetricsSnapshot {
        self.inner.obs.snapshot()
    }

    /// Assemble the full cross-layer [`Introspection`] view: per-stripe
    /// lock occupancy and contention, the waits-for and dependency graphs,
    /// permit-chain depth, and log watermarks. Built for polling from a
    /// monitoring thread (`asset-top` renders it once per frame): each
    /// layer is read under its own short-lived synchronization, never all
    /// at once, so polling cannot stall the workload.
    pub fn introspect(&self) -> Introspection {
        let dep_edges = {
            let deps = self.inner.deps.lock();
            deps.edges()
        };
        let deps_summary = self.inner.deps.lock().summary();
        Introspection {
            stats: self.stats(),
            live: self.live_transactions(),
            stripe_stats: self.inner.locks.stripe_stats(),
            stripes: self.inner.locks.stripe_occupancy(),
            waits: self.inner.locks.waits_snapshot(),
            dep_edges,
            deps: deps_summary,
            log: self.inner.engine.log().watermarks(),
            permit_chain_max: self.inner.obs.permit_chain_len.snapshot().max,
        }
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
    /// then the terminal status is published. Running victims are marked
    /// and poisoned; whoever runs (or claims) the body finalizes.
    // Each undo step logs its CLR and installs the image in one latched
    // engine call; the Abort record follows the last of them and precedes
    // the terminal status.
    #[wal(logs = "log_record", mutates = "slot.status = TxnStatus::Aborted")]
    pub(crate) fn abort_many(&self, seeds: &[Tid]) {
        enum Act {
            Skip,
            Wake,
            /// The claimed undo chain, and whether the log has heard of
            /// the transaction (it wrote, or it is named by a `Prepared`
            /// record): only then is there anything for an `Abort` record
            /// to close.
            Undo(Vec<UndoEntry>, bool),
        }
        let mut queue: Vec<Tid> = seeds.to_vec();
        while let Some(x) = queue.pop() {
            let act = self.inner.txns.with(x, |slot| {
                let Some(slot) = slot else { return Act::Skip };
                if slot.commit_pending {
                    // the group's commit record is in the flush window; its
                    // fate is the flush outcome's to decide. A successful
                    // flush commits the member (the abort request loses the
                    // race, exactly as if the forced record had landed
                    // first); a failed flush re-runs the abort path.
                    return Act::Skip;
                }
                match slot.status {
                    TxnStatus::Committed | TxnStatus::Aborted => Act::Skip,
                    TxnStatus::Running => {
                        // mark; the thread that runs or claims the body
                        // (or the executor worker) performs the steps
                        slot.status = TxnStatus::Aborting;
                        self.inner.locks.poison(x);
                        Act::Wake
                    }
                    TxnStatus::Aborting if slot.thread_live => {
                        // already marked; its body's thread will finalize
                        Act::Skip
                    }
                    _ => {
                        if slot.abort_performed {
                            Act::Skip
                        } else {
                            let in_log =
                                !slot.undo.is_empty() || slot.status == TxnStatus::Prepared;
                            slot.abort_performed = true;
                            slot.status = TxnStatus::Aborting;
                            Act::Undo(std::mem::take(&mut slot.undo), in_log)
                        }
                    }
                }
            });
            let (mut undo, in_log) = match act {
                Act::Skip => continue,
                Act::Wake => {
                    // the poison wakes a task parked on a lock and the bump
                    // below one parked on a gate; one parked on
                    // `WaitExternal` has no wake registry, so run it: its
                    // next step sees `Aborting` and finalizes
                    self.nudge(x);
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
            // committed overwrites). A step that fails — its CLR refused,
            // its entry unreachable — must not strand the rest, but it
            // leaves the rollback incomplete in the log: the Abort record
            // is then withheld and restart, finding a loser, finishes it.
            undo.sort_by_key(|u| std::cmp::Reverse(u.seq));
            let mut rolled_back = true;
            for u in undo {
                asset_faults::failpoint!(
                    &self.inner.config.faults,
                    crate::failpoints::ABORT_CLR,
                    |act| {
                        // a crash mid-rollback, or (`Error`) one undo step
                        // lost: either way restart recovery must finish
                        // the undo from the log
                        let _lost = self
                            .inner
                            .config
                            .faults
                            .realize_plain(crate::failpoints::ABORT_CLR, act);
                        rolled_back = false;
                        continue;
                    }
                );
                rolled_back &= self.inner.engine.undo_object(u.oid, u.before).is_ok();
            }
            if in_log && rolled_back {
                let _ = self.inner.engine.log_record(&LogRecord::Abort { tid: x });
            }
            self.inner.obs.record(EventKind::SpanClose {
                tid: x,
                span: SpanName::Rollback,
            });
            // step 3: release locks and permits
            self.inner.locks.release_all(x);
            // steps 4–5: propagate along incoming AD/GC, drop CD
            let (victims, resolved) = {
                let mut deps = self.inner.deps.lock();
                let before = deps.edge_count() + deps.gc_link_count();
                let victims = deps.aborted(x);
                let resolved = before.saturating_sub(deps.edge_count() + deps.gc_link_count());
                (victims, resolved)
            };
            queue.extend(victims);
            // step 6: aborted
            self.inner.txns.with(x, |slot| {
                if let Some(slot) = slot {
                    slot.status = TxnStatus::Aborted;
                }
            });
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
    /// An error is a *no* vote (nothing durable marks the group prepared,
    /// and doomed groups are aborted locally) — **except** when the error
    /// surfaces after the record became durable (see
    /// [`PART_AFTER_PREPARE`](crate::failpoints::PART_AFTER_PREPARE)), in
    /// which case the group stays `Prepared` awaiting the decision.
    /// Idempotent: re-preparing an already-prepared group returns it.
    #[wal(logs = "log_record", mutates = "slot.status = TxnStatus::Prepared")]
    pub fn prepare_group(&self, seeds: &[Tid]) -> Result<Vec<Tid>> {
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        // steps 2–3 over the seed union; the blocking wait for a closed
        // gate or an unfinished member lives here, in the adapter
        let (group, mut guard) = loop {
            let epoch = self.inner.txns.epoch();
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
            match guard.get(*m).map(|s| s.status) {
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
        #[allow(unused_mut)]
        let mut prep_res: Result<()> = Ok(());
        asset_faults::failpoint!(
            &self.inner.config.faults,
            crate::failpoints::PREPARE_RECORD,
            |act| {
                prep_res = Err(self
                    .inner
                    .config
                    .faults
                    .realize_plain(crate::failpoints::PREPARE_RECORD, act)
                    .into());
            }
        );
        if prep_res.is_ok() {
            prep_res = self
                .inner
                .engine
                .log_record(&LogRecord::Prepared {
                    tids: group.clone(),
                })
                .map(|_| ());
        }
        if let Err(e) = prep_res {
            // nothing durable marks the group prepared: vote no and
            // abort locally so held locks drain
            drop(guard);
            self.abort_many(&group);
            return Err(e);
        }
        for m in &group {
            // members come from the guard's own locked key set
            // verify: allow(no_panics) — guard-internal keys
            let slot = guard.get_mut(*m).expect("group member exists");
            slot.status = TxnStatus::Prepared;
        }
        drop(guard);
        self.inner.txns.bump();
        // in-doubt clock starts at the durable prepare force (§14.2);
        // guard already dropped, so the map lock nests inside nothing
        {
            let now = std::time::Instant::now();
            let mut at = self.inner.prepared_at.lock();
            for m in &group {
                at.insert(*m, now);
            }
        }
        self.inner.obs.record(EventKind::PrepareForced {
            tid: group[0],
            group: group.len() as u32,
        });
        // the record is durable and the group is Prepared; a failure
        // here models the participant dying (Crash) or the vote being
        // lost in transit (Error) — either way the group must STAY
        // prepared: only the coordinator's decision resolves it
        #[cfg(feature = "faults")]
        if let Some(act) = self
            .inner
            .config
            .faults
            .check(crate::failpoints::PART_AFTER_PREPARE)
        {
            return Err(self
                .inner
                .config
                .faults
                .realize_plain(crate::failpoints::PART_AFTER_PREPARE, act)
                .into());
        }
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
    #[wal(logs = "append", mutates = "self.finish_commit")]
    pub fn decide_commit_group(&self, group: &[Tid]) -> Result<()> {
        let guard = self.inner.txns.lock_group(group);
        let mut pending: Vec<Tid> = Vec::with_capacity(group.len());
        for m in group {
            match guard.get(*m).map(|s| s.status) {
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
        self.finish_commit(pending[0], &pending, guard);
        self.record_decide(&pending, true);
        // the decision is applied and its record only buffered; a failure
        // here models the participant dying before its next force (Crash:
        // the record dies with it, and restart restores the group in
        // doubt) or the acknowledgement being lost (Error)
        asset_faults::failpoint!(
            &self.inner.config.faults,
            crate::failpoints::PART_AFTER_DECIDE,
            |act| {
                return Err(self
                    .inner
                    .config
                    .faults
                    .realize_plain(crate::failpoints::PART_AFTER_DECIDE, act)
                    .into());
            }
        );
        Ok(())
    }

    /// Close the in-doubt window for `members` (§14.2 observability):
    /// record each member's prepare-force → decision duration into
    /// `Obs::in_doubt_ns` and emit one `DecideApplied` event. Members
    /// without a recorded prepare instant (restart recovery restored
    /// them) record nothing. Never called with a shard guard held.
    fn record_decide(&self, members: &[Tid], commit: bool) {
        let decided: Vec<std::time::Instant> = {
            let mut at = self.inner.prepared_at.lock();
            members.iter().filter_map(|m| at.remove(m)).collect()
        };
        if decided.is_empty() {
            return;
        }
        let obs = &self.inner.obs;
        for t0 in &decided {
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
    /// coordinator never mixes decisions within one group).
    pub fn decide_abort_group(&self, group: &[Tid]) {
        // capture the in-doubt window before the rollback clears state;
        // non-prepared members have no entry and record nothing
        self.record_decide(group, false);
        self.abort_many(group);
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
    // parks the task. None of them may sleep (verify rule R5).

    /// The `Initiated → Running` transition both drivers share; nothing is
    /// logged, a transaction enters the log with its first write. The body
    /// stays in the TD for whoever claims it; [`begin`](Self::begin) then
    /// hands it to the transaction threads, the executor moves on to
    /// stepping. `false` when the transaction was doomed before it started
    /// (the commit then reports the abort).
    #[exec_step]
    pub(crate) fn start(&self, t: Tid) -> Result<bool> {
        let begun = self.inner.txns.with(t, |slot| -> Result<bool> {
            let slot = slot.ok_or(AssetError::TxnNotFound(t))?;
            if slot.status.is_abort_path() {
                return Ok(false);
            }
            if slot.status != TxnStatus::Initiated {
                return Err(AssetError::InvalidState {
                    tid: t,
                    status: slot.status,
                    op: "begin",
                });
            }
            slot.status = TxnStatus::Running;
            slot.thread_live = true;
            Ok(true)
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
    #[exec_step]
    pub(crate) fn complete(&self, t: Tid, succeeded: bool) -> bool {
        self.inner.obs.record(EventKind::TxnComplete {
            tid: t,
            ok: succeeded,
        });
        let status = self.inner.txns.with(t, |slot| {
            let slot = slot?;
            slot.thread_live = false;
            if slot.status == TxnStatus::Running {
                // a failed or panicked job aborts
                slot.status = if succeeded {
                    TxnStatus::Completed
                } else {
                    TxnStatus::Aborting
                };
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

    /// Abort-aware status check before any data operation: only a
    /// `Running` transaction may perform further work.
    pub(crate) fn check_live(&self, t: Tid) -> Result<()> {
        match self.status(t)? {
            TxnStatus::Running => Ok(()),
            TxnStatus::Aborting | TxnStatus::Aborted => Err(AssetError::TxnAborted(t)),
            s => Err(AssetError::InvalidState {
                tid: t,
                status: s,
                op: "operation",
            }),
        }
    }

    /// The post-lock half of a write, the same whether the caller blocked
    /// for the lock ([`TxnCtx`]) or tried for it
    /// ([`StepCtx`](crate::StepCtx)): X-latched install with before/after
    /// images logged, then the undo entry.
    #[exec_step]
    pub(crate) fn install(&self, t: Tid, ob: Oid, after: Option<Vec<u8>>) -> Result<()> {
        let before = self.inner.engine.write_object(t, ob, after)?;
        let seq = self.inner.undo_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.txns.with(t, |slot| {
            if let Some(slot) = slot {
                slot.undo.push(UndoEntry {
                    seq,
                    oid: ob,
                    before,
                });
            }
        });
        Ok(())
    }

    /// One non-blocking pass of the §4.2 commit protocol. Either resolves
    /// the commit terminally (`false` only once the abort it reports has
    /// been performed), asks the driver to wait for the next table event
    /// and retry, or — gates open and re-validated under every member's
    /// shard — pins the whole GC group with `commit_pending` and hands it
    /// back for the driver to make its one commit record durable. The
    /// statuses move to `Committed` only after that
    /// ([`finish_commit`](Self::finish_commit)).
    #[exec_step]
    pub(crate) fn commit_pass(&self, t: Tid) -> Result<CommitPass> {
        enum Step {
            Done(bool),
            Wait,
            FinishAbort,
            Gate,
        }
        loop {
            // Step 1: status check.
            let step = self.inner.txns.with(t, |slot| -> Result<Step> {
                let slot = slot.ok_or(AssetError::TxnNotFound(t))?;
                match slot.status {
                    TxnStatus::Committed => Ok(Step::Done(true)),
                    TxnStatus::Aborted => Ok(Step::Done(false)),
                    TxnStatus::Aborting => Ok(Step::FinishAbort),
                    TxnStatus::Initiated | TxnStatus::Running => Ok(Step::Wait),
                    // a prepared participant's fate belongs to the commit
                    // coordinator (§14); local commit must not decide it
                    TxnStatus::Prepared => Err(AssetError::InvalidState {
                        tid: t,
                        status: TxnStatus::Prepared,
                        op: "commit",
                    }),
                    // a commit record for this transaction's group already
                    // sits in the flush window: wait for the flush outcome
                    // rather than forcing a second record for the group
                    TxnStatus::Completed | TxnStatus::Committing if slot.commit_pending => {
                        Ok(Step::Wait)
                    }
                    TxnStatus::Completed | TxnStatus::Committing => {
                        slot.status = TxnStatus::Committing;
                        Ok(Step::Gate)
                    }
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
                    // A group that holds no undo entry (read-only, or all
                    // of its work delegated away) has nothing to make
                    // durable and nothing in the log is its to commit: no
                    // record, no flush window — straight to steps 5–6
                    // under the guard.
                    if group
                        .iter()
                        .all(|m| guard.get(*m).is_some_and(|s| s.undo.is_empty()))
                    {
                        self.finish_commit(t, &group, guard);
                        return Ok(CommitPass::Done(true));
                    }
                    // Step 4, first half: pin the group. While pinned,
                    // aborts skip the members, other commits wait, and
                    // delegate/form_dependency wait the window out — so
                    // between dropping the shards here and the record's
                    // fsync nothing can contradict the (about to be
                    // durable) record, and nothing is held across it.
                    for m in &group {
                        // members come from the guard's own locked key set
                        // verify: allow(no_panics) — guard-internal keys
                        let slot = guard.get_mut(*m).expect("group member exists");
                        slot.commit_pending = true;
                    }
                    return Ok(CommitPass::Flush(group));
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
    #[exec_step]
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
            let guard = self.inner.txns.lock_group(&group);
            if !matches!(gates(), Gates::Open(g2) if g2 == group) {
                continue; // moved before the shards were held: re-evaluate
            }
            let mut incomplete = false;
            let mut doomed = None;
            for m in &group {
                match guard.get(*m).map(|s| (s.status, s.commit_pending)) {
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
    /// ack arrived, or the force returned): unpin, statuses, lock
    /// release, dependency cleanup, counters. `guard` holds the members'
    /// shards — the one function that moves a transaction to `Committed`.
    #[exec_step]
    pub(crate) fn finish_commit(&self, t: Tid, group: &[Tid], mut guard: GroupGuard<'_>) {
        for m in group {
            // pinned or prepared slots are not terminated, so retirement
            // cannot have removed them
            // verify: allow(no_panics) — guard-internal keys
            let slot = guard.get_mut(*m).expect("group member exists");
            slot.commit_pending = false;
            slot.status = TxnStatus::Committed;
            slot.undo.clear();
            self.inner.live_count.fetch_sub(1, Ordering::Relaxed);
            self.inner.locks.release_all(*m);
        }
        let resolved = {
            let mut deps = self.inner.deps.lock();
            let before = deps.edge_count() + deps.gc_link_count();
            deps.committed(group);
            before.saturating_sub(deps.edge_count() + deps.gc_link_count())
        };
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

    /// The group's commit record failed at the commit point: it may or
    /// may not have reached the OS. Leaving the members non-terminal
    /// would let restart recovery redo a group the live system reported
    /// as not committed; instead unpin the group, mark it ambiguous and
    /// drive it through the abort path. Its CLRs and Abort records land
    /// *after* the (possibly durable) commit record, so redo followed by
    /// the logged rollback converges to "not committed" on both sides of
    /// a restart.
    #[exec_step]
    pub(crate) fn commit_failed(&self, t: Tid, group: &[Tid]) {
        {
            let mut guard = self.inner.txns.lock_group(group);
            for m in group {
                if let Some(slot) = guard.get_mut(*m) {
                    slot.commit_pending = false;
                    slot.commit_ambiguous = true;
                }
            }
        }
        bump(&self.inner.obs.counters.commit_log_failures);
        self.inner.obs.record(EventKind::CommitAmbiguous {
            tid: t,
            group: group.len() as u32,
        });
        self.abort_many(group);
    }
}

/// What one non-blocking commit pass resolved to.
pub(crate) enum CommitPass {
    /// Terminal: committed (`true`) or aborted, the abort performed.
    Done(bool),
    /// Gate closed, group incomplete or pinned, or finalization owned
    /// elsewhere: wait for the next transaction-table event and retry.
    Wait,
    /// Gates open and re-validated: every member is pinned with
    /// `commit_pending`; the driver makes the group's commit record
    /// durable (the executor through the flusher's callback, the blocking
    /// `commit` with a forced append) and then calls `finish_commit` or
    /// `commit_failed`.
    Flush(Vec<Tid>),
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
