//! The state-machine transaction executor: a fixed worker pool driving
//! resumable transactions, where a blocking body would hold a transaction
//! thread for its whole life (DESIGN.md §12).
//!
//! A transaction submitted through [`Database::submit`] is a **step
//! program**: a closure called repeatedly with a [`StepCtx`] of
//! non-blocking operations, returning a [`TxnStep`] after each slice of
//! work. Workers pull runnable transactions from per-shard run queues and
//! run steps back-to-back; a program that cannot make progress *returns*
//! `WaitLock`/`WaitDep`/`WaitFlush` instead of sleeping, and the scheduler
//! parks the transaction until the matching wake arrives:
//!
//! * `WaitLock` — the task itself, as the waker of the request the failed
//!   try-op queued in the lock table (`LockTable::request`), invoked
//!   after a grant-relevant change on the request's stripe;
//! * `WaitDep` — the transaction table's event count (any termination or
//!   completion event, the same signal the blocking paths park on);
//! * `WaitFlush` — the group-commit flusher's acknowledgement callback.
//!
//! ## No lost wakeups
//!
//! Each task carries a scheduling state (`PARKED`/`QUEUED`/`RUNNING`/
//! `RUNNING_DIRTY`/`DONE`). A wakeup for a `RUNNING` task marks it
//! `RUNNING_DIRTY`; the worker's park attempt is a CAS `RUNNING → PARKED`
//! that fails against the dirty mark and requeues instead. A lock request
//! is queued by the lock table under the same stripe mutex as the attempt
//! that failed, so there is nothing to re-check; for transaction-table
//! events workers register the task (dep waiter list) **before** the
//! non-blocking check and the notifying side publishes state before firing
//! the hook — the register→check→park discipline the event count uses.
//! Both are model-checked in `tests/loom_executor.rs`.
//!
//! ## Commit
//!
//! When a program finishes, the worker drives the one §4.2 commit protocol
//! (`Database::commit_pass`, the same pass the blocking `commit` loops
//! over): once the dependency gate is open and re-validated, the whole GC
//! group's commit record is appended, the group is pinned with
//! `commit_pending` and its locks are released; the task then waits on the
//! [`GroupFlusher`](asset_storage::GroupFlusher) with a callback, parked on
//! `WaitFlush`, and commit acknowledgement is deferred until a flush window
//! has synced the log through the record — many transactions' records
//! share one write+sync. Durability is unchanged: statuses move to
//! `Committed` only after the ack (`Database::finish_commit`). Each step
//! is a system section: a panic in it, outside the program, stops the
//! database, and a step of a stopped database ends its program.
//!
//! The executor is a *driver*, not a second engine: begin, completion,
//! the post-lock install and the commit passes are the ones the blocking
//! primitives use, and `try_acquire` is one pass of the lock-request
//! protocol that [`TxnCtx`](crate::TxnCtx) loops over. What is its own is
//! scheduling — run queues, the park/enqueue protocol, the dep registry.
//! Queues, the dep registry and the flush callback carry the task itself;
//! the one place a task is found by tid is its transaction's descriptor
//! (`TxnSlot::task`), for [`Database::nudge`] and an abort's wake.

use crate::database::{CommitPass, Database, DbInner};
use asset_common::ids::stripe_of;
use asset_common::sync::{self, Condvar, Mutex, Rank};
use asset_common::{AssetError, Oid, Operation, Result, Tid, TxnStatus};
use asset_obs::{bump, EventKind};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Wake, Waker};

/// A step program: called with a [`StepCtx`] until it returns
/// [`TxnStep::Done`]. Every call re-enters at the top, so programs must be
/// written resumably — track progress in captured state and treat each
/// operation as retryable (a re-run of an already-granted `try_write` is
/// benign: the lock is held and the same image is installed again).
pub type StepProg = Box<dyn FnMut(&mut StepCtx<'_>) -> TxnStep + Send>;

/// What one call of a step program yielded.
#[derive(Debug)]
pub enum TxnStep {
    /// More work is immediately available; step again.
    Ready,
    /// A lock on `ob` was not grantable: park until the lock table wakes
    /// the request the failed try-op queued (release, permit, delegation
    /// or abort on its stripe). Returned with no request queued — no
    /// try-op of this step gave [`TryOp::WouldBlock`] — there is nothing
    /// to be woken by, and it is taken as [`Self::Ready`].
    WaitLock {
        /// The object whose lock the program is waiting for.
        ob: Oid,
    },
    /// Park until the next transaction-table event (dependency gates,
    /// partner completion — the signal the blocking paths park on).
    WaitDep,
    /// Park until a log-flush acknowledgement. Programs rarely return
    /// this themselves; the commit machinery uses it while a group's
    /// record sits in the flush window. Treated like [`Self::WaitDep`]
    /// when a program returns it directly.
    WaitFlush,
    /// Park until an explicit [`Database::nudge`]. Unlike the other
    /// waits no wake registry is armed: the nudging side must publish
    /// whatever the program will look at (a mailbox entry, a flag)
    /// *before* calling `nudge`, and the `RUNNING_DIRTY` protocol
    /// absorbs the race with a concurrent park. This is the suspension
    /// point for interactive transactions fed by an external request
    /// stream — `asset-server` sessions park here between wire requests.
    WaitExternal,
    /// The program finished *without* entering the local commit
    /// protocol: the transaction rests at `Completed` — locks retained,
    /// changes volatile — for an external commit authority to resolve
    /// (a distributed-commit coordinator via
    /// [`Database::prepare_group`] + the decide calls, DESIGN.md §14).
    /// The task is retired from the executor exactly as for
    /// [`Self::Done`]`(Err(_))`, but nothing is aborted or committed.
    Hold,
    /// The program finished: `Ok` proceeds to the group-commit protocol,
    /// `Err` aborts the transaction.
    Done(Result<()>),
}

/// Outcome of a non-blocking [`StepCtx`] operation.
#[derive(Debug)]
pub enum TryOp<T> {
    /// The operation completed with this value.
    Done(T),
    /// A transaction-duration lock was not grantable; the request is
    /// queued in the lock table — return [`TxnStep::WaitLock`] to park.
    WouldBlock,
}

// scheduling states (one AtomicU8 per task)
const PARKED: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;
const DONE: u8 = 4;

/// Steps a worker runs back-to-back on one transaction before requeueing
/// it behind other runnable work (fairness bound).
const STEP_BUDGET: usize = 64;

enum Phase {
    Begin,
    Run,
    Commit,
    AwaitFlush,
}

struct TaskBody {
    phase: Phase,
    prog: Option<StepProg>,
    /// The pinned GC group waiting for its flush window.
    group: Vec<Tid>,
    /// Commit-phase entry time (`Database::open_commit_span`).
    commit_t0: Option<std::time::Instant>,
}

/// A submitted transaction's scheduling record, held by whatever will
/// run it next (a run queue, the dep registry, a lock request, the flush
/// callback) and by its descriptor until the transaction terminates.
pub(crate) struct Task {
    tid: Tid,
    exec: Weak<ExecInner>,
    sched: AtomicU8,
    body: Mutex<TaskBody>,
    /// The window that made the commit durable, set by the flusher's ack
    /// callback; 0 until then (windows count from 1).
    flushed: AtomicU64,
}

/// A task is its own lock waker: waking it is [`ExecInner::enqueue`].
impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if let Some(exec) = self.exec.upgrade() {
            exec.enqueue(&self);
        }
    }
}

enum StepOutcome {
    Continue,
    Park(&'static str),
    Finished,
}

/// The worker-pool executor: run queues and the dep-wait registry. One
/// per database, spawned lazily by the first [`Database::submit`].
pub struct ExecInner {
    db: Weak<DbInner>,
    /// Per-shard run queues, tid-hashed; a pusher never holds a queue
    /// mutex and the pending mutex at once.
    queues: Box<[Mutex<VecDeque<Arc<Task>>>]>,
    queue_mask: u64,
    /// Count of queued tasks; workers park on its condvar when idle.
    pending: Mutex<usize>,
    pending_cv: Condvar,
    shutdown: AtomicBool,
    /// Tasks parked on `WaitDep`/commit gates.
    dep_waiters: Mutex<Vec<Arc<Task>>>,
    /// Worker threads actually running (0 = none could be spawned and
    /// `submit` refuses). Written once inside the `OnceLock` initializer,
    /// before any submit sees the executor.
    live_workers: AtomicUsize,
}

impl ExecInner {
    fn spawn(inner: &Arc<DbInner>) -> Arc<ExecInner> {
        let workers = inner.config.resolved_exec_workers();
        let nq = workers.next_power_of_two().max(2);
        let exec = Arc::new(ExecInner {
            db: Arc::downgrade(inner),
            queues: (0..nq).map(|_| Mutex::new(VecDeque::new())).collect(),
            queue_mask: (nq - 1) as u64,
            pending: Mutex::ranked(0, Rank::EXEC_PENDING, 0),
            pending_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dep_waiters: Mutex::new(Vec::new()),
            live_workers: AtomicUsize::new(0),
        });
        // Hook first, then threads: a worker that parks a task after this
        // point is guaranteed a live wake path. The hook holds the
        // executor weakly so the registry never keeps it alive.
        let weak = Arc::downgrade(&exec);
        inner.txns.set_bump_hook(Box::new(move || {
            if let Some(e) = weak.upgrade() {
                e.wake_deps();
            }
        }));
        let mut spawned = 0usize;
        for w in 0..workers {
            let e = Arc::clone(&exec);
            let ok = std::thread::Builder::new()
                .name(format!("asset-exec-{w}"))
                .spawn(move || worker_loop(e))
                .is_ok();
            if ok {
                spawned += 1;
            }
        }
        exec.live_workers.store(spawned, Ordering::Release);
        exec
    }

    /// Signal shutdown; called when the last database handle drops.
    /// Workers drain out on their own (they are detached).
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(self.pending.lock());
        self.pending_cv.notify_all();
    }

    fn queue_of(&self, tid: Tid) -> usize {
        stripe_of(tid.raw(), self.queue_mask)
    }

    fn push(&self, task: Arc<Task>) {
        {
            self.queues[self.queue_of(task.tid)].lock().push_back(task);
        }
        {
            let mut n = self.pending.lock();
            *n += 1;
        }
        self.pending_cv.notify_one();
    }

    /// Pop the next runnable transaction, sleeping when every queue is
    /// empty. This is the worker *idle* loop — the one place a worker
    /// thread blocks, and deliberately not an executor step.
    fn next_task(&self, rotor: &mut usize) -> Option<Arc<Task>> {
        let mut pending = self.pending.lock();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if *pending > 0 {
                let n = self.queues.len();
                for i in 0..n {
                    let qi = (*rotor + i) % n;
                    if let Some(t) = self.queues[qi].lock().pop_front() {
                        *pending -= 1;
                        *rotor = (qi + 1) % n;
                        return Some(t);
                    }
                }
            }
            self.pending_cv.wait(&mut pending);
        }
    }

    /// Wake a parked task (idempotent): `PARKED → QUEUED` pushes it;
    /// a `RUNNING` task is marked dirty so its park attempt requeues.
    fn enqueue(&self, task: &Arc<Task>) {
        loop {
            match task.sched.load(Ordering::Acquire) {
                PARKED => {
                    if task
                        .sched
                        .compare_exchange(PARKED, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.push(Arc::clone(task));
                        return;
                    }
                }
                RUNNING => {
                    if task
                        .sched
                        .compare_exchange(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED / RUNNING_DIRTY / DONE: a wakeup is already pending
                _ => return,
            }
        }
    }

    fn register_dep_wait(&self, task: &Arc<Task>) {
        self.dep_waiters.lock().push(Arc::clone(task));
    }

    fn wake_deps(&self) {
        let woken: Vec<Arc<Task>> = std::mem::take(&mut *self.dep_waiters.lock());
        for task in &woken {
            self.enqueue(task);
        }
    }

    /// Run one dispatched transaction for up to [`STEP_BUDGET`] steps.
    fn run_task(exec: &Arc<ExecInner>, db: &Database, task: Arc<Task>) {
        let tid = task.tid;
        if task
            .sched
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let obs = db.obs();
        let mut body = task.body.lock();
        for _ in 0..STEP_BUDGET {
            bump(&obs.counters.exec_steps);
            match sync::step(|| Self::step_once(exec, db, &task, &mut body)) {
                StepOutcome::Continue => continue,
                StepOutcome::Park(reason) => {
                    bump(&obs.counters.exec_parks);
                    obs.record(EventKind::ExecPark { tid, reason });
                    drop(body);
                    if task
                        .sched
                        .compare_exchange(RUNNING, PARKED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                    // a wakeup landed mid-step (RUNNING_DIRTY): requeue
                    bump(&obs.counters.exec_requeues);
                    task.sched.store(QUEUED, Ordering::Release);
                    exec.push(task);
                    return;
                }
                StepOutcome::Finished => {
                    // whichever way the transaction ended, its program ends
                    // here: what the program owns learns of the end by
                    // being dropped
                    body.prog = None;
                    drop(body);
                    task.sched.store(DONE, Ordering::Release);
                    return;
                }
            }
        }
        // budget exhausted: yield the worker to other runnable work
        drop(body);
        task.sched.store(QUEUED, Ordering::Release);
        exec.push(task);
    }

    /// One step of the per-transaction state machine. Never blocks;
    /// suspension is expressed through the returned [`StepOutcome`].
    fn step_once(
        exec: &Arc<ExecInner>,
        db: &Database,
        task: &Arc<Task>,
        body: &mut TaskBody,
    ) -> StepOutcome {
        let tid = task.tid;
        let Ok(_section) = db.enter() else {
            // stopped: the program ends, and what waits for the
            // transaction returns the stop
            return StepOutcome::Finished;
        };
        match body.phase {
            Phase::Begin => match db.start(tid) {
                Ok(true) => {
                    body.phase = Phase::Run;
                    StepOutcome::Continue
                }
                Ok(false) => {
                    // doomed before it started; the commit phase reports it
                    body.phase = Phase::Commit;
                    body.commit_t0 = db.open_commit_span(tid);
                    StepOutcome::Continue
                }
                Err(_) => {
                    db.abort_many(&[tid]);
                    StepOutcome::Finished
                }
            },
            Phase::Run => {
                // a marked abort finalizes here, on the owning worker —
                // the executor equivalent of the thread body's unwind path
                match db.status(tid) {
                    Ok(TxnStatus::Aborting) | Err(_) => {
                        let _ = db.complete(tid, false);
                        return StepOutcome::Finished;
                    }
                    Ok(_) => {}
                }
                let (step, queued) = {
                    let mut sc = StepCtx {
                        db,
                        task,
                        blocked_on: None,
                    };
                    // step programs invariantly exist until Done
                    #[expect(clippy::expect_used, reason = "phase-gated task invariant")]
                    let prog = body.prog.as_mut().expect("running task has a program");
                    let step = match catch_unwind(AssertUnwindSafe(|| prog(&mut sc))) {
                        Ok(step) => step,
                        Err(_) => TxnStep::Done(Err(AssetError::TxnAborted(tid))),
                    };
                    (step, sc.blocked_on.is_some())
                };
                match step {
                    // the failed try-op left the task's waker with the
                    // queued request: a change landing before the park
                    // marks the task dirty, one after it requeues it
                    TxnStep::WaitLock { .. } if queued => StepOutcome::Park("lock"),
                    TxnStep::Ready | TxnStep::WaitLock { .. } => StepOutcome::Continue,
                    TxnStep::WaitDep | TxnStep::WaitFlush => {
                        exec.register_dep_wait(task);
                        StepOutcome::Park("dep")
                    }
                    // no registry: the wake path is an explicit nudge,
                    // and push-then-nudge plus RUNNING_DIRTY covers the
                    // publish/park race
                    TxnStep::WaitExternal => StepOutcome::Park("external"),
                    TxnStep::Hold => {
                        // completion without local commit: the txn rests
                        // at Completed (locks held) for an external
                        // commit authority — prepare/decide (§14) — and
                        // the task retires from the executor
                        let _ = db.complete(tid, true);
                        StepOutcome::Finished
                    }
                    TxnStep::Done(Ok(())) => {
                        if db.complete(tid, true) {
                            body.prog = None;
                            body.phase = Phase::Commit;
                            body.commit_t0 = db.open_commit_span(tid);
                            StepOutcome::Continue
                        } else {
                            StepOutcome::Finished
                        }
                    }
                    TxnStep::Done(Err(_)) => {
                        let _ = db.complete(tid, false);
                        StepOutcome::Finished
                    }
                }
            }
            Phase::Commit => {
                // register before evaluating: a bump landing between the
                // gate check and the park flips us RUNNING_DIRTY and the
                // dispatcher requeues instead of parking
                exec.register_dep_wait(task);
                match db.commit_pass(tid) {
                    // the slot status says which; `outcome` reads it there
                    Ok(CommitPass::Done(_)) => {
                        db.close_commit_span(tid, body.commit_t0.take());
                        StepOutcome::Finished
                    }
                    Ok(CommitPass::Wait) => StepOutcome::Park("dep"),
                    Ok(CommitPass::Flush(group, lsn)) => {
                        body.group = group;
                        let task = Arc::clone(task);
                        let submitted = db.inner.engine.flusher().when_durable(
                            lsn,
                            Box::new(move |res| {
                                task.flushed.store(res.unwrap_or(0), Ordering::Release);
                                task.wake();
                            }),
                        );
                        if let Err(e) = submitted {
                            // a pinned group that no window will carry
                            db.stop(e);
                            return StepOutcome::Finished;
                        }
                        body.phase = Phase::AwaitFlush;
                        StepOutcome::Continue
                    }
                    Err(_) => {
                        db.abort_many(&[tid]);
                        db.close_commit_span(tid, body.commit_t0.take());
                        StepOutcome::Finished
                    }
                }
            }
            // the ack callback targets this task directly: no registry
            // needed, the enqueue races are absorbed by RUNNING_DIRTY
            Phase::AwaitFlush => match task.flushed.load(Ordering::Acquire) {
                0 => StepOutcome::Park("flush"),
                window => {
                    db.flushed(&body.group, window);
                    let guard = db.inner.txns.lock_group(&body.group);
                    db.finish_commit(tid, &body.group, guard);
                    db.close_commit_span(tid, body.commit_t0.take());
                    StepOutcome::Finished
                }
            },
        }
    }
}

fn worker_loop(exec: Arc<ExecInner>) {
    let mut rotor = 0usize;
    loop {
        let Some(task) = exec.next_task(&mut rotor) else {
            return;
        };
        let Some(inner) = exec.db.upgrade() else {
            return;
        };
        let db = Database { inner };
        ExecInner::run_task(&exec, &db, task);
    }
}

/// The context a step program sees: the transaction's identity plus
/// **non-blocking** data operations. Where [`TxnCtx`](crate::TxnCtx)
/// blocks on a lock conflict, these return [`TryOp::WouldBlock`] with the
/// request queued in the lock table — the program then returns
/// [`TxnStep::WaitLock`] and the worker moves on.
pub struct StepCtx<'a> {
    db: &'a Database,
    task: &'a Arc<Task>,
    blocked_on: Option<Oid>,
}

impl StepCtx<'_> {
    /// `self()`: the executing transaction's id.
    pub fn id(&self) -> Tid {
        self.task.tid
    }

    /// The object the last failed try-operation blocked on, if any —
    /// convenience for `sc.park()`-style program tails.
    pub fn blocked_on(&self) -> Option<Oid> {
        self.blocked_on
    }

    /// The executor driver of the lock-request protocol: one pass
    /// ([`LockTable::request`](asset_lock::LockTable::request)) with the
    /// task as the waker of a request that blocks. The table queues the
    /// request under the stripe mutex the attempt failed under, so a
    /// grant-relevant change either preceded the attempt or wakes the task
    /// — no lost wakeup, nothing to re-check. `Ok(None)` is queued,
    /// `Ok(Some(new))` a grant (`new` for an LRD to list); a deadlock or an
    /// abort in progress is an error, as for `TxnCtx`.
    fn try_acquire(&mut self, ob: Oid, op: Operation) -> Result<Option<bool>> {
        let (tid, locks) = (self.task.tid, &self.db.inner.locks);
        let waker = || Waker::from(Arc::clone(self.task));
        let granted = locks.request(tid, ob, op, Some(&waker))?.ok();
        self.blocked_on = granted.is_none().then_some(ob);
        Ok(granted)
    }

    /// [`try_acquire`](Self::try_acquire) for an operation that installs
    /// nothing: a grant is listed as `TxnCtx` lists it. `false` is queued.
    fn try_listed(&mut self, ob: Oid, op: Operation) -> Result<bool> {
        let granted = self.try_acquire(ob, op)?;
        if let Some(new) = granted {
            self.db.list_grant(self.task.tid, ob, new);
        }
        Ok(granted.is_some())
    }

    /// Non-blocking read: read-lock (honoring permits) then an S-latched
    /// read. `Done(None)` if the object does not exist.
    pub fn try_read(&mut self, ob: Oid) -> Result<TryOp<Option<Vec<u8>>>> {
        let _section = self.db.enter()?;
        if !self.try_listed(ob, Operation::Read)? {
            return Ok(TryOp::WouldBlock);
        }
        Ok(TryOp::Done(self.db.inner.engine.read_object(ob)))
    }

    /// Non-blocking write: write-lock, X-latched install, before/after
    /// images logged, undo entry recorded — `TxnCtx::write` without the
    /// lock wait.
    pub fn try_write(&mut self, ob: Oid, bytes: impl Into<Vec<u8>>) -> Result<TryOp<()>> {
        self.try_install(ob, Some(bytes.into()))
    }

    /// Non-blocking delete (a write installing a tombstone).
    pub fn try_delete(&mut self, ob: Oid) -> Result<TryOp<()>> {
        self.try_install(ob, None)
    }

    /// Non-blocking exclusive lock without writing yet (upgrade-avoidance,
    /// as [`TxnCtx::lock_exclusive`](crate::TxnCtx::lock_exclusive)).
    pub fn try_lock_exclusive(&mut self, ob: Oid) -> Result<TryOp<()>> {
        let _section = self.db.enter()?;
        if !self.try_listed(ob, Operation::Write)? {
            return Ok(TryOp::WouldBlock);
        }
        Ok(TryOp::Done(()))
    }
    fn try_install(&mut self, ob: Oid, after: Option<Vec<u8>>) -> Result<TryOp<()>> {
        let _section = self.db.enter()?;
        let Some(new) = self.try_acquire(ob, Operation::Write)? else {
            return Ok(TryOp::WouldBlock);
        };
        self.db.install(self.task.tid, ob, after, new)?;
        Ok(TryOp::Done(()))
    }
}

impl std::fmt::Debug for StepCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StepCtx({})", self.task.tid)
    }
}

impl Database {
    fn executor(&self) -> Arc<ExecInner> {
        Arc::clone(
            self.inner
                .exec
                .get_or_init(|| ExecInner::spawn(&self.inner)),
        )
    }

    /// Live executor worker threads (spawning the pool on first call).
    /// Normally `Config::resolved_exec_workers()`; `0` means every
    /// worker spawn failed, nothing would drive a program, and
    /// [`submit`](Self::submit) fails with [`AssetError::Io`] — embedders
    /// (e.g. a network server) check this once and fail fast.
    pub fn executor_workers(&self) -> usize {
        self.executor().live_workers.load(Ordering::Acquire)
    }

    /// Submit a transaction to the state-machine executor: `initiate` +
    /// executor-side `begin` + stepwise execution + group commit through
    /// the batched log flusher, all driven by the worker pool. Returns the
    /// tid immediately; await the result with [`outcome`](Self::outcome).
    ///
    /// The program is re-entered from the top on every step, so it must be
    /// resumable: track progress in captured state.
    ///
    /// ```
    /// use asset_core::{Database, TryOp, TxnStep};
    ///
    /// let db = Database::in_memory();
    /// let account = db.new_oid();
    /// let t = db
    ///     .submit(move |sc| match sc.try_write(account, b"100".to_vec()) {
    ///         Ok(TryOp::Done(())) => TxnStep::Done(Ok(())),
    ///         Ok(TryOp::WouldBlock) => TxnStep::WaitLock { ob: account },
    ///         Err(e) => TxnStep::Done(Err(e)),
    ///     })
    ///     .unwrap();
    /// assert!(db.outcome(t).unwrap(), "committed through the flush window");
    /// assert_eq!(db.peek(account).unwrap().unwrap(), b"100");
    /// ```
    pub fn submit(
        &self,
        prog: impl FnMut(&mut StepCtx<'_>) -> TxnStep + Send + 'static,
    ) -> Result<Tid> {
        let exec = self.executor();
        if exec.live_workers.load(Ordering::Acquire) == 0 {
            // nothing would ever step the program
            return Err(AssetError::Io(std::io::Error::other(
                "no executor worker thread could be spawned",
            )));
        }
        // the TD admission path, with no job (the program lives in the
        // task): the TD is born holding the task, a run queue gets a clone
        let mut queued = None;
        let t = self.initiate_with_parent(Tid::NULL, None, |tid| {
            let task = Arc::new(Task {
                tid,
                exec: Arc::downgrade(&exec),
                sched: AtomicU8::new(QUEUED),
                body: Mutex::ranked(
                    TaskBody {
                        phase: Phase::Begin,
                        prog: Some(Box::new(prog)),
                        group: Vec::new(),
                        commit_t0: None,
                    },
                    Rank::TASK,
                    0,
                ),
                flushed: AtomicU64::new(0),
            });
            queued = Some(Arc::clone(&task));
            Some(task)
        })?;
        if let Some(task) = queued {
            exec.push(task);
        }
        Ok(t)
    }

    /// Block until a submitted transaction reaches a terminal state;
    /// `true` if it committed, `false` if it aborted, or the stop. (The
    /// submitting thread may block — worker steps never do.)
    pub fn outcome(&self, t: Tid) -> Result<bool> {
        loop {
            let epoch = self.inner.txns.epoch();
            match self.status(t)? {
                TxnStatus::Committed => return Ok(true),
                TxnStatus::Aborted => return Ok(false),
                _ => self.inner.txns.wait_event(epoch),
            }
        }
    }

    /// Wake a submitted transaction parked on [`TxnStep::WaitExternal`].
    /// Idempotent and cheap: a no-op when the executor was never spawned,
    /// the transaction is not (or no longer) a task, or a wakeup is
    /// already pending. Callers must publish the state the program will
    /// consume (push to the mailbox, set the flag) **before** nudging;
    /// the executor's `RUNNING_DIRTY` mark then guarantees the program
    /// observes it even if the nudge lands mid-step.
    ///
    /// **Stale and unknown tids are safe.** This is a contract, not an
    /// accident: server sessions race their nudges against transaction
    /// completion, so a nudge may land after the task reached `DONE` and
    /// its transaction ended (taking its TD with it), after the tid was
    /// never submitted (plain `initiate`/`begin` transactions), or with a
    /// tid this database has never seen. All of these are silent no-ops —
    /// a tid with no live TD, or one that holds no task (read under its
    /// shard), is ignored, and a `DONE` task's scheduling byte rejects the
    /// requeue. A nudge can never panic, abort, or misdirect a *different*
    /// transaction: tids are never reused within a database (the `IdGen`
    /// is monotonic), so an ended tid cannot alias a live one.
    pub fn nudge(&self, t: Tid) {
        if let Some(task) = self.inner.txns.with(t, |td| td?.live()?.task.clone()) {
            task.wake();
        }
    }
}
