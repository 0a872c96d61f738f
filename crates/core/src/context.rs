//! The transaction context: what a transaction's code sees.
//!
//! A [`TxnCtx`] is handed to the closure given to `initiate`; it carries
//! the transaction's identity (`self()` in the paper) and proxies both the
//! data operations (`read`/`write` — which take transaction-duration locks
//! per §4.2 and log before/after images) and the transaction-management
//! primitives, so that transaction code can itself initiate, delegate to,
//! permit, and form dependencies with other transactions — the essence of
//! ASSET's programmability.

use crate::database::Database;
use asset_common::{AssetError, DepType, ObSet, Oid, OpSet, Operation, Result, Tid};

/// The execution context of one transaction.
pub struct TxnCtx {
    db: Database,
    tid: Tid,
}

impl TxnCtx {
    pub(crate) fn new(db: Database, tid: Tid) -> TxnCtx {
        TxnCtx { db, tid }
    }

    /// `self()`: the executing transaction's id.
    pub fn id(&self) -> Tid {
        self.tid
    }

    /// `parent()`: the initiating transaction's id (`Tid::NULL` for
    /// top-level transactions).
    pub fn parent(&self) -> Tid {
        self.db.parent_of(self.tid).unwrap_or(Tid::NULL)
    }

    /// The database handle (shared state with every other handle).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Take the transaction-duration lock for `op` on `ob`, blocking for
    /// it (the executor's [`StepCtx`](crate::StepCtx) tries instead): the
    /// one place the two contexts' data operations differ.
    fn lock(&self, ob: Oid, op: Operation) -> Result<()> {
        self.db.check_live(self.tid)?;
        let inner = &self.db.inner;
        inner
            .locks
            .lock(self.tid, ob, op, inner.config.lock_wait_timeout)
    }

    // --- data operations (paper §4.2 read/write) -------------------------

    /// Read `ob`: read-lock (blocking; honoring permits), then an S-latched
    /// read from the shared cache. `None` if the object does not exist.
    pub fn read(&self, ob: Oid) -> Result<Option<Vec<u8>>> {
        self.lock(ob, Operation::Read)?;
        self.db.inner.engine.read_object(ob)
    }

    /// Write `ob`: write-lock, X-latched install, before/after images
    /// logged, undo entry recorded.
    pub fn write(&self, ob: Oid, bytes: impl Into<Vec<u8>>) -> Result<()> {
        self.install(ob, Some(bytes.into()))
    }

    /// Delete `ob` (a write that installs a tombstone).
    pub fn delete(&self, ob: Oid) -> Result<()> {
        self.install(ob, None)
    }

    /// Create a fresh object with `bytes`; returns its id.
    pub fn create(&self, bytes: impl Into<Vec<u8>>) -> Result<Oid> {
        let oid = self.db.new_oid();
        self.install(oid, Some(bytes.into()))?;
        Ok(oid)
    }

    fn install(&self, ob: Oid, after: Option<Vec<u8>>) -> Result<()> {
        self.lock(ob, Operation::Write)?;
        self.db.install(self.tid, ob, after)
    }

    /// Explicitly acquire the write lock on `ob` without writing yet.
    ///
    /// Use before a read-check-write sequence to avoid the read→write
    /// upgrade window (two transactions both holding read locks and both
    /// upgrading deadlock; locking write-first serializes them cleanly).
    pub fn lock_exclusive(&self, ob: Oid) -> Result<()> {
        self.lock(ob, Operation::Write)
    }

    /// Explicitly acquire the read lock on `ob` without reading yet.
    pub fn lock_shared(&self, ob: Oid) -> Result<()> {
        self.lock(ob, Operation::Read)
    }

    /// Read and modify in one step (lock, read, apply `f`, write back).
    pub fn update(&self, ob: Oid, f: impl FnOnce(Option<Vec<u8>>) -> Vec<u8>) -> Result<()> {
        self.lock(ob, Operation::Write)?;
        let current = self.db.inner.engine.read_object(ob)?;
        self.install(ob, Some(f(current)))
    }

    // --- transaction-management primitives -------------------------------

    /// `initiate(f)` with this transaction as the parent.
    pub fn initiate(&self, f: impl FnOnce(&TxnCtx) -> Result<()> + Send + 'static) -> Result<Tid> {
        self.db.initiate_with_parent(self.tid, Some(Box::new(f)))
    }

    /// `begin(t)`.
    pub fn begin(&self, t: Tid) -> Result<()> {
        self.db.begin(t)
    }

    /// `commit(t)`.
    pub fn commit(&self, t: Tid) -> Result<bool> {
        self.db.commit(t)
    }

    /// `wait(t)`.
    pub fn wait(&self, t: Tid) -> Result<bool> {
        self.db.wait(t)
    }

    /// `abort(t)`. Aborting `self()` is legal — subsequent operations fail
    /// and the transaction finalizes when its closure returns.
    pub fn abort(&self, t: Tid) -> Result<bool> {
        self.db.abort(t)
    }

    /// Abort the executing transaction and return the error to propagate
    /// out of the closure: `return ctx.abort_self();`.
    pub fn abort_self<T>(&self) -> Result<T> {
        let _ = self.db.abort(self.tid);
        Err(AssetError::TxnAborted(self.tid))
    }

    /// `delegate(ti, tj, ob_set)` — `self()` as the default delegator is
    /// [`delegate_to`](Self::delegate_to).
    pub fn delegate(&self, from: Tid, to: Tid, obs: Option<ObSet>) -> Result<()> {
        self.db.delegate(from, to, obs)
    }

    /// `delegate(self(), to)` — hand everything this transaction is
    /// responsible for to `to`.
    pub fn delegate_to(&self, to: Tid) -> Result<()> {
        self.db.delegate(self.tid, to, None)
    }

    /// `permit(ti, tj, ob_set, operations)`.
    pub fn permit(&self, grantor: Tid, grantee: Option<Tid>, obs: ObSet, ops: OpSet) -> Result<()> {
        self.db.permit(grantor, grantee, obs, ops)
    }

    /// `permit(self(), t)` — allow `t` any conflicting operation on any
    /// object of ours, as a *standing* wildcard (covers objects we lock
    /// later too; the paper's call-time materialization is
    /// [`Database::permit_accessed`]).
    pub fn permit_all(&self, grantee: Tid) -> Result<()> {
        self.db
            .permit(self.tid, Some(grantee), ObSet::All, OpSet::ALL)
    }

    /// `form_dependency(type, ti, tj)`.
    pub fn form_dependency(&self, kind: DepType, ti: Tid, tj: Tid) -> Result<()> {
        self.db.form_dependency(kind, ti, tj)
    }

    /// Which objects does this transaction currently hold locks on?
    pub fn locked_objects(&self) -> Vec<Oid> {
        self.db.inner.locks.locked_objects(self.tid)
    }
}

impl std::fmt::Debug for TxnCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxnCtx({})", self.tid)
    }
}
