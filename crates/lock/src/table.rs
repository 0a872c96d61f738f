//! The lock table: object descriptors (OD), lock-request descriptors (LRD),
//! and the paper's `read-lock`/`write-lock` algorithm with permit-driven
//! *suspension* (§4.2).
//!
//! Transaction-duration locks live here; they are only released by the
//! commit/abort protocols (or moved by delegation).
//!
//! ## One lock-request protocol, any driver
//!
//! The paper's algorithm — attempt; if blocked, put the request on the
//! object's *pending list*, sleep, "retry starting at step 1" — is
//! implemented once, as the non-blocking pass [`LockTable::request`]: a
//! request that blocks is listed, under the stripe mutex its attempt
//! failed under, with the caller's [`Waker`], and its waits-for edges are
//! checked for a cycle (the paper is silent on data deadlocks — DESIGN.md
//! §6). Every grant-relevant change (release, delegation, permit, poison)
//! ends in `LockTable::wake`, which takes the wakers queued on the stripe
//! it touched and invokes them with no table lock held. Who sleeps, and
//! how, is the driver's business: [`LockTable::lock`] parks its thread and
//! retries (a timeout backstops everything), an executor passes a waker
//! that requeues its task. The table does not know which is waiting, and
//! the wait accounting (DESIGN.md §7) is in the pass: the same for both.
//!
//! ## Sharding (§4.1 double hashing realized)
//!
//! The paper hashes the descriptor tables by object id and by transaction
//! id precisely so that concurrent transactions touching disjoint objects
//! never serialize on shared bookkeeping. Here that is realized as N
//! oid-hashed **shards**, each with its own mutex over the OD map (pending
//! lists and their wakers included), the shard's slice of the TD-side
//! object lists, and a shard-local permit table; a tid-keyed shard-set
//! index (the second hash) lets `release_all`/`delegate` visit only the
//! shards a transaction actually touched. Every id-keyed table hashes
//! with the keyed one-multiply [`IdBuild`](asset_common::ids::IdBuild),
//! and an uncontended grant probes its stripe's OD table once: a TD-side
//! list is appended only when a new LRD is created, and the wait graph is
//! not touched while no request waits. Permits whose object scope is
//! `ObSet::All` (or spans shards) live in a small read-mostly global table
//! consulted after the per-shard miss. Multi-shard operations take shard
//! locks one at a time in ascending index order, so the manager is
//! internally deadlock-free. Wait-for edges go to a dedicated
//! [`WaitGraph`] collector and counters are per-shard relaxed atomics, so
//! deadlock checks and statistics reads never stall grants.

use asset_annot::verify_allow;

use crate::permit::{permits_across_depth, Permit, PermitTable};
use crate::waits::{Parker, Wait, WaitGraph};
use asset_common::config::resolve_shards;
use asset_common::sync::{Mutex, MutexGuard, RwLock};
use asset_common::{AssetError, IdMap, IdSet, LockMode, ObSet, Oid, OpSet, Operation, Result, Tid};
use asset_obs::{add, bump, EventKind, Obs};
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// A lock-request descriptor: one transaction's granted lock on one object.
#[derive(Clone, Debug)]
pub struct Lrd {
    /// The holding transaction.
    pub tid: Tid,
    /// Granted mode.
    pub mode: LockMode,
    /// A suspended lock no longer blocks others; set when a conflicting
    /// request was let through by a permit.
    pub suspended: bool,
}

/// A pending request (diagnostic view of the paper's pending list).
#[derive(Clone, Debug)]
pub struct PendingReq {
    /// The waiting transaction.
    pub tid: Tid,
    /// Requested mode.
    pub mode: LockMode,
    /// Is this an upgrade of an existing lock (paper status `upgrading`)?
    pub upgrading: bool,
}

#[derive(Default)]
struct ObjectDesc {
    granted: Vec<Lrd>,
    pending: Vec<PendingReq>,
}

/// Counters exposed for benchmarks and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Locks granted (including upgrades and re-grants).
    pub grants: u64,
    /// Times a request had to wait.
    pub blocks: u64,
    /// Locks suspended due to permits.
    pub suspensions: u64,
    /// Deadlock victims.
    pub deadlocks: u64,
    /// Lock-wait timeouts.
    pub timeouts: u64,
}

/// A cheap point-in-time view of the lock manager, assembled entirely from
/// relaxed atomics — reading it never touches a shard mutex.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockSnapshot {
    /// Aggregated counters.
    pub stats: LockStats,
    /// Live permit descriptors (shard-local + global).
    pub permits: usize,
    /// Currently blocked lock requests.
    pub waiters: usize,
    /// Number of shards the table was built with.
    pub shards: usize,
}

/// Per-shard counters; aggregated lock-free by [`LockTable::stats`].
#[derive(Default)]
struct ShardStats {
    grants: AtomicU64,
    blocks: AtomicU64,
    suspensions: AtomicU64,
    deadlocks: AtomicU64,
    timeouts: AtomicU64,
    /// Distinct waits (a request that blocked, however many retries).
    waits: AtomicU64,
    /// Total nanoseconds blocked requests spent waiting on this stripe.
    wait_ns_total: AtomicU64,
    /// Longest single wait on this stripe, in nanoseconds.
    wait_ns_max: AtomicU64,
    /// Deepest pending queue observed on any object of this stripe.
    queue_peak: AtomicU64,
}

/// Per-stripe contention counters, read lock-free by
/// [`LockTable::stripe_stats`] — the evidence table behind experiment E9b
/// (where does lock-manager time go under skewed load?).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StripeStats {
    /// Stripe (shard) index.
    pub stripe: usize,
    /// Locks granted on this stripe.
    pub grants: u64,
    /// Times a request on this stripe had to wait (block attempts).
    pub blocks: u64,
    /// Locks suspended due to permits.
    pub suspensions: u64,
    /// Deadlock victims whose final wait was on this stripe.
    pub deadlocks: u64,
    /// Lock-wait timeouts on this stripe.
    pub timeouts: u64,
    /// Distinct waits: requests that blocked at least once (a single wait
    /// may retry — and re-count in `blocks` — many times).
    pub waits: u64,
    /// Total nanoseconds spent blocked on this stripe.
    pub wait_ns_total: u64,
    /// Longest single wait, in nanoseconds.
    pub wait_ns_max: u64,
    /// Deepest pending queue observed on any object of this stripe.
    pub queue_peak: u64,
}

impl StripeStats {
    /// Mean nanoseconds per distinct wait (0 when nothing waited).
    pub fn wait_ns_mean(&self) -> u64 {
        self.wait_ns_total.checked_div(self.waits).unwrap_or(0)
    }
}

/// Point-in-time occupancy of one stripe, read under that stripe's mutex
/// by [`LockTable::stripe_occupancy`] (the live companion to the
/// cumulative [`StripeStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StripeOccupancy {
    /// Stripe (shard) index.
    pub stripe: usize,
    /// Object descriptors resident on this stripe.
    pub objects: usize,
    /// Granted lock-request descriptors (LRDs) across those objects.
    pub granted: usize,
    /// Of the granted LRDs, how many are currently suspended by a permit.
    pub suspended: usize,
    /// Pending (blocked) requests across those objects.
    pub waiting: usize,
    /// Shard-local permit descriptors.
    pub permits: usize,
}

/// One stripe of the doubly-hashed descriptor tables.
struct ShardInner {
    objects: IdMap<Oid, ObjectDesc>,
    /// TD-side lists, restricted to this shard's objects: objects on which
    /// a transaction holds an LRD, each listed once — appended when the
    /// LRD is created (a grant or a delegation to a transaction with none
    /// on the object), never by a re-grant or an upgrade.
    txn_objects: IdMap<Tid, Vec<Oid>>,
    /// Permits whose object scope falls entirely within this shard.
    permits: PermitTable,
    /// The wakers of the requests on this shard's pending lists, by
    /// waiting transaction and object; [`LockTable::wake`] takes them all.
    wakers: Vec<(Tid, Oid, Waker)>,
}

impl ShardInner {
    /// List `tid`'s request on `ob`'s pending list (once) with the waker to
    /// invoke for it (the latest one wins); returns the list's depth and
    /// whether the request is newly listed.
    fn enlist(&mut self, tid: Tid, ob: Oid, mode: LockMode, waker: Waker) -> (u64, bool) {
        let od = self.objects.entry(ob).or_default();
        let fresh = !od.pending.iter().any(|p| p.tid == tid);
        if fresh {
            let upgrading = od.granted.iter().any(|g| g.tid == tid);
            od.pending.push(PendingReq {
                tid,
                mode,
                upgrading,
            });
        }
        let depth = od.pending.len() as u64;
        self.wakers.retain(|w| (w.0, w.1) != (tid, ob));
        self.wakers.push((tid, ob, waker));
        (depth, fresh)
    }

    /// Take `tid`'s request on `ob` off the pending list, and its waker.
    fn unlist(&mut self, tid: Tid, ob: Oid) {
        if let Some(od) = self.objects.get_mut(&ob) {
            od.pending.retain(|p| p.tid != tid);
            if od.granted.is_empty() && od.pending.is_empty() {
                self.objects.remove(&ob);
            }
        }
        self.wakers.retain(|w| (w.0, w.1) != (tid, ob));
    }
}

struct Shard {
    inner: Mutex<ShardInner>,
    stats: ShardStats,
    /// Permits stored in this shard (relaxed; summed by `permit_count`).
    permit_count: AtomicUsize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            inner: Mutex::new(ShardInner {
                objects: IdMap::default(),
                txn_objects: IdMap::default(),
                permits: PermitTable::new(),
                wakers: Vec::new(),
            }),
            stats: ShardStats::default(),
            permit_count: AtomicUsize::new(0),
        }
    }
}

/// The lock manager.
pub struct LockTable {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the count is always a power of two.
    shard_mask: u64,
    /// The second hash of the paper's double hashing: tid → shards where
    /// the transaction holds LRDs or shard-local permits, so release and
    /// delegation visit only those stripes.
    tid_shards: Mutex<IdMap<Tid, BTreeSet<usize>>>,
    /// Wildcard-object and cross-shard permits (read-mostly).
    global_permits: RwLock<PermitTable>,
    /// Fast-path skip: live permits in `global_permits`.
    global_permit_count: AtomicUsize,
    /// Wait-for edges of blocked requests (deadlock detection).
    waits: WaitGraph,
    /// Transactions whose lock waits must fail immediately (their abort is
    /// in progress; the aborter cannot wait for a lock timeout).
    poisoned: Mutex<IdSet<Tid>>,
    /// Fast-path skip for the poison check.
    poison_count: AtomicUsize,
    /// Observability hub: lock-wait histograms, permit-chain lengths,
    /// delegation counts, and lifecycle events.
    obs: Arc<Obs>,
}

enum PermitRoute {
    Shard(usize),
    Global,
}

impl LockTable {
    /// An empty lock table with the default shard count
    /// (`next_power_of_two(4 × cores)`).
    pub fn new() -> LockTable {
        LockTable::with_shards(0)
    }

    /// An empty lock table with `n` shards (`0` = auto; rounded up to a
    /// power of two). `with_shards(1)` reproduces the single-mutex manager
    /// exactly. The table gets its own observability hub; use
    /// [`with_shards_obs`](Self::with_shards_obs) to share one.
    pub fn with_shards(n: usize) -> LockTable {
        LockTable::with_shards_obs(n, Obs::shared())
    }

    /// [`with_shards`](Self::with_shards), reporting lock waits, permit
    /// chains, delegations and deadlock sweeps into the shared `obs`.
    pub fn with_shards_obs(n: usize, obs: Arc<Obs>) -> LockTable {
        let n = resolve_shards(n);
        LockTable {
            shards: (0..n).map(|_| Shard::new()).collect(),
            shard_mask: (n - 1) as u64,
            tid_shards: Mutex::new(IdMap::default()),
            global_permits: RwLock::new(PermitTable::new()),
            global_permit_count: AtomicUsize::new(0),
            waits: WaitGraph::new(),
            poisoned: Mutex::new(IdSet::default()),
            poison_count: AtomicUsize::new(0),
            obs,
        }
    }

    /// The observability hub this table reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Number of shards the table was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, ob: Oid) -> usize {
        // Avalanche the oid so sequential ids spread across shards.
        let mut h = ob.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        (h & self.shard_mask) as usize
    }

    /// Ascending shard indices `tid` has touched (locks or permits).
    fn shards_of(&self, tid: Tid) -> Vec<usize> {
        self.tid_shards
            .lock()
            .get(&tid)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The one wake routine, where every grant-relevant change ends: take
    /// the wakers queued on the stripe whose mutex `inner` holds — the one
    /// the change was published under — let the mutex go, and invoke them
    /// with no table lock held.
    fn wake(mut inner: MutexGuard<'_, ShardInner>) {
        let woken = std::mem::take(&mut inner.wakers);
        drop(inner);
        for (_, _, waker) in woken {
            waker.wake();
        }
    }

    /// [`wake`](Self::wake) every stripe, after a change to state no stripe
    /// mutex protects (global permits, the poison set). Taking each mutex
    /// is what makes that safe: a request holds its stripe mutex from its
    /// checks to its listing, so the wake either finds the request listed
    /// or precedes a pass that will see the change.
    #[verify_allow(
        lock_order,
        reason = "blessed: each shard mutex is acquired and dropped before the next — never two at once"
    )]
    fn wake_every_stripe(&self) {
        for shard in self.shards.iter() {
            Self::wake(shard.inner.lock());
        }
    }

    /// Acquire a lock for `tid` on `ob` in the mode required by `op`,
    /// blocking until granted, deadlocked, or timed out — the blocking
    /// driver of [`request`](Self::request): pass → sleep until woken or
    /// the deadline → retry "starting at step 1". `timeout` counts from
    /// the first pass that blocks.
    pub fn lock(&self, tid: Tid, ob: Oid, op: Operation, timeout: Option<Duration>) -> Result<()> {
        // made by the first pass that queues; an uncontended call has none
        let parker: OnceCell<Arc<Parker>> = OnceCell::new();
        let waker = || Waker::from(Arc::clone(parker.get_or_init(Arc::default)));
        // fixed by the first pass that blocks, so the timeout counts time
        // spent waiting and an uncontended call reads no clock
        let mut deadline: Option<Option<Instant>> = None;
        loop {
            if self.request(tid, ob, op, Some(&waker))?.is_ok() {
                return Ok(());
            }
            let until = *deadline.get_or_insert_with(|| timeout.map(|d| Instant::now() + d));
            if !parker.get().is_some_and(|p| p.park(until)) {
                self.cancel_wait(tid);
                let stats = &self.shards[self.shard_index(ob)].stats;
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(AssetError::LockTimeout { tid, ob });
            }
        }
    }

    /// One pass that queues nothing; returns the blockers on failure (none
    /// if `tid` was refused for its own abort).
    pub fn try_lock(&self, tid: Tid, ob: Oid, op: Operation) -> std::result::Result<(), Vec<Tid>> {
        self.request(tid, ob, op, None)
            .unwrap_or_else(|_| Err(Vec::new()))
    }

    /// The §4.1 lock-request protocol, one non-blocking pass: poison check,
    /// then the grant attempt — `Ok(Ok(()))` is a grant,
    /// `Ok(Err(holders))` a block. A request that blocks and brought a
    /// `waker` is *queued*: under the same stripe mutex it is listed on the
    /// object's pending list with the waker `waker` makes (called only
    /// then), its waits-for edges are published and the cycle check runs
    /// (victim: the requester that closes the cycle). The waker is invoked
    /// — once, no table lock held — after the next grant-relevant change
    /// on the stripe, for the driver to call again. Any outcome but a
    /// block ends the wait `tid` had.
    ///
    /// The wait accounting of DESIGN.md §7 is here and in
    /// `settle`, for every driver. Under the stripe mutex
    /// only relaxed atomics are touched; the clock, histograms and events
    /// come after the guard is dropped.
    pub fn request(
        &self,
        tid: Tid,
        ob: Oid,
        op: Operation,
        waker: Option<&dyn Fn() -> Waker>,
    ) -> Result<std::result::Result<(), Vec<Tid>>> {
        let sidx = self.shard_index(ob);
        let shard = &self.shards[sidx];
        let mut through: Vec<(Tid, u32)> = Vec::new();
        let mut chains: Vec<u32> = Vec::new();
        let mut began = false; // this pass begins a wait …
        let mut superseded = None; // … which replaces this one, on another object
        let mut inner = shard.inner.lock();
        let poisoned =
            self.poison_count.load(Ordering::Relaxed) > 0 && self.poisoned.lock().contains(&tid);
        let result = if poisoned {
            Err(AssetError::TxnAborted(tid))
        } else {
            let attempt = self.attempt(&mut inner, tid, ob, op, &mut through, &mut chains);
            match (attempt, waker) {
                (Err(holders), Some(waker)) => {
                    shard.stats.blocks.fetch_add(1, Ordering::Relaxed);
                    let depth;
                    (depth, began) = inner.enlist(tid, ob, op.required_mode(), waker());
                    shard.stats.queue_peak.fetch_max(depth, Ordering::Relaxed);
                    superseded = self.waits.publish(tid, &holders, ob, depth as u32);
                    if began {
                        shard.stats.waits.fetch_add(1, Ordering::Relaxed);
                        bump(&self.obs.counters.lock_waits);
                    }
                    bump(&self.obs.counters.deadlock_sweeps);
                    if self.waits.cycle_through(tid) {
                        shard.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                        bump(&self.obs.counters.deadlocks);
                        Err(AssetError::Deadlock(tid))
                    } else {
                        Ok(Err(holders))
                    }
                }
                (attempt, _) => Ok(attempt),
            }
        };
        // a wait that ends on this object is unlisted with the outcome. Only
        // `tid`'s own driver publishes `tid`'s wait, from a pass ordered
        // before this one, so a zero waiter count means `tid` has none: the
        // graph's mutex is taken only when some request waits.
        let ended = match result {
            Ok(Err(_)) => None,
            _ if self.waits.waiter_count() == 0 => None,
            _ => self.waits.clear(tid),
        };
        if ended.as_ref().is_some_and(|w| w.ob == ob) {
            inner.unlist(tid, ob);
        }
        drop(inner);
        if began {
            self.waits.stamp(tid, Instant::now());
        }
        for w in superseded.into_iter().chain(ended) {
            self.settle(tid, w, Some(ob));
        }
        for chain in chains {
            self.obs.permit_chain_len.record(chain as u64);
        }
        if matches!(result, Err(AssetError::Deadlock(_))) {
            self.obs
                .record(EventKind::DeadlockSweep { tid, cycle: true });
        }
        for (holder, chain) in through {
            self.obs.record(EventKind::PermitThrough {
                holder,
                requester: tid,
                ob,
                chain,
            });
        }
        result
    }

    /// Account an ended wait — its duration from the first block, the
    /// `LockWait` event — after unlisting its request, unless the caller
    /// did under its guard on `unlisted`. Call with no stripe mutex held.
    fn settle(&self, tid: Tid, w: Wait, unlisted: Option<Oid>) {
        let sidx = self.shard_index(w.ob);
        let shard = &self.shards[sidx];
        if unlisted != Some(w.ob) {
            shard.inner.lock().unlist(tid, w.ob);
        }
        // one clock read ends the wait and stamps its event, so the traced
        // span `[at_ns − wait_ns, at_ns]` starts exactly at `since`
        let now = Instant::now();
        let waited = w
            .since
            .map_or(0, |t0| now.duration_since(t0).as_nanos() as u64);
        add(&shard.stats.wait_ns_total, waited);
        shard.stats.wait_ns_max.fetch_max(waited, Ordering::Relaxed);
        self.obs.lock_wait_ns.record(waited);
        self.obs.record_at(
            now,
            EventKind::LockWait {
                tid,
                ob: w.ob,
                stripe: sidx as u32,
                wait_ns: waited,
                queue_depth: w.queue_depth,
            },
        );
    }

    /// End the wait `tid` has, if any, wherever its request is listed: no
    /// pending entry, waker or waits-for edge of it is left behind.
    fn cancel_wait(&self, tid: Tid) {
        if let Some(w) = self.waits.clear(tid) {
            self.settle(tid, w, None);
        }
    }

    /// The paper's `read-lock`/`write-lock` algorithm, one shard-local
    /// attempt: granted, or the holders blocking it.
    /// `through` collects `(holder, chain_hops)` pairs for every conflict a
    /// permit let through on a *granted* attempt, so the caller can emit
    /// the causal `PermitThrough` events after the shard guard drops;
    /// `chains` likewise collects walked permit-chain depths for the
    /// caller to feed the `permit_chain_len` histogram outside the guard
    /// (DESIGN.md §7: clock reads, histogram updates and trace events stay
    /// outside the stripe critical section).
    fn attempt(
        &self,
        inner: &mut ShardInner,
        tid: Tid,
        ob: Oid,
        op: Operation,
        through: &mut Vec<(Tid, u32)>,
        chains: &mut Vec<u32>,
    ) -> std::result::Result<(), Vec<Tid>> {
        let (sidx, mut mode, mut op) = (self.shard_index(ob), op.required_mode(), op);
        // One probe of the OD table serves the whole attempt: the borrow of
        // the descriptor is split from the permit table and TD-side lists.
        let ShardInner {
            objects,
            txn_objects,
            permits,
            ..
        } = inner;
        let od = objects.entry(ob).or_default();

        // Step 1a: own granted lock that covers the request and is not
        // suspended → success.
        if let Some(own) = od.granted.iter().find(|g| g.tid == tid) {
            if !own.suspended && own.mode.covers(mode) {
                return Ok(());
            }
            // A write lock covers everything, so one that gets here is
            // suspended, and step 2b brings it back as the write lock it
            // is even when only a read was asked for: it is the write
            // that the other holders must permit or block.
            if own.mode == LockMode::Write {
                (mode, op) = (LockMode::Write, Operation::Write);
            }
        }

        // Step 1b: conflicting granted locks of other transactions — each
        // must either permit us (then it gets suspended) or block us. A
        // *suspended* lock has ceded its claim to the permitted operations
        // but still guards against unpermitted ones, so it participates in
        // the permit check too. The check runs over the shard-local permit
        // table; the global (wildcard/cross-shard) table joins the DFS only
        // when it is non-empty.
        let global = if self.global_permit_count.load(Ordering::Relaxed) > 0 {
            Some(self.global_permits.read())
        } else {
            None
        };
        let mut to_suspend: Vec<(Tid, u32)> = Vec::new();
        let mut blockers: Vec<Tid> = Vec::new();
        for gl in od.granted.iter() {
            if gl.tid == tid || !gl.mode.conflicts(mode) {
                continue;
            }
            let (permitted, chain) = match &global {
                None => permits_across_depth(&[&*permits], gl.tid, tid, ob, op),
                Some(g) => permits_across_depth(&[&*permits, g], gl.tid, tid, ob, op),
            };
            bump(&self.obs.counters.permit_checks);
            if chain > 0 {
                chains.push(chain as u32);
            }
            if permitted {
                to_suspend.push((gl.tid, chain as u32));
            } else {
                blockers.push(gl.tid);
            }
        }
        drop(global);
        if !blockers.is_empty() {
            return Err(blockers);
        }

        // Step 2: grant. Suspend the permitted conflicting locks, then
        // create or refresh our LRD.
        if self.obs.tracing_enabled() {
            through.extend(to_suspend.iter().copied());
        }
        for (holder, _) in &to_suspend {
            if let Some(gl) = od.granted.iter_mut().find(|g| g.tid == *holder) {
                if !gl.suspended {
                    gl.suspended = true;
                    self.shards[sidx]
                        .stats
                        .suspensions
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match od.granted.iter_mut().find(|g| g.tid == tid) {
            Some(own) => {
                // 2b: change mode / remove suspension
                own.mode = own.mode.max(mode);
                own.suspended = false;
            }
            None => {
                // 2a: a new LRD, the one grant that lists the object on
                // the TD side
                od.granted.push(Lrd {
                    tid,
                    mode,
                    suspended: false,
                });
                match txn_objects.entry(tid) {
                    Entry::Occupied(mut listed) => listed.get_mut().push(ob),
                    Entry::Vacant(first_in_shard) => {
                        first_in_shard.insert(vec![ob]);
                        self.tid_shards.lock().entry(tid).or_default().insert(sidx);
                    }
                }
            }
        }
        self.shards[sidx]
            .stats
            .grants
            .fetch_add(1, Ordering::Relaxed);
        bump(&self.obs.counters.lock_grants);
        Ok(())
    }

    /// Where does a permit with scope `obs` live?
    fn route(&self, obs: &ObSet) -> PermitRoute {
        match obs {
            ObSet::All => PermitRoute::Global,
            ObSet::Objects(s) => {
                let mut it = s.iter();
                match it.next() {
                    // empty scope: inert; park it in shard 0
                    None => PermitRoute::Shard(0),
                    Some(first) => {
                        let s0 = self.shard_index(*first);
                        if it.all(|o| self.shard_index(*o) == s0) {
                            PermitRoute::Shard(s0)
                        } else {
                            PermitRoute::Global
                        }
                    }
                }
            }
        }
    }

    /// Record a permit (wakes waiters — they may now be allowed through).
    #[verify_allow(
        lock_order,
        reason = "blessed: shard/global permit locks are taken in disjoint scopes, one at a time"
    )]
    pub fn permit(&self, grantor: Tid, grantee: Option<Tid>, obs: ObSet, ops: OpSet) {
        let scope = match &obs {
            ObSet::All => 0u32,
            ObSet::Objects(s) => s.len() as u32,
        };
        self.obs.record(EventKind::PermitGrant {
            grantor,
            grantee: grantee.unwrap_or(Tid::NULL),
            objects: scope,
        });
        match self.route(&obs) {
            PermitRoute::Shard(s) => {
                {
                    // index both parties first, so a concurrent release
                    // already knows where to look
                    let mut idx = self.tid_shards.lock();
                    idx.entry(grantor).or_default().insert(s);
                    if let Some(g) = grantee {
                        idx.entry(g).or_default().insert(s);
                    }
                }
                let shard = &self.shards[s];
                let mut inner = shard.inner.lock();
                inner.permits.insert(Permit {
                    grantor,
                    grantee,
                    obs,
                    ops,
                });
                shard.permit_count.fetch_add(1, Ordering::Relaxed);
                Self::wake(inner);
            }
            PermitRoute::Global => {
                {
                    let mut g = self.global_permits.write();
                    g.insert(Permit {
                        grantor,
                        grantee,
                        obs,
                        ops,
                    });
                    self.global_permit_count.fetch_add(1, Ordering::Relaxed);
                }
                self.wake_every_stripe();
            }
        }
    }

    /// The paper's `permit(ti, tj, op)` form: permit on every object the
    /// grantor has accessed *or has permission to access*, materialized at
    /// call time by traversing the grantor's LRD list and incoming PDs.
    #[verify_allow(
        lock_order,
        reason = "blessed: materializes the object set shard-by-shard in ascending order, then delegates to permit"
    )]
    pub fn permit_accessed(&self, grantor: Tid, grantee: Option<Tid>, ops: OpSet) {
        let mut obs: BTreeSet<Oid> = BTreeSet::new();
        let mut all = false;
        for s in self.shards_of(grantor) {
            let inner = self.shards[s].inner.lock();
            if let Some(set) = inner.txn_objects.get(&grantor) {
                obs.extend(set.iter().copied());
            }
            for p in inner.permits.granted_to(grantor) {
                match p.obs {
                    ObSet::All => all = true,
                    ObSet::Objects(s) => obs.extend(s),
                }
            }
            if all {
                break;
            }
        }
        if !all && self.global_permit_count.load(Ordering::Relaxed) > 0 {
            for p in self.global_permits.read().granted_to(grantor) {
                match p.obs {
                    ObSet::All => all = true,
                    ObSet::Objects(s) => obs.extend(s),
                }
            }
        }
        let scope = if all { ObSet::All } else { ObSet::Objects(obs) };
        self.permit(grantor, grantee, scope, ops);
    }

    /// Delegate `from`'s locks (optionally restricted to `obs`) to `to`,
    /// merging with any locks `to` already holds, and re-attribute the
    /// permits `from` granted (§4.2 `delegate`). Shards are visited one at
    /// a time in ascending index order.
    #[verify_allow(
        lock_order,
        reason = "blessed: visits shards one at a time in ascending index order, guard dropped between hops"
    )]
    pub fn delegate(&self, from: Tid, to: Tid, obs: Option<&ObSet>) {
        let from_shards = self.shards_of(from);
        let mut moved_objects = 0u64;
        for &s in &from_shards {
            let shard = &self.shards[s];
            {
                let mut guard = shard.inner.lock();
                let inner = &mut *guard;
                // `from`'s TD-side list splits into the objects that move
                // and those that stay listed under it
                let (moving, staying): (Vec<Oid>, Vec<Oid>) = inner
                    .txn_objects
                    .remove(&from)
                    .unwrap_or_default()
                    .into_iter()
                    .partition(|ob| obs.is_none_or(|set| set.contains(*ob)));
                if !staying.is_empty() {
                    inner.txn_objects.insert(from, staying);
                }
                for ob in moving {
                    let Some(od) = inner.objects.get_mut(&ob) else {
                        continue;
                    };
                    let Some(pos) = od.granted.iter().position(|g| g.tid == from) else {
                        continue;
                    };
                    let moved = od.granted.remove(pos);
                    moved_objects += 1;
                    match od.granted.iter_mut().find(|g| g.tid == to) {
                        // `to` already holds `ob`, so lists it already
                        Some(existing) => {
                            existing.mode = existing.mode.max(moved.mode);
                            existing.suspended = existing.suspended && moved.suspended;
                        }
                        None => {
                            od.granted.push(Lrd { tid: to, ..moved });
                            inner.txn_objects.entry(to).or_default().push(ob);
                        }
                    }
                }
                let before = inner.permits.len();
                inner.permits.reattribute(from, to, obs);
                let after = inner.permits.len();
                if after > before {
                    // partial delegation can split one permit into two
                    shard
                        .permit_count
                        .fetch_add(after - before, Ordering::Relaxed);
                }
                Self::wake(guard);
            }
        }
        if self.global_permit_count.load(Ordering::Relaxed) > 0 {
            {
                let mut g = self.global_permits.write();
                let before = g.len();
                g.reattribute(from, to, obs);
                let after = g.len();
                if after > before {
                    self.global_permit_count
                        .fetch_add(after - before, Ordering::Relaxed);
                }
            }
            self.wake_every_stripe();
        }
        if !from_shards.is_empty() {
            self.tid_shards
                .lock()
                .entry(to)
                .or_default()
                .extend(from_shards);
        }
        bump(&self.obs.counters.delegations);
        add(&self.obs.counters.delegated_objects, moved_objects);
        self.obs.record(EventKind::Delegate {
            from,
            to,
            objects: moved_objects as u32,
        });
    }

    /// Release all locks held by `tid`, end the wait it may have — on any
    /// object, locked by it or not — and remove permits given by and to it
    /// (commit step 6 / abort step 3). Returns the objects released.
    #[verify_allow(
        lock_order,
        reason = "blessed: snapshots the tid→shard index, then walks shards in ascending order one at a time"
    )]
    pub fn release_all(&self, tid: Tid) -> Vec<Oid> {
        self.cancel_wait(tid);
        let shards: Vec<usize> = {
            self.tid_shards
                .lock()
                .remove(&tid)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default()
        };
        let mut released: Vec<Oid> = Vec::new();
        for s in shards {
            let shard = &self.shards[s];
            {
                let mut inner = shard.inner.lock();
                let objects = inner.txn_objects.remove(&tid).unwrap_or_default();
                for &ob in &objects {
                    // one probe per object: the entry both edits and drops
                    if let Entry::Occupied(mut od) = inner.objects.entry(ob) {
                        let desc = od.get_mut();
                        desc.granted.retain(|g| g.tid != tid);
                        if desc.granted.is_empty() && desc.pending.is_empty() {
                            od.remove();
                        }
                    }
                }
                let before = inner.permits.len();
                inner.permits.remove_involving(tid);
                let removed = before - inner.permits.len();
                if removed > 0 {
                    shard.permit_count.fetch_sub(removed, Ordering::Relaxed);
                }
                released.extend(objects);
                Self::wake(inner);
            }
        }
        if self.global_permit_count.load(Ordering::Relaxed) > 0 {
            let removed = {
                let mut g = self.global_permits.write();
                let before = g.len();
                g.remove_involving(tid);
                let removed = before - g.len();
                if removed > 0 {
                    self.global_permit_count
                        .fetch_sub(removed, Ordering::Relaxed);
                }
                removed
            };
            if removed > 0 {
                self.wake_every_stripe();
            }
        }
        if self.poison_count.load(Ordering::Relaxed) > 0 && self.poisoned.lock().remove(&tid) {
            self.poison_count.fetch_sub(1, Ordering::Relaxed);
        }
        released
    }

    /// Make current and future lock waits of `tid` fail with `TxnAborted`
    /// and wake it if blocked. Used when an abort strikes a transaction
    /// that may be waiting for a lock. Cleared by
    /// [`release_all`](Self::release_all).
    #[verify_allow(
        lock_order,
        reason = "blessed: poison set and shard mutexes are never held together"
    )]
    pub fn poison(&self, tid: Tid) {
        if self.poisoned.lock().insert(tid) {
            self.poison_count.fetch_add(1, Ordering::Relaxed);
        }
        self.wake_every_stripe();
    }

    /// Granted locks on `ob` (snapshot).
    pub fn holders(&self, ob: Oid) -> Vec<Lrd> {
        self.shards[self.shard_index(ob)]
            .inner
            .lock()
            .objects
            .get(&ob)
            .map(|od| od.granted.clone())
            .unwrap_or_default()
    }

    /// Pending requests on `ob` (snapshot).
    pub fn pending(&self, ob: Oid) -> Vec<PendingReq> {
        self.shards[self.shard_index(ob)]
            .inner
            .lock()
            .objects
            .get(&ob)
            .map(|od| od.pending.clone())
            .unwrap_or_default()
    }

    /// Objects `tid` holds locks on (snapshot).
    pub fn locked_objects(&self, tid: Tid) -> Vec<Oid> {
        let mut out: Vec<Oid> = Vec::new();
        for s in self.shards_of(tid) {
            let inner = self.shards[s].inner.lock();
            if let Some(set) = inner.txn_objects.get(&tid) {
                out.extend(set.iter().copied());
            }
        }
        out
    }

    /// Does `tid` hold an (unsuspended) lock on `ob` covering `mode`?
    pub fn holds(&self, tid: Tid, ob: Oid, mode: LockMode) -> bool {
        self.shards[self.shard_index(ob)]
            .inner
            .lock()
            .objects
            .get(&ob)
            .map(|od| {
                od.granted
                    .iter()
                    .any(|g| g.tid == tid && !g.suspended && g.mode.covers(mode))
            })
            .unwrap_or(false)
    }

    /// Statistics snapshot, aggregated from per-shard relaxed atomics —
    /// never takes a shard mutex.
    pub fn stats(&self) -> LockStats {
        let mut out = LockStats::default();
        for shard in self.shards.iter() {
            out.grants += shard.stats.grants.load(Ordering::Relaxed);
            out.blocks += shard.stats.blocks.load(Ordering::Relaxed);
            out.suspensions += shard.stats.suspensions.load(Ordering::Relaxed);
            out.deadlocks += shard.stats.deadlocks.load(Ordering::Relaxed);
            out.timeouts += shard.stats.timeouts.load(Ordering::Relaxed);
        }
        out
    }

    /// Per-stripe contention counters, one entry per shard in index order.
    /// Assembled entirely from relaxed atomics — never takes a shard mutex
    /// — so it is safe to call from a monitoring thread while the bench
    /// hammers the table. Feeds the E9b contention table.
    pub fn stripe_stats(&self) -> Vec<StripeStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| StripeStats {
                stripe: i,
                grants: shard.stats.grants.load(Ordering::Relaxed),
                blocks: shard.stats.blocks.load(Ordering::Relaxed),
                suspensions: shard.stats.suspensions.load(Ordering::Relaxed),
                deadlocks: shard.stats.deadlocks.load(Ordering::Relaxed),
                timeouts: shard.stats.timeouts.load(Ordering::Relaxed),
                waits: shard.stats.waits.load(Ordering::Relaxed),
                wait_ns_total: shard.stats.wait_ns_total.load(Ordering::Relaxed),
                wait_ns_max: shard.stats.wait_ns_max.load(Ordering::Relaxed),
                queue_peak: shard.stats.queue_peak.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Point-in-time occupancy of every stripe: resident objects, granted
    /// and suspended LRDs, pending requests, and shard-local permits.
    /// Visits stripes one at a time (guard dropped between hops), so a
    /// monitoring thread — `asset-top` polls this through
    /// `Database::introspect()` — never holds two stripes or stalls the
    /// whole table at once.
    #[verify_allow(
        lock_order,
        reason = "blessed: visits shards one at a time in ascending index order, guard dropped between hops"
    )]
    pub fn stripe_occupancy(&self) -> Vec<StripeOccupancy> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let inner = shard.inner.lock();
                let mut occ = StripeOccupancy {
                    stripe: i,
                    objects: inner.objects.len(),
                    granted: 0,
                    suspended: 0,
                    waiting: 0,
                    permits: shard.permit_count.load(Ordering::Relaxed),
                };
                for od in inner.objects.values() {
                    occ.granted += od.granted.len();
                    occ.suspended += od.granted.iter().filter(|g| g.suspended).count();
                    occ.waiting += od.pending.len();
                }
                occ
            })
            .collect()
    }

    /// Number of permits currently registered (lock-free).
    pub fn permit_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.permit_count.load(Ordering::Relaxed))
            .sum::<usize>()
            + self.global_permit_count.load(Ordering::Relaxed)
    }

    /// A cheap full diagnostic view; see [`LockSnapshot`].
    pub fn snapshot(&self) -> LockSnapshot {
        LockSnapshot {
            stats: self.stats(),
            permits: self.permit_count(),
            waiters: self.waits.waiter_count(),
            shards: self.shards.len(),
        }
    }

    /// Permits that mention `ob`, from the object's shard and the global
    /// table (diagnostics; the paper's OD-attached PD list).
    pub fn permits_mentioning(&self, ob: Oid) -> Vec<Permit> {
        let mut out = self.shards[self.shard_index(ob)]
            .inner
            .lock()
            .permits
            .mentioning(ob);
        if self.global_permit_count.load(Ordering::Relaxed) > 0 {
            out.extend(self.global_permits.read().mentioning(ob));
        }
        out
    }

    /// Current waits-for edges (diagnostics / periodic detectors).
    pub fn waits_snapshot(&self) -> HashMap<Tid, HashSet<Tid>> {
        self.waits.snapshot()
    }
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    /// A callback waker that only counts its wakes — what a driver that
    /// does not sleep (the executor's enqueue) looks like to the table.
    #[derive(Default)]
    struct Wakes(AtomicUsize);

    impl Wake for Wakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Wakes {
        fn count(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    fn waiting(t: &LockTable) -> usize {
        t.stripe_occupancy().iter().map(|s| s.waiting).sum()
    }

    const NO_TIMEOUT: Option<Duration> = None;
    fn short() -> Option<Duration> {
        Some(Duration::from_millis(50))
    }

    /// Wait until `tid`'s request on `ob` is on the pending list: it has
    /// blocked, and every later change on the stripe will wake it.
    fn await_pending(t: &LockTable, ob: Oid, tid: Tid) {
        while !t.pending(ob).iter().any(|p| p.tid == tid) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Read, NO_TIMEOUT).unwrap();
        t.lock(Tid(2), Oid(1), Operation::Read, NO_TIMEOUT).unwrap();
        assert_eq!(t.holders(Oid(1)).len(), 2);
    }

    #[test]
    fn write_blocks_write_until_release() {
        let t = Arc::new(LockTable::new());
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        assert!(t.try_lock(Tid(2), Oid(1), Operation::Write).is_err());

        let t2 = Arc::clone(&t);
        let acquired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&acquired);
        let h = std::thread::spawn(move || {
            t2.lock(Tid(2), Oid(1), Operation::Write, NO_TIMEOUT)
                .unwrap();
            flag.store(true, Ordering::SeqCst);
        });
        await_pending(&t, Oid(1), Tid(2));
        assert!(!acquired.load(Ordering::SeqCst));
        t.release_all(Tid(1));
        h.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
    }

    #[test]
    fn upgrade_read_to_write() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Read, NO_TIMEOUT).unwrap();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        assert!(t.holds(Tid(1), Oid(1), LockMode::Write));
    }

    #[test]
    fn upgrade_blocks_on_other_reader() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Read, NO_TIMEOUT).unwrap();
        t.lock(Tid(2), Oid(1), Operation::Read, NO_TIMEOUT).unwrap();
        let err = t
            .lock(Tid(1), Oid(1), Operation::Write, short())
            .unwrap_err();
        assert!(matches!(err, AssetError::LockTimeout { .. }));
        // the timeout left no pending entry and no waits-for edge behind
        assert!(t.pending(Oid(1)).is_empty());
        assert!(t.waits_snapshot().is_empty());
        // after the other reader leaves, upgrade works
        t.release_all(Tid(2));
        t.lock(Tid(1), Oid(1), Operation::Write, short()).unwrap();
    }

    #[test]
    fn permit_lets_conflict_through_and_suspends() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::WRITE);
        t.lock(Tid(2), Oid(1), Operation::Write, short()).unwrap();
        let holders = t.holders(Oid(1));
        let h1 = holders.iter().find(|g| g.tid == Tid(1)).unwrap();
        let h2 = holders.iter().find(|g| g.tid == Tid(2)).unwrap();
        assert!(h1.suspended, "permitting holder was suspended");
        assert!(!h2.suspended);
        assert_eq!(t.stats().suspensions, 1);
        // t1's lock is suspended: it no longer *holds* write
        assert!(!t.holds(Tid(1), Oid(1), LockMode::Write));
    }

    #[test]
    fn suspended_holder_must_reacquire() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        t.lock(Tid(2), Oid(1), Operation::Write, short()).unwrap();
        // t1 tries again: t2 now holds an unsuspended conflicting lock and
        // has not permitted t1 back — t1 blocks.
        let err = t
            .lock(Tid(1), Oid(1), Operation::Write, short())
            .unwrap_err();
        assert!(matches!(err, AssetError::LockTimeout { .. }));
        // ping-pong: t2 permits t1 back; now t1 gets through and t2 is
        // suspended in turn (the paper's cooperating-transactions pattern).
        t.permit(Tid(2), Some(Tid(1)), ObSet::one(Oid(1)), OpSet::ALL);
        t.lock(Tid(1), Oid(1), Operation::Write, short()).unwrap();
        assert!(t.holds(Tid(1), Oid(1), LockMode::Write));
        assert!(!t.holds(Tid(2), Oid(1), LockMode::Write));
    }

    #[test]
    fn a_suspended_write_lock_read_back_is_still_a_write() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        t.lock(Tid(2), Oid(1), Operation::Read, short()).unwrap();
        // t1 only asks to read, but the grant would lift the suspension of
        // its write lock beside t2's unsuspended read lock: t2 blocks it
        let err = t
            .lock(Tid(1), Oid(1), Operation::Read, short())
            .unwrap_err();
        assert!(matches!(err, AssetError::LockTimeout { .. }));
        assert!(!t.holds(Tid(1), Oid(1), LockMode::Read));
        t.release_all(Tid(2));
        t.lock(Tid(1), Oid(1), Operation::Read, short()).unwrap();
        assert!(t.holds(Tid(1), Oid(1), LockMode::Write));
    }

    #[test]
    fn permit_scope_is_respected() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.lock(Tid(1), Oid(2), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        t.lock(Tid(2), Oid(1), Operation::Write, short()).unwrap();
        let err = t
            .lock(Tid(2), Oid(2), Operation::Write, short())
            .unwrap_err();
        assert!(
            matches!(err, AssetError::LockTimeout { .. }),
            "ob2 not permitted"
        );
    }

    #[test]
    fn wildcard_permit_covers_everyone() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), None, ObSet::one(Oid(1)), OpSet::WRITE);
        t.lock(Tid(7), Oid(1), Operation::Write, short()).unwrap();
        t.release_all(Tid(7));
        t.lock(Tid(8), Oid(1), Operation::Write, short()).unwrap();
    }

    #[test]
    fn read_permit_does_not_allow_write() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::READ);
        t.lock(Tid(2), Oid(1), Operation::Read, short()).unwrap();
        let err = t
            .lock(Tid(2), Oid(1), Operation::Write, short())
            .unwrap_err();
        assert!(matches!(err, AssetError::LockTimeout { .. }));
    }

    #[test]
    fn transitive_permit_through_table() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        t.permit(Tid(2), Some(Tid(3)), ObSet::one(Oid(1)), OpSet::ALL);
        // t3 never got a direct permit from t1 but the chain carries it
        t.lock(Tid(3), Oid(1), Operation::Write, short()).unwrap();
        assert!(t.holds(Tid(3), Oid(1), LockMode::Write));
    }

    #[test]
    fn transitive_chain_mixing_shard_and_global_permits() {
        // t1 → t2 is a single-object (shard-local) permit; t2 → t3 is a
        // wildcard-object (global) permit. The union DFS must stitch them.
        let t = LockTable::with_shards(8);
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        t.permit(Tid(2), Some(Tid(3)), ObSet::All, OpSet::ALL);
        t.lock(Tid(3), Oid(1), Operation::Write, short()).unwrap();
        assert!(t.holds(Tid(3), Oid(1), LockMode::Write));
    }

    #[test]
    fn deadlock_detected_and_victim_errors() {
        let t = Arc::new(LockTable::new());
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.lock(Tid(2), Oid(2), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            // t1 waits for ob2 (held by t2)
            t2.lock(
                Tid(1),
                Oid(2),
                Operation::Write,
                Some(Duration::from_secs(5)),
            )
        });
        await_pending(&t, Oid(2), Tid(1));
        // t2 requests ob1 (held by t1) → cycle → t2 is the victim
        let err = t
            .lock(
                Tid(2),
                Oid(1),
                Operation::Write,
                Some(Duration::from_secs(5)),
            )
            .unwrap_err();
        assert!(matches!(err, AssetError::Deadlock(Tid(2))));
        assert_eq!(t.stats().deadlocks, 1);
        // unblock t1 by releasing the victim's locks (what abort would do)
        t.release_all(Tid(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn a_queued_request_is_listed_woken_once_and_granted_on_retry() {
        let t = LockTable::with_shards_obs(4, Obs::shared());
        t.lock(Tid(1), Oid(1), Operation::Read, NO_TIMEOUT).unwrap();
        t.lock(Tid(2), Oid(1), Operation::Read, NO_TIMEOUT).unwrap();
        let wakes = Arc::new(Wakes::default());
        let waker = || Waker::from(Arc::clone(&wakes));
        let queued = t.request(Tid(2), Oid(1), Operation::Write, Some(&waker));
        assert_eq!(queued.unwrap(), Err(vec![Tid(1)]), "blocked by the reader");
        let pending = t.pending(Oid(1));
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].tid, Tid(2));
        assert_eq!(pending[0].mode, LockMode::Write);
        assert!(pending[0].upgrading);
        assert_eq!(waiting(&t), 1);
        assert_eq!(t.waits_snapshot()[&Tid(2)], HashSet::from([Tid(1)]));
        // a wake takes the waker: the change that follows finds none
        t.release_all(Tid(1));
        assert_eq!(wakes.count(), 1);
        t.permit(Tid(9), None, ObSet::one(Oid(1)), OpSet::READ);
        assert_eq!(wakes.count(), 1);
        assert_eq!(t.pending(Oid(1)).len(), 1, "listed until it retries");
        let granted = t.request(Tid(2), Oid(1), Operation::Write, Some(&waker));
        assert_eq!(granted.unwrap(), Ok(()));
        assert!(t.pending(Oid(1)).is_empty());
        assert_eq!(waiting(&t), 0);
        assert!(t.waits_snapshot().is_empty());
        let stripe = t.stripe_stats().into_iter().find(|s| s.waits > 0).unwrap();
        assert_eq!((stripe.waits, stripe.blocks), (1, 1));
        let snap = t.obs().snapshot();
        assert_eq!(snap.counters.lock_waits, 1);
        assert_eq!(snap.counters.deadlock_sweeps, 1);
        assert_eq!(snap.lock_wait_ns.count, 1);
    }

    #[test]
    fn release_all_ends_a_wait_on_an_object_the_tid_holds_no_lock_on() {
        let t = LockTable::with_shards(4);
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let wakes = Arc::new(Wakes::default());
        let waker = || Waker::from(Arc::clone(&wakes));
        let queued = t.request(Tid(2), Oid(1), Operation::Write, Some(&waker));
        assert!(queued.unwrap().is_err());
        assert_eq!(waiting(&t), 1);
        // t2 holds nothing, so no stripe is indexed under it
        assert!(t.release_all(Tid(2)).is_empty());
        assert!(t.pending(Oid(1)).is_empty());
        assert_eq!(waiting(&t), 0);
        assert!(t.waits_snapshot().is_empty());
        assert_eq!(t.snapshot().waiters, 0);
        t.release_all(Tid(1));
        assert_eq!(wakes.count(), 0, "the release wakes nobody stale");
        assert_eq!(
            t.stripe_occupancy()
                .iter()
                .map(|s| s.objects)
                .sum::<usize>(),
            0
        );
    }

    #[test]
    fn poison_wakes_a_queued_request_and_its_retry_fails() {
        let t = LockTable::with_shards(4);
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let wakes = Arc::new(Wakes::default());
        let waker = || Waker::from(Arc::clone(&wakes));
        let queued = t.request(Tid(2), Oid(1), Operation::Write, Some(&waker));
        assert!(queued.unwrap().is_err());
        t.poison(Tid(2));
        assert_eq!(wakes.count(), 1);
        let err = t
            .request(Tid(2), Oid(1), Operation::Write, Some(&waker))
            .unwrap_err();
        assert!(matches!(err, AssetError::TxnAborted(Tid(2))));
        assert!(t.pending(Oid(1)).is_empty());
        assert!(t.waits_snapshot().is_empty());
        assert!(t.try_lock(Tid(2), Oid(7), Operation::Read).is_err());
        t.release_all(Tid(2));
        t.try_lock(Tid(2), Oid(7), Operation::Read).unwrap();
    }

    #[test]
    fn a_transaction_waits_for_one_request_at_a_time() {
        let t = LockTable::with_shards_obs(4, Obs::shared());
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.lock(Tid(1), Oid(2), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let wakes = Arc::new(Wakes::default());
        let waker = || Waker::from(Arc::clone(&wakes));
        for ob in [Oid(1), Oid(2)] {
            let queued = t.request(Tid(2), ob, Operation::Write, Some(&waker));
            assert!(queued.unwrap().is_err());
        }
        assert!(
            t.pending(Oid(1)).is_empty(),
            "the request on ob2 displaced it"
        );
        assert_eq!(t.pending(Oid(2)).len(), 1);
        assert_eq!(waiting(&t), 1);
        // a grant elsewhere ends the wait, wherever it is listed
        t.lock(Tid(2), Oid(3), Operation::Write, NO_TIMEOUT)
            .unwrap();
        assert_eq!(waiting(&t), 0);
        assert!(t.waits_snapshot().is_empty());
        let snap = t.obs().snapshot();
        assert_eq!(snap.counters.lock_waits, 2);
        assert_eq!(snap.lock_wait_ns.count, 2);
    }

    #[test]
    fn delegation_moves_locks() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.lock(Tid(1), Oid(2), Operation::Read, NO_TIMEOUT).unwrap();
        t.delegate(Tid(1), Tid(2), None);
        assert!(t.holds(Tid(2), Oid(1), LockMode::Write));
        assert!(t.holds(Tid(2), Oid(2), LockMode::Read));
        assert!(t.locked_objects(Tid(1)).is_empty());
        // the delegatee's conflicting ops no longer conflict; the
        // delegator's now do: t1 must block on ob1
        let err = t
            .lock(Tid(1), Oid(1), Operation::Write, short())
            .unwrap_err();
        assert!(matches!(err, AssetError::LockTimeout { .. }));
    }

    #[test]
    fn partial_delegation_moves_only_named_objects() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.lock(Tid(1), Oid(2), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.delegate(Tid(1), Tid(2), Some(&ObSet::one(Oid(1))));
        assert!(t.holds(Tid(2), Oid(1), LockMode::Write));
        assert!(t.holds(Tid(1), Oid(2), LockMode::Write));
        assert_eq!(t.locked_objects(Tid(1)), vec![Oid(2)]);
    }

    #[test]
    fn delegation_merges_modes() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.lock(Tid(2), Oid(1), Operation::Read, short())
            .unwrap_err(); // blocked
                           // instead: t2 gets a read lock on another object and receives t1's
                           // write via delegation, merging into write
        let t2 = LockTable::new();
        t2.lock(Tid(1), Oid(1), Operation::Read, NO_TIMEOUT)
            .unwrap();
        t2.lock(Tid(2), Oid(1), Operation::Read, NO_TIMEOUT)
            .unwrap();
        // t1 upgrades? no — t1 delegates its read to t2; t2 ends with read
        t2.delegate(Tid(1), Tid(2), None);
        assert!(t2.holds(Tid(2), Oid(1), LockMode::Read));
        assert_eq!(t2.holders(Oid(1)).len(), 1, "merged into one LRD");
    }

    #[test]
    fn release_wakes_waiters_and_cleans_permits() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        assert_eq!(t.permit_count(), 1);
        let released = t.release_all(Tid(1));
        assert_eq!(released, vec![Oid(1)]);
        assert_eq!(t.permit_count(), 0, "permits given by t1 are gone");
        assert!(t.holders(Oid(1)).is_empty());
    }

    #[test]
    fn release_cleans_wildcard_permits_too() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::All, OpSet::ALL);
        assert_eq!(t.permit_count(), 1);
        t.release_all(Tid(1));
        assert_eq!(t.permit_count(), 0);
        // and a permit granted *to* the released transaction goes as well
        t.lock(Tid(3), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit(Tid(3), Some(Tid(4)), ObSet::All, OpSet::ALL);
        t.release_all(Tid(4));
        assert_eq!(t.permit_count(), 0);
    }

    #[test]
    fn permit_accessed_materializes_current_locks() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.lock(Tid(1), Oid(2), Operation::Write, NO_TIMEOUT)
            .unwrap();
        t.permit_accessed(Tid(1), Some(Tid(2)), OpSet::ALL);
        t.lock(Tid(2), Oid(1), Operation::Write, short()).unwrap();
        t.lock(Tid(2), Oid(2), Operation::Write, short()).unwrap();
        // an object locked *after* the permit is not covered (paper: the
        // object set is computed at permit time)
        t.lock(Tid(1), Oid(3), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let err = t
            .lock(Tid(2), Oid(3), Operation::Write, short())
            .unwrap_err();
        assert!(matches!(err, AssetError::LockTimeout { .. }));
    }

    #[test]
    fn permit_arrival_wakes_blocked_waiter() {
        let t = Arc::new(LockTable::new());
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.lock(
                Tid(2),
                Oid(1),
                Operation::Write,
                Some(Duration::from_secs(5)),
            )
        });
        await_pending(&t, Oid(1), Tid(2));
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        h.join().unwrap().unwrap();
        assert!(t.holds(Tid(2), Oid(1), LockMode::Write));
    }

    #[test]
    fn wildcard_permit_arrival_wakes_blocked_waiter() {
        // the global-table insertion path must also wake shard waiters
        let t = Arc::new(LockTable::with_shards(8));
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.lock(
                Tid(2),
                Oid(1),
                Operation::Write,
                Some(Duration::from_secs(5)),
            )
        });
        await_pending(&t, Oid(1), Tid(2));
        t.permit(Tid(1), Some(Tid(2)), ObSet::All, OpSet::ALL);
        h.join().unwrap().unwrap();
        assert!(t.holds(Tid(2), Oid(1), LockMode::Write));
    }

    #[test]
    fn stats_accumulate() {
        let t = LockTable::new();
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let _ = t.lock(Tid(2), Oid(1), Operation::Write, short());
        let s = t.stats();
        assert_eq!(s.grants, 1);
        assert!(s.blocks >= 1);
        assert_eq!(s.timeouts, 1);
        let snap = t.snapshot();
        assert_eq!(snap.stats, s);
        assert_eq!(snap.shards, t.shard_count());
    }

    #[test]
    fn concurrent_increments_are_serialized_by_locks() {
        let t = Arc::new(LockTable::new());
        let value = Arc::new(Mutex::new(0u64));
        let mut handles = vec![];
        for i in 0..8u64 {
            let t = Arc::clone(&t);
            let value = Arc::clone(&value);
            handles.push(std::thread::spawn(move || {
                let tid = Tid(i + 1);
                for _ in 0..100 {
                    t.lock(tid, Oid(1), Operation::Write, NO_TIMEOUT).unwrap();
                    {
                        let mut v = value.lock();
                        *v += 1;
                    }
                    t.release_all(tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*value.lock(), 800);
    }

    #[test]
    fn stripe_stats_record_waits_and_durations() {
        let t = LockTable::with_shards(4);
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let _ = t.lock(Tid(2), Oid(1), Operation::Write, short());
        let stripes = t.stripe_stats();
        assert_eq!(stripes.len(), 4);
        let hot: Vec<&StripeStats> = stripes.iter().filter(|s| s.waits > 0).collect();
        assert_eq!(hot.len(), 1, "exactly one stripe saw the contended object");
        let s = hot[0];
        assert_eq!(s.waits, 1);
        assert!(s.blocks >= 1);
        assert_eq!(s.timeouts, 1);
        assert!(
            s.wait_ns_total >= Duration::from_millis(40).as_nanos() as u64,
            "the waiter blocked for ~50ms; got {}ns",
            s.wait_ns_total
        );
        assert!(s.wait_ns_max >= s.wait_ns_mean());
        assert!(s.queue_peak >= 1);
        // uncontended stripes stay silent
        for other in stripes.iter().filter(|s| s.stripe != hot[0].stripe) {
            assert_eq!(other.wait_ns_total, 0);
        }
    }

    #[test]
    fn obs_counters_track_lock_traffic() {
        let t = LockTable::with_shards_obs(2, Obs::shared());
        let obs = Arc::clone(t.obs());
        t.lock(Tid(1), Oid(1), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let _ = t.lock(Tid(2), Oid(1), Operation::Write, short());
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(1)), OpSet::ALL);
        t.lock(Tid(2), Oid(1), Operation::Write, short()).unwrap();
        t.delegate(Tid(2), Tid(3), None);
        let snap = obs.snapshot();
        assert!(snap.counters.lock_grants >= 2);
        assert!(snap.counters.lock_waits >= 1);
        assert!(snap.counters.permit_checks >= 1);
        assert_eq!(snap.counters.delegations, 1);
        assert_eq!(snap.counters.delegated_objects, 1);
        assert_eq!(snap.lock_wait_ns.count, snap.counters.lock_waits);
        assert!(snap.permit_chain_len.count >= 1);
        assert_eq!(snap.permit_chain_len.max, 1, "direct permit: one hop");
    }

    #[test]
    fn lock_wait_events_are_traced_when_enabled() {
        let t = LockTable::with_shards_obs(2, Obs::shared());
        t.obs().enable_tracing(64);
        t.lock(Tid(1), Oid(7), Operation::Write, NO_TIMEOUT)
            .unwrap();
        let _ = t.lock(Tid(2), Oid(7), Operation::Write, short());
        let trace = t.obs().trace();
        let wait = trace
            .iter()
            .find_map(|e| match e.kind {
                EventKind::LockWait {
                    tid,
                    ob,
                    wait_ns,
                    queue_depth,
                    ..
                } => Some((tid, ob, wait_ns, queue_depth)),
                _ => None,
            })
            .expect("a LockWait event was traced");
        assert_eq!(wait.0, Tid(2));
        assert_eq!(wait.1, Oid(7));
        assert!(wait.2 > 0);
        assert!(wait.3 >= 1);
    }

    #[test]
    fn a_traced_lock_wait_starts_exactly_when_the_wait_began() {
        let t = LockTable::with_shards_obs(2, Obs::shared());
        t.obs().enable_tracing(64);
        let since = Instant::now();
        let wait = Wait {
            holders: vec![Tid(1)],
            ob: Oid(7),
            queue_depth: 1,
            since: Some(since),
        };
        t.settle(Tid(2), wait, Some(Oid(7)));
        let (at_ns, wait_ns) = t
            .obs()
            .trace()
            .iter()
            .find_map(|e| match e.kind {
                EventKind::LockWait { wait_ns, .. } => Some((e.at_ns, wait_ns)),
                _ => None,
            })
            .expect("a LockWait event was traced");
        assert_eq!(at_ns - wait_ns, t.obs().ns_at(since));
    }

    #[test]
    fn shard_count_is_resolved_and_exposed() {
        assert_eq!(LockTable::with_shards(1).shard_count(), 1);
        assert_eq!(LockTable::with_shards(3).shard_count(), 4);
        let auto = LockTable::new().shard_count();
        assert!(auto.is_power_of_two());
    }
}
