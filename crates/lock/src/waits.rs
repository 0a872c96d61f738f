//! What a blocked lock request keeps outside its stripe.
//!
//! A request that blocks is listed on its object's pending list, under the
//! stripe mutex (`table.rs`), and recorded here under the waiting
//! transaction: its waits-for edges (deadlock detection), the object it is
//! listed on (so a grant elsewhere, a cancel, an abort or a release can
//! unlist it from any stripe) and since when (so a wait is timed from its first
//! block to its end with no clock read under a stripe mutex). Being outside
//! the sharded table, cycle detection never holds — or waits on — a shard:
//! grants proceed while a blocked transaction checks for deadlock. One
//! mutex over the map, plus a relaxed waiter counter for lock-free
//! diagnostics and for the grant path, which takes the mutex only when
//! the count says some request waits.
//!
//! `Parker` is the blocking driver's waker: what
//! [`LockTable::lock`](crate::LockTable::lock) sleeps on between passes.

use asset_common::sync::{Condvar, Mutex};
use asset_common::{IdMap, IdSet, Oid, Tid};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Wake;
use std::time::Instant;

/// One transaction's wait: a request that blocked and has not yet been
/// granted, cancelled or aborted.
#[derive(Clone, Debug)]
pub struct Wait {
    /// The holders blocking the request (its waits-for edges).
    pub holders: Vec<Tid>,
    /// The object whose pending list the request is on.
    pub ob: Oid,
    /// Depth of that pending list when the request first blocked.
    pub queue_depth: u32,
    /// When the request first blocked; `None` until [`WaitGraph::stamp`].
    pub since: Option<Instant>,
}

/// The waits-for graph: `waiting tid → its wait`.
#[derive(Default)]
pub struct WaitGraph {
    waits: Mutex<IdMap<Tid, Wait>>,
    waiters: AtomicUsize,
}

impl WaitGraph {
    /// An empty graph.
    pub fn new() -> WaitGraph {
        WaitGraph::default()
    }

    /// Record the holders `tid`'s request on `ob` is blocked on: the edges
    /// of the wait already recorded for that request, or a new wait. A
    /// transaction waits for one request at a time, so a new wait
    /// supersedes one on another object, which is returned for the caller
    /// to settle.
    pub fn publish(&self, tid: Tid, holders: &[Tid], ob: Oid, queue_depth: u32) -> Option<Wait> {
        let holders = holders.to_vec();
        let mut waits = self.waits.lock();
        if let Some(w) = waits.get_mut(&tid).filter(|w| w.ob == ob) {
            w.holders = holders;
            return None;
        }
        let fresh = Wait {
            holders,
            ob,
            queue_depth,
            since: None,
        };
        let superseded = waits.insert(tid, fresh);
        if superseded.is_none() {
            self.waiters.fetch_add(1, Ordering::Relaxed);
        }
        superseded
    }

    /// Set the start of `tid`'s wait, if it still waits and has none yet.
    pub fn stamp(&self, tid: Tid, now: Instant) {
        if let Some(w) = self.waits.lock().get_mut(&tid) {
            w.since.get_or_insert(now);
        }
    }

    /// End `tid`'s wait (granted, errored out, cancelled or released),
    /// returning it for the caller to settle.
    pub fn clear(&self, tid: Tid) -> Option<Wait> {
        let ended = self.waits.lock().remove(&tid);
        if ended.is_some() {
            self.waiters.fetch_sub(1, Ordering::Relaxed);
        }
        ended
    }

    /// Is `tid` part of a waits-for cycle? (`tid` just published its edges,
    /// so any new cycle passes through it.)
    pub fn cycle_through(&self, tid: Tid) -> bool {
        let waits = self.waits.lock();
        let Some(own) = waits.get(&tid) else {
            return false;
        };
        let mut stack = own.holders.clone();
        let mut seen: IdSet<Tid> = IdSet::default();
        while let Some(t) = stack.pop() {
            if t == tid {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = waits.get(&t) {
                stack.extend(next.holders.iter().copied());
            }
        }
        false
    }

    /// Number of currently blocked transactions (relaxed; lock-free).
    pub fn waiter_count(&self) -> usize {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Copy of the current edge map (periodic detectors, diagnostics).
    pub fn snapshot(&self) -> HashMap<Tid, HashSet<Tid>> {
        self.waits
            .lock()
            .iter()
            .map(|(t, w)| (*t, w.holders.iter().copied().collect()))
            .collect()
    }
}

/// A thread's place to sleep between passes: a wake flag and a condvar.
/// A wake that lands before the park is kept by the flag, so none is lost.
#[derive(Default)]
pub(crate) struct Parker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    /// Sleep until woken or until `deadline`; consumes the wake. `false`
    /// means the deadline passed without one.
    pub(crate) fn park(&self, deadline: Option<Instant>) -> bool {
        let mut woken = self.woken.lock();
        while !*woken {
            match deadline {
                None => self.cv.wait(&mut woken),
                Some(d) if self.cv.wait_until(&mut woken, d).timed_out() => break,
                Some(_) => {}
            }
        }
        std::mem::take(&mut *woken)
    }
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        *self.woken.lock() = true;
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_clear_count() {
        let g = WaitGraph::new();
        assert_eq!(g.waiter_count(), 0);
        assert!(g.publish(Tid(1), &[Tid(2)], Oid(1), 1).is_none());
        // same request again: edges replaced, not double-counted
        assert!(g.publish(Tid(1), &[Tid(3)], Oid(1), 1).is_none());
        assert_eq!(g.waiter_count(), 1);
        assert_eq!(g.snapshot()[&Tid(1)], HashSet::from([Tid(3)]));
        assert!(g.clear(Tid(1)).is_some());
        assert!(g.clear(Tid(1)).is_none()); // idempotent
        assert_eq!(g.waiter_count(), 0);
    }

    #[test]
    fn a_request_elsewhere_supersedes_the_wait_and_keeps_one_per_tid() {
        let g = WaitGraph::new();
        g.publish(Tid(1), &[Tid(2)], Oid(1), 1);
        g.stamp(Tid(1), Instant::now());
        let old = g
            .publish(Tid(1), &[Tid(3)], Oid(2), 1)
            .expect("the wait on Oid(1) is superseded");
        assert_eq!(old.ob, Oid(1));
        assert!(old.since.is_some());
        assert_eq!(g.waiter_count(), 1);
        let now = g.clear(Tid(1)).unwrap();
        assert_eq!(now.ob, Oid(2));
        assert!(now.since.is_none(), "the new wait has its own clock");
    }

    #[test]
    fn detects_cycles_through_publisher() {
        let g = WaitGraph::new();
        g.publish(Tid(1), &[Tid(2)], Oid(1), 1);
        assert!(!g.cycle_through(Tid(1)));
        g.publish(Tid(2), &[Tid(3)], Oid(2), 1);
        g.publish(Tid(3), &[Tid(1)], Oid(3), 1);
        assert!(g.cycle_through(Tid(3)));
        assert!(g.cycle_through(Tid(1)));
        g.clear(Tid(2));
        assert!(!g.cycle_through(Tid(1)));
    }

    #[test]
    fn a_wake_before_the_park_is_not_lost() {
        let p = Arc::new(Parker::default());
        Arc::clone(&p).wake();
        assert!(p.park(None), "the flag kept the wake");
        assert!(!p.park(Some(Instant::now())), "and park consumed it");
    }
}
