//! The workspace's one lock facade: `Mutex`, `RwLock` and `Condvar` that
//! hand guards back directly and never poison.
//!
//! Every runtime crate takes its locks from here. The wrappers below are
//! written once over `imp`, which is `std::sync` in a normal build and
//! `loom::sync` under `RUSTFLAGS="--cfg loom"`, so the code
//! [loom](https://docs.rs/loom)'s model checker explores (the `loom_*`
//! integration tests; DESIGN.md §11) is the code that ships. Only the
//! timed [`Condvar::wait_until`] differs: loom models interleavings, not
//! clocks.
//!
//! **No poisoning** is a contract the runtime relies on: a transaction
//! body that panics while a lock is held must leave the lock usable (the
//! panic is caught and becomes an abort), so a poisoned result is turned
//! back into its guard. Every structure guarded here is either updated in
//! one step or repaired by the abort path that follows the panic.

#[cfg(loom)]
use loom::sync as imp;
#[cfg(not(loom))]
use std::sync as imp;

use std::sync::{PoisonError, TryLockError};
use std::time::Instant;

pub use imp::{RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion lock; `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(imp::Mutex<T>);

impl<T> Mutex<T> {
    /// New unlocked mutex.
    pub fn new(t: T) -> Self {
        Mutex(imp::Mutex::new(t))
    }

    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Take the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// Guard of a [`Mutex`]. The backend's guard sits in an `Option` so that
/// [`Condvar::wait`] can hand it to the backend by value and put the
/// reacquired one back without `unsafe`; it is `None` only during a wait,
/// and stays `None` (dropping nothing) if that wait unwinds, which is how
/// loom reports a deadlock.
#[derive(Debug)]
pub struct MutexGuard<'a, T>(Option<imp::MutexGuard<'a, T>>);

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.0 {
            Some(held) => held,
            None => emptied(),
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.0 {
            Some(held) => held,
            None => emptied(),
        }
    }
}

/// No caller gets here: a guard is empty only inside a wait, which has it
/// borrowed exclusively, and after a wait that unwound, which is still
/// unwinding through every frame that could name the guard.
#[cold]
fn emptied() -> ! {
    // the one alternative to `unsafe` in `wait`
    unreachable!("mutex guard used while its condvar wait holds the lock")
}

/// Reader-writer lock; `read`/`write` return the guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T>(imp::RwLock<T>);

impl<T> RwLock<T> {
    /// New unlocked lock.
    pub fn new(t: T) -> Self {
        RwLock(imp::RwLock::new(t))
    }

    /// Block until a shared lock is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until the exclusive lock is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Whether a timed wait ended by timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait timed out rather than being notified.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable whose waits reborrow the guard in place instead of
/// consuming it.
#[derive(Debug)]
pub struct Condvar(imp::Condvar);

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Condvar(imp::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Release the lock, wait for a notification, retake the lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let Some(held) = guard.0.take() else {
            emptied()
        };
        guard.0 = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] bounded by a deadline.
    #[cfg(not(loom))]
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let Some(held) = guard.0.take() else {
            emptied()
        };
        let left = deadline.saturating_duration_since(Instant::now());
        let (held, timeout) = self
            .0
            .wait_timeout(held, left)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(held);
        WaitTimeoutResult(timeout.timed_out())
    }

    /// Loom models no clock: the deadline is ignored and the wait never
    /// reports a timeout, so timeout-dependent fallback paths are out of
    /// scope for loom tests by design.
    #[cfg(loom)]
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        _deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait(guard);
        WaitTimeoutResult(false)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_while_a_mutex_is_held_leaves_it_usable() {
        let m = Arc::new(Mutex::new(1));
        let rw = Arc::new(RwLock::new(1));
        let (m2, rw2) = (m.clone(), rw.clone());
        let died = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = rw2.write();
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        assert_eq!(*m.try_lock().expect("free again"), 2);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 2);
    }
}
