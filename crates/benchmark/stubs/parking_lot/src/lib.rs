//! Offline stand-in for `parking_lot` (see ../README.md): the subset of
//! its API the ASSET runtime crates use, over `std::sync`.
//!
//! Like parking_lot, nothing here poisons: a lock whose holder panicked
//! is handed to the next caller as if it had been released normally.

use std::sync::{self, PoisonError, TryLockError};
use std::time::{Duration, Instant};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion lock; `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// New unlocked mutex.
    pub const fn new(t: T) -> Self {
        Mutex(sync::Mutex::new(t))
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Access through an exclusive borrow; no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reader-writer lock; `read`/`write` return the guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// New unlocked lock.
    pub const fn new(t: T) -> Self {
        RwLock(sync::RwLock::new(t))
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until a shared lock is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until the exclusive lock is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a shared lock if no writer holds it.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Take the exclusive lock if it is free.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Access through an exclusive borrow; no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
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

/// Condition variable whose waits reborrow the guard in place.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
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
        replace_guard(guard, |g| {
            self.0.wait(g).unwrap_or_else(PoisonError::into_inner)
        });
    }

    /// [`Condvar::wait`] bounded by a duration.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> WaitTimeoutResult {
        let mut timed_out = false;
        replace_guard(guard, |g| {
            let (g, r) = self
                .0
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out = r.timed_out();
            g
        });
        WaitTimeoutResult(timed_out)
    }

    /// [`Condvar::wait`] bounded by a deadline.
    pub fn wait_until<T>(&self, guard: &mut MutexGuard<'_, T>, deadline: Instant) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }
}

/// Run std's by-value wait `f` on a guard held by mutable reference.
fn replace_guard<'a, T>(
    guard: &mut MutexGuard<'a, T>,
    f: impl FnOnce(MutexGuard<'a, T>) -> MutexGuard<'a, T>,
) {
    /// Aborts if `f` unwinds while `*guard` is moved out, so that no
    /// caller can observe (and drop a second time) the moved-out slot.
    struct AbortOnUnwind;
    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    // SAFETY: `*guard` is moved out for the by-value wait and the
    // re-acquired guard is written back before anyone can read the
    // slot: `f` either returns a guard or unwinds into the abort bomb.
    unsafe {
        let taken = std::ptr::read(guard);
        let bomb = AbortOnUnwind;
        let back = f(taken);
        std::mem::forget(bomb);
        std::ptr::write(guard, back);
    }
}
