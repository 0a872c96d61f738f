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
//!
//! **Lock order and no-block steps are checked by running**, in debug
//! builds outside loom. Each lock has a [`Rank`] and an ordinal; a thread
//! keeps the list of locks it holds, and taking a lock that does not rank
//! above every one of them panics, naming both call sites. A lock made by
//! `new` is a leaf: nothing may be taken while it is held. An executor
//! step runs inside [`step`], and every blocking primitive the runtime
//! owns calls [`may_block`] first, which panics inside one. Release
//! builds compile both to nothing: no rank is stored, no list kept.

#[cfg(loom)]
use loom::sync as imp;
#[cfg(not(loom))]
use std::sync as imp;

use std::sync::{PoisonError, TryLockError};
use std::time::Instant;

pub use order::{may_block, step, Held, Key};

/// A lock kind's place in the acquisition order (DESIGN.md §11),
/// ascending: a thread may take a lock only while every lock it holds
/// ranks lower. Locks of one rank are told apart by an ordinal (a shard
/// or stripe index), so a group of them is taken in ascending index
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(u8);

impl Rank {
    /// Held across whole database calls: the server's mint serializer, a
    /// participant node's database slot.
    pub const SERVICE: Rank = Rank(0);
    /// A wire transport's connection to one node, taken in node order.
    pub const WIRE_CONN: Rank = Rank(1);
    /// An executor task's body, held across each of the task's steps.
    pub const TASK: Rank = Rank(2);
    /// A transaction-table shard.
    pub const TXN_SHARD: Rank = Rank(3);
    /// A lock-table stripe.
    pub const LOCK_STRIPE: Rank = Rank(4);
    /// The log's file, held for a whole drain, rewrite or replay.
    pub const LOG_DISK: Rank = Rank(5);
    /// The object store's image, held while a checkpoint walks the cache.
    pub const STORE: Rank = Rank(6);
    /// A cached object's latch (`asset_storage::Latch`).
    pub const LATCH: Rank = Rank(7);
    /// The executor's count of queued tasks, under which a worker pops a
    /// run queue.
    pub const EXEC_PENDING: Rank = Rank(8);
}

#[cfg(all(debug_assertions, not(loom)))]
mod order {
    use super::Rank;
    use std::cell::{Cell, RefCell};
    use std::marker::PhantomData;
    use std::panic::Location;

    /// A lock's position in the order: its rank, then its ordinal.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Key(Rank, usize);

    impl std::fmt::Debug for Key {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match *self {
                Key::LEAF => write!(f, "a leaf lock"),
                Key(Rank(rank), ordinal) => write!(f, "rank {rank} #{ordinal}"),
            }
        }
    }

    struct Entry {
        key: Key,
        addr: usize,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
        static IN_STEP: Cell<bool> = const { Cell::new(false) };
    }

    impl Key {
        /// Every lock made by `new`: above all others, so nothing may be
        /// taken while one is held.
        pub(super) const LEAF: Key = Key(Rank(u8::MAX), usize::MAX);

        /// The key of a lock of `rank` with ordinal `ordinal`.
        pub const fn new(rank: Rank, ordinal: usize) -> Key {
            Key(rank, ordinal)
        }

        /// Panic unless this key ranks above every lock the thread holds.
        #[track_caller]
        #[expect(clippy::panic, reason = "the lock-order check of debug builds")]
        pub fn check(self) {
            let clash = HELD
                .try_with(|held| {
                    let held = held.borrow();
                    let top = held.iter().filter(|e| e.key >= self).max_by_key(|e| e.key);
                    top.map(|e| (e.key, e.site))
                })
                .ok()
                .flatten();
            if let Some((key, site)) = clash {
                panic!(
                    "lock order: {self:?} taken at {} while {key:?} is held, taken at {site}",
                    Location::caller()
                );
            }
        }

        /// Record the lock at `addr`, just taken, as held by this thread.
        #[track_caller]
        pub fn hold(self, addr: usize) -> Held {
            let held = Held {
                key: self,
                addr,
                _thread: PhantomData,
            };
            held.resume();
            held
        }
    }

    /// A held lock's entry on its thread's list; dropping it takes the
    /// entry off. Guards may drop in any order.
    #[derive(Debug)]
    pub struct Held {
        key: Key,
        addr: usize,
        /// `!Send`: the entry is on the list of the thread that took it.
        _thread: PhantomData<std::sync::MutexGuard<'static, ()>>,
    }

    impl Held {
        /// Take the entry off the list while the lock is given up (a
        /// condvar wait).
        pub fn suspend(&self) {
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|e| e.addr == self.addr) {
                    held.remove(i);
                }
            });
        }

        /// Put the entry back: the lock is held again.
        #[track_caller]
        pub fn resume(&self) {
            let site = Location::caller();
            let _ = HELD.try_with(|held| {
                held.borrow_mut().push(Entry {
                    key: self.key,
                    addr: self.addr,
                    site,
                })
            });
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            self.suspend();
        }
    }

    /// How many locks this thread holds.
    #[cfg(test)]
    pub(super) fn held() -> usize {
        HELD.with_borrow(Vec::len)
    }

    /// Run `f` as one executor step: [`may_block`] panics inside it.
    pub fn step<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                let _ = IN_STEP.try_with(|s| s.set(self.0));
            }
        }
        let _restore = Restore(IN_STEP.replace(true));
        f()
    }

    /// Called first by each blocking primitive: panics inside an
    /// executor [`step`], whose thread drives other transactions too.
    #[track_caller]
    #[expect(clippy::panic, reason = "the no-block check of debug builds")]
    pub fn may_block() {
        if IN_STEP.try_with(Cell::get).unwrap_or(false) {
            panic!(
                "blocking call inside an executor step at {}",
                Location::caller()
            );
        }
    }
}

/// Release builds (and loom): the same interface, doing nothing.
#[cfg(not(all(debug_assertions, not(loom))))]
mod order {
    use super::Rank;
    use std::marker::PhantomData;

    /// A lock's position in the order; debug builds only keep it.
    #[derive(Debug, Clone, Copy)]
    pub struct Key;

    impl Key {
        pub(super) const LEAF: Key = Key;

        /// The key of a lock of `rank` with ordinal `ordinal`.
        pub const fn new(_rank: Rank, _ordinal: usize) -> Key {
            Key
        }

        /// Checks the order in debug builds.
        #[inline(always)]
        pub fn check(self) {}

        /// Records the held lock in debug builds.
        #[inline(always)]
        pub fn hold(self, _addr: usize) -> Held {
            Held(PhantomData)
        }
    }

    /// A held lock's entry in debug builds.
    #[derive(Debug)]
    pub struct Held(PhantomData<std::sync::MutexGuard<'static, ()>>);

    impl Held {
        /// Gives the entry up in debug builds.
        #[inline(always)]
        pub fn suspend(&self) {}

        /// Puts the entry back in debug builds.
        #[inline(always)]
        pub fn resume(&self) {}
    }

    /// Runs `f`; debug builds flag it as an executor step.
    #[inline(always)]
    pub fn step<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Checks for an executor step in debug builds.
    #[inline(always)]
    pub fn may_block() {}
}

/// Mutual exclusion lock; `lock` returns the guard directly.
#[derive(Debug)]
pub struct Mutex<T> {
    lock: imp::Mutex<T>,
    key: Key,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// New unlocked mutex, a leaf of the lock order.
    pub fn new(t: T) -> Self {
        Mutex::keyed(t, Key::LEAF)
    }

    /// New unlocked mutex of `rank`, ordinal `ordinal` among its rank.
    pub fn ranked(t: T, rank: Rank, ordinal: usize) -> Self {
        Mutex::keyed(t, Key::new(rank, ordinal))
    }

    fn keyed(t: T, key: Key) -> Self {
        Mutex {
            lock: imp::Mutex::new(t),
            key,
        }
    }

    /// Block until the lock is held.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.key.check();
        let held = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard(Some(held), self.key.hold(self.addr()))
    }

    /// Take the lock if it is free. A try cannot deadlock, so it is
    /// recorded as held but not checked against the order.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let held = match self.lock.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard(Some(held), self.key.hold(self.addr())))
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }
}

/// Guard of a [`Mutex`]. The backend's guard sits in an `Option` so that
/// [`Condvar::wait`] can hand it to the backend by value and put the
/// reacquired one back without `unsafe`; it is `None` only during a wait,
/// and stays `None` (dropping nothing) if that wait unwinds, which is how
/// loom reports a deadlock.
#[derive(Debug)]
pub struct MutexGuard<'a, T>(Option<imp::MutexGuard<'a, T>>, Held);

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
#[derive(Debug)]
pub struct RwLock<T> {
    lock: imp::RwLock<T>,
    key: Key,
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    /// New unlocked lock, a leaf of the lock order.
    pub fn new(t: T) -> Self {
        RwLock {
            lock: imp::RwLock::new(t),
            key: Key::LEAF,
        }
    }

    /// Block until a shared lock is held.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.key.check();
        let guard = self.lock.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard {
            guard,
            _held: self.key.hold(self.addr()),
        }
    }

    /// Block until the exclusive lock is held.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.key.check();
        let guard = self.lock.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard {
            guard,
            _held: self.key.hold(self.addr()),
        }
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }
}

/// Shared guard of a [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    guard: imp::RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard of a [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    guard: imp::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
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
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        may_block();
        let Some(held) = guard.0.take() else {
            emptied()
        };
        guard.1.suspend();
        guard.0 = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
        guard.1.resume();
    }

    /// [`Condvar::wait`] bounded by a deadline.
    #[cfg(not(loom))]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        may_block();
        let Some(held) = guard.0.take() else {
            emptied()
        };
        guard.1.suspend();
        let left = deadline.saturating_duration_since(Instant::now());
        let (held, timeout) = self
            .0
            .wait_timeout(held, left)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(held);
        guard.1.resume();
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
        let m = Arc::new(Mutex::ranked(1, Rank::TXN_SHARD, 0));
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
        let caught = std::panic::catch_unwind(|| {
            let _g = m.lock();
            let _w = rw.write();
            panic!("unwinds through both guards");
        });
        assert!(caught.is_err());
        #[cfg(debug_assertions)]
        assert_eq!(order::held(), 0, "the unwind took both entries off");
    }
}

/// The rank checker itself; it exists in debug builds only.
#[cfg(all(test, debug_assertions, not(loom)))]
mod order_tests {
    use super::*;

    fn stripes(n: usize) -> Vec<Mutex<()>> {
        (0..n)
            .map(|i| Mutex::ranked((), Rank::LOCK_STRIPE, i))
            .collect()
    }

    #[test]
    fn same_rank_locks_pass_in_ascending_ordinal_order() {
        let s = stripes(4);
        let shard = Mutex::ranked((), Rank::TXN_SHARD, 3);
        let _t = shard.lock();
        let guards: Vec<_> = [0, 2, 3].iter().map(|&i| s[i].lock()).collect();
        let leaf = Mutex::new(());
        let l = leaf.lock();
        assert_eq!(order::held(), 5);
        drop(guards);
        drop(l);
        assert_eq!(order::held(), 1);
    }

    #[test]
    #[should_panic(expected = "lock order")]
    fn a_descending_ordinal_panics() {
        let s = stripes(2);
        let _b = s[1].lock();
        let _a = s[0].lock();
    }

    #[test]
    #[should_panic(expected = "lock order")]
    fn anything_taken_under_a_leaf_panics() {
        let leaf = Mutex::new(());
        let s = stripes(1);
        let _l = leaf.lock();
        let _s = s[0].lock();
    }

    #[test]
    fn out_of_order_drops_leave_the_list_consistent() {
        let s = stripes(3);
        let (a, b, c) = (s[0].lock(), s[1].lock(), s[2].lock());
        drop(b);
        assert_eq!(order::held(), 2);
        drop(a);
        // stripe 2 is still held: stripe 1 ranks below it
        let again = std::panic::catch_unwind(|| drop(s[1].lock()));
        assert!(again.is_err());
        drop(c);
        assert_eq!(order::held(), 0);
        let _b = s[1].lock();
        let _c = s[2].lock();
        assert_eq!(order::held(), 2);
    }

    #[test]
    fn a_try_lock_is_recorded_but_not_checked() {
        let s = stripes(2);
        let _b = s[1].lock();
        let a = s[0].try_lock().expect("free");
        assert_eq!(order::held(), 2);
        drop(a);
        assert_eq!(order::held(), 1);
    }

    #[test]
    fn a_condvar_wait_gives_up_and_restores_the_entry() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        assert_eq!(order::held(), 1);
        let timed_out = cv.wait_until(&mut g, Instant::now()).timed_out();
        assert!(timed_out);
        assert_eq!(order::held(), 1);
        drop(g);
        assert_eq!(order::held(), 0);
    }

    #[test]
    fn the_message_names_both_sites() {
        let s = stripes(2);
        let (outer, _b) = (line!(), s[1].lock());
        let err = std::panic::catch_unwind(|| drop(s[0].lock())).expect_err("descending");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        let here = file!();
        assert!(msg.contains(&format!("{here}:{outer}:")), "{msg}");
        assert!(msg.contains(&format!("{here}:{}:", outer + 1)), "{msg}");
    }

    #[test]
    #[should_panic(expected = "blocking call inside an executor step")]
    fn a_condvar_wait_inside_a_step_panics() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        step(|| {
            let mut g = m.lock();
            cv.wait_until(&mut g, Instant::now());
        });
    }
}
