//! EOS-style latches (paper §4.1).
//!
//! > "Latches in EOS are implemented by an atomic test-and-set operation. If
//! > a process cannot (test-and-)set a latch it 'spins' on it (perhaps with
//! > some time-varying delay) until the latch is unset. Each latch, in
//! > addition to the value that can be set or unset atomically, contains an
//! > S-counter indicating the number of processes holding the latch in S
//! > mode and an X-bit indicating whether a process is waiting to get the
//! > latch in X mode. The X-bit blocks new readers from setting the latch,
//! > thus preventing starvation of update transactions."
//!
//! This implementation packs the whole latch into one `AtomicU32`:
//!
//! ```text
//!  bit 31        bits 30..16             bits 15..0
//!  X-held        X-waiter count          S-counter
//! ```
//!
//! A non-zero waiter count plays the role of the paper's X-bit: it blocks
//! *new* readers, so writers cannot starve. Waiters spin with an
//! exponentially growing backoff, yielding to the scheduler once the spin
//! budget is exhausted (the paper's "time-varying delay").

#[cfg(loom)]
use loom::sync::atomic::{AtomicU32, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU32, Ordering};

const X_HELD: u32 = 1 << 31;
const X_WAIT_UNIT: u32 = 1 << 16;
const X_WAIT_MASK: u32 = ((1 << 15) - 1) << 16;
const S_MASK: u32 = (1 << 16) - 1;

/// Backoff rounds (exponentially longer spins) before an acquisition starts
/// yielding the thread.
#[cfg(not(loom))]
const SPIN_LIMIT: u32 = 64;

/// A shared/exclusive spin latch.
///
/// Latches protect short critical sections (an object read or write in the
/// shared cache); they are never held across blocking operations, unlike
/// *locks*, which are transaction-duration and live in the lock manager.
#[derive(Debug)]
pub struct Latch {
    state: AtomicU32,
}

impl Default for Latch {
    fn default() -> Latch {
        Latch::new()
    }
}

/// RAII guard for a shared (S) latch acquisition.
#[must_use = "releasing the guard releases the latch"]
pub struct SharedGuard<'a> {
    latch: &'a Latch,
}

/// RAII guard for an exclusive (X) latch acquisition.
#[must_use = "releasing the guard releases the latch"]
pub struct ExclusiveGuard<'a> {
    latch: &'a Latch,
}

impl Latch {
    /// A new, unheld latch.
    /// (Non-const under loom: loom's atomics are not const-constructible.)
    #[cfg(not(loom))]
    pub const fn new() -> Latch {
        Latch {
            state: AtomicU32::new(0),
        }
    }

    /// A new, unheld latch.
    #[cfg(loom)]
    pub fn new() -> Latch {
        Latch {
            state: AtomicU32::new(0),
        }
    }

    #[cfg(not(loom))]
    fn backoff(&self, attempt: &mut u32) {
        if *attempt < SPIN_LIMIT {
            for _ in 0..(1u32 << (*attempt).min(6)) {
                std::hint::spin_loop();
            }
            *attempt += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Under loom every spin must be a model yield point, or the checker
    /// would explore unbounded spin interleavings.
    #[cfg(loom)]
    fn backoff(&self, attempt: &mut u32) {
        *attempt = attempt.saturating_add(1);
        loom::thread::yield_now();
    }

    /// Acquire in S mode. Blocks (spins) while an X holder exists or an X
    /// waiter is queued.
    pub fn shared(&self) -> SharedGuard<'_> {
        self.shared_profiled().0
    }

    /// Acquire in S mode, additionally reporting how many backoff rounds
    /// the acquisition spent (0 = granted on the first attempt).
    pub fn shared_profiled(&self) -> (SharedGuard<'_>, u32) {
        let mut attempt = 0;
        let mut rounds = 0u32;
        loop {
            let v = self.state.load(Ordering::Relaxed);
            if v & (X_HELD | X_WAIT_MASK) == 0 {
                debug_assert!(v & S_MASK < S_MASK, "S-counter overflow");
                if self
                    .state
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return (SharedGuard { latch: self }, rounds);
                }
            }
            self.backoff(&mut attempt);
            rounds = rounds.saturating_add(1);
        }
    }

    /// Try to acquire in S mode without spinning.
    pub fn try_shared(&self) -> Option<SharedGuard<'_>> {
        let v = self.state.load(Ordering::Relaxed);
        if v & (X_HELD | X_WAIT_MASK) == 0
            && self
                .state
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            Some(SharedGuard { latch: self })
        } else {
            None
        }
    }

    /// Acquire in X mode. A free latch is claimed with one CAS; a busy one
    /// is waited for as a registered waiter, so that new readers are
    /// blocked (starvation avoidance), spinning until the latch is free of
    /// holders.
    pub fn exclusive(&self) -> ExclusiveGuard<'_> {
        self.exclusive_profiled().0
    }

    /// Acquire in X mode, additionally reporting how many backoff rounds
    /// the acquisition spent (0 = granted on the first attempt).
    pub fn exclusive_profiled(&self) -> (ExclusiveGuard<'_>, u32) {
        // Uncontended: nobody holds or awaits the latch, so one CAS claims
        // it; the announce-then-claim loop is for a latch found busy.
        if let Some(guard) = self.try_exclusive() {
            return (guard, 0);
        }
        // Announce intent: blocks new readers.
        let prev = self.state.fetch_add(X_WAIT_UNIT, Ordering::Relaxed);
        debug_assert!(prev & X_WAIT_MASK != X_WAIT_MASK, "X-waiter overflow");
        let mut attempt = 0;
        let mut rounds = 0u32;
        loop {
            let v = self.state.load(Ordering::Relaxed);
            if v & X_HELD == 0 && v & S_MASK == 0 {
                // claim: set X_HELD, drop our waiter slot
                let next = (v - X_WAIT_UNIT) | X_HELD;
                if self
                    .state
                    .compare_exchange_weak(v, next, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return (ExclusiveGuard { latch: self }, rounds);
                }
            }
            self.backoff(&mut attempt);
            rounds = rounds.saturating_add(1);
        }
    }

    /// Try to acquire in X mode without spinning.
    pub fn try_exclusive(&self) -> Option<ExclusiveGuard<'_>> {
        if self
            .state
            .compare_exchange(0, X_HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(ExclusiveGuard { latch: self })
        } else {
            None
        }
    }

    /// Current number of S holders (diagnostic).
    pub fn s_count(&self) -> u32 {
        self.state.load(Ordering::Relaxed) & S_MASK
    }

    /// Is the latch held exclusively (diagnostic)?
    pub fn is_x_held(&self) -> bool {
        self.state.load(Ordering::Relaxed) & X_HELD != 0
    }

    /// Are writers waiting (the paper's X-bit; diagnostic)?
    pub fn x_waiting(&self) -> bool {
        self.state.load(Ordering::Relaxed) & X_WAIT_MASK != 0
    }
}

impl Drop for SharedGuard<'_> {
    fn drop(&mut self) {
        let prev = self.latch.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & S_MASK > 0, "S release without hold");
    }
}

impl Drop for ExclusiveGuard<'_> {
    fn drop(&mut self) {
        let prev = self.latch.state.fetch_and(!X_HELD, Ordering::Release);
        debug_assert!(prev & X_HELD != 0, "X release without hold");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn shared_is_reentrant_across_holders() {
        let l = Latch::new();
        let a = l.shared();
        let b = l.shared();
        assert_eq!(l.s_count(), 2);
        drop(a);
        assert_eq!(l.s_count(), 1);
        drop(b);
        assert_eq!(l.s_count(), 0);
    }

    #[test]
    fn exclusive_excludes_shared() {
        let l = Latch::new();
        let g = l.exclusive();
        assert!(l.try_shared().is_none());
        assert!(l.try_exclusive().is_none());
        drop(g);
        assert!(l.try_shared().is_some());
    }

    #[test]
    fn shared_blocks_exclusive() {
        let l = Latch::new();
        let g = l.shared();
        assert!(l.try_exclusive().is_none());
        drop(g);
        assert!(l.try_exclusive().is_some());
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        let l = Arc::new(Latch::new());
        let s = l.shared();
        let l2 = Arc::clone(&l);
        let writer = std::thread::spawn(move || {
            let _x = l2.exclusive();
        });
        // Wait for the writer to register.
        while !l.x_waiting() {
            std::hint::spin_loop();
        }
        // A new reader must not slip in front of the waiting writer.
        assert!(l.try_shared().is_none());
        drop(s);
        writer.join().unwrap();
        assert!(l.try_shared().is_some());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let l = Arc::new(Latch::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let _g = l.exclusive();
                    // non-atomic read-modify-write protected by the latch
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80_000);
    }

    #[test]
    fn readers_and_writers_interleave_correctly() {
        let l = Arc::new(Latch::new());
        let value = Arc::new(AtomicU64::new(0));
        let mut handles = vec![];
        for i in 0..4 {
            let l = Arc::clone(&l);
            let v = Arc::clone(&value);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    if i % 2 == 0 {
                        let _g = l.exclusive();
                        v.store(v.load(Ordering::Relaxed) + 2, Ordering::Relaxed);
                    } else {
                        let _g = l.shared();
                        // writer keeps the value even; readers must never
                        // observe an odd intermediate (there is none, but the
                        // read must be safe under the latch).
                        assert_eq!(v.load(Ordering::Relaxed) % 2, 0);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 2 * 2 * 2000);
    }
}
