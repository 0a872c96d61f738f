//! Deterministic fault injection for the ASSET workspace.
//!
//! The §4 protocols of the paper (before/after-image logging, undo on
//! abort, group commit under one forced record) are only correct if the
//! commit point is atomic and durable under *arbitrary* failures. Happy-path
//! tests cannot establish that; this crate provides the machinery to crash
//! the system at every interesting instant and let restart recovery prove
//! the invariants.
//!
//! ## Model
//!
//! A **failpoint** is a named site in the storage or transaction layer
//! (e.g. `log.append.write`). A [`FaultRegistry`] maps names to armed
//! policies: a [`Trigger`] deciding *when* the point fires (always, once,
//! on the nth hit, or with a seeded probability — fully deterministic for a
//! given seed) and a [`FaultAction`] deciding *what* happens:
//!
//! * [`FaultAction::Error`] — the operation reports an injected I/O error;
//! * [`FaultAction::Torn`] — a prefix of the bytes reaches the file, then
//!   the process "crashes" (models a torn write);
//! * [`FaultAction::ElideSync`] — the `sync_data` call is skipped while the
//!   caller is told it succeeded (models a device that lies about
//!   durability);
//! * [`FaultAction::Crash`] — process-local crash: the registry enters the
//!   *crashed* state (every later durable write fails, so nothing after
//!   this instant reaches disk) and the site unwinds with a [`CrashPoint`]
//!   panic that the test harness catches;
//! * [`FaultAction::Panic`] — a plain panic at the site: a bug in system
//!   code, not a simulated death. The registry is not crashed; the
//!   database the site belongs to stops itself.
//!
//! The registry is **instance-scoped** — each `Config`/`Database` carries
//! its own `Arc<FaultRegistry>` — so parallel tests never interfere; there
//! is no process-global state.
//!
//! ## Cost
//!
//! Call sites are wrapped in the [`failpoint!`] / [`failpoint_sync!`]
//! macros, which expand to **nothing** (an empty block) unless the
//! consuming crate enables its `faults` feature: production hot paths carry
//! zero branches. With the feature on, an unarmed registry costs one
//! relaxed atomic load per site.

mod rng;

pub use rng::{cases, Rng};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What an armed failpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails with an injected I/O error; nothing is written.
    Error,
    /// A prefix of the buffer (`keep_per_mille`/1000 of its bytes) reaches
    /// the file, then the process crashes — a torn write. At sites that do
    /// not write a buffer this degrades to [`FaultAction::Crash`].
    Torn {
        /// How much of the buffer lands, in thousandths (500 = half).
        keep_per_mille: u16,
    },
    /// Skip the `sync_data` call but report success to the caller. At
    /// non-sync sites this degrades to [`FaultAction::Error`].
    ElideSync,
    /// Process-local crash: mark the registry crashed (all later durable
    /// writes fail) and unwind with a [`CrashPoint`] panic.
    Crash,
    /// A plain panic at the site, as a bug in system code would raise:
    /// nothing is written and the registry is not crashed.
    Panic,
}

/// When an armed failpoint fires, as a function of its evaluation count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every evaluation.
    Always,
    /// Fire on the first evaluation only.
    Once,
    /// Fire on the `n`th evaluation (1-based) only.
    Nth(u64),
    /// Fire each evaluation with probability `per_mille`/1000, drawn from a
    /// [`Rng`] stream seeded with `seed` — the same seed always yields the
    /// same firing script.
    Prob {
        /// Firing probability in thousandths.
        per_mille: u16,
        /// RNG seed; identical seeds give identical schedules.
        seed: u64,
    },
}

/// The panic payload of a [`FaultAction::Crash`] — the harness catches the
/// unwind and identifies it by downcast.
#[derive(Clone, Copy, Debug)]
pub struct CrashPoint(
    /// The failpoint that crashed.
    pub &'static str,
);

/// Build the injected I/O error reported by [`FaultAction::Error`] sites.
pub fn injected(name: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at failpoint `{name}`"))
}

struct Point {
    trigger: Trigger,
    action: FaultAction,
    hits: u64,
    fired: u64,
    rng: Rng,
}

/// A registry of named failpoints. One per `Config`/`Database`; cheap to
/// share via `Arc`. A default registry is fully disarmed.
#[derive(Default)]
pub struct FaultRegistry {
    /// Any point armed? One relaxed load gates the whole check.
    active: AtomicBool,
    /// Crashed state: every later [`check`](Self::check) reports
    /// [`FaultAction::Error`], so no durable write can happen between the
    /// crash instant and the harness-driven restart.
    crashed: AtomicBool,
    points: Mutex<HashMap<&'static str, Point>>,
    hooks: Mutex<HashMap<&'static str, Hook>>,
}

type Hook = Arc<dyn Fn() + Send + Sync>;

impl std::fmt::Debug for FaultRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRegistry")
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultRegistry {
    /// A disarmed registry.
    pub fn new() -> FaultRegistry {
        FaultRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, Point>> {
        self.points.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn hooks(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, Hook>> {
        self.hooks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm `name`: when evaluation satisfies `trigger`, the site performs
    /// `action`. Re-arming replaces the previous policy and resets the
    /// point's counters.
    pub fn arm(&self, name: &'static str, trigger: Trigger, action: FaultAction) {
        let seed = match trigger {
            Trigger::Prob { seed, .. } => seed,
            _ => 0,
        };
        self.lock().insert(
            name,
            Point {
                trigger,
                action,
                hits: 0,
                fired: 0,
                rng: Rng::new(seed, 0),
            },
        );
        self.active.store(true, Ordering::Release);
    }

    /// Run `hook` on every evaluation of `name`, on the evaluating thread
    /// and before the point's trigger is consulted. A test uses it to meet
    /// a thread that is *at* the site — a barrier or channel in the hook
    /// forces the interleaving, no sleep needed. Lasts until
    /// [`reset`](Self::reset).
    pub fn on_hit(&self, name: &'static str, hook: impl Fn() + Send + Sync + 'static) {
        self.hooks().insert(name, Arc::new(hook));
        self.active.store(true, Ordering::Release);
    }

    /// Disarm `name` (hit/fire counts are discarded with it).
    pub fn disarm(&self, name: &str) {
        let mut pts = self.lock();
        pts.remove(name);
        if pts.is_empty() && self.hooks().is_empty() {
            self.active.store(false, Ordering::Release);
        }
    }

    /// Disarm every point, drop every hook and clear the crashed state —
    /// the "restart the process" step of a crash-matrix scenario.
    pub fn reset(&self) {
        self.lock().clear();
        self.hooks().clear();
        self.active.store(false, Ordering::Release);
        self.crashed.store(false, Ordering::Release);
    }

    /// Evaluate the failpoint `name`. Returns the action to perform, or
    /// `None` to proceed normally. Once the registry is crashed, every
    /// evaluation returns [`FaultAction::Error`] so that no durable write
    /// can slip in after the simulated crash instant.
    pub fn check(&self, name: &'static str) -> Option<FaultAction> {
        if self.crashed.load(Ordering::Acquire) {
            return Some(FaultAction::Error);
        }
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        // cloned out, so that the hook may itself reach a failpoint
        let hook = self.hooks().get(name).cloned();
        if let Some(hook) = hook {
            hook();
        }
        let mut pts = self.lock();
        let p = pts.get_mut(name)?;
        p.hits += 1;
        let fire = match p.trigger {
            Trigger::Always => true,
            Trigger::Once => p.fired == 0,
            Trigger::Nth(n) => p.hits == n,
            Trigger::Prob { per_mille, .. } => p.rng.below(1000) < per_mille as u64,
        };
        if fire {
            p.fired += 1;
            Some(p.action)
        } else {
            None
        }
    }

    /// Enter the crashed state and unwind with a [`CrashPoint`] panic. Call
    /// only from a site whose [`check`](Self::check) returned
    /// [`FaultAction::Crash`] or [`FaultAction::Torn`].
    pub fn crash_now(&self, name: &'static str) -> ! {
        self.crashed.store(true, Ordering::Release);
        std::panic::panic_any(CrashPoint(name));
    }

    /// Has a [`FaultAction::Crash`]/[`FaultAction::Torn`] fired since the
    /// last [`reset`](Self::reset)?
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// How many times `name` has been evaluated since it was armed.
    pub fn hits(&self, name: &str) -> u64 {
        self.lock().get(name).map_or(0, |p| p.hits)
    }

    /// How many times `name` has fired since it was armed.
    pub fn fired(&self, name: &str) -> u64 {
        self.lock().get(name).map_or(0, |p| p.fired)
    }

    /// Total fires across all armed points since the last reset/arm.
    pub fn total_fired(&self) -> u64 {
        self.lock().values().map(|p| p.fired).sum()
    }

    /// Realize `action` at a site that writes no byte buffer and performs
    /// no sync: [`FaultAction::Error`] and [`FaultAction::ElideSync`]
    /// degrade to the injected error (returned for the caller to wrap);
    /// [`FaultAction::Crash`] and [`FaultAction::Torn`] crash;
    /// [`FaultAction::Panic`] panics.
    pub fn realize_plain(&self, name: &'static str, action: FaultAction) -> std::io::Error {
        match action {
            FaultAction::Error | FaultAction::ElideSync => injected(name),
            FaultAction::Crash | FaultAction::Torn { .. } => self.crash_now(name),
            FaultAction::Panic => panic_at(name),
        }
    }
}

/// The [`FaultAction::Panic`] action: an ordinary panic naming the site.
pub fn panic_at(name: &str) -> ! {
    panic!("{PANIC_PREFIX}`{name}`")
}

/// How the message of a [`FaultAction::Panic`] starts.
const PANIC_PREFIX: &str = "injected panic at failpoint ";

/// Run `f` on a thread named `what` and wait at most `limit` for it: the
/// one bounded wait of the test suites, for a call that must return —
/// with an error, if that is its outcome — rather than hang. Waits with
/// `recv_timeout`, never a sleep; a panic in `f` is re-raised here.
///
/// # Panics
///
/// When `f` has not returned within `limit`, naming `what`: the thread
/// is left behind, still blocked.
pub fn within<T: Send + 'static>(
    limit: std::time::Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let spawned = std::thread::Builder::new()
        .name(what.to_owned())
        .spawn(move || drop(tx.send(f())));
    let thread = spawned.unwrap_or_else(|e| panic!("{what}: no thread to run it on: {e}"));
    match rx.recv_timeout(limit) {
        Ok(out) => out,
        // `f` panicked: its thread is done, and its join hands the panic on
        Err(RecvTimeoutError::Disconnected) => match thread.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => panic!("{what}: returned nothing"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still blocked after {limit:?}"),
    }
}

/// Whether a panic payload is an injected fault — a [`CrashPoint`] unwind
/// or a [`FaultAction::Panic`] — rather than a bug the fault uncovered.
pub fn is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<CrashPoint>()
        || payload
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with(PANIC_PREFIX))
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for [`CrashPoint`] unwinds and
/// [`FaultAction::Panic`]s — intentional faults in a matrix run would
/// otherwise flood test output — while delegating every other panic to
/// the previous hook.
pub fn silence_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_injected(info.payload()) {
                previous(info);
            }
        }));
    });
}

/// Evaluate a failpoint and run `$body` with the fired [`FaultAction`]
/// bound to `$act`. Expands to an **empty block** unless the *consuming*
/// crate enables its `faults` feature — disabled builds carry no branch,
/// no registry field access, nothing.
///
/// `$body` may `return` from the enclosing function (the usual way to
/// realize [`FaultAction::Error`]).
#[macro_export]
macro_rules! failpoint {
    ($reg:expr, $name:expr, |$act:ident| $body:block) => {
        #[cfg(feature = "faults")]
        {
            if let ::core::option::Option::Some($act) = $crate::FaultRegistry::check($reg, $name) {
                $body
            }
        }
    };
}

/// Evaluate a failpoint guarding a `sync_data` call; yields `true` when the
/// sync should be **elided** (the armed action was
/// [`FaultAction::ElideSync`]). [`FaultAction::Error`] makes the enclosing
/// function return the injected error; crash actions crash. Yields `false`
/// — sync normally — when disarmed or when the consuming crate's `faults`
/// feature is off.
#[macro_export]
macro_rules! failpoint_sync {
    ($reg:expr, $name:expr) => {{
        #[cfg(feature = "faults")]
        let __elide = match $crate::FaultRegistry::check($reg, $name) {
            ::core::option::Option::Some($crate::FaultAction::ElideSync) => true,
            ::core::option::Option::Some($crate::FaultAction::Error) => {
                return ::core::result::Result::Err($crate::injected($name).into());
            }
            ::core::option::Option::Some($crate::FaultAction::Panic) => $crate::panic_at($name),
            ::core::option::Option::Some(_) => $crate::FaultRegistry::crash_now($reg, $name),
            ::core::option::Option::None => false,
        };
        #[cfg(not(feature = "faults"))]
        let __elide = false;
        __elide
    }};
}

/// A fresh, empty directory under the system's temp dir, named by `tag`,
/// the process and the clock, and removed with everything in it on drop:
/// an on-disk test's scratch space.
pub struct TempDir(pub std::path::PathBuf);

impl TempDir {
    /// Make the directory.
    ///
    /// # Panics
    ///
    /// When it cannot be made.
    pub fn new(tag: &str) -> TempDir {
        let since = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
        let nanos = since.map_or(0, |d| d.subsec_nanos());
        let name = format!("asset-{tag}-{}-{nanos}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("a temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TempDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: &str = "test.point";

    #[test]
    fn disarmed_registry_never_fires() {
        let r = FaultRegistry::new();
        assert_eq!(r.check(P), None);
        assert_eq!(r.hits(P), 0);
        assert!(!r.is_crashed());
    }

    #[test]
    fn hook_runs_at_each_evaluation_and_may_reenter() {
        let r = Arc::new(FaultRegistry::new());
        let inner = Arc::clone(&r);
        r.on_hit(P, move || {
            // a hook that itself evaluates another point must not deadlock
            assert_eq!(inner.check("other.point"), None);
        });
        r.arm(P, Trigger::Nth(2), FaultAction::Error);
        assert_eq!(r.check(P), None);
        assert_eq!(r.check(P), Some(FaultAction::Error));
        r.reset();
        assert_eq!(r.check(P), None);
    }

    #[test]
    fn once_fires_exactly_once() {
        let r = FaultRegistry::new();
        r.arm(P, Trigger::Once, FaultAction::Error);
        assert_eq!(r.check(P), Some(FaultAction::Error));
        assert_eq!(r.check(P), None);
        assert_eq!(r.check(P), None);
        assert_eq!(r.hits(P), 3);
        assert_eq!(r.fired(P), 1);
    }

    #[test]
    fn nth_fires_on_exactly_the_nth_hit() {
        let r = FaultRegistry::new();
        r.arm(P, Trigger::Nth(3), FaultAction::Crash);
        assert_eq!(r.check(P), None);
        assert_eq!(r.check(P), None);
        assert_eq!(r.check(P), Some(FaultAction::Crash));
        assert_eq!(r.check(P), None);
    }

    #[test]
    fn always_fires_every_time() {
        let r = FaultRegistry::new();
        r.arm(P, Trigger::Always, FaultAction::ElideSync);
        for _ in 0..5 {
            assert_eq!(r.check(P), Some(FaultAction::ElideSync));
        }
        assert_eq!(r.fired(P), 5);
    }

    #[test]
    fn prob_is_deterministic_for_a_seed() {
        let script = |seed: u64| -> Vec<bool> {
            let r = FaultRegistry::new();
            r.arm(
                P,
                Trigger::Prob {
                    per_mille: 300,
                    seed,
                },
                FaultAction::Error,
            );
            (0..64).map(|_| r.check(P).is_some()).collect()
        };
        assert_eq!(script(42), script(42), "same seed, same schedule");
        assert_ne!(script(42), script(43), "different seed, different schedule");
        let fires = script(42).iter().filter(|b| **b).count();
        assert!((5..35).contains(&fires), "~30% of 64, got {fires}");
    }

    #[test]
    fn crashed_registry_fails_every_site() {
        let r = FaultRegistry::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.crash_now(P);
        }));
        let payload = unwound.expect_err("crash_now unwinds");
        assert_eq!(payload.downcast_ref::<CrashPoint>().unwrap().0, P);
        assert!(r.is_crashed());
        assert_eq!(r.check("some.other.point"), Some(FaultAction::Error));
        r.reset();
        assert!(!r.is_crashed());
        assert_eq!(r.check("some.other.point"), None);
    }

    #[test]
    fn disarm_and_reset_clear_state() {
        let r = FaultRegistry::new();
        r.arm(P, Trigger::Always, FaultAction::Error);
        r.disarm(P);
        assert_eq!(r.check(P), None);
        r.arm(P, Trigger::Always, FaultAction::Error);
        r.reset();
        assert_eq!(r.check(P), None);
        assert_eq!(r.total_fired(), 0);
    }

    #[test]
    fn rearming_resets_counters() {
        let r = FaultRegistry::new();
        r.arm(P, Trigger::Once, FaultAction::Error);
        assert!(r.check(P).is_some());
        r.arm(P, Trigger::Once, FaultAction::Crash);
        assert_eq!(r.hits(P), 0);
        assert_eq!(r.check(P), Some(FaultAction::Crash));
    }

    #[test]
    fn within_returns_what_f_returns_and_names_a_hang() {
        use std::time::Duration;
        assert_eq!(within(Duration::from_secs(5), "quick", || 7), 7);
        let (_hold, rx) = std::sync::mpsc::channel::<()>();
        let hang = std::panic::catch_unwind(|| {
            within(Duration::from_millis(20), "the hang", move || rx.recv())
        });
        let msg = hang.expect_err("expired").downcast::<String>().unwrap();
        assert!(msg.contains("the hang"), "{msg}");
    }

    #[test]
    fn an_injected_panic_names_the_point() {
        let r = FaultRegistry::new();
        r.arm(P, Trigger::Once, FaultAction::Panic);
        let act = r.check(P).unwrap();
        let panic = std::panic::catch_unwind(|| r.realize_plain(P, act)).unwrap_err();
        assert!(panic.downcast::<String>().unwrap().contains(P));
        assert!(!r.is_crashed(), "a panic is not a crash");
    }

    #[test]
    fn injected_error_names_the_point() {
        let e = injected("log.append.write");
        assert!(e.to_string().contains("log.append.write"));
    }
}
