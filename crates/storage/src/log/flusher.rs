//! The group-commit log flusher.
//!
//! A committer appends its group's commit record itself, in the visit that
//! pins the group (§4.2), and lets its locks go there: the record has an
//! LSN, and one ordered log makes every later commit's record follow it.
//! What is left is to make the log durable *through* that LSN before the
//! commit is acknowledged, and that is this module's one job. It keeps
//! `(lsn, ack)` waiters; a **flush window** is one drain of the log through
//! its tail — one `write`, and under [`Durability::Strict`] one `sync_data`
//! — which acknowledges every waiter below that tail. Durability is that of
//! a commit that forced its own record: an acknowledged commit has a synced
//! record. Only the syncs, and the seals, per commit drop to `1/N` for an
//! `N`-waiter window.
//!
//! **Who runs a window.** Windows never overlap, and there is one flush
//! routine whoever runs it. A blocking waiter ([`GroupFlusher::wait`], the
//! §4.2 force) that finds no window running, nobody queued and a zero
//! coalescing window runs its window itself, on its own thread: no thread
//! hop, no channel. Everyone else queues for the flusher thread: executor
//! waiters ([`GroupFlusher::when_durable`]) always, blocking waiters that
//! arrive while a window runs, and every waiter when a nonzero window asks
//! for coalescing. The thread runs a window as soon as none is running, so
//! followers still share a sync. Acknowledgement callbacks run only on the
//! flusher thread: a waiter may be running its own window with
//! transaction-table shards held (`prepare_group` forces under them).
//!
//! A window's drain is one sealed block of the log: restart sees it whole
//! or not at all. [`FLUSH_WINDOW_SYNC`](crate::failpoints::FLUSH_WINDOW_SYNC)
//! makes that crash-testable: a crash while a window is half-written must
//! leave every commit in it undone at recovery, and every previously
//! acknowledged one intact. A window that fails or panics stops the log,
//! and each waiter, the queue of a flusher thread that died included, is
//! answered with the stop.

use super::{LogManager, LogRecord};
use asset_common::sync::{may_block, Condvar, Mutex, MutexGuard};
use asset_common::{Durability, Lsn, Result};
use asset_obs::{bump, EventKind, Obs};
use std::borrow::Borrow;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A durability acknowledgement (executor path): invoked exactly once, on
/// the flusher thread, with the window that made the waited-for LSN
/// durable, or with the stop.
pub type FlushCallback = Box<dyn FnOnce(Result<u64>) + Send + 'static>;

#[derive(Default)]
struct State {
    /// Who waits for the log to be durable through an LSN: a blocked
    /// [`GroupFlusher::wait`] caller's channel, or an executor callback.
    waiters: Vec<(Lsn, FlushCallback)>,
    /// The number of the last window begun, which its `FlushWindow` event
    /// carries (`counters.flush_windows` counts the windows).
    windows: u64,
    /// A window is being flushed, by the thread or by a waiter. The thread
    /// runs none and no waiter runs its own while it is set.
    busy: bool,
    shutdown: bool,
}

struct Shared {
    log: Arc<LogManager>,
    durability: Durability,
    window: Duration,
    obs: Arc<Obs>,
    state: Mutex<State>,
    work_cv: Condvar,
}

/// The group-commit flusher: runs every flush window, one at a time — a
/// blocking waiter's own when nothing else is pending, its thread's for
/// everyone queued otherwise.
pub struct GroupFlusher {
    shared: Arc<Shared>,
    /// `None` if the thread could not be spawned: every blocking waiter
    /// then runs its own window.
    handle: Option<std::thread::JoinHandle<()>>,
}

impl GroupFlusher {
    /// Spawn the flusher thread. `window` is how long the thread lingers
    /// after the first waiter of a window to let concurrent committers
    /// coalesce; `Duration::ZERO` flushes as soon as the thread runs
    /// (whoever queued by then still shares one sync) and lets an
    /// uncontended blocking waiter run its own window. The window's
    /// failpoint consults the fault registry attached to `log`.
    pub fn spawn(
        log: Arc<LogManager>,
        durability: Durability,
        window: Duration,
        obs: Arc<Obs>,
    ) -> GroupFlusher {
        let shared = Arc::new(Shared {
            log,
            durability,
            window,
            obs,
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("asset-flush".into())
            .spawn(move || run(thread_shared))
            .ok();
        GroupFlusher { shared, handle }
    }

    /// Append a record (by reference or by value) and block until the log
    /// is durable through it. Returns the record's LSN, or the stop.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn submit_and_wait(&self, rec: impl Borrow<LogRecord>) -> Result<Lsn> {
        let lsn = self.shared.log.append(rec.borrow())?;
        self.wait(lsn).map(|_| lsn)
    }

    /// Block until the log is durable through `lsn`. Returns the window
    /// that made it so, or the stop of a window that failed. On an idle
    /// flusher the caller runs the window itself — a panic in it unwinds
    /// here — otherwise it waits for the thread's next one.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait(&self, lsn: Lsn) -> Result<u64> {
        may_block();
        let mut st = self.shared.state.lock();
        let idle = !st.busy && st.waiters.is_empty() && self.shared.window.is_zero();
        if idle || self.handle.is_none() {
            st.busy = true;
            st.windows += 1;
            let window = st.windows;
            drop(st);
            let _leading = Leading(&self.shared);
            bump(&self.shared.obs.counters.flush_windows_led);
            return run_window(&self.shared, window, |_| 1).map(|_| window);
        }
        let (tx, rx) = sync_channel(1);
        self.enqueue(st, lsn, Box::new(move |out| drop(tx.try_send(out))))?;
        // the flusher acknowledges every waiter it accepted, shutdown and
        // its own death included
        rx.recv()
            .unwrap_or_else(|_| Err(self.shared.log.stop(&"the log flusher died")))
    }

    /// Run `ack` exactly once, on the flusher thread, once the log is
    /// durable through `lsn` (or with the stop). The executor's
    /// `WaitFlush` arm parks on this.
    pub fn when_durable(&self, lsn: Lsn, ack: FlushCallback) -> Result<()> {
        if self.handle.is_none() {
            ack(self.wait(lsn));
            return Ok(());
        }
        let st = self.shared.state.lock();
        self.enqueue(st, lsn, ack)
    }

    fn enqueue(&self, mut st: MutexGuard<'_, State>, lsn: Lsn, ack: FlushCallback) -> Result<()> {
        if st.shutdown {
            return Err(std::io::Error::other("log flusher shut down").into());
        }
        st.waiters.push((lsn, ack));
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(())
    }
}

/// A waiter's window is over — returned or unwound: clear `busy`, and
/// wake the thread for whoever queued behind it.
struct Leading<'a>(&'a Shared);

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.busy = false;
        let queued = !st.waiters.is_empty();
        drop(st);
        if queued {
            self.0.work_cv.notify_one();
        }
    }
}

impl Drop for GroupFlusher {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The flusher thread is going (shut down, or unwinding from a window
/// that panicked): nothing more is queued, and the queue gets the stop.
struct Orphans<'a>(&'a Shared);

impl Drop for Orphans<'_> {
    fn drop(&mut self) {
        let waiters = {
            let mut st = self.0.state.lock();
            st.shutdown = true;
            std::mem::take(&mut st.waiters)
        };
        for (_, ack) in waiters {
            ack(Err(self.0.log.stop(&"the log flusher died")));
        }
    }
}

/// The flusher thread: once no window is running, run one for the queue
/// and acknowledge every waiter it covers.
fn run(shared: Arc<Shared>) {
    let _orphans = Orphans(&shared);
    loop {
        let window = {
            let mut st = shared.state.lock();
            while st.busy || (st.waiters.is_empty() && !st.shutdown) {
                shared.work_cv.wait(&mut st);
            }
            if st.waiters.is_empty() {
                return; // shutdown with the queue drained
            }
            if !shared.window.is_zero() && !st.shutdown {
                // Hold the window open so concurrent committers coalesce.
                let deadline = Instant::now() + shared.window;
                while !st.shutdown {
                    if shared.work_cv.wait_until(&mut st, deadline).timed_out() {
                        break;
                    }
                }
            }
            st.busy = true;
            st.windows += 1;
            st.windows
        };
        // acknowledged with no flusher lock held and no longer busy: a
        // callback re-enters the transaction layer
        let mut covered = Vec::new();
        let flushed = run_window(&shared, window, |through| {
            let mut st = shared.state.lock();
            st.busy = false;
            covered = st
                .waiters
                .extract_if(.., |(lsn, _)| *lsn < through)
                .collect();
            covered.len()
        });
        if flushed.is_err() {
            let mut st = shared.state.lock();
            st.busy = false;
            covered = std::mem::take(&mut st.waiters);
        }
        for (_, ack) in covered {
            ack(flushed
                .as_ref()
                .map(|_| window)
                .map_err(|e| shared.log.stop(e)));
        }
    }
}

/// One flush window, whoever runs it, as a system section: drain the log
/// through its tail, hand that tail to `covered`, which takes the waiters
/// below it and counts them, then count and trace the window. Returns the
/// tail, or the stop: every way a window fails stops the log.
fn run_window(shared: &Shared, window: u64, covered: impl FnOnce(Lsn) -> usize) -> Result<Lsn> {
    let _section = shared.log.enter()?;
    let t0 = shared.obs.tracing_enabled().then(Instant::now);
    bump(&shared.obs.counters.flush_windows);
    let through = shared.log.tail();
    let bytes = drain(shared).map_err(|e| shared.log.stop(&e))?;
    let waiters = covered(through);
    shared.obs.flush_batch_len.record(waiters as u64);
    if let Some(t0) = t0 {
        shared.obs.record(EventKind::FlushWindow {
            window,
            records: waiters as u32,
            // what the window's one write carried: its occupancy
            bytes: bytes as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
        });
    }
    Ok(through)
}

/// The window's force: one `write` hands everything appended so far to the
/// OS and, under [`Durability::Strict`], one `sync_data` makes it stable.
/// [`Durability::Buffered`] stops at the write — exactly the durability the
/// mode always had; in-memory needs neither. Returns the bytes the drain
/// wrote.
fn drain(shared: &Shared) -> Result<usize> {
    asset_faults::failpoint!(
        &shared.log.faults,
        crate::failpoints::FLUSH_WINDOW_SYNC,
        |act| {
            let site = crate::failpoints::FLUSH_WINDOW_SYNC;
            return match act {
                // the device lies: written, reported durable, never synced
                asset_faults::FaultAction::ElideSync => shared.log.drain(false),
                // a byte prefix of the window's block lands, unsealed, and the
                // process crashes: recovery sees none of the window's commits,
                // and none was acknowledged
                asset_faults::FaultAction::Torn { keep_per_mille } => {
                    shared.log.crash_torn(site, keep_per_mille)
                }
                act => Err(shared.log.faults.realize_plain(site, act).into()),
            };
        }
    );
    shared.log.drain(shared.durability == Durability::Strict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Tid;

    fn mem_flusher(window: Duration) -> (Arc<LogManager>, GroupFlusher) {
        let log = Arc::new(LogManager::in_memory());
        let f = GroupFlusher::spawn(
            Arc::clone(&log),
            Durability::InMemory,
            window,
            Obs::shared(),
        );
        (log, f)
    }

    fn commit(t: u64) -> LogRecord {
        LogRecord::Commit { tids: vec![Tid(t)] }
    }

    /// (windows, windows their committer ran)
    fn windows(f: &GroupFlusher) -> (u64, u64) {
        let c = f.shared.obs.snapshot().counters;
        (c.flush_windows, c.flush_windows_led)
    }

    #[test]
    fn submit_and_wait_appends_and_acks() {
        let (log, f) = mem_flusher(Duration::ZERO);
        let lsn = f.submit_and_wait(commit(1)).unwrap();
        assert_eq!(lsn, Lsn(0));
        assert_eq!(log.records_appended(), 1);
        let records = log.scan().unwrap();
        assert!(matches!(records[0].1, LogRecord::Commit { .. }));
    }

    /// On an idle flusher every blocking commit is its own window, run by
    /// its committer; a callback waiter is always the thread's.
    #[test]
    fn an_idle_flusher_lets_each_blocking_committer_run_its_window() {
        let (log, f) = mem_flusher(Duration::ZERO);
        let mut sent = Vec::new();
        for t in 0..100 {
            let (tail, rec) = (log.tail(), commit(t));
            assert_eq!(f.submit_and_wait(&rec).unwrap(), tail);
            sent.push((tail, rec));
        }
        assert_eq!(log.scan().unwrap(), sent);
        assert_eq!(windows(&f), (100, 100));
        let (tx, rx) = std::sync::mpsc::channel();
        let lsn = log.append(&commit(100)).unwrap();
        f.when_durable(lsn, Box::new(move |res| tx.send(res).unwrap()))
            .unwrap();
        assert_eq!(
            rx.recv().unwrap().unwrap(),
            101,
            "the window that carried it"
        );
        assert_eq!(windows(&f), (101, 100));
    }

    #[test]
    fn concurrent_commits_coalesce_into_few_windows() {
        let (log, f) = mem_flusher(Duration::from_millis(5));
        let f = Arc::new(f);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f.submit_and_wait(commit(i + 1)).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.records_appended(), 8);
        let (flushed, led) = windows(&f);
        assert!(
            flushed < 8,
            "8 commits in a 5ms window should share flushes, got {flushed} windows"
        );
        assert_eq!(led, 0, "a coalescing window is the thread's");
    }

    /// Blocking committers and callback waiters hammer one flusher:
    /// whoever runs a window, windows never overlap, every record gets the
    /// LSN it was logged at, and every acknowledgement arrives exactly once.
    #[test]
    fn leaders_and_followers_ack_every_record_once_at_its_own_lsn() {
        const THREADS: u64 = 4;
        const EACH: u64 = 150;
        let (log, f) = mem_flusher(Duration::ZERO);
        let f = Arc::new(f);
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..2 * THREADS)
            .map(|thread| {
                let (f, tx, log) = (Arc::clone(&f), tx.clone(), Arc::clone(&log));
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        let t = thread * EACH + i;
                        if thread < THREADS {
                            tx.send((t, f.submit_and_wait(commit(t)).unwrap())).unwrap();
                        } else {
                            let tx = tx.clone();
                            let lsn = log.append(&commit(t)).unwrap();
                            let ack = Box::new(move |res: Result<u64>| {
                                tx.send((t, res.map(|_| lsn).unwrap())).unwrap();
                            });
                            f.when_durable(lsn, ack).unwrap();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        let f = Arc::into_inner(f).expect("every submitter is done");
        // callback waiters do not wait: they queue faster than windows run
        assert!(
            windows(&f).0 < 2 * THREADS * EACH,
            "followers shared windows"
        );
        drop(f);
        let mut acked: Vec<(u64, Lsn)> = rx.iter().collect();
        acked.sort_unstable_by_key(|(t, _)| *t);
        assert_eq!(acked.len() as u64, 2 * THREADS * EACH, "one ack each");
        let logged: std::collections::HashMap<Lsn, LogRecord> =
            log.scan().unwrap().into_iter().collect();
        assert_eq!(logged.len(), acked.len());
        for (t, lsn) in acked {
            assert_eq!(logged.get(&lsn), Some(&commit(t)), "t{t} acked at {lsn:?}");
        }
    }

    /// A committer's window that crashes unwinds on the committer with the
    /// original `CrashPoint`, clears `busy` on the way out and stops the
    /// log; the follower that queued behind it gets the stop from the
    /// thread, which runs no window, rather than waiting forever.
    #[cfg(feature = "faults")]
    #[test]
    fn a_follower_queued_behind_a_crashed_leader_gets_an_error() {
        use crate::failpoints::FLUSH_WINDOW_SYNC;
        use asset_faults::{CrashPoint, FaultAction, FaultRegistry, Trigger};
        asset_faults::silence_crash_panics();
        let faults = Arc::new(FaultRegistry::new());
        let mut log = LogManager::in_memory();
        log.set_faults(Arc::clone(&faults));
        let f = Arc::new(GroupFlusher::spawn(
            Arc::new(log),
            Durability::InMemory,
            Duration::ZERO,
            Obs::shared(),
        ));
        // the leader, at its window's failpoint, waits for the follower
        let (at_tx, at_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(Some((at_tx, go_rx)));
        faults.on_hit(FLUSH_WINDOW_SYNC, move || {
            if let Some((at, go)) = gate.lock().unwrap().take() {
                at.send(()).unwrap();
                go.recv().unwrap();
            }
        });
        faults.arm(FLUSH_WINDOW_SYNC, Trigger::Once, FaultAction::Crash);
        let leader = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.submit_and_wait(commit(1)))
        };
        at_rx.recv().unwrap();
        let follower = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.submit_and_wait(commit(2)))
        };
        while f.shared.state.lock().waiters.is_empty() {
            std::thread::yield_now();
        }
        go_tx.send(()).unwrap();
        let crash = leader.join().unwrap_err();
        assert_eq!(
            crash.downcast_ref::<CrashPoint>().map(|c| c.0),
            Some(FLUSH_WINDOW_SYNC)
        );
        let refused = follower.join().expect("the follower does not crash");
        assert!(
            matches!(refused, Err(asset_common::AssetError::Stopped(_))),
            "{refused:?}"
        );
        assert!(!f.shared.state.lock().busy, "cleared on unwind");
        assert_eq!(windows(&f), (1, 1), "a stopped log runs no window");
    }

    /// A window acknowledges every waiter below the tail it drained
    /// through, those that queued while it ran included: a waiter on a
    /// record the running window carries needs no second window.
    #[cfg(feature = "faults")]
    #[test]
    fn a_window_acknowledges_the_waiters_it_covers_that_queued_while_it_ran() {
        use crate::failpoints::FLUSH_WINDOW_SYNC;
        let faults = Arc::new(asset_faults::FaultRegistry::new());
        let mut log = LogManager::in_memory();
        log.set_faults(Arc::clone(&faults));
        let log = Arc::new(log);
        let f = Arc::new(GroupFlusher::spawn(
            Arc::clone(&log),
            Durability::InMemory,
            Duration::ZERO,
            Obs::shared(),
        ));
        let (at_tx, at_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(Some((at_tx, go_rx)));
        faults.on_hit(FLUSH_WINDOW_SYNC, move || {
            if let Some((at, go)) = gate.lock().unwrap().take() {
                at.send(()).unwrap();
                go.recv().unwrap();
            }
        });
        let first = log.append(&commit(1)).unwrap();
        let second = log.append(&commit(2)).unwrap();
        let leader = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.wait(second).unwrap())
        };
        at_rx.recv().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        f.when_durable(first, Box::new(move |res| tx.send(res).unwrap()))
            .unwrap();
        go_tx.send(()).unwrap();
        assert_eq!(leader.join().unwrap(), 1);
        assert_eq!(rx.recv().unwrap().unwrap(), 2, "the thread's window");
        let obs = f.shared.obs.snapshot();
        assert_eq!(obs.counters.flush_windows, 2);
    }

    #[test]
    fn callback_ack_runs_with_its_window() {
        let (log, f) = mem_flusher(Duration::ZERO);
        let (tx, rx) = std::sync::mpsc::channel();
        let lsn = log.append(&commit(9)).unwrap();
        f.when_durable(lsn, Box::new(move |res| tx.send(res).unwrap()))
            .unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.unwrap(), 1);
    }

    /// A window whose waiters' records an earlier window already made
    /// durable drains nothing and syncs nothing.
    #[cfg(feature = "faults")]
    #[test]
    fn a_window_over_nothing_new_syncs_nothing() {
        use crate::failpoints::LOG_SYNC;
        use asset_faults::{FaultAction, FaultRegistry, Trigger};
        let dir = asset_faults::TempDir::new("flusher-idle-sync");
        let faults = Arc::new(FaultRegistry::new());
        // armed never to fire: it counts the syncs
        faults.arm(LOG_SYNC, Trigger::Nth(u64::MAX), FaultAction::Error);
        let mut log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        log.set_faults(Arc::clone(&faults));
        let f = GroupFlusher::spawn(
            Arc::new(log),
            Durability::Strict,
            Duration::ZERO,
            Obs::shared(),
        );
        let lsn = f.submit_and_wait(commit(1)).unwrap();
        assert_eq!(faults.hits(LOG_SYNC), 1);
        assert_eq!(f.wait(lsn).unwrap(), 2, "a window of its own");
        assert_eq!(faults.hits(LOG_SYNC), 1, "and no sync");
    }

    /// Regression: `FlushWindow.bytes` was `tail` after − `tail` before,
    /// which missed the unforced records the window's write carried (and
    /// counted whatever other threads appended meanwhile). It is the size
    /// of the block the window's drain sealed.
    #[test]
    fn a_window_reports_the_bytes_its_write_carried() {
        let dir = asset_faults::TempDir::new("flusher-occ");
        let obs = Obs::shared();
        obs.enable_tracing(64);
        let mut log = LogManager::open(&dir.join("wal.log"), Durability::Strict).unwrap();
        log.set_obs(Arc::clone(&obs));
        let log = Arc::new(log);
        let f = GroupFlusher::spawn(
            Arc::clone(&log),
            Durability::Strict,
            Duration::ZERO,
            Arc::clone(&obs),
        );
        // buffered before the window: the window's write carries it
        log.append(&LogRecord::Abort { tid: Tid(1) }).unwrap();
        f.submit_and_wait(commit(2)).unwrap();
        let occupancy: Vec<u64> = obs
            .trace()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FlushWindow { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(occupancy, [log.tail().0], "marker, both records, seal");
        drop(f);
        drop(log);
    }

    #[test]
    fn drop_drains_queued_records() {
        let (log, f) = mem_flusher(Duration::from_millis(50));
        let f = Arc::new(f);
        let h = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.submit_and_wait(commit(3)).unwrap())
        };
        h.join().unwrap();
        drop(f);
        assert_eq!(log.records_appended(), 1);
    }
}
