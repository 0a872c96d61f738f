//! The group-commit log flusher.
//!
//! The paper's GC construction (§3.1.2) already expresses "many
//! transactions, one forced log record"; this module generalizes it across
//! *unrelated* transactions: every commit record submitted while a flush
//! window is running leaves in the **next** window, which makes all of them
//! durable with a single write+sync, and each committer is acknowledged only
//! after its window's sync completes. Durability semantics are therefore
//! unchanged — a commit acknowledged to the application has a synced record
//! (under [`Durability::Strict`]), exactly as when each commit forced its
//! own append — only the number of `sync_data` calls per acknowledged
//! commit drops from one to `1/N` for an `N`-record window.
//!
//! **Who runs a window.** Windows never overlap, and there is one flush
//! routine whoever runs it. A blocking committer
//! ([`GroupFlusher::submit_and_wait`], the §4.2 force) that finds no window
//! running, nobody queued and a zero coalescing window runs its window
//! itself, on its own thread: the window carries its record alone, and the
//! LSN comes straight back — no thread hop, no channel, no copy of the
//! record. Everyone else queues for the flusher thread: executor
//! submissions ([`GroupFlusher::submit_with_callback`]) always, blocking
//! committers that arrive while a window runs, and every submission when a
//! nonzero window asks for coalescing. The thread takes the whole queue as
//! one window as soon as none is running, so followers still share a sync.
//! Acknowledgement callbacks run only on the flusher thread: they re-enter
//! the transaction layer, and a committer may be running its own window
//! with transaction-table shards held (`prepare_group` forces under them).
//!
//! A window's records leave in one drain, so they are one sealed block of
//! the log (together with whatever unforced records the workers buffered
//! before it): restart sees the window whole or not at all. Two failpoints
//! make that crash-testable
//! ([`FLUSH_WINDOW_ASSEMBLE`](crate::failpoints::FLUSH_WINDOW_ASSEMBLE),
//! [`FLUSH_WINDOW_SYNC`](crate::failpoints::FLUSH_WINDOW_SYNC)): a crash
//! while a window is half-written must leave every commit in it undone at
//! recovery, and every previously acknowledged one intact. A window that
//! fails or panics stops the log, and each of its records, and the queue
//! of a flusher thread that died, is answered with the stop.

use super::{LogManager, LogRecord};
use asset_common::sync::{may_block, Condvar, Mutex, MutexGuard};
use asset_common::{Durability, Lsn, Result};
use asset_obs::{bump, EventKind, Obs};
use std::borrow::Borrow;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A commit acknowledgement callback (executor path): invoked exactly once,
/// on the flusher thread, after the record's window succeeded or failed.
pub type FlushCallback = Box<dyn FnOnce(Result<Lsn>) + Send + 'static>;

struct Pending {
    rec: LogRecord,
    /// Invoked exactly once, on the flusher thread, with the outcome of the
    /// record's window: a blocked [`GroupFlusher::submit_and_wait`] caller's
    /// channel, or the executor's [`FlushCallback`].
    ack: FlushCallback,
}

#[derive(Default)]
struct State {
    queue: Vec<Pending>,
    /// The number of the last window begun, which its `FlushWindow` event
    /// carries (`counters.flush_windows` counts the windows).
    windows: u64,
    /// A window is being flushed, by the thread or by a committer. The
    /// thread takes no batch and no committer runs its own while it is set.
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
/// blocking committer's own when nothing else is pending, its thread's
/// batch of everything queued otherwise.
pub struct GroupFlusher {
    shared: Arc<Shared>,
    /// `None` if the thread could not be spawned: every blocking submitter
    /// then runs its own window.
    handle: Option<std::thread::JoinHandle<()>>,
}

impl GroupFlusher {
    /// Spawn the flusher thread. `window` is how long the thread lingers
    /// after the first record of a window to let concurrent committers
    /// coalesce; `Duration::ZERO` flushes as soon as the thread runs
    /// (whatever queued by then still shares one sync) and lets an
    /// uncontended blocking committer run its own window. The window's
    /// failpoints consult the fault registry attached to `log`.
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

    /// Submit a commit record (by reference or by value) and block until
    /// its flush window is durable. Returns the record's LSN, or the stop
    /// of a window that failed. On an idle flusher the caller runs the
    /// window itself — a panic in it unwinds here — otherwise its record
    /// rides the thread's next one.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn submit_and_wait(&self, rec: impl Borrow<LogRecord>) -> Result<Lsn> {
        may_block();
        let rec = rec.borrow();
        let mut st = self.shared.state.lock();
        let idle = !st.busy && st.queue.is_empty() && self.shared.window.is_zero();
        if idle || self.handle.is_none() {
            st.busy = true;
            st.windows += 1;
            let window = st.windows;
            drop(st);
            return self.lead(rec, window);
        }
        let (tx, rx) = sync_channel(1);
        self.enqueue(st, rec.clone(), Box::new(move |out| drop(tx.try_send(out))))?;
        // the flusher acknowledges everything it accepted, shutdown and
        // its own death included
        rx.recv()
            .unwrap_or_else(|_| Err(self.shared.log.stop(&"the log flusher died")))
    }

    /// Submit a commit record with an asynchronous acknowledgement: `ack`
    /// runs exactly once, on the flusher thread, after the record's window
    /// succeeded or failed (a failed window acknowledges with the stop).
    /// The executor's `WaitFlush` arm parks on this.
    pub fn submit_with_callback(&self, rec: LogRecord, ack: FlushCallback) -> Result<()> {
        if self.handle.is_none() {
            ack(self.submit_and_wait(rec));
            return Ok(());
        }
        let st = self.shared.state.lock();
        self.enqueue(st, rec, ack)
    }

    fn enqueue(
        &self,
        mut st: MutexGuard<'_, State>,
        rec: LogRecord,
        ack: FlushCallback,
    ) -> Result<()> {
        if st.shutdown {
            return Err(std::io::Error::other("log flusher shut down").into());
        }
        st.queue.push(Pending { rec, ack });
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Run window `window`, marked busy by the caller, over `rec` alone on
    /// this thread.
    fn lead(&self, rec: &LogRecord, window: u64) -> Result<Lsn> {
        let _leading = Leading(&self.shared);
        bump(&self.shared.obs.counters.flush_windows_led);
        run_window(&self.shared, window, std::iter::once(rec), |_| ())
    }
}

/// A committer's window is over — returned or unwound: clear `busy`, and
/// wake the thread for whoever queued behind it.
struct Leading<'a>(&'a Shared);

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.busy = false;
        let queued = !st.queue.is_empty();
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
        let queue = {
            let mut st = self.0.state.lock();
            st.shutdown = true;
            std::mem::take(&mut st.queue)
        };
        for p in queue {
            (p.ack)(Err(self.0.log.stop(&"the log flusher died")));
        }
    }
}

/// The flusher thread: once no window is running, collect the queue as a
/// window, flush it, acknowledge everyone.
fn run(shared: Arc<Shared>) {
    let _orphans = Orphans(&shared);
    loop {
        let (batch, window) = {
            let mut st = shared.state.lock();
            while st.busy || (st.queue.is_empty() && !st.shutdown) {
                shared.work_cv.wait(&mut st);
            }
            if st.queue.is_empty() {
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
            (std::mem::take(&mut st.queue), st.windows)
        };
        flush_window(&shared, batch, window);
    }
}

/// The thread's window: flush the batch, then acknowledge each record —
/// with no flusher lock held and no longer busy, since a callback
/// re-enters the transaction layer.
fn flush_window(shared: &Shared, batch: Vec<Pending>, window: u64) {
    let mut lsns = Vec::with_capacity(batch.len());
    let flushed = run_window(shared, window, batch.iter().map(|p| &p.rec), |lsn| {
        lsns.push(lsn);
    });
    shared.state.lock().busy = false;
    for (idx, p) in batch.into_iter().enumerate() {
        let out = match &flushed {
            Ok(_) => Ok(lsns[idx]),
            Err(e) => Err(shared.log.stop(e)),
        };
        (p.ack)(out);
    }
}

/// One flush window, whoever runs it, as a system section: flush `recs`,
/// count the window and trace it. Returns the first record's LSN (each one's
/// goes to `each`), or the stop: every way a window fails stops the log.
fn run_window<'a>(
    shared: &Shared,
    window: u64,
    recs: impl Iterator<Item = &'a LogRecord> + Clone,
    each: impl FnMut(Lsn),
) -> Result<Lsn> {
    let _section = shared.log.enter()?;
    let t0 = shared.obs.tracing_enabled().then(Instant::now);
    let records = recs.clone().count();
    shared.obs.flush_batch_len.record(records as u64);
    bump(&shared.obs.counters.flush_windows);
    let flushed = flush_batch(shared, recs.clone(), each).map_err(|e| shared.log.stop(&e));
    if let (Some(t0), Ok((_, bytes))) = (t0, &flushed) {
        shared.obs.record(EventKind::FlushWindow {
            window,
            records: records as u32,
            // what the window's one write carried: its occupancy
            bytes: *bytes as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
        });
        for rec in recs {
            if let LogRecord::Commit { tids } = rec {
                for tid in tids {
                    shared
                        .obs
                        .record(EventKind::CommitFlushed { tid: *tid, window });
                }
            }
        }
    }
    flushed.map(|(lsn, _)| lsn)
}

/// Append every record of the window in one critical section, then force
/// once: one `write` hands the window (and whatever unforced records the
/// workers buffered before it) to the OS, and under [`Durability::Strict`]
/// one `sync_data` makes it stable. [`Durability::Buffered`] stops at the
/// write — exactly the durability the mode always had; in-memory needs
/// neither. Returns the first record's LSN and the bytes the drain wrote.
fn flush_batch<'a>(
    shared: &Shared,
    recs: impl Iterator<Item = &'a LogRecord> + Clone,
    each: impl FnMut(Lsn),
) -> Result<(Lsn, usize)> {
    asset_faults::failpoint!(
        &shared.log.faults,
        crate::failpoints::FLUSH_WINDOW_ASSEMBLE,
        |act| {
            if let asset_faults::FaultAction::Torn { keep_per_mille } = act {
                // A torn window: a byte prefix of its block lands, then the
                // process crashes. No seal follows it, so recovery sees
                // none of the window's commits — and none was acknowledged.
                let _ = shared.log.append_all(recs.clone(), |_| ());
                shared
                    .log
                    .crash_torn(crate::failpoints::FLUSH_WINDOW_ASSEMBLE, keep_per_mille);
            }
            return Err(shared
                .log
                .faults
                .realize_plain(crate::failpoints::FLUSH_WINDOW_ASSEMBLE, act)
                .into());
        }
    );
    let first = shared.log.append_all(recs, each)?;
    let elide =
        asset_faults::failpoint_sync!(&shared.log.faults, crate::failpoints::FLUSH_WINDOW_SYNC);
    let bytes = shared
        .log
        .drain(!elide && shared.durability == Durability::Strict)?;
    Ok((first, bytes))
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
    /// its committer; a callback submission is always the thread's.
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
        f.submit_with_callback(commit(100), Box::new(move |res| tx.send(res).unwrap()))
            .unwrap();
        rx.recv().unwrap().unwrap();
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

    /// Blocking committers and callback submitters hammer one flusher:
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
                let (f, tx) = (Arc::clone(&f), tx.clone());
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        let t = thread * EACH + i;
                        if thread < THREADS {
                            tx.send((t, f.submit_and_wait(commit(t)).unwrap())).unwrap();
                        } else {
                            let tx = tx.clone();
                            let ack = Box::new(move |res: Result<Lsn>| {
                                tx.send((t, res.unwrap())).unwrap();
                            });
                            f.submit_with_callback(commit(t), ack).unwrap();
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
        // callback submitters do not wait: they queue faster than windows run
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
    /// thread, whose window writes nothing, rather than waiting forever.
    #[cfg(feature = "faults")]
    #[test]
    fn a_follower_queued_behind_a_crashed_leader_gets_an_error() {
        use crate::failpoints::FLUSH_WINDOW_ASSEMBLE;
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
        faults.on_hit(FLUSH_WINDOW_ASSEMBLE, move || {
            if let Some((at, go)) = gate.lock().unwrap().take() {
                at.send(()).unwrap();
                go.recv().unwrap();
            }
        });
        faults.arm(FLUSH_WINDOW_ASSEMBLE, Trigger::Once, FaultAction::Crash);
        let leader = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.submit_and_wait(commit(1)))
        };
        at_rx.recv().unwrap();
        let follower = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.submit_and_wait(commit(2)))
        };
        while f.shared.state.lock().queue.is_empty() {
            std::thread::yield_now();
        }
        go_tx.send(()).unwrap();
        let crash = leader.join().unwrap_err();
        assert_eq!(
            crash.downcast_ref::<CrashPoint>().map(|c| c.0),
            Some(FLUSH_WINDOW_ASSEMBLE)
        );
        let refused = follower.join().expect("the follower does not crash");
        assert!(
            matches!(refused, Err(asset_common::AssetError::Stopped(_))),
            "{refused:?}"
        );
        assert!(!f.shared.state.lock().busy, "cleared on unwind");
        assert_eq!(windows(&f), (1, 1), "a stopped log runs no window");
        assert_eq!(f.shared.log.records_appended(), 0);
    }

    #[test]
    fn callback_ack_runs_with_the_lsn() {
        let (_log, f) = mem_flusher(Duration::ZERO);
        let (tx, rx) = std::sync::mpsc::channel();
        f.submit_with_callback(
            commit(9),
            Box::new(move |res| {
                tx.send(res.map(|l| l.0)).unwrap();
            }),
        )
        .unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.unwrap(), 0);
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
