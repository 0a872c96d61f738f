//! The group-commit log flusher.
//!
//! The paper's GC construction (§3.1.2) already expresses "many
//! transactions, one forced log record"; this module generalizes it across
//! *unrelated* transactions: every commit record submitted while a flush
//! window is open is appended by one dedicated thread and made durable by a
//! **single** write+sync, and each committer is acknowledged only after the
//! window's sync completes. Durability semantics are therefore unchanged —
//! a commit acknowledged to the application has a synced record (under
//! [`Durability::Strict`]), exactly as when each commit forced its own
//! append — only the number of `sync_data` calls per acknowledged commit
//! drops from one to `1/N` for an `N`-record window.
//!
//! A window's records leave in one drain, so they are one sealed block of
//! the log (together with whatever unforced records the workers buffered
//! before it): restart sees the window whole or not at all. Two failpoints
//! make that crash-testable
//! ([`FLUSH_WINDOW_ASSEMBLE`](crate::failpoints::FLUSH_WINDOW_ASSEMBLE),
//! [`FLUSH_WINDOW_SYNC`](crate::failpoints::FLUSH_WINDOW_SYNC)): a crash
//! while a window is half-written must leave every commit in it undone at
//! recovery, and every previously acknowledged one intact.
//! A [`asset_faults::CrashPoint`] unwind on the flusher thread is re-raised
//! on each submitting thread, so crash-matrix harnesses observe exactly the
//! panic they would have seen from a direct forced append.

use super::{LogManager, LogRecord};
use asset_common::sync::{Condvar, Mutex};
use asset_common::{Durability, Lsn, Result};
use asset_obs::{bump, EventKind, Obs};
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
    ack: Box<dyn FnOnce(Outcome) + Send>,
}

enum Outcome {
    Flushed(Lsn),
    Failed(String),
    /// The window crashed at a failpoint; re-raise the [`CrashPoint`]
    /// unwind (by site name) on the submitting thread.
    Crashed(&'static str),
}

#[derive(Default)]
struct State {
    queue: Vec<Pending>,
    windows: u64,
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

/// The dedicated log-flusher: owns the only thread that appends commit
/// records, batching everything submitted within one flush window into a
/// single write+sync.
pub struct GroupFlusher {
    shared: Arc<Shared>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl GroupFlusher {
    /// Spawn the flusher thread. `window` is how long the thread lingers
    /// after the first record of a window to let concurrent committers
    /// coalesce; `Duration::ZERO` flushes as soon as the thread runs
    /// (whatever queued by then still shares one sync). The window's
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
        GroupFlusher {
            shared,
            handle: Mutex::new(handle),
        }
    }

    /// Submit a commit record and block until its flush window is durable.
    /// Returns the record's LSN; a window that crashed at a failpoint
    /// re-raises the [`asset_faults::CrashPoint`] unwind here, on the
    /// submitting thread, mirroring a direct forced append.
    pub fn submit_and_wait(&self, rec: LogRecord) -> Result<Lsn> {
        // Degraded mode: if the flusher thread could not be spawned, fall
        // back to the pre-flusher forced append on the caller thread.
        if self.handle.lock().is_none() {
            return self.shared.log.append_forced(&rec);
        }
        let (tx, rx) = sync_channel(1);
        self.enqueue(rec, Box::new(move |out| drop(tx.try_send(out))))?;
        // the flusher acknowledges everything it accepted, shutdown included
        rx.recv()
            .map_or_else(|gone| Err(std::io::Error::other(gone).into()), realize)
    }

    /// Submit a commit record with an asynchronous acknowledgement: `ack`
    /// runs exactly once, on the flusher thread, after the record's window
    /// succeeded or failed (a crashed window acknowledges with an error).
    /// The executor's `WaitFlush` arm parks on this.
    pub fn submit_with_callback(&self, rec: LogRecord, ack: FlushCallback) -> Result<()> {
        if self.handle.lock().is_none() {
            ack(self.shared.log.append_forced(&rec));
            return Ok(());
        }
        self.enqueue(rec, Box::new(move |out| ack(realize_nonpanicking(out))))
    }

    fn enqueue(&self, rec: LogRecord, ack: Box<dyn FnOnce(Outcome) + Send>) -> Result<()> {
        let mut st = self.shared.state.lock();
        if st.shutdown {
            return Err(std::io::Error::other("log flusher shut down").into());
        }
        st.queue.push(Pending { rec, ack });
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Flush windows made durable so far (diagnostics).
    pub fn windows_flushed(&self) -> u64 {
        self.shared.state.lock().windows
    }
}

impl Drop for GroupFlusher {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handle = self.handle.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// Turn a window outcome into the submitting caller's result — crashed
/// windows re-unwind with the original site's [`asset_faults::CrashPoint`].
fn realize(out: Outcome) -> Result<Lsn> {
    if let Outcome::Crashed(site) = out {
        std::panic::panic_any(asset_faults::CrashPoint(site));
    }
    realize_nonpanicking(out)
}

/// The flusher thread: collect a window, flush it, acknowledge everyone.
fn run(shared: Arc<Shared>) {
    loop {
        let (batch, window) = {
            let mut st = shared.state.lock();
            while st.queue.is_empty() && !st.shutdown {
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
            st.windows += 1;
            let window = st.windows;
            (std::mem::take(&mut st.queue), window)
        };
        flush_window(&shared, batch, window);
    }
}

fn flush_window(shared: &Shared, batch: Vec<Pending>, window: u64) {
    let t0 = shared.obs.tracing_enabled().then(Instant::now);
    let flushed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| flush_batch(shared, &batch)));
    shared.obs.flush_batch_len.record(batch.len() as u64);
    bump(&shared.obs.counters.flush_windows);
    if let (Some(t0), Ok(Ok((_, bytes)))) = (t0, &flushed) {
        shared.obs.record(EventKind::FlushWindow {
            window,
            records: batch.len() as u32,
            // what the window's one write carried: its occupancy
            bytes: *bytes as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
        });
    }
    // Acknowledge, with no flusher lock held: a callback re-enters the
    // transaction layer.
    for (idx, p) in batch.into_iter().enumerate() {
        let out = match &flushed {
            Ok(Ok((lsns, _))) => Outcome::Flushed(lsns[idx]),
            Ok(Err(e)) => Outcome::Failed(e.to_string()),
            Err(payload) => match payload.downcast_ref::<asset_faults::CrashPoint>() {
                Some(cp) => Outcome::Crashed(cp.0),
                None => Outcome::Failed("log flusher panicked".into()),
            },
        };
        if t0.is_some() {
            if let (Outcome::Flushed(_), LogRecord::Commit { tids }) = (&out, &p.rec) {
                for tid in tids {
                    shared
                        .obs
                        .record(EventKind::CommitFlushed { tid: *tid, window });
                }
            }
        }
        (p.ack)(out);
    }
}

/// [`realize`] for the callback path: a crashed window becomes an error
/// (the unwind already happened on the flusher thread and was recorded in
/// the fault registry; the executor resolves the ambiguity through abort).
fn realize_nonpanicking(out: Outcome) -> Result<Lsn> {
    match out {
        Outcome::Flushed(lsn) => Ok(lsn),
        Outcome::Failed(msg) => Err(std::io::Error::other(msg).into()),
        Outcome::Crashed(site) => {
            Err(std::io::Error::other(format!("crashed at failpoint `{site}`")).into())
        }
    }
}

/// Append every record of the window in one critical section, then force
/// once: one `write` hands the window (and whatever unforced records the
/// workers buffered before it) to the OS, and under [`Durability::Strict`]
/// one `sync_data` makes it stable. [`Durability::Buffered`] stops at the
/// write — exactly the durability the mode always had; in-memory needs
/// neither. Returns the records' LSNs and the bytes the drain wrote.
fn flush_batch(shared: &Shared, batch: &[Pending]) -> Result<(Vec<Lsn>, usize)> {
    asset_faults::failpoint!(
        shared.log.faults(),
        crate::failpoints::FLUSH_WINDOW_ASSEMBLE,
        |act| {
            if let asset_faults::FaultAction::Torn { keep_per_mille } = act {
                // A torn window: a byte prefix of its block lands, then the
                // process crashes. No seal follows it, so recovery sees
                // none of the window's commits — and none was acknowledged.
                let _ = shared.log.append_all(batch.iter().map(|p| &p.rec));
                shared
                    .log
                    .crash_torn(crate::failpoints::FLUSH_WINDOW_ASSEMBLE, keep_per_mille);
            }
            return Err(shared
                .log
                .faults()
                .realize_plain(crate::failpoints::FLUSH_WINDOW_ASSEMBLE, act)
                .into());
        }
    );
    let lsns = shared.log.append_all(batch.iter().map(|p| &p.rec))?;
    let elide =
        asset_faults::failpoint_sync!(shared.log.faults(), crate::failpoints::FLUSH_WINDOW_SYNC);
    let bytes = shared
        .log
        .drain(!elide && shared.durability == Durability::Strict)?;
    Ok((lsns, bytes))
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

    #[test]
    fn submit_and_wait_appends_and_acks() {
        let (log, f) = mem_flusher(Duration::ZERO);
        let lsn = f
            .submit_and_wait(LogRecord::Commit { tids: vec![Tid(1)] })
            .unwrap();
        assert_eq!(lsn, Lsn(0));
        assert_eq!(log.records_appended(), 1);
        let records = log.scan().unwrap();
        assert!(matches!(records[0].1, LogRecord::Commit { .. }));
    }

    #[test]
    fn concurrent_commits_coalesce_into_few_windows() {
        let (log, f) = mem_flusher(Duration::from_millis(5));
        let f = Arc::new(f);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    f.submit_and_wait(LogRecord::Commit {
                        tids: vec![Tid(i + 1)],
                    })
                    .unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.records_appended(), 8);
        assert!(
            f.windows_flushed() < 8,
            "8 commits in a 5ms window should share flushes, got {} windows",
            f.windows_flushed()
        );
    }

    #[test]
    fn callback_ack_runs_with_the_lsn() {
        let (_log, f) = mem_flusher(Duration::ZERO);
        let (tx, rx) = std::sync::mpsc::channel();
        f.submit_with_callback(
            LogRecord::Commit { tids: vec![Tid(9)] },
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
        let dir = std::env::temp_dir().join(format!("asset-flusher-occ-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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
        f.submit_and_wait(LogRecord::Commit { tids: vec![Tid(2)] })
            .unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_drains_queued_records() {
        let (log, f) = mem_flusher(Duration::from_millis(50));
        let f = Arc::new(f);
        let h = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                f.submit_and_wait(LogRecord::Commit { tids: vec![Tid(3)] })
                    .unwrap()
            })
        };
        h.join().unwrap();
        drop(f);
        assert_eq!(log.records_appended(), 1);
    }
}
