//! System configuration.

use std::path::PathBuf;
use std::time::Duration;

/// How strictly the log is forced to stable storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Durability {
    /// `fsync` on every commit record (the paper's implied behaviour).
    Strict,
    /// Buffered writes, flushed by the OS; crash loses the tail. Useful for
    /// benchmarks that measure everything but the disk.
    Buffered,
    /// Keep the log purely in memory; restart recovery works only within
    /// the process (used by tests that exercise the recovery algorithms
    /// without touching a filesystem).
    InMemory,
}

/// Configuration for a [`Database`](https://docs.rs/asset-core) instance.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum number of live (not yet ended) transactions. `initiate`
    /// fails with `ResourceExhausted` beyond this — per §4.2 of the paper.
    pub max_transactions: usize,
    /// How long a lock request waits before failing with `LockTimeout`,
    /// counted from its first block. `None` waits forever (deadlock
    /// detection still applies).
    pub lock_wait_timeout: Option<Duration>,
    /// Directory for the store image and log; `None` selects fully in-memory
    /// operation (implies `Durability::InMemory`).
    pub data_dir: Option<PathBuf>,
    /// Log durability mode.
    pub durability: Durability,
    /// Appended log frames accumulate in a user-space buffer — under every
    /// file durability — and are written to the OS only once this many
    /// bytes are pending (or on an explicit/commit-path flush): one
    /// syscall per watermark instead of one per append. A watermark write
    /// does not sync; buffered bytes are lost with a killed process, and
    /// none of them was acknowledged.
    pub flush_watermark: usize,
    /// Number of executor worker threads driving state-machine
    /// transactions (`Database::submit`). `0` means auto: one worker per
    /// available core, clamped to [2, 64].
    pub exec_workers: usize,
    /// How long the group-commit log flusher waits after the first commit
    /// record of a window before issuing the window's single write+fsync,
    /// letting concurrent committers coalesce. `Duration::ZERO` (the
    /// default) flushes as soon as the flusher thread runs — whatever has
    /// queued by then still shares one sync.
    pub commit_flush_window: Duration,
    /// Fault-injection registry consulted by the failpoints compiled into
    /// the storage and core layers. Share one registry between a test
    /// harness and the database it drives to script failures; the default
    /// registry is fully disarmed. Only present with the `faults` feature.
    #[cfg(feature = "faults")]
    pub faults: std::sync::Arc<asset_faults::FaultRegistry>,
}

/// Round a shard-count request to a usable value: `0` selects
/// `next_power_of_two(4 × cores)`, everything else is rounded up to a
/// power of two; the result is clamped to `[1, 1024]`.
pub fn resolve_shards(requested: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            * 4
    } else {
        requested
    };
    n.clamp(1, 1024).next_power_of_two().min(1024)
}

impl Config {
    /// A fully in-memory configuration — the default for examples and tests.
    pub fn in_memory() -> Config {
        Config {
            max_transactions: 4096,
            lock_wait_timeout: Some(Duration::from_secs(10)),
            data_dir: None,
            durability: Durability::InMemory,
            flush_watermark: 64 * 1024,
            exec_workers: 0,
            commit_flush_window: Duration::ZERO,
            #[cfg(feature = "faults")]
            faults: Default::default(),
        }
        .validate()
    }

    /// An on-disk configuration rooted at `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Config {
        Config {
            data_dir: Some(dir.into()),
            durability: Durability::Strict,
            ..Config::in_memory()
        }
        .validate()
    }

    /// Panics on a nonsensical value so that a bad configuration fails
    /// loudly at startup.
    fn validate(self) -> Config {
        assert!(self.max_transactions >= 1, "max_transactions must be >= 1");
        self
    }

    /// Builder-style: set the transaction cap.
    #[must_use]
    pub fn with_max_transactions(mut self, n: usize) -> Config {
        self.max_transactions = n;
        self.validate()
    }

    /// Builder-style: set the lock-wait timeout.
    #[must_use]
    pub fn with_lock_timeout(mut self, d: Option<Duration>) -> Config {
        self.lock_wait_timeout = d;
        self
    }

    /// Builder-style: set the log buffer's flush watermark in bytes.
    #[must_use]
    pub fn with_flush_watermark(mut self, bytes: usize) -> Config {
        self.flush_watermark = bytes;
        self
    }

    /// Builder-style: set the executor worker-pool size (`0` = auto).
    #[must_use]
    pub fn with_exec_workers(mut self, n: usize) -> Config {
        self.exec_workers = n;
        self
    }

    /// Builder-style: set the group-commit flush window.
    #[must_use]
    pub fn with_commit_flush_window(mut self, window: Duration) -> Config {
        self.commit_flush_window = window;
        self
    }

    /// The effective executor worker count: one per core when `0`, clamped
    /// to `[2, 64]`.
    pub fn resolved_exec_workers(&self) -> usize {
        let n = if self.exec_workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        } else {
            self.exec_workers
        };
        n.clamp(2, 64)
    }

    /// Builder-style: install a fault-injection registry. Keep a clone of
    /// the `Arc` to arm failpoints while the database runs.
    #[cfg(feature = "faults")]
    #[must_use]
    pub fn with_faults(mut self, faults: std::sync::Arc<asset_faults::FaultRegistry>) -> Config {
        self.faults = faults;
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::in_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_defaults() {
        let c = Config::in_memory();
        assert!(c.data_dir.is_none());
        assert_eq!(c.durability, Durability::InMemory);
    }

    #[test]
    fn on_disk_defaults() {
        let c = Config::on_disk("/tmp/x");
        assert!(c.data_dir.is_some());
        assert_eq!(c.durability, Durability::Strict);
    }

    #[test]
    fn builders() {
        let c = Config::in_memory()
            .with_max_transactions(10)
            .with_lock_timeout(None);
        assert_eq!(c.max_transactions, 10);
        assert!(c.lock_wait_timeout.is_none());
    }

    #[test]
    fn shard_resolution() {
        assert_eq!(resolve_shards(1), 1);
        assert_eq!(resolve_shards(2), 2);
        assert_eq!(resolve_shards(3), 4);
        assert_eq!(resolve_shards(64), 64);
        assert_eq!(resolve_shards(100_000), 1024);
        let auto = resolve_shards(0);
        assert!(auto.is_power_of_two() && (1..=1024).contains(&auto));
    }
}
