//! The environment fingerprint printed beside every result (cores,
//! filesystem, raw sync floor, peak memory) and the scratch directories
//! the workloads keep their data in.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where every run keeps its data, traces and result files — relative
/// to the directory the benchmark is started in (a checkout root).
pub const OUT_DIR: &str = "target/asset-benchmark";

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU seconds (user + system) this process has consumed so far, all
/// threads, living or joined: `utime + stime` of `/proc/self/stat` in
/// the 100 Hz ticks Linux reports them in. 0 where `/proc` does not say.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // the fields after the parenthesised command name: state is
            // the first, utime and stime the 12th and 13th
            let mut after = s.rsplit_once(')')?.1.split_whitespace().skip(11);
            let utime = after.next()?.parse::<f64>().ok()?;
            let stime = after.next()?.parse::<f64>().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type holding `dir` (longest matching mount point in
/// `/proc/self/mountinfo`), `"unknown"` where that cannot be read.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "... <mount point> <opts> [tags] - <fstype> <source> <superopts>"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The device's floor under every `Strict` commit: `n` times append
/// 256 bytes to a file in `dir` and `sync_data` it; microseconds each.
pub fn sync_floor_us(dir: &Path, n: usize) -> std::io::Result<Vec<u64>> {
    let path = dir.join("sync-floor.bin");
    let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
    let block = [0x5Au8; 256];
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        f.write_all(&block)?;
        f.sync_data()?;
        us.push(t0.elapsed().as_micros() as u64);
    }
    drop(f);
    fs::remove_file(&path)?;
    Ok(us)
}

/// A run's private scratch directory,
/// `target/asset-benchmark/<pid>-<workload>/`: removed when the run
/// succeeded, kept for inspection when it did not.
pub struct RunDir {
    path: PathBuf,
    next_sub: usize,
}

impl RunDir {
    /// Create (emptying any stale leftover of a recycled pid).
    pub fn create(workload: &str) -> std::io::Result<RunDir> {
        let path = Path::new(OUT_DIR).join(format!("{}-{workload}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(RunDir { path, next_sub: 0 })
    }

    /// The directory itself.
    #[cfg(test)]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory (one per set-up repetition, node or
    /// probe).
    pub fn fresh(&mut self, tag: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(format!("{tag}-{}", self.next_sub));
        self.next_sub += 1;
        fs::create_dir_all(&p)?;
        Ok(p)
    }

    /// Remove the directory after a successful run; on failure say
    /// where the evidence is instead.
    pub fn finish(self, success: bool) {
        if success {
            if let Err(e) = fs::remove_dir_all(&self.path) {
                eprintln!(
                    "asset-benchmark: could not remove {}: {e}",
                    self.path.display()
                );
            }
        } else {
            eprintln!(
                "asset-benchmark: run failed; data kept in {}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_reads_something_sensible() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() >= 0.0);
        assert!(!fs_type(Path::new(".")).is_empty());
    }

    #[test]
    fn run_dir_hands_out_distinct_subdirs_and_cleans_up() {
        let mut d = RunDir::create("unit-test-env").unwrap();
        let a = d.fresh("x").unwrap();
        let b = d.fresh("x").unwrap();
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        let floor = sync_floor_us(&a, 3).unwrap();
        assert_eq!(floor.len(), 3);
        let root = d.path().to_path_buf();
        d.finish(true);
        assert!(!root.exists());
    }
}
