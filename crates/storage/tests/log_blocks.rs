//! The drain is the log's unit of integrity: whatever a crash or a bad
//! sector does to the file, restart reads the records of a whole-block
//! prefix of what was written, at the LSNs they were given, or refuses the
//! log — never a record of a block that is torn or altered.
//!
//! A random record sequence goes through a random schedule of unforced and
//! forced appends, watermark drains, explicit drains and (with the `faults`
//! feature) drains that fail and put their sealed bytes back; then the file
//! is cut at *every* byte offset, and one byte of it is flipped.

use asset_common::{AssetError, Durability, Lsn, Oid, Tid};
use asset_faults::{cases, Rng};
use asset_storage::log::{LogManager, LogRecord, FORMAT_MARKER, SEAL_LEN};
use std::path::Path;

fn arb_image(rng: &mut Rng) -> Option<Vec<u8>> {
    (rng.below(4) > 0).then(|| {
        let len = rng.below(40) as usize;
        rng.bytes(len)
    })
}

fn arb_record(rng: &mut Rng) -> LogRecord {
    let tid = Tid(1 + rng.below(300));
    let oid = Oid(1 + rng.below(300));
    match rng.below(6) {
        0 => LogRecord::Update {
            tid,
            oid,
            before: arb_image(rng),
            after: arb_image(rng),
        },
        1 | 2 => LogRecord::Overwrite {
            tid,
            oid,
            after: arb_image(rng),
        },
        3 => LogRecord::Commit {
            tids: (0..1 + rng.below(3)).map(|i| Tid(tid.0 + i)).collect(),
        },
        4 => LogRecord::Clr {
            oid,
            image: arb_image(rng),
        },
        _ => LogRecord::Abort { tid },
    }
}

/// What one schedule left: the file's bytes, every record with the LSN its
/// append returned, and where each sealed block ends.
struct Written {
    bytes: Vec<u8>,
    records: Vec<(Lsn, LogRecord)>,
    block_ends: Vec<u64>,
}

fn write_a_log(rng: &mut Rng, path: &Path) -> Written {
    let _ = std::fs::remove_file(path);
    let watermark = 1 + rng.below(200) as usize;
    #[allow(unused_mut)]
    let mut log = LogManager::open_with(path, Durability::Strict, watermark).unwrap();
    #[cfg(feature = "faults")]
    let faults = std::sync::Arc::new(asset_faults::FaultRegistry::new());
    #[cfg(feature = "faults")]
    log.set_faults(std::sync::Arc::clone(&faults));
    let mut records = vec![(
        log.append(&LogRecord::Checkpoint).unwrap(),
        LogRecord::Checkpoint,
    )];
    for _ in 0..rng.below(24) {
        let rec = arb_record(rng);
        match rng.below(8) {
            0 => records.push((log.append_forced(&rec).unwrap(), rec)),
            1 => {
                log.drain(rng.below(2) == 0).unwrap();
            }
            #[cfg(feature = "faults")]
            2 if log.pending_bytes() > 0 => {
                faults.arm(
                    asset_storage::failpoints::LOG_FLUSH,
                    asset_faults::Trigger::Once,
                    asset_faults::FaultAction::Error,
                );
                assert!(log.drain(false).is_err(), "the drain was refused");
                assert!(log.pending_bytes() > 0, "and its bytes put back");
            }
            // unforced: drained in passing once `watermark` bytes are pending
            _ => records.push((log.append(&rec).unwrap(), rec)),
        }
    }
    drop(log); // the drop drain seals what is left
    let bytes = std::fs::read(path).unwrap();
    let tail = bytes.len() as u64;
    // records lie back to back; every five-byte gap between them is a seal
    let mut block_ends = Vec::new();
    let mut pos = FORMAT_MARKER.len() as u64;
    let starts = records.iter().map(|(lsn, rec)| (lsn.0, rec.encode().len()));
    for (lsn, len) in starts.chain([(tail, 0)]) {
        while pos < lsn {
            pos += SEAL_LEN as u64;
            block_ends.push(pos);
        }
        assert_eq!(pos, lsn, "LSNs are file offsets");
        pos += len as u64;
    }
    assert_eq!(
        block_ends.last().copied().unwrap_or(0),
        tail,
        "ends in a seal"
    );
    Written {
        bytes,
        records,
        block_ends,
    }
}

/// Reopen `path` and replay it: the records restart would see, or the
/// refusal.
fn reopen(path: &Path) -> Result<Vec<(Lsn, LogRecord)>, AssetError> {
    LogManager::open(path, Durability::Strict)?.scan()
}

/// `path` holds exactly the whole blocks of `log` that end at or before
/// `end`, and replays to their records at their LSNs.
fn assert_whole_block_prefix(path: &Path, log: &Written, end: u64, what: &str) {
    let survivors = log.records.iter().filter(|(lsn, _)| lsn.0 < end);
    let expect: Vec<_> = survivors.cloned().collect();
    // twice: the chop the first restart made is in the file
    for restart in 0..2 {
        assert_eq!(reopen(path).unwrap(), expect, "{what}, restart {restart}");
        assert_eq!(
            std::fs::read(path).unwrap(),
            &log.bytes[..end as usize],
            "{what}, restart {restart}: chopped to the last verified seal"
        );
    }
}

#[test]
fn a_cut_or_a_flipped_byte_costs_whole_blocks_or_the_log_never_a_part_of_one() {
    let dir = std::env::temp_dir().join(format!("asset-log-blocks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    cases(0x0570_B10C, 48, |rng| {
        let log = write_a_log(rng, &path);
        let last_end_before = |at: u64| {
            let whole = log.block_ends.iter().rev().find(|end| **end <= at);
            whole.copied().unwrap_or(0)
        };

        // (a) a crash cut the file short, anywhere
        for cut in 0..=log.bytes.len() {
            std::fs::write(&path, &log.bytes[..cut]).unwrap();
            let end = last_end_before(cut as u64);
            assert_whole_block_prefix(&path, &log, end, &format!("cut at {cut}"));
        }

        // (b) one byte of it changed
        let at = rng.below(log.bytes.len() as u64) as usize;
        let mut bad = log.bytes.clone();
        bad[at] ^= 1 << rng.below(8);
        std::fs::write(&path, &bad).unwrap();
        match reopen(&path) {
            // refused, and not a byte of it touched
            Err(AssetError::Corrupt(_)) => assert_eq!(std::fs::read(&path).unwrap(), bad),
            Err(other) => panic!("flip at {at}: {other}"),
            // or read as torn from the altered block on
            Ok(_) => {
                let end = last_end_before(at as u64);
                assert_whole_block_prefix(&path, &log, end, &format!("flip at {at}"));
            }
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
}
