//! The drain is the log's unit of integrity: whatever a crash or a bad
//! sector does to the file, restart reads the records of a whole-block
//! prefix of what was written, at the LSNs they were given, or refuses the
//! log — never a record of a block that is torn or altered.
//!
//! A random record sequence goes through a random schedule of unforced and
//! forced appends, watermark drains, explicit drains, reopens and (with the
//! `faults` feature) a drain that fails and stops the log; then the file
//! is cut at *every* byte offset, and one byte of it is flipped. An
//! `Overwrite` or a CLR of an object the log holds an image of is appended
//! as the write and undo paths log it, a patch against that image, and
//! reads back whole. Tids wander, with now and then a far jump either way,
//! and oids jump between six of every width: both are deltas of both signs
//! and every size, across seals, and the first block a reopened log writes
//! opens with a reset entry, past which the first tid and the first oid
//! are deltas from 0.

use asset_common::{AssetError, Durability, Lsn, Oid, Tid};
use asset_faults::{cases, Rng, TempDir};
use asset_storage::log::{
    IdCursor, LogManager, LogRecord, Patch, RecordRef, FORMAT_MARKER, SEAL_LEN,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The latest image of each object in the log written so far.
type Images = HashMap<Oid, Option<Vec<u8>>>;

fn arb_image(rng: &mut Rng) -> Option<Vec<u8>> {
    (rng.below(4) > 0).then(|| {
        let len = rng.below(40) as usize;
        rng.bytes(len)
    })
}

/// Mostly `base` with a run of its bytes replaced by a random, maybe
/// longer or shorter, run: an image a patch can carry.
fn arb_after(rng: &mut Rng, base: Option<&[u8]>) -> Option<Vec<u8>> {
    match base {
        Some(base) if rng.below(4) > 0 => {
            let from = rng.below(base.len() as u64 + 1) as usize;
            let to = from + rng.below((base.len() - from) as u64 + 1) as usize;
            let len = rng.below(6) as usize;
            Some([&base[..from], &rng.bytes(len), &base[to..]].concat())
        }
        _ => arb_image(rng),
    }
}

/// A tid a few away from `last`, either way, or one in twelve times one
/// anywhere, of any width.
fn arb_tid(rng: &mut Rng, last: &mut u64) -> Tid {
    *last = match rng.below(12) {
        0 => rng.next_u64() >> (7 * rng.below(10)),
        _ => last.saturating_add_signed(rng.below(9) as i64 - 4),
    };
    Tid(*last)
}

fn arb_record(rng: &mut Rng, images: &Images, last: &mut u64) -> LogRecord {
    let tid = arb_tid(rng, last);
    // few enough objects that most are overwritten, their oids deltas of
    // every width from each other
    let oid = Oid([1, 2, 300, 1 << 20, 1 << 50, u64::MAX][rng.below(6) as usize]);
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
            after: arb_after(rng, images.get(&oid).cloned().flatten().as_deref()),
        },
        3 => LogRecord::Commit {
            tids: (0..=rng.below(3)).map(|_| arb_tid(rng, last)).collect(),
        },
        4 => LogRecord::Clr {
            oid,
            image: arb_after(rng, images.get(&oid).cloned().flatten().as_deref()),
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

/// Patched `Overwrite`s and CLRs appended, over every case.
static PATCHED: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// Append `rec` as the write and undo paths would log it — an `Overwrite`
/// or a CLR of an object `images` holds an image of is a patch against
/// that image — and return its LSN and its length in the log: its ids
/// written against `cursor`, the cursor of the log it joins.
fn append(
    log: &LogManager,
    rec: &LogRecord,
    images: &mut Images,
    cursor: &mut IdCursor,
) -> (Lsn, usize) {
    let logged = match rec {
        LogRecord::Overwrite {
            tid,
            oid,
            after: Some(after),
        } if images.contains_key(oid) => RecordRef::Overwrite {
            tid: *tid,
            oid: *oid,
            after: Some(Patch::between(images[oid].as_deref(), after)),
        },
        LogRecord::Clr {
            oid,
            image: Some(image),
        } if images.contains_key(oid) => RecordRef::Clr {
            oid: *oid,
            image: Some(Patch::between(images[oid].as_deref(), image)),
        },
        rec => rec.as_ref(),
    };
    let (kind, patch) = match logged {
        RecordRef::Overwrite { after, .. } => (0, after),
        RecordRef::Clr { image, .. } => (1, image),
        _ => (0, None),
    };
    let patched = patch.is_some_and(|p| !p.is_whole());
    PATCHED[kind].fetch_add(usize::from(patched), Ordering::Relaxed);
    let mut bytes = Vec::new();
    logged.encode_into(&mut bytes, cursor);
    let lsn = log.append_ref(&logged).unwrap();
    match rec {
        LogRecord::Update { oid, after, .. }
        | LogRecord::Overwrite { oid, after, .. }
        | LogRecord::Clr { oid, image: after } => {
            images.insert(*oid, after.clone());
        }
        _ => {}
    }
    (lsn, bytes.len())
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
    // each record's length, and whether a reset entry comes before it
    let mut lens = vec![(1, false)];
    let (mut images, mut last, mut cursor) = (Images::new(), 0, IdCursor::default());
    let mut reset = false;
    for _ in 0..rng.below(32) {
        let rec = arb_record(rng, &images, &mut last);
        match rng.below(9) {
            0 => {
                let (lsn, len) = append(&log, &rec, &mut images, &mut cursor);
                log.flush().unwrap();
                records.push((lsn, rec));
                lens.push((len, std::mem::take(&mut reset)));
            }
            1 => {
                log.drain(rng.below(2) == 0).unwrap();
            }
            // a new owner: the drop drains, and the next append opens
            // its first block with a reset
            2 => {
                drop(log);
                log = LogManager::open_with(path, Durability::Strict, watermark).unwrap();
                #[cfg(feature = "faults")]
                log.set_faults(std::sync::Arc::clone(&faults));
                (cursor, reset) = (IdCursor::default(), true);
            }
            #[cfg(feature = "faults")]
            // once a block is in the file, so the file has bytes to cut
            3 if log.pending_bytes() > 0 && std::fs::metadata(path).unwrap().len() > 0 => {
                faults.arm(
                    asset_storage::failpoints::LOG_FLUSH,
                    asset_faults::Trigger::Once,
                    asset_faults::FaultAction::Error,
                );
                // a refused drain stops the log: its block and whatever is
                // buffered never reach the file, and nothing follows them
                let refused = log.drain(false);
                assert!(matches!(refused, Err(AssetError::Stopped(_))));
                assert!(log.append(&LogRecord::Checkpoint).is_err());
                break;
            }
            // unforced: drained in passing once `watermark` bytes are pending
            _ => {
                let (lsn, len) = append(&log, &rec, &mut images, &mut cursor);
                records.push((lsn, rec));
                lens.push((len, std::mem::take(&mut reset)));
            }
        }
    }
    drop(log); // the drop drain seals what is left, unless the log stopped
    let bytes = std::fs::read(path).unwrap();
    let tail = bytes.len() as u64;
    let written = records.iter().take_while(|(lsn, _)| lsn.0 < tail).count();
    records.truncate(written);
    lens.truncate(written);
    // records lie back to back, each as long as it is where it stands in
    // the log; every five-byte gap between them is a seal, but for the one
    // byte of a reset entry at the start of a block
    let mut block_ends = Vec::new();
    let mut pos = FORMAT_MARKER.len() as u64;
    let starts = records.iter().zip(lens).map(|((lsn, _), len)| (lsn.0, len));
    for (lsn, (len, reset)) in starts.chain([(tail, (0, false))]) {
        while pos + u64::from(reset) < lsn {
            pos += SEAL_LEN as u64;
            block_ends.push(pos);
        }
        pos += u64::from(reset);
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
    let dir = TempDir::new("log-blocks");
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
    let [overwrites, clrs] = PATCHED.each_ref().map(|n| n.load(Ordering::Relaxed));
    assert!(
        overwrites >= 24,
        "patched overwrites were cut too: {overwrites}"
    );
    assert!(clrs >= 12, "patched CLRs were cut too: {clrs}");
}
