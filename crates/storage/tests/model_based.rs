//! Model-based property tests: an on-disk engine is driven with random
//! writes, deletes, aborted writes, checkpoints and reopens and checked
//! against a trivially correct model (`HashMap`) of the committed values,
//! once with images drawn so that the log carries them as patches; the
//! store's image file is damaged at random.

use asset_common::{AssetError, Config, Durability, Oid, Tid};
use asset_faults::{cases, Rng, TempDir};
use asset_storage::log::{IdCursor, LogEntry, FORMAT_MARKER};
use asset_storage::{LogRecord, ObjectCache, ObjectStore, RecordRef, StorageEngine};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

/// Cases per property.
const CASES: u64 = 64;

/// Keys the engine property draws from.
const KEYS: u64 = 24;

/// The object of a key: an odd key's near `u64::MAX`, an even key's near
/// 0, so that the log's oid deltas run from one byte to ten, either way.
fn oid(key: u64) -> Oid {
    Oid(if key % 2 == 1 { u64::MAX - key } else { key })
}

fn open(config: &Config) -> StorageEngine {
    StorageEngine::open(config).unwrap().0
}

fn commit(e: &StorageEngine, tid: Tid) {
    let commit = LogRecord::Commit { tids: vec![tid] };
    e.log_record(&commit).unwrap();
}

/// Roll `tid` back as the transaction manager does: its `(key, before)`
/// undo list newest first, each with its CLR, then its `Abort` record.
fn abort(e: &StorageEngine, tid: Tid, undo: Vec<(u64, Option<Vec<u8>>)>) {
    for (key, before) in undo.into_iter().rev() {
        e.undo_object(oid(key), before).unwrap();
    }
    e.log_record(&LogRecord::Abort { tid }).unwrap();
}

/// Every key reads as `model` says.
fn assert_holds(e: &StorageEngine, model: &HashMap<u64, Vec<u8>>, what: &str) {
    for key in 1..=KEYS {
        let seen = e.read_object(oid(key));
        assert_eq!(seen.as_ref(), model.get(&key), "[{what}] key {key}");
    }
}

/// The engine's contents equal a map of the committed values across random
/// writes, deletes and aborted writes, checkpoints taken at random points
/// (some beside a completed-but-uncommitted writer, whose updates the new
/// log must carry) and reopens at random points (where a live writer is a
/// loser). Replaces the map-level store property and the store's
/// `put`/`get`/`delete` and ceiling unit tests, whose API is gone.
#[test]
fn an_engine_reopened_anywhere_holds_the_committed_values() {
    let dir = TempDir::new("engine");
    cases(0x0570_0001, CASES, |rng| {
        let data = dir.join(format!("case-{}", rng.next_u64()));
        let config = Config {
            durability: Durability::Buffered,
            ..Config::on_disk(&data)
        };
        let mut e = open(&config);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let commit_to = |model: &mut HashMap<_, _>, key, image: Option<Vec<u8>>| match image {
            Some(v) => model.insert(key, v),
            None => model.remove(&key),
        };
        // the live writer: its tid and its (key, before, after) writes
        type Writes = Vec<(u64, Option<Vec<u8>>, Option<Vec<u8>>)>;
        let mut live: Option<(Tid, Writes)> = None;
        let mut tids = (1..).map(Tid);
        for step in 0..rng.below(80) {
            let key = 1 + rng.below(KEYS);
            let len = rng.below(40) as usize;
            let image = (rng.below(4) > 0).then(|| rng.bytes(len));
            let owned = live
                .as_ref()
                .is_some_and(|l| l.1.iter().any(|w| w.0 == key));
            let op = rng.below(7);
            match op {
                // another writer holds the key's lock
                0..=3 if owned => {}
                0..=2 => {
                    let tid = tids.next().unwrap();
                    let before = e.write_object(tid, oid(key), image.clone()).unwrap().0;
                    if op == 0 {
                        abort(&e, tid, vec![(key, before)]);
                    } else {
                        commit(&e, tid);
                        commit_to(&mut model, key, image);
                    }
                }
                3 => {
                    let (tid, writes) = live.get_or_insert_with(|| (tids.next().unwrap(), vec![]));
                    let before = e.write_object(*tid, oid(key), image.clone()).unwrap().0;
                    writes.push((key, before, image));
                }
                4 => match live.take() {
                    Some((tid, writes)) if rng.below(2) == 0 => {
                        commit(&e, tid);
                        for (key, _, image) in writes {
                            commit_to(&mut model, key, image);
                        }
                    }
                    Some((tid, writes)) => {
                        abort(&e, tid, writes.into_iter().map(|w| (w.0, w.1)).collect());
                    }
                    None => {}
                },
                5 => e.checkpoint(&live.iter().map(|l| l.0).collect()).unwrap(),
                _ => {
                    // a restart: the live writer is a loser
                    drop(e);
                    e = open(&config);
                    live = None;
                    assert_holds(&e, &model, &format!("reopen at step {step}"));
                }
            }
        }
        drop(e);
        assert_holds(&open(&config), &model, "final reopen");
        std::fs::remove_dir_all(&data).unwrap();
    });
}

/// Mostly an image a patch can carry: `base` with a run of its bytes
/// replaced by a shorter or longer run, so that it shares a prefix and a
/// suffix with it and grows or shrinks, or with the bytes of a packed
/// kind's edge shapes flipped (prefix 7 and middle 8; middle 9 and prefix
/// 8, which kind 9 carries); else a deletion, or a fresh image (a
/// re-creation, after a deletion).
fn arb_next(rng: &mut Rng, base: Option<&[u8]>) -> Option<Vec<u8>> {
    match (rng.below(8), base) {
        (0, _) => None,
        (1, _) | (_, None) => {
            let len = rng.below(40) as usize;
            Some(rng.bytes(len))
        }
        (2 | 3, Some(base)) if base.len() > 16 => {
            let (prefix, middle) = [(7, 8), (0, 1), (0, 9), (8, 1)][rng.below(4) as usize];
            let mut next = base.to_vec();
            next[prefix..prefix + middle]
                .iter_mut()
                .for_each(|b| *b = !*b);
            Some(next)
        }
        (_, Some(base)) => {
            let from = rng.below(base.len() as u64 + 1) as usize;
            let to = from + rng.below((base.len() - from) as u64 + 1) as usize;
            let len = rng.below(5) as usize;
            Some([&base[..from], &rng.bytes(len), &base[to..]].concat())
        }
    }
}

/// The kinds of the patched `Overwrite`s and CLRs, of the `Update`s that
/// create an object, and of the `Commit`s, in the log file at `path`.
fn kinds_in(path: &Path, kinds: &Mutex<Vec<u8>>) {
    let bytes = std::fs::read(path).unwrap();
    let (mut off, mut cursor) = (FORMAT_MARKER.len(), IdCursor::default());
    while let Some((entry, next)) = LogEntry::decode_in(&bytes, off, &mut cursor).unwrap() {
        let counts = match entry {
            LogEntry::Record(
                RecordRef::Overwrite {
                    after: Some(patch), ..
                }
                | RecordRef::Clr {
                    image: Some(patch), ..
                },
            ) => !patch.is_whole(),
            LogEntry::Record(RecordRef::Update { before: None, .. } | RecordRef::Commit { .. }) => {
                true
            }
            _ => false,
        };
        kinds.lock().unwrap().extend(counts.then_some(bytes[off]));
        off = next;
    }
}

/// An `Overwrite` logs its after image, and a CLR its restored image, as a
/// patch against the image the log installed before it, and a reopen
/// rebuilds every image from those patches. Rounds over a few keys — one
/// writer that commits or aborts (its CLR installs the base back), or two
/// permitted writers of one object, the second patching the first's image
/// and maybe aborting — with checkpoints between the writes, each followed
/// by a reopen checked against a model of the committed values.
#[test]
fn patched_overwrites_reopen_as_the_images_written() {
    let dir = TempDir::new("patch");
    let kinds = Mutex::new(Vec::new());
    cases(0x0570_0006, CASES, |rng| {
        let data = dir.join(format!("case-{}", rng.next_u64()));
        let config = Config {
            durability: Durability::Buffered,
            ..Config::on_disk(&data)
        };
        let mut e = open(&config);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut tids = (1..).map(Tid);
        let checkpoint = |e: &StorageEngine, rng: &mut Rng, live: &[Tid]| {
            if rng.below(3) == 0 {
                e.checkpoint(&live.iter().copied().collect()).unwrap();
            }
        };
        for round in 0..rng.below(24) {
            let key = 1 + rng.below(4);
            let (t1, t2) = (tids.next().unwrap(), tids.next().unwrap());
            let first = arb_next(rng, model.get(&key).map(Vec::as_slice));
            let base = e.write_object(t1, oid(key), first.clone()).unwrap().0;
            checkpoint(&e, rng, &[t1]);
            let committed = match rng.below(3) {
                0 => {
                    abort(&e, t1, vec![(key, base.clone())]);
                    base
                }
                1 => {
                    commit(&e, t1);
                    first
                }
                _ => {
                    let second = arb_next(rng, first.as_deref());
                    let mid = e.write_object(t2, oid(key), second.clone()).unwrap().0;
                    checkpoint(&e, rng, &[t1, t2]);
                    let kept = if rng.below(2) == 0 {
                        abort(&e, t2, vec![(key, mid)]);
                        first
                    } else {
                        commit(&e, t2);
                        second
                    };
                    commit(&e, t1);
                    kept
                }
            };
            match committed {
                Some(image) => model.insert(key, image),
                None => model.remove(&key),
            };
            checkpoint(&e, rng, &[]);
            drop(e);
            kinds_in(&data.join("wal.log"), &kinds);
            e = open(&config);
            assert_holds(&e, &model, &format!("reopen after round {round}"));
        }
        drop(e);
        std::fs::remove_dir_all(&data).unwrap();
    });
    let kinds = kinds.into_inner().unwrap();
    let n = kinds
        .iter()
        .filter(|k| matches!(k, 7 | 9 | 0x40..=0xBF))
        .count();
    assert!(n >= CASES as usize, "too few patches to tell: {n}");
    // each packed range's first and last kinds, and kinds 9, 7 and 2 past
    // them; a one-tid `Commit` in its kind byte, behind a write of its own
    // tid (+0) and behind its partner's (t1 after t2: −1)
    for kind in [0x20, 0x3F, 2, 0x40, 0x7F, 9, 0x80, 0xBF, 7, 0xC0, 0xC1] {
        assert!(kinds.contains(&kind), "no record of kind {kind:#04x}");
    }
}

/// Write `entries` as the image at `path`, through a cache.
fn write_image(path: &Path, entries: &HashMap<u64, Vec<u8>>) {
    let cache = ObjectCache::new();
    for (k, v) in entries {
        let entry = cache.entry(Oid(*k));
        entry.write_with(cache.obs(), |d| *d = Some(v.clone()));
    }
    ObjectStore::at(path).write(&cache).unwrap();
}

/// The objects the image at `path` loads as.
fn load_image(path: &Path) -> asset_common::Result<HashMap<u64, Vec<u8>>> {
    let cache = ObjectCache::new();
    ObjectStore::at(path).load(&cache)?;
    let mut out = HashMap::new();
    cache.for_each_object(|oid, bytes| {
        out.insert(oid.raw(), bytes.to_vec());
    });
    Ok(out)
}

fn arb_entries(rng: &mut Rng) -> HashMap<u64, Vec<u8>> {
    (0..rng.below(30))
        .map(|_| {
            let len = rng.below(50) as usize;
            (1 + rng.below(99), rng.bytes(len))
        })
        .collect()
}

/// A flipped byte or a truncation anywhere in the image makes a load
/// answer `Corrupt`, never a store; a stale `heap.db.next` — what a crash
/// in the middle of a write leaves — is not read at all, and the intact
/// image loads as what was written.
#[test]
fn a_damaged_image_is_corrupt_and_a_stale_next_is_ignored() {
    let dir = TempDir::new("damage");
    let path = dir.join("heap.db");
    let next = path.with_extension("db.next");
    cases(0x0570_0005, CASES, |rng| {
        let entries = arb_entries(rng);
        write_image(&path, &entries);
        let image = std::fs::read(&path).unwrap();
        let mut flipped = image.clone();
        flipped[rng.below(image.len() as u64) as usize] ^= 1 + rng.below(255) as u8;
        let cut = &image[..rng.below(image.len() as u64) as usize];
        for damaged in [&flipped[..], cut] {
            std::fs::write(&path, damaged).unwrap();
            let loaded = load_image(&path);
            assert!(matches!(loaded, Err(AssetError::Corrupt(_))), "{damaged:?}");
        }
        std::fs::write(&path, &image).unwrap();
        std::fs::write(&next, cut).unwrap();
        assert_eq!(load_image(&path).unwrap(), entries);
    });
}
