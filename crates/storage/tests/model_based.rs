//! Model-based property tests: the object store is driven with random
//! operation sequences and checked against a trivially correct in-memory
//! model (`HashMap`), and its image file is damaged at random.

use asset_common::AssetError;
use asset_common::Oid;
use asset_faults::{cases, Rng};
use asset_storage::store::ObjectStore;
use std::collections::HashMap;
use std::path::PathBuf;

/// Operations the model covers.
#[derive(Clone, Debug)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    Get(u64),
}

fn arb_op(rng: &mut Rng) -> Op {
    let key = 1 + rng.below(39);
    match rng.below(3) {
        0 => {
            let len = rng.below(60) as usize;
            Op::Put(key, rng.bytes(len))
        }
        1 => Op::Delete(key),
        _ => Op::Get(key),
    }
}

fn arb_ops(rng: &mut Rng, max_len: u64) -> Vec<Op> {
    (0..rng.below(max_len)).map(|_| arb_op(rng)).collect()
}

/// Cases per property.
const CASES: u64 = 64;

/// The object store behaves exactly like a HashMap<Oid, Vec<u8>> for
/// any sequence of put/delete/get.
#[test]
fn object_store_matches_model() {
    cases(0x0570_0001, CASES, |rng| {
        let ops = arb_ops(rng, 120);
        let store = ObjectStore::in_memory();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    store.put(Oid(k), &v).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    let existed = store.delete(Oid(k)).unwrap();
                    assert_eq!(existed, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    assert_eq!(store.get(Oid(k)).unwrap(), model.get(&k).cloned());
                }
            }
            assert_eq!(store.len(), model.len());
        }
        // final full sweep
        for (k, v) in &model {
            assert_eq!(store.get(Oid(*k)).unwrap(), Some(v.clone()));
        }
    });
}

/// A fresh directory for one case's image file.
fn image_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asset-mb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("heap.db")
}

/// Flush `entries` into a new store at `path`.
fn write_image(path: &PathBuf, entries: &HashMap<u64, Vec<u8>>) {
    let _ = std::fs::remove_file(path);
    let store = ObjectStore::open(path).unwrap();
    for (k, v) in entries {
        store.put(Oid(*k), v).unwrap();
    }
    store.flush().unwrap();
}

fn arb_entries(rng: &mut Rng) -> HashMap<u64, Vec<u8>> {
    (0..rng.below(30))
        .map(|_| {
            let len = rng.below(50) as usize;
            (1 + rng.below(99), rng.bytes(len))
        })
        .collect()
}

/// Store round-trips across a flush + reopen of its file.
#[test]
fn store_reopen_preserves_contents() {
    let path = image_path("reopen");
    cases(0x0570_0004, CASES, |rng| {
        let entries = arb_entries(rng);
        write_image(&path, &entries);
        let store = ObjectStore::open(&path).unwrap();
        assert_eq!(store.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(store.get(Oid(*k)).unwrap(), Some(v.clone()));
        }
    });
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// A flipped byte or a truncation anywhere in the image makes `open`
/// answer `Corrupt`, never a store; a stale `heap.db.next` — what a crash
/// in the middle of a flush leaves — is not read at all.
#[test]
fn a_damaged_image_is_corrupt_and_a_stale_next_is_ignored() {
    let path = image_path("damage");
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
            let opened = ObjectStore::open(&path);
            assert!(matches!(opened, Err(AssetError::Corrupt(_))), "{damaged:?}");
        }
        std::fs::write(&path, &image).unwrap();
        std::fs::write(&next, cut).unwrap();
        let store = ObjectStore::open(&path).unwrap();
        assert_eq!(store.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(store.get(Oid(*k)).unwrap(), Some(v.clone()));
        }
    });
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
