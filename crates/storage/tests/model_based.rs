//! Model-based property tests: the slotted page and the object store are
//! driven with random operation sequences and checked against a trivially
//! correct in-memory model (`HashMap`).

use asset_common::Oid;
use asset_faults::{cases, Rng};
use asset_storage::heapfile::MemPageStore;
use asset_storage::page::Page;
use asset_storage::slotted::SlottedPage;
use asset_storage::store::ObjectStore;
use std::collections::HashMap;
use std::sync::Arc;

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
        let store = ObjectStore::open(Arc::new(MemPageStore::new(512)), 32).unwrap();
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

/// A single slotted page matches the model while it has room; inserts
/// may fail only when the page is genuinely full, and the page stays
/// internally consistent (live_records == model).
#[test]
fn slotted_page_matches_model() {
    cases(0x0570_0002, CASES, |rng| {
        let ops = arb_ops(rng, 80);
        let mut page = SlottedPage::format(Page::zeroed(1024), 1);
        // slot bookkeeping: oid -> slot
        let mut slots: HashMap<u64, u16> = HashMap::new();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    if let Some(&slot) = slots.get(&k) {
                        match page.update(slot, &v) {
                            Some(new_slot) => {
                                slots.insert(k, new_slot);
                                model.insert(k, v);
                            }
                            None => {
                                // page could not host the grown record; it
                                // was removed — mirror that
                                slots.remove(&k);
                                model.remove(&k);
                            }
                        }
                    } else if let Some(slot) = page.insert(Oid(k), &v) {
                        slots.insert(k, slot);
                        model.insert(k, v);
                    }
                    // insert returning None (page full) leaves the model
                    // unchanged — verified by the sweep below
                }
                Op::Delete(k) => {
                    if let Some(slot) = slots.remove(&k) {
                        assert!(page.delete(slot));
                        model.remove(&k);
                    }
                }
                Op::Get(k) => match slots.get(&k) {
                    Some(&slot) => {
                        let (oid, bytes) = page.get(slot).expect("live slot");
                        assert_eq!(oid, Oid(k));
                        assert_eq!(bytes, &model[&k][..]);
                    }
                    None => assert!(!model.contains_key(&k)),
                },
            }
            // page-wide consistency: live records == model
            let mut live: Vec<(u64, Vec<u8>)> = page
                .live_records()
                .map(|(_, oid, b)| (oid.raw(), b.to_vec()))
                .collect();
            live.sort();
            let mut expect: Vec<(u64, Vec<u8>)> =
                model.iter().map(|(k, v)| (*k, v.clone())).collect();
            expect.sort();
            assert_eq!(live, expect);
        }
    });
}

/// Page checksum detects any single corrupted byte outside the
/// checksum's own field.
#[test]
fn checksum_detects_corruption() {
    cases(0x0570_0003, CASES, |rng| {
        let mut sp = SlottedPage::format(Page::zeroed(512), 3);
        for i in 0..1 + rng.below(5) {
            let len = 1 + rng.below(39) as usize;
            let _ = sp.insert(Oid(i + 1), &rng.bytes(len));
        }
        let mut page = sp.into_page();
        // any byte but the checksum field itself (bytes 16..24)
        let mut idx = rng.below(page.size() as u64 - 8) as usize;
        if idx >= 16 {
            idx += 8;
        }
        let flip = 1 + rng.below(255) as u8;
        page.bytes_mut()[idx] ^= flip;
        assert!(SlottedPage::open(page).is_err());
    });
}

/// Store round-trips across a flush + reopen (directory rebuild).
#[test]
fn store_reopen_preserves_contents() {
    cases(0x0570_0004, CASES, |rng| {
        let entries: HashMap<u64, Vec<u8>> = (0..rng.below(30))
            .map(|_| {
                let len = rng.below(50) as usize;
                (1 + rng.below(99), rng.bytes(len))
            })
            .collect();
        let backing = Arc::new(MemPageStore::new(512));
        {
            let store = ObjectStore::open(Arc::clone(&backing) as _, 32).unwrap();
            for (k, v) in &entries {
                store.put(Oid(*k), v).unwrap();
            }
            store.flush().unwrap();
        }
        let store = ObjectStore::open(backing as _, 32).unwrap();
        assert_eq!(store.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(store.get(Oid(*k)).unwrap(), Some(v.clone()));
        }
    });
}
