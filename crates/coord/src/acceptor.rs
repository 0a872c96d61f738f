//! The acceptor and its slot store — the only durable state of the
//! commit protocol (DESIGN.md §14.2, §14.5).
//!
//! One consensus **instance** per `(gid, node)` decides that node's vote
//! in global transaction `gid`; an acceptor keeps one slot per
//! instance. All instances of one global transaction are promised or
//! accepted in **one call**, which a file-backed acceptor answers only
//! after one `write` + one `sync_data` of the changed slots — so the
//! single-acceptor configuration (2PC, where the acceptor *is* the
//! coordinator log) pays exactly one forced write per decision, whatever
//! the member count.
//!
//! On disk a store is an append-only sequence of fixed-size records, each
//! the full state of one slot; replay keeps the last record per instance
//! and ignores a torn tail (a crash mid-append: the answer it would have
//! backed was never given).

use asset_common::codec::{CodecError, Reader};
use asset_common::sync::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// One consensus instance: the vote of participant `node` in global
/// transaction `gid`.
type Instance = (u64, u32);

/// An accepted `(ballot, vote)` pair.
pub(crate) type Accepted = (u64, bool);

/// Bytes per on-disk record: gid, node, promised ballot, accepted tag
/// (0 = nothing, 1 = no, 2 = yes), accepted ballot.
pub(crate) const RECORD: usize = 8 + 4 + 8 + 1 + 8;

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Highest ballot promised (phase 1) or accepted (phase 2).
    promised: u64,
    accepted: Option<Accepted>,
}

impl Slot {
    fn encode(&self, (gid, node): Instance, out: &mut Vec<u8>) {
        let (tag, ballot) = match self.accepted {
            None => (0, 0),
            Some((ballot, vote)) => (1 + u8::from(vote), ballot),
        };
        out.extend_from_slice(&gid.to_le_bytes());
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&self.promised.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&ballot.to_le_bytes());
    }

    fn decode(rec: &[u8]) -> Result<(Instance, Slot), CodecError> {
        let mut r = Reader::new(rec);
        let (instance, promised, tag, ballot) = ((r.u64()?, r.u32()?), r.u64()?, r.u8()?, r.u64()?);
        let accepted = (tag != 0).then_some((ballot, tag == 2));
        Ok((instance, Slot { promised, accepted }))
    }
}

#[derive(Default)]
struct Store {
    slots: HashMap<Instance, Slot>,
    /// `None`: volatile — the slots die with the process.
    file: Option<File>,
}

impl Store {
    /// Make `updates` the current slots — on disk first (one `write`, one
    /// `sync_data`), then in memory, so a failed write changes nothing.
    fn install(&mut self, updates: Vec<(Instance, Slot)>) -> std::io::Result<()> {
        if let Some(file) = &mut self.file {
            let mut bytes = Vec::with_capacity(updates.len() * RECORD);
            for (inst, slot) in &updates {
                slot.encode(*inst, &mut bytes);
            }
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        self.slots.extend(updates);
        Ok(())
    }
}

/// One Paxos acceptor. Real deployments would place each on its own
/// machine; here an acceptor is an in-process object that can be
/// [`kill`](Self::kill)ed to model machine failure — the protocol's
/// claim is exactly that a minority of dead acceptors changes nothing.
///
/// With a single acceptor the protocol is two-phase commit and the
/// acceptor is the **coordinator log** ([`CoordLog`]): the decision is
/// durable once this one store has accepted every vote, and while it is
/// unreachable nothing can be decided.
#[derive(Default)]
pub struct Acceptor {
    store: Mutex<Store>,
    down: AtomicBool,
}

/// The 2PC coordinator's durable decision log: the single acceptor of
/// the F = 0 configuration, under the name that protocol gives it.
pub type CoordLog = Acceptor;

impl Acceptor {
    /// A fresh volatile acceptor: its slots survive [`kill`](Self::kill)
    /// but not the process.
    pub fn new() -> Acceptor {
        Acceptor::default()
    }

    /// [`new`](Self::new), under the coordinator log's name for it.
    pub fn in_memory() -> Acceptor {
        Acceptor::new()
    }

    /// Open (or create) the file-backed acceptor at `path`, replaying its
    /// records. A torn tail is cut off, so later appends stay aligned.
    pub fn at(path: &Path) -> std::io::Result<Acceptor> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let whole = bytes.len() - bytes.len() % RECORD;
        if whole < bytes.len() {
            file.set_len(whole as u64)?;
        }
        let slots = bytes[..whole].chunks_exact(RECORD).map(Slot::decode);
        let slots = slots
            .collect::<Result<_, _>>()
            .map_err(std::io::Error::other)?;
        Ok(Acceptor {
            store: Mutex::new(Store {
                slots,
                file: Some(file),
            }),
            down: AtomicBool::new(false),
        })
    }

    /// Take the acceptor offline: it answers nothing until
    /// [`revive`](Self::revive). Its slots are retained — only
    /// availability is lost.
    pub fn kill(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// Bring the acceptor back online.
    pub fn revive(&self) {
        self.down.store(false, Ordering::Release);
    }

    /// The highest ballot promised for any instance of `gid` (0 if none):
    /// a recovery coordinator that owns this acceptor runs one above it.
    pub fn promised(&self, gid: u64) -> u64 {
        let store = self.store.lock();
        let of_gid = store.slots.iter().filter(|((g, _), _)| *g == gid);
        of_gid.map(|(_, s)| s.promised).max().unwrap_or(0)
    }

    /// What this acceptor has accepted for instance `(gid, node)` — a
    /// read outside the protocol, for tests and oracles.
    pub fn accepted(&self, gid: u64, node: u32) -> Option<(u64, bool)> {
        self.store.lock().slots.get(&(gid, node))?.accepted
    }

    /// Raise the promise of `gid`'s instances to `ballot`, accepting the
    /// vote of each `(node, Some(vote))` on the way; durable before it
    /// returns the per-node accepted pairs. `None` — a nack (some
    /// instance is promised above `ballot`) or no answer (down, or the
    /// store failed) — changes nothing.
    fn advance(
        &self,
        gid: u64,
        ballot: u64,
        instances: impl Iterator<Item = (u32, Option<bool>)>,
    ) -> Option<Vec<Option<Accepted>>> {
        if self.down.load(Ordering::Acquire) {
            return None;
        }
        let mut store = self.store.lock();
        let mut updates = Vec::new();
        for (node, vote) in instances {
            let old = store.slots.get(&(gid, node)).copied().unwrap_or_default();
            if ballot < old.promised {
                return None;
            }
            let slot = Slot {
                promised: ballot,
                accepted: vote.map(|v| (ballot, v)).or(old.accepted),
            };
            updates.push(((gid, node), slot));
        }
        let answer = updates.iter().map(|(_, s)| s.accepted).collect();
        store.install(updates).ok()?;
        Some(answer)
    }

    /// Phase 1 for every instance of `gid` on `nodes`: promise not to
    /// accept below `ballot`. The answer carries, per node, any value
    /// already accepted.
    pub(crate) fn promise(
        &self,
        gid: u64,
        ballot: u64,
        nodes: &[u32],
    ) -> Option<Vec<Option<Accepted>>> {
        self.advance(gid, ballot, nodes.iter().map(|n| (*n, None)))
    }

    /// Phase 2 for every instance of `gid` in `votes`: accept each
    /// `(node, vote)` at `ballot` unless a higher ballot was promised.
    pub(crate) fn accept(&self, gid: u64, ballot: u64, votes: &[(u32, bool)]) -> bool {
        let votes = votes.iter().map(|(n, v)| (*n, Some(*v)));
        self.advance(gid, ballot, votes).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_faults::TempDir;

    #[test]
    fn slots_survive_reopen() {
        let dir = TempDir::new("acceptor-reopen");
        let f = dir.join("acceptor.log");
        {
            let acc = Acceptor::at(&f).unwrap();
            assert!(acc.accept(7, 0, &[(0, true), (1, true)]));
            assert!(acc.accept(8, 0, &[(0, true), (1, false)]));
            // the last record of an instance wins on replay
            assert_eq!(acc.promise(8, 3, &[0]), Some(vec![Some((0, true))]));
            assert!(acc.accept(8, 3, &[(0, false)]));
        }
        let acc = Acceptor::at(&f).unwrap();
        assert_eq!(acc.accepted(7, 0), Some((0, true)));
        assert_eq!(acc.accepted(7, 1), Some((0, true)));
        assert_eq!(acc.accepted(8, 0), Some((3, false)));
        assert_eq!(acc.accepted(8, 1), Some((0, false)));
        assert_eq!(acc.accepted(9, 0), None, "never heard of gid 9");
        assert_eq!((acc.promised(7), acc.promised(8)), (0, 3));
    }

    #[test]
    fn torn_last_record_is_ignored() {
        let dir = TempDir::new("acceptor-torn");
        let f = dir.join("acceptor.log");
        {
            let acc = Acceptor::at(&f).unwrap();
            assert!(acc.accept(7, 0, &[(0, true)]));
        }
        // a crash mid-append left part of gid 9's record
        {
            let mut file = OpenOptions::new().append(true).open(&f).unwrap();
            file.write_all(&[9, 0, 0]).unwrap();
        }
        let acc = Acceptor::at(&f).unwrap();
        assert_eq!(acc.accepted(7, 0), Some((0, true)));
        assert_eq!(acc.accepted(9, 0), None, "torn record never happened");
        // and what is appended next stays record-aligned
        assert!(acc.accept(9, 0, &[(0, false)]));
        drop(acc);
        let acc = Acceptor::at(&f).unwrap();
        assert_eq!(acc.accepted(9, 0), Some((0, false)));
        assert_eq!(std::fs::metadata(&f).unwrap().len(), 2 * RECORD as u64);
    }

    #[test]
    fn reopened_acceptor_still_refuses_a_ballot_below_its_promise() {
        let dir = TempDir::new("acceptor-fence");
        let f = dir.join("acceptor.log");
        {
            let acc = Acceptor::at(&f).unwrap();
            assert_eq!(acc.promise(4, 5, &[0, 1]), Some(vec![None, None]));
        }
        let acc = Acceptor::at(&f).unwrap();
        assert_eq!(acc.promised(4), 5);
        assert!(!acc.accept(4, 0, &[(0, true), (1, true)]), "fenced out");
        assert_eq!(acc.promise(4, 4, &[0, 1]), None, "nack");
        assert!(acc.accept(4, 5, &[(0, false), (1, false)]));
    }

    #[test]
    fn accepting_a_transaction_is_one_contiguous_write() {
        let dir = TempDir::new("acceptor-batch");
        let f = dir.join("acceptor.log");
        let acc = Acceptor::at(&f).unwrap();
        let len = || std::fs::metadata(&f).unwrap().len();
        assert_eq!(len(), 0);
        assert!(acc.accept(1, 0, &[(0, true), (1, true), (2, true)]));
        assert_eq!(len(), 3 * RECORD as u64);
        // a nack writes nothing
        assert_eq!(acc.promise(1, 2, &[0, 1, 2]).map(|p| p.len()), Some(3));
        assert_eq!(len(), 6 * RECORD as u64);
        assert!(!acc.accept(1, 1, &[(0, false), (1, false), (2, false)]));
        assert_eq!(len(), 6 * RECORD as u64);
    }

    #[test]
    fn a_dead_acceptor_answers_nothing_and_keeps_its_slots() {
        let acc = Acceptor::new();
        assert!(acc.accept(1, 0, &[(0, true)]));
        acc.kill();
        assert_eq!(acc.promise(1, 1, &[0]), None);
        assert!(!acc.accept(1, 1, &[(0, false)]));
        acc.revive();
        assert_eq!(acc.promise(1, 1, &[0]), Some(vec![Some((0, true))]));
    }
}
