//! Semantic lock table: commutativity-based concurrency control.
//!
//! The ASSET paper closes (§5) with its future-work direction: *"exploit
//! the concurrency semantics inherent in objects ... operations to increase
//! an existing employee's salary and to add a new employee to a department
//! commute"*, pointing at multi-level transactions (Weikum, the paper’s reference 23).
//!
//! The key structure is a lock table whose modes are **operation classes**
//! and whose conflict relation is **non-commutativity**. Two increments
//! commute, so two transactions may hold `Increment` locks on the same
//! counter concurrently; an observer's `Observe` lock conflicts with both.
//! Semantic locks are held until the *parent* transaction terminates, while
//! the low-level object locks of each operation are released as soon as the
//! operation's open-nested subtransaction commits.

use asset_common::sync::{Condvar, Mutex};
use asset_common::{AssetError, Oid, Result, Tid};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// An operation class for semantic locking. Classes index into the
/// [`CommutativityTable`]; a type's ops define their own class constants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpClass(pub u8);

/// The maximum number of operation classes a table supports.
pub const MAX_CLASSES: usize = 8;

/// A symmetric commutativity matrix: `commutes[a][b]` says operations of
/// class `a` and class `b` may run concurrently on the same object.
#[derive(Clone, Copy, Debug)]
pub struct CommutativityTable {
    commutes: [[bool; MAX_CLASSES]; MAX_CLASSES],
}

impl CommutativityTable {
    /// A table where nothing commutes (degenerates to exclusive locking).
    pub fn exclusive() -> CommutativityTable {
        CommutativityTable {
            commutes: [[false; MAX_CLASSES]; MAX_CLASSES],
        }
    }

    /// Declare classes `a` and `b` commuting (symmetric).
    #[must_use]
    pub fn commuting(mut self, a: OpClass, b: OpClass) -> CommutativityTable {
        self.commutes[a.0 as usize][b.0 as usize] = true;
        self.commutes[b.0 as usize][a.0 as usize] = true;
        self
    }

    /// Do classes `a` and `b` commute?
    #[inline]
    pub fn commute(&self, a: OpClass, b: OpClass) -> bool {
        self.commutes[a.0 as usize][b.0 as usize]
    }
}

#[derive(Clone, Copy, Debug)]
struct SemLock {
    owner: Tid,
    class: OpClass,
    count: u32,
}

/// Statistics for the semantic lock table.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SemanticStats {
    /// Semantic locks granted.
    pub grants: u64,
    /// Requests that had to wait at least once.
    pub blocks: u64,
}

struct Inner {
    locks: HashMap<Oid, Vec<SemLock>>,
    stats: SemanticStats,
}

/// The semantic lock table. One per database-level resource domain; the
/// commutativity table is supplied per acquisition, bound to the object
/// type by the typed operation wrappers.
pub struct SemanticLockTable {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl SemanticLockTable {
    /// An empty table.
    pub fn new() -> SemanticLockTable {
        SemanticLockTable {
            inner: Mutex::new(Inner {
                locks: HashMap::new(),
                stats: SemanticStats::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Acquire a semantic lock of `class` on `ob` for `owner`, blocking
    /// while any *other* owner holds a non-commuting class. Re-entrant:
    /// the same owner may stack locks freely (its own ops are ordered by
    /// its own program).
    pub fn acquire(
        &self,
        owner: Tid,
        ob: Oid,
        class: OpClass,
        table: &CommutativityTable,
        timeout: Option<Duration>,
    ) -> Result<()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut inner = self.inner.lock();
        let mut blocked = false;
        loop {
            let held = inner.locks.entry(ob).or_default();
            let conflict = held
                .iter()
                .any(|l| l.owner != owner && !table.commute(l.class, class));
            if !conflict {
                match held
                    .iter_mut()
                    .find(|l| l.owner == owner && l.class == class)
                {
                    Some(l) => l.count += 1,
                    None => held.push(SemLock {
                        owner,
                        class,
                        count: 1,
                    }),
                }
                inner.stats.grants += 1;
                if blocked {
                    inner.stats.blocks += 1;
                }
                return Ok(());
            }
            blocked = true;
            let timed_out = match deadline {
                None => {
                    self.cv.wait(&mut inner);
                    false
                }
                Some(d) => self.cv.wait_until(&mut inner, d).timed_out(),
            };
            if timed_out {
                inner.stats.blocks += 1;
                return Err(AssetError::LockTimeout { tid: owner, ob });
            }
        }
    }

    /// Release every semantic lock `owner` holds (parent commit or abort).
    pub fn release_owner(&self, owner: Tid) -> usize {
        let mut inner = self.inner.lock();
        let mut released = 0;
        inner.locks.retain(|_, held| {
            held.retain(|l| {
                if l.owner == owner {
                    released += l.count as usize;
                    false
                } else {
                    true
                }
            });
            !held.is_empty()
        });
        drop(inner);
        self.cv.notify_all();
        released
    }

    /// Current holders of semantic locks on `ob` (diagnostics).
    pub fn holders(&self, ob: Oid) -> Vec<(Tid, OpClass)> {
        self.inner
            .lock()
            .locks
            .get(&ob)
            .map(|v| v.iter().map(|l| (l.owner, l.class)).collect())
            .unwrap_or_default()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SemanticStats {
        self.inner.lock().stats
    }
}

impl Default for SemanticLockTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const INC: OpClass = OpClass(0);
    const DEC: OpClass = OpClass(1);
    const OBS: OpClass = OpClass(2);

    fn counter_table() -> CommutativityTable {
        CommutativityTable::exclusive()
            .commuting(INC, INC)
            .commuting(DEC, DEC)
            .commuting(INC, DEC)
            .commuting(OBS, OBS)
    }

    #[test]
    fn commuting_classes_coexist() {
        let t = SemanticLockTable::new();
        let table = counter_table();
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap();
        t.acquire(Tid(2), Oid(1), INC, &table, None).unwrap();
        t.acquire(Tid(3), Oid(1), DEC, &table, None).unwrap();
        assert_eq!(t.holders(Oid(1)).len(), 3);
    }

    #[test]
    fn non_commuting_blocks() {
        let t = SemanticLockTable::new();
        let table = counter_table();
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap();
        let err = t
            .acquire(Tid(2), Oid(1), OBS, &table, Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, AssetError::LockTimeout { .. }));
    }

    #[test]
    fn release_unblocks() {
        let t = Arc::new(SemanticLockTable::new());
        let table = counter_table();
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.acquire(
                Tid(2),
                Oid(1),
                OBS,
                &counter_table(),
                Some(Duration::from_secs(5)),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(t.release_owner(Tid(1)), 1);
        h.join().unwrap().unwrap();
        assert_eq!(t.holders(Oid(1)), vec![(Tid(2), OBS)]);
    }

    #[test]
    fn same_owner_stacks_any_classes() {
        let t = SemanticLockTable::new();
        let table = counter_table();
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap();
        t.acquire(Tid(1), Oid(1), OBS, &table, None).unwrap(); // own ops never self-block
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap(); // re-entrant
        assert_eq!(t.release_owner(Tid(1)), 3);
    }

    #[test]
    fn exclusive_table_serializes_everything() {
        let t = SemanticLockTable::new();
        let table = CommutativityTable::exclusive();
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap();
        assert!(t
            .acquire(Tid(2), Oid(1), INC, &table, Some(Duration::from_millis(20)))
            .is_err());
    }

    #[test]
    fn different_objects_do_not_interact() {
        let t = SemanticLockTable::new();
        let table = CommutativityTable::exclusive();
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap();
        t.acquire(Tid(2), Oid(2), INC, &table, None).unwrap();
        assert_eq!(t.holders(Oid(1)).len(), 1);
        assert_eq!(t.holders(Oid(2)).len(), 1);
    }

    #[test]
    fn stats_track_grants_and_blocks() {
        let t = SemanticLockTable::new();
        let table = counter_table();
        t.acquire(Tid(1), Oid(1), INC, &table, None).unwrap();
        let _ = t.acquire(Tid(2), Oid(1), OBS, &table, Some(Duration::from_millis(10)));
        let s = t.stats();
        assert_eq!(s.grants, 1);
        assert_eq!(s.blocks, 1);
    }
}
