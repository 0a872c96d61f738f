//! Identifiers: transaction ids, object ids, and log sequence numbers —
//! and the one hasher the id-keyed tables use ([`IdBuild`], [`IdMap`],
//! [`IdSet`]).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A transaction identifier.
///
/// The paper's primitives return the *null tid* to signal failure (e.g.
/// `initiate` under resource exhaustion) and as the `parent()` of a
/// top-level transaction. [`Tid::NULL`] plays that role; the Rust-level API
/// additionally uses [`Result`](crate::Result) so that callers do not have
/// to test for null in the common case.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u64);

impl Tid {
    /// The null transaction id.
    pub const NULL: Tid = Tid(0);

    /// Does this tid denote "no transaction"?
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "t-null")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A persistent object identifier.
///
/// ASSET locks, permits and delegates at object granularity (the paper notes
/// that operation-granularity delegation is possible but does not pursue it;
/// neither do we).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl Oid {
    /// Raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ob{}", self.0)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A log sequence number: the byte offset of a record in the write-ahead log.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN before any record.
    pub const ZERO: Lsn = Lsn(0);
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// A monotonically increasing generator for [`Tid`]s (or any u64 id space).
///
/// Starts at 1 so that 0 remains the null id.
#[derive(Debug)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    /// New generator whose first issued id is 1.
    pub fn new() -> Self {
        IdGen {
            next: AtomicU64::new(1),
        }
    }

    /// New generator whose first issued id is `first`.
    pub fn starting_at(first: u64) -> Self {
        IdGen {
            next: AtomicU64::new(first.max(1)),
        }
    }

    /// Issue the next id.
    pub fn next(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Ensure future ids are strictly greater than `floor` (used by restart
    /// recovery so that new transactions never reuse a logged tid).
    pub fn bump_past(&self, floor: u64) {
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur <= floor {
            match self.next.compare_exchange_weak(
                cur,
                floor + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

impl Default for IdGen {
    fn default() -> Self {
        Self::new()
    }
}

/// A `HashMap` keyed by ids ([`Tid`], [`Oid`], or any `u64`), hashed by
/// [`IdBuild`]. Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, IdBuild>;

/// A `HashSet` of ids, hashed by [`IdBuild`].
pub type IdSet<K> = HashSet<K, IdBuild>;

/// The hasher of the id-keyed tables (§4.1's doubly hashed TD, OD and LRD
/// tables, the object cache and directory, the dependency graph): one
/// folded 64×64→128-bit multiply per id instead of SipHash's rounds.
///
/// `write_u64(x)` multiplies `x ^ k0` by the odd `k1` and xors the two
/// halves of the product, so every input bit reaches both the low bits
/// (the bucket index) and the high bits (the control byte) of the hash.
///
/// **Keyed, not a plain multiply.** The wire protocol's `READ`/`WRITE`
/// take any oid a client chooses. Under an unkeyed multiply the collision
/// set is public: the oids `k·2^32`, for one, share all their low bits, so
/// a client could pile them into one bucket of a lock stripe or a cache
/// shard and turn every probe into a scan. The keys `(k0, k1)` are drawn
/// once per process from std's [`RandomState`] — the same randomness that
/// keys SipHash — so which ids collide cannot be computed offline, which
/// is the property SipHash's random keys gave these tables. (Not a
/// cryptographic MAC: a client that can time probes is not the threat
/// model of either hasher.) Every `IdBuild` of a process shares the keys,
/// so two tables hash one id alike.
#[derive(Clone, Copy)]
pub struct IdBuild {
    k0: u64,
    k1: u64,
}

/// Prints no keys, as std's `RandomState` does not.
impl fmt::Debug for IdBuild {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdBuild").finish_non_exhaustive()
    }
}

impl Default for IdBuild {
    fn default() -> IdBuild {
        static KEYS: OnceLock<IdBuild> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let seed = RandomState::new();
            IdBuild {
                k0: seed.hash_one(0u64),
                k1: seed.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for IdBuild {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            keys: *self,
            hash: 0,
        }
    }
}

/// The [`Hasher`] of an [`IdBuild`]; see there.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    keys: IdBuild,
    hash: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.hash ^ x ^ self.keys.k0) * u128::from(self.keys.k1);
        self.hash = (m as u64) ^ ((m >> 64) as u64);
    }

    /// Keys that are not one integer (none on the hot paths) are folded
    /// in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn null_tid() {
        assert!(Tid::NULL.is_null());
        assert!(!Tid(7).is_null());
        assert_eq!(format!("{:?}", Tid::NULL), "t-null");
        assert_eq!(format!("{}", Tid(3)), "t3");
    }

    #[test]
    fn oid_display() {
        assert_eq!(format!("{}", Oid(42)), "ob42");
    }

    #[test]
    fn idgen_starts_at_one() {
        let g = IdGen::new();
        assert_eq!(g.next(), 1);
        assert_eq!(g.next(), 2);
    }

    #[test]
    fn idgen_bump_past() {
        let g = IdGen::new();
        g.bump_past(100);
        assert_eq!(g.next(), 101);
        // bumping below the current value is a no-op
        g.bump_past(5);
        assert_eq!(g.next(), 102);
    }

    #[test]
    fn idgen_unique_across_threads() {
        let g = Arc::new(IdGen::new());
        let mut handles = vec![];
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(all.len(), 8000);
    }

    #[test]
    fn lsn_ordering() {
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn::ZERO, Lsn(0));
    }

    /// The oid families an unkeyed multiply would pile into few buckets —
    /// `k·2^32` and `k·2^40` share all their low bits — spread over 1024
    /// low-bit buckets (the bits a table indexes by) as evenly as a dense
    /// run does: 4096 ids, 4 per bucket on average, none above 16.
    #[test]
    fn id_hashes_spread_strided_oids_over_low_bit_buckets() {
        let build = IdBuild::default();
        for (name, stride) in [("k·2^32", 1u64 << 32), ("k·2^40", 1 << 40), ("k", 1)] {
            let mut buckets = [0u32; 1024];
            for k in 0..4096u64 {
                buckets[(build.hash_one(Oid(k * stride)) & 1023) as usize] += 1;
            }
            let fullest = buckets.iter().max().copied().unwrap_or(0);
            assert!(fullest <= 16, "{name}: a bucket holds {fullest} of 4096");
        }
    }

    #[test]
    fn two_id_builds_of_one_process_hash_alike() {
        let (a, b) = (IdBuild::default(), IdBuild::default());
        for id in [0u64, 1, 7, 1 << 32, u64::MAX] {
            assert_eq!(a.hash_one(Tid(id)), b.hash_one(Tid(id)));
            assert_eq!(
                a.hash_one(Oid(id)),
                a.hash_one(id),
                "an id hashes as its u64"
            );
        }
        let mut map: IdMap<Oid, u32> = IdMap::default();
        let mut set: IdSet<Tid> = IdSet::default();
        for i in 0..1000u64 {
            map.insert(Oid(i << 32), i as u32);
            set.insert(Tid(i));
        }
        assert!((0..1000u64).all(|i| map[&Oid(i << 32)] == i as u32 && set.contains(&Tid(i))));
    }
}
