//! Lock modes, operations, operation/object sets, and dependency types.

use crate::ids::Oid;
use std::collections::BTreeSet;
use std::fmt;

/// An elementary operation a transaction may perform on an object.
///
/// The paper's lock-request descriptor records a mode of `read`, `write` or
/// `none`; permits name the *operations* they allow. With object-granularity
/// locking the two coincide, so [`Operation`] and [`LockMode`] convert into
/// each other.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Operation {
    /// Read the object.
    Read,
    /// Update the object.
    Write,
}

impl Operation {
    /// The lock mode required to perform this operation.
    #[inline]
    pub fn required_mode(self) -> LockMode {
        match self {
            Operation::Read => LockMode::Read,
            Operation::Write => LockMode::Write,
        }
    }
}

/// The mode of a lock request on an object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum LockMode {
    /// No lock (a placeholder request; never granted as a real lock).
    None,
    /// Shared (read) lock.
    Read,
    /// Exclusive (write) lock.
    Write,
}

impl LockMode {
    /// Does a granted lock in mode `self` *cover* a request for `req`?
    ///
    /// A lock covers a request when no additional locking work is needed:
    /// write covers read and write; read covers read.
    #[inline]
    #[allow(
        clippy::match_like_matches_macro,
        reason = "the match reads as a truth table"
    )]
    pub fn covers(self, req: LockMode) -> bool {
        match (self, req) {
            (_, LockMode::None) => true,
            (LockMode::Write, _) => true,
            (LockMode::Read, LockMode::Read) => true,
            _ => false,
        }
    }

    /// Do two locks held by *different* transactions conflict?
    #[inline]
    #[allow(
        clippy::match_like_matches_macro,
        reason = "the match reads as a truth table"
    )]
    pub fn conflicts(self, other: LockMode) -> bool {
        match (self, other) {
            (LockMode::None, _) | (_, LockMode::None) => false,
            (LockMode::Read, LockMode::Read) => false,
            _ => true,
        }
    }

    /// The least upper bound of two modes (used when delegation merges two
    /// lock-request descriptors for the same object).
    #[inline]
    pub fn max(self, other: LockMode) -> LockMode {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The operation set a lock of this mode makes conflicting for others.
    #[inline]
    pub fn as_opset(self) -> OpSet {
        match self {
            LockMode::None => OpSet::NONE,
            LockMode::Read => OpSet::READ,
            LockMode::Write => OpSet::WRITE,
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockMode::None => "none",
            LockMode::Read => "read",
            LockMode::Write => "write",
        };
        f.write_str(s)
    }
}

/// A set of operations, used as the `operations` argument of `permit`.
///
/// The paper allows a *null* operations argument meaning "all operations";
/// [`OpSet::ALL`] is that value.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSet(u8);

impl OpSet {
    const READ_BIT: u8 = 0b01;
    const WRITE_BIT: u8 = 0b10;

    /// The empty operation set.
    pub const NONE: OpSet = OpSet(0);
    /// Just reads.
    pub const READ: OpSet = OpSet(Self::READ_BIT);
    /// Just writes.
    pub const WRITE: OpSet = OpSet(Self::WRITE_BIT);
    /// All operations (the paper's null `operations` argument).
    pub const ALL: OpSet = OpSet(Self::READ_BIT | Self::WRITE_BIT);

    /// The set whose bits are `bits` (the wire `PERMIT` ops byte: 1 =
    /// read, 2 = write); `None` if a bit outside those two is set.
    pub fn from_bits(bits: u8) -> Option<OpSet> {
        (bits & !Self::ALL.0 == 0).then_some(OpSet(bits))
    }

    /// Build a set from a list of operations.
    pub fn from_ops(ops: &[Operation]) -> OpSet {
        let mut s = OpSet::NONE;
        for &op in ops {
            s = s.insert(op);
        }
        s
    }

    /// Insert an operation.
    #[inline]
    #[must_use]
    pub fn insert(self, op: Operation) -> OpSet {
        match op {
            Operation::Read => OpSet(self.0 | Self::READ_BIT),
            Operation::Write => OpSet(self.0 | Self::WRITE_BIT),
        }
    }

    /// Does the set contain `op`?
    #[inline]
    pub fn contains(self, op: Operation) -> bool {
        match op {
            Operation::Read => self.0 & Self::READ_BIT != 0,
            Operation::Write => self.0 & Self::WRITE_BIT != 0,
        }
    }

    /// Set intersection — the semantics of chained (transitive) permits:
    /// `permit(ti,tj,S,ops)` then `permit(tj,tk,S',ops')` acts as
    /// `permit(ti,tk,S∩S',ops∩ops')`.
    #[inline]
    #[must_use]
    pub fn intersect(self, other: OpSet) -> OpSet {
        OpSet(self.0 & other.0)
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub fn union(self, other: OpSet) -> OpSet {
        OpSet(self.0 | other.0)
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for OpSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpSet::NONE => write!(f, "{{}}"),
            OpSet::READ => write!(f, "{{read}}"),
            OpSet::WRITE => write!(f, "{{write}}"),
            _ => write!(f, "{{read,write}}"),
        }
    }
}

impl Default for OpSet {
    fn default() -> Self {
        OpSet::ALL
    }
}

/// A set of objects, used as the `ob_set` argument of `permit` and
/// `delegate`.
///
/// The paper allows a *null* object-set argument meaning "all objects";
/// [`ObSet::All`] is that value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ObSet {
    /// Every object (the paper's null `ob_set`).
    All,
    /// An explicit set of objects.
    Objects(BTreeSet<Oid>),
}

impl ObSet {
    /// The empty object set.
    pub fn empty() -> ObSet {
        ObSet::Objects(BTreeSet::new())
    }

    /// A singleton set.
    pub fn one(ob: Oid) -> ObSet {
        let mut s = BTreeSet::new();
        s.insert(ob);
        ObSet::Objects(s)
    }

    /// Build from a slice of oids.
    pub fn from_slice(obs: &[Oid]) -> ObSet {
        ObSet::Objects(obs.iter().copied().collect())
    }

    /// Does the set contain `ob`?
    #[inline]
    pub fn contains(&self, ob: Oid) -> bool {
        match self {
            ObSet::All => true,
            ObSet::Objects(s) => s.contains(&ob),
        }
    }

    /// Set intersection (transitive-permit semantics).
    #[must_use]
    pub fn intersect(&self, other: &ObSet) -> ObSet {
        match (self, other) {
            (ObSet::All, o) => o.clone(),
            (s, ObSet::All) => s.clone(),
            (ObSet::Objects(a), ObSet::Objects(b)) => {
                ObSet::Objects(a.intersection(b).copied().collect())
            }
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        match self {
            ObSet::All => false,
            ObSet::Objects(s) => s.is_empty(),
        }
    }

    /// Number of explicit objects; `None` for [`ObSet::All`].
    pub fn len(&self) -> Option<usize> {
        match self {
            ObSet::All => None,
            ObSet::Objects(s) => Some(s.len()),
        }
    }
}

impl From<Oid> for ObSet {
    fn from(ob: Oid) -> Self {
        ObSet::one(ob)
    }
}

impl FromIterator<Oid> for ObSet {
    fn from_iter<I: IntoIterator<Item = Oid>>(iter: I) -> Self {
        ObSet::Objects(iter.into_iter().collect())
    }
}

/// The type of an inter-transaction dependency formed with
/// `form_dependency(type, ti, tj)`.
///
/// The paper's reading of `form_dependency(type, ti, tj)`:
///
/// * **CD** (commit dependency): if both commit, `tj` cannot commit before
///   `ti`; if `ti` aborts, `tj` may still commit.
/// * **AD** (abort dependency): if `ti` aborts, `tj` must abort. AD covers
///   CD (an abort dependency implies a commit dependency).
/// * **GC** (group commit): either both commit or neither.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepType {
    /// Commit dependency.
    CD,
    /// Abort dependency (implies CD).
    AD,
    /// Group commit.
    GC,
}

impl fmt::Display for DepType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepType::CD => "CD",
            DepType::AD => "AD",
            DepType::GC => "GC",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_matrix() {
        use LockMode::*;
        assert!(Write.covers(Write));
        assert!(Write.covers(Read));
        assert!(Read.covers(Read));
        assert!(!Read.covers(Write));
        assert!(Read.covers(None));
        assert!(!None.covers(Read));
        assert!(None.covers(None));
    }

    #[test]
    fn conflicts_matrix() {
        use LockMode::*;
        assert!(!Read.conflicts(Read));
        assert!(Read.conflicts(Write));
        assert!(Write.conflicts(Read));
        assert!(Write.conflicts(Write));
        assert!(!None.conflicts(Write));
        assert!(!Write.conflicts(None));
    }

    #[test]
    fn mode_max() {
        use LockMode::*;
        assert_eq!(Read.max(Write), Write);
        assert_eq!(Write.max(Read), Write);
        assert_eq!(Read.max(Read), Read);
        assert_eq!(None.max(Read), Read);
    }

    #[test]
    fn opset_basics() {
        assert!(OpSet::ALL.contains(Operation::Read));
        assert!(OpSet::ALL.contains(Operation::Write));
        assert!(OpSet::READ.contains(Operation::Read));
        assert!(!OpSet::READ.contains(Operation::Write));
        assert!(OpSet::NONE.is_empty());
        assert_eq!(OpSet::READ.union(OpSet::WRITE), OpSet::ALL);
        assert_eq!(OpSet::READ.intersect(OpSet::WRITE), OpSet::NONE);
        assert_eq!(OpSet::ALL.intersect(OpSet::WRITE), OpSet::WRITE);
        assert_eq!(
            OpSet::from_ops(&[Operation::Read, Operation::Write]),
            OpSet::ALL
        );
    }

    #[test]
    fn obset_wildcards_and_intersection() {
        let a = ObSet::from_slice(&[Oid(1), Oid(2), Oid(3)]);
        let b = ObSet::from_slice(&[Oid(2), Oid(3), Oid(4)]);
        let i = a.intersect(&b);
        assert!(i.contains(Oid(2)) && i.contains(Oid(3)));
        assert!(!i.contains(Oid(1)) && !i.contains(Oid(4)));

        assert!(ObSet::All.contains(Oid(999)));
        assert_eq!(ObSet::All.intersect(&a), a);
        assert_eq!(a.intersect(&ObSet::All), a);
        assert_eq!(ObSet::All.intersect(&ObSet::All), ObSet::All);

        assert!(ObSet::empty().is_empty());
        assert!(!ObSet::All.is_empty());
        assert_eq!(ObSet::All.len(), None);
        assert_eq!(a.len(), Some(3));
    }

    #[test]
    fn operation_required_mode() {
        assert_eq!(Operation::Read.required_mode(), LockMode::Read);
        assert_eq!(Operation::Write.required_mode(), LockMode::Write);
    }

    #[test]
    fn obset_from_iter() {
        let s: ObSet = (1..=3).map(Oid).collect();
        assert!(s.contains(Oid(1)) && s.contains(Oid(3)));
        assert!(!s.contains(Oid(4)));
    }
}
