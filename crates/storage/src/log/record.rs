//! Log record types and their binary encoding.
//!
//! The paper's recovery story (§4.2) is physical before/after-image
//! logging: `write` logs the before image, performs the update, then logs
//! the after image; `commit` places a commit record; `abort` installs
//! before images. We fold both images of one update into a single
//! [`LogRecord::Update`] record (logically equivalent, and atomic under the
//! object latch that EOS holds across the write) — and log the before image
//! only when the log does not already hold it: an object's image, once
//! logged, is the before image of the next write to that object, so that
//! write is an [`LogRecord::Overwrite`], which carries the after image
//! alone. Replay takes the before image from the record that installed it.
//! The log is therefore a self-contained redo history: reading it needs no
//! object store, and a transaction enters it with its first record — there
//! is no `Begin`.
//!
//! Delegation transfers *responsibility* for uncommitted operations, so it
//! must be visible to restart recovery: a [`LogRecord::Delegate`] record
//! reassigns earlier updates to the delegatee.
//!
//! Wire format (v4). A record is its own frame, `[kind u8][payload]`:
//! every tid, oid, count and image length in a payload is LEB128; an
//! optional image or object list is its length **plus one**, `0` meaning
//! `None`. It carries no length and no checksum of its own, because nothing
//! reaches the file one record at a time: the unit of integrity is the
//! **block** one drain writes,
//!
//! ```text
//! [record]* [kind 0][checksum u32]
//! ```
//!
//! closed by a seal whose checksum (FNV-1a, xor-folded to 32 bits) covers
//! every byte since the previous seal. The first block of a log generation
//! opens with the eight-byte [`FORMAT_MARKER`], which its seal covers too.
//! A transfer carrying 16 user bytes over objects the log has seen (two
//! `Overwrite`s of 8-byte images, `Commit`) is 37 bytes with three-byte
//! ids, plus its share of one five-byte seal per drain. Kind 1 was v2's
//! `Begin` and stays reserved.

use crate::page::{checksum, get_u32, put_u32};
use asset_common::{AssetError, Oid, Result, Tid};

/// One write-ahead-log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogRecord {
    /// `tid` updated `oid`, and the log held no image of `oid` to take the
    /// before image from: the first touch of an object since the log was
    /// last truncated. `before == None` means the update created the
    /// object; `after == None` means it deleted it.
    Update {
        /// The responsible transaction at the time of the write.
        tid: Tid,
        /// The object.
        oid: Oid,
        /// Before image (`None` = object did not exist).
        before: Option<Vec<u8>>,
        /// After image (`None` = object deleted).
        after: Option<Vec<u8>>,
    },
    /// `tid` updated `oid`, whose before image is the image the latest
    /// earlier `Update`, `Overwrite` or `Clr` of `oid` in this log
    /// installed. Written by
    /// [`StorageEngine::write_object`](crate::StorageEngine::write_object)
    /// alone, under the object's X latch; a log where no such earlier
    /// record exists is corrupt.
    Overwrite {
        /// The responsible transaction at the time of the write.
        tid: Tid,
        /// The object.
        oid: Oid,
        /// After image (`None` = object deleted).
        after: Option<Vec<u8>>,
    },
    /// The listed transactions committed together (a group-commit resolves
    /// to a single record; the common case is a singleton list).
    Commit {
        /// The committing group.
        tids: Vec<Tid>,
    },
    /// `tid` aborted; its updates were undone.
    Abort {
        /// The transaction.
        tid: Tid,
    },
    /// `from` delegated responsibility for its operations on `obs` to `to`
    /// (`None` = all objects).
    Delegate {
        /// Delegating transaction.
        from: Tid,
        /// Receiving transaction.
        to: Tid,
        /// The delegated objects; `None` is the paper's "all operations
        /// `from` is currently responsible for".
        obs: Option<Vec<Oid>>,
    },
    /// Quiescent checkpoint: no transaction was active and all pages were
    /// flushed when this record was written. Recovery may start here.
    Checkpoint,
    /// Compensation log record: the abort of a transaction — at runtime or
    /// finished by restart — installed `image` over `oid` (one before-image
    /// undo step). Redo-only: recovery replays it in log order and never
    /// undoes it, so a rollback stays exactly where it was left, even if
    /// later committed transactions overwrote the object.
    Clr {
        /// The object whose image was restored.
        oid: Oid,
        /// The restored image (`None` = the undo deleted the object).
        image: Option<Vec<u8>>,
    },
    /// The listed transactions (a local GC group acting as one distributed-
    /// commit participant) are **prepared**: durable but undecided. Their
    /// updates must survive a restart — redone, never undone — until a
    /// `Commit` or `Abort` record resolves them. A prepared group with no
    /// later resolution is reported as *in-doubt* by recovery (DESIGN.md
    /// §14.3); the decision belongs to the commit coordinator.
    Prepared {
        /// The prepared group.
        tids: Vec<Tid>,
    },
}

/// A [`LogRecord`] whose images and id lists are borrowed: what
/// [`LogManager::replay`](crate::LogManager::replay) hands its visitor,
/// straight out of the read buffer, and what the write path encodes while
/// the images still sit in the cache and in the caller's hand.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)] // field for field, `LogRecord`
pub enum RecordRef<'a> {
    Update {
        tid: Tid,
        oid: Oid,
        before: Option<&'a [u8]>,
        after: Option<&'a [u8]>,
    },
    Overwrite {
        tid: Tid,
        oid: Oid,
        after: Option<&'a [u8]>,
    },
    Commit {
        tids: Ids<'a, Tid>,
    },
    Abort {
        tid: Tid,
    },
    Delegate {
        from: Tid,
        to: Tid,
        obs: Option<Ids<'a, Oid>>,
    },
    Checkpoint,
    Clr {
        oid: Oid,
        image: Option<&'a [u8]>,
    },
    Prepared {
        tids: Ids<'a, Tid>,
    },
}

/// A tid or oid: a `u64` that is LEB128 in the log.
pub trait WireId: Copy {
    /// The id with this raw value.
    fn from_raw(raw: u64) -> Self;
    /// The id's raw value.
    fn raw(self) -> u64;
}

impl WireId for Tid {
    fn from_raw(raw: u64) -> Tid {
        Tid(raw)
    }
    fn raw(self) -> u64 {
        self.0
    }
}

impl WireId for Oid {
    fn from_raw(raw: u64) -> Oid {
        Oid(raw)
    }
    fn raw(self) -> u64 {
        self.0
    }
}

/// A borrowed id list: the `Vec` of an owned [`LogRecord`], or the
/// still-encoded ids of a decoded record.
#[derive(Clone, Copy, Debug)]
pub struct Ids<'a, T>(IdsRepr<'a, T>);

#[derive(Clone, Copy, Debug)]
enum IdsRepr<'a, T> {
    Slice(&'a [T]),
    /// `len` LEB128 values, nothing after them (checked by
    /// [`Cursor::ids`]).
    Encoded {
        bytes: &'a [u8],
        len: usize,
    },
}

impl<'a, T: WireId> Ids<'a, T> {
    /// How many ids.
    pub fn len(&self) -> usize {
        match self.0 {
            IdsRepr::Slice(s) => s.len(),
            IdsRepr::Encoded { len, .. } => len,
        }
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids, in record order.
    pub fn iter(&self) -> impl Iterator<Item = T> + 'a {
        let (slice, bytes) = match self.0 {
            IdsRepr::Slice(s) => (s, &[][..]),
            IdsRepr::Encoded { bytes, .. } => (&[][..], bytes),
        };
        let mut pos = 0;
        slice.iter().copied().chain(std::iter::from_fn(move || {
            // validated at decode: every value is whole and fits a u64
            get_varint(bytes, &mut pos).ok().map(T::from_raw)
        }))
    }
}

impl<'a, T> From<&'a [T]> for Ids<'a, T> {
    fn from(ids: &'a [T]) -> Self {
        Ids(IdsRepr::Slice(ids))
    }
}

/// What a v4 log file starts with, at offset 0 of every generation: a file
/// that starts otherwise was written in another format and is refused
/// whole, before a byte of it is parsed, chopped or appended to.
pub const FORMAT_MARKER: [u8; 8] = *b"ASSETWL4";

/// Bytes of a seal: its kind and the block's checksum.
pub const SEAL_LEN: usize = 5;

const KIND_SEAL: u8 = 0;
const KIND_UPDATE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_ABORT: u8 = 4;
const KIND_DELEGATE: u8 = 5;
const KIND_CHECKPOINT: u8 = 6;
const KIND_CLR: u8 = 7;
const KIND_PREPARED: u8 = 8;
const KIND_OVERWRITE: u8 = 9;

/// Why a decode stopped short of an entry.
enum Stop {
    /// The buffer ends inside the entry: more bytes may complete it, and at
    /// the end of the file it is the torn tail.
    Short,
    /// No continuation of the buffer makes these bytes an entry.
    Corrupt(String),
}

type Step<T> = std::result::Result<T, Stop>;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 value at `buf[*pos]`, advancing `pos`.
fn get_varint(buf: &[u8], pos: &mut usize) -> Step<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let &b = buf.get(*pos).ok_or(Stop::Short)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            break;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    Err(Stop::Corrupt("varint overflows u64".into()))
}

/// The checksum a seal carries for `block`, the bytes since the previous
/// seal.
pub(crate) fn block_sum(block: &[u8]) -> u32 {
    let h = checksum(block);
    (h >> 32) as u32 ^ h as u32
}

/// Close the block `buf[from..]` with its seal. The drain appends the
/// seal's five bytes under the append lock ([`open_seal`]) and computes
/// the checksum after releasing it ([`fill_seal`]): hashing is the
/// flusher's work, not the appenders'.
pub(crate) fn open_seal(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&[KIND_SEAL, 0, 0, 0, 0]);
}

/// See [`open_seal`]: `buf` ends with the opened seal of `buf[from..]`.
pub(crate) fn fill_seal(buf: &mut [u8], from: usize) {
    let at = buf.len() - SEAL_LEN;
    let sum = block_sum(&buf[from..at]);
    put_u32(buf, at + 1, sum);
}

fn put_opt_bytes(out: &mut Vec<u8>, v: Option<&[u8]>) {
    match v {
        None => out.push(0),
        Some(b) => {
            put_varint(out, b.len() as u64 + 1);
            out.extend_from_slice(b);
        }
    }
}

/// The ids back to back; the caller has written the count.
fn put_ids<T: WireId>(out: &mut Vec<u8>, ids: Ids<'_, T>) {
    match ids.0 {
        IdsRepr::Slice(s) => {
            for id in s {
                put_varint(out, id.raw());
            }
        }
        IdsRepr::Encoded { bytes, .. } => out.extend_from_slice(bytes),
    }
}

/// Reader over the log's bytes from one entry's first byte on.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn varint(&mut self) -> Step<u64> {
        get_varint(self.buf, &mut self.pos)
    }

    fn id<T: WireId>(&mut self) -> Step<T> {
        self.varint().map(T::from_raw)
    }

    fn bytes(&mut self, n: u64) -> Step<&'a [u8]> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        match usize::try_from(n) {
            Ok(n) if n <= rest.len() => {
                self.pos += n;
                Ok(&rest[..n])
            }
            _ => Err(Stop::Short),
        }
    }

    fn opt_bytes(&mut self) -> Step<Option<&'a [u8]>> {
        match self.varint()? {
            0 => Ok(None),
            n => Ok(Some(self.bytes(n - 1)?)),
        }
    }

    /// `n` ids, each at least one byte long (so `n` is bounded by the
    /// bytes left): walked once here, so that iterating them cannot fail.
    fn ids<T>(&mut self, n: u64) -> Step<Ids<'a, T>> {
        if n > self.buf.len().saturating_sub(self.pos) as u64 {
            return Err(Stop::Short);
        }
        let start = self.pos;
        for _ in 0..n {
            self.varint()?;
        }
        Ok(Ids(IdsRepr::Encoded {
            bytes: &self.buf[start..self.pos],
            len: n as usize,
        }))
    }

    fn tids(&mut self) -> Step<Ids<'a, Tid>> {
        let n = self.varint()?;
        self.ids(n)
    }

    /// The entry at `pos`: the one reader of the format.
    fn entry(&mut self) -> Step<LogEntry<'a>> {
        Ok(LogEntry::Record(match self.bytes(1)?[0] {
            KIND_SEAL => return Ok(LogEntry::Seal(get_u32(self.bytes(4)?, 0))),
            KIND_UPDATE => RecordRef::Update {
                tid: self.id()?,
                oid: self.id()?,
                before: self.opt_bytes()?,
                after: self.opt_bytes()?,
            },
            KIND_OVERWRITE => RecordRef::Overwrite {
                tid: self.id()?,
                oid: self.id()?,
                after: self.opt_bytes()?,
            },
            KIND_COMMIT => RecordRef::Commit { tids: self.tids()? },
            KIND_ABORT => RecordRef::Abort { tid: self.id()? },
            KIND_DELEGATE => RecordRef::Delegate {
                from: self.id()?,
                to: self.id()?,
                obs: match self.varint()? {
                    0 => None,
                    n => Some(self.ids(n - 1)?),
                },
            },
            KIND_CHECKPOINT => RecordRef::Checkpoint,
            KIND_PREPARED => RecordRef::Prepared { tids: self.tids()? },
            KIND_CLR => RecordRef::Clr {
                oid: self.id()?,
                image: self.opt_bytes()?,
            },
            k => return Err(Stop::Corrupt(format!("unknown record kind {k}"))),
        }))
    }
}

/// One entry of the log's byte stream: a record, or the seal that closes
/// the block of records one drain wrote.
#[derive(Clone, Copy, Debug)]
pub enum LogEntry<'a> {
    /// A record.
    Record(RecordRef<'a>),
    /// A seal, with the checksum it carries for the bytes since the
    /// previous seal.
    Seal(u32),
}

impl<'a> LogEntry<'a> {
    /// Decode the entry that starts at `buf[off]`, borrowing from `buf`.
    ///
    /// Returns `Ok(Some((entry, next_off)))`; `Ok(None)` when `buf` ends
    /// before the entry does (more of the log may complete it; at the end
    /// of the file it is the torn tail); `Err` when the bytes are no entry.
    pub fn decode(buf: &'a [u8], off: usize) -> Result<Option<(LogEntry<'a>, usize)>> {
        let mut c = Cursor { buf, pos: off };
        match c.entry() {
            Ok(entry) => Ok(Some((entry, c.pos))),
            Err(Stop::Short) => Ok(None),
            Err(Stop::Corrupt(why)) => Err(AssetError::Corrupt(format!("log record: {why}"))),
        }
    }
}

impl<'a> RecordRef<'a> {
    /// Append the record — kind byte and payload — to `out`: the one
    /// encoder of the format. Encoded in place, so a buffer with room
    /// allocates nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            RecordRef::Update {
                tid,
                oid,
                before,
                after,
            } => {
                out.push(KIND_UPDATE);
                put_varint(out, tid.raw());
                put_varint(out, oid.raw());
                put_opt_bytes(out, before);
                put_opt_bytes(out, after);
            }
            RecordRef::Overwrite { tid, oid, after } => {
                out.push(KIND_OVERWRITE);
                put_varint(out, tid.raw());
                put_varint(out, oid.raw());
                put_opt_bytes(out, after);
            }
            RecordRef::Commit { tids } => {
                out.push(KIND_COMMIT);
                put_varint(out, tids.len() as u64);
                put_ids(out, tids);
            }
            RecordRef::Abort { tid } => {
                out.push(KIND_ABORT);
                put_varint(out, tid.raw());
            }
            RecordRef::Delegate { from, to, obs } => {
                out.push(KIND_DELEGATE);
                put_varint(out, from.raw());
                put_varint(out, to.raw());
                match obs {
                    None => out.push(0),
                    Some(list) => {
                        put_varint(out, list.len() as u64 + 1);
                        put_ids(out, list);
                    }
                }
            }
            RecordRef::Checkpoint => out.push(KIND_CHECKPOINT),
            RecordRef::Prepared { tids } => {
                out.push(KIND_PREPARED);
                put_varint(out, tids.len() as u64);
                put_ids(out, tids);
            }
            RecordRef::Clr { oid, image } => {
                out.push(KIND_CLR);
                put_varint(out, oid.raw());
                put_opt_bytes(out, image);
            }
        }
    }

    /// The record with its images and id lists copied out.
    pub fn to_owned(&self) -> LogRecord {
        let image = |i: Option<&[u8]>| i.map(<[u8]>::to_vec);
        match *self {
            RecordRef::Update {
                tid,
                oid,
                before,
                after,
            } => LogRecord::Update {
                tid,
                oid,
                before: image(before),
                after: image(after),
            },
            RecordRef::Overwrite { tid, oid, after } => LogRecord::Overwrite {
                tid,
                oid,
                after: image(after),
            },
            RecordRef::Commit { tids } => LogRecord::Commit {
                tids: tids.iter().collect(),
            },
            RecordRef::Abort { tid } => LogRecord::Abort { tid },
            RecordRef::Delegate { from, to, obs } => LogRecord::Delegate {
                from,
                to,
                obs: obs.map(|o| o.iter().collect()),
            },
            RecordRef::Checkpoint => LogRecord::Checkpoint,
            RecordRef::Clr { oid, image: i } => LogRecord::Clr {
                oid,
                image: image(i),
            },
            RecordRef::Prepared { tids } => LogRecord::Prepared {
                tids: tids.iter().collect(),
            },
        }
    }
}

impl LogRecord {
    /// The record kind's name (diagnostics; tests assert on log shapes).
    pub fn name(&self) -> &'static str {
        match self {
            LogRecord::Update { .. } => "update",
            LogRecord::Overwrite { .. } => "overwrite",
            LogRecord::Commit { .. } => "commit",
            LogRecord::Abort { .. } => "abort",
            LogRecord::Delegate { .. } => "delegate",
            LogRecord::Checkpoint => "checkpoint",
            LogRecord::Clr { .. } => "clr",
            LogRecord::Prepared { .. } => "prepared",
        }
    }

    /// The record, borrowed.
    pub fn as_ref(&self) -> RecordRef<'_> {
        match self {
            LogRecord::Update {
                tid,
                oid,
                before,
                after,
            } => RecordRef::Update {
                tid: *tid,
                oid: *oid,
                before: before.as_deref(),
                after: after.as_deref(),
            },
            LogRecord::Overwrite { tid, oid, after } => RecordRef::Overwrite {
                tid: *tid,
                oid: *oid,
                after: after.as_deref(),
            },
            LogRecord::Commit { tids } => RecordRef::Commit {
                tids: tids.as_slice().into(),
            },
            LogRecord::Abort { tid } => RecordRef::Abort { tid: *tid },
            LogRecord::Delegate { from, to, obs } => RecordRef::Delegate {
                from: *from,
                to: *to,
                obs: obs.as_deref().map(Ids::from),
            },
            LogRecord::Checkpoint => RecordRef::Checkpoint,
            LogRecord::Clr { oid, image } => RecordRef::Clr {
                oid: *oid,
                image: image.as_deref(),
            },
            LogRecord::Prepared { tids } => RecordRef::Prepared {
                tids: tids.as_slice().into(),
            },
        }
    }

    /// The record's bytes in the log.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.as_ref().encode_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record at `buf[off]`, copied out, and where the next entry
    /// starts.
    fn decode(buf: &[u8], off: usize) -> Option<(LogRecord, usize)> {
        match LogEntry::decode(buf, off).unwrap()? {
            (LogEntry::Record(rec), next) => Some((rec.to_owned(), next)),
            (LogEntry::Seal(_), _) => panic!("a seal at {off}"),
        }
    }

    fn seals(sum: u32, block: &[u8]) -> bool {
        sum == block_sum(block)
    }

    fn roundtrip(rec: LogRecord) {
        let bytes = rec.encode();
        assert_eq!(decode(&bytes, 0), Some((rec.clone(), bytes.len())));
        // a decoded record re-encodes byte for byte from its borrowed form
        let Some((LogEntry::Record(borrowed), _)) = LogEntry::decode(&bytes, 0).unwrap() else {
            panic!("a record");
        };
        let mut again = Vec::new();
        borrowed.encode_into(&mut again);
        assert_eq!(again, bytes);
        // and it is self-delimiting: what follows it is not its business
        let mut followed = bytes.clone();
        followed.extend_from_slice(&[0xFF; 3]);
        assert_eq!(decode(&followed, 0), Some((rec, bytes.len())));
    }

    #[test]
    fn roundtrip_all_kinds() {
        roundtrip(LogRecord::Update {
            tid: Tid(1),
            oid: Oid(2),
            before: Some(vec![1, 2, 3]),
            after: Some(vec![4, 5]),
        });
        roundtrip(LogRecord::Update {
            tid: Tid(1),
            oid: Oid(2),
            before: None,
            after: Some(vec![]),
        });
        roundtrip(LogRecord::Update {
            tid: Tid(1),
            oid: Oid(2),
            before: Some(vec![9]),
            after: None,
        });
        roundtrip(LogRecord::Overwrite {
            tid: Tid(1),
            oid: Oid(2),
            after: Some(vec![4, 5]),
        });
        roundtrip(LogRecord::Overwrite {
            tid: Tid(1),
            oid: Oid(2),
            after: None,
        });
        roundtrip(LogRecord::Commit { tids: vec![Tid(1)] });
        roundtrip(LogRecord::Commit {
            tids: vec![Tid(1), Tid(2), Tid(3)],
        });
        roundtrip(LogRecord::Abort { tid: Tid(4) });
        roundtrip(LogRecord::Delegate {
            from: Tid(1),
            to: Tid(2),
            obs: None,
        });
        roundtrip(LogRecord::Delegate {
            from: Tid(1),
            to: Tid(2),
            obs: Some(vec![Oid(5), Oid(6)]),
        });
        roundtrip(LogRecord::Delegate {
            from: Tid(1),
            to: Tid(2),
            obs: Some(vec![]),
        });
        roundtrip(LogRecord::Checkpoint);
        roundtrip(LogRecord::Prepared { tids: vec![Tid(8)] });
        roundtrip(LogRecord::Prepared {
            tids: vec![Tid(8), Tid(9)],
        });
        roundtrip(LogRecord::Clr {
            oid: Oid(9),
            image: Some(vec![1, 2]),
        });
        roundtrip(LogRecord::Clr {
            oid: Oid(9),
            image: None,
        });
    }

    /// Golden v4 sizes with three-byte tids and oids (16 384 ..= 2 097 151,
    /// where a 100 000-account ledger lives). The last assertion is the
    /// benchmark's `log_bytes_per_txn` claim, guarded in tier-1.
    #[test]
    fn golden_frame_sizes() {
        let (tid, oid) = (Tid(70_000), Oid(90_000));
        let img = || Some(vec![7u8; 8]);
        let len = |r: LogRecord| r.encode().len();
        let update = len(LogRecord::Update {
            tid,
            oid,
            before: img(),
            after: img(),
        });
        let overwrite = len(LogRecord::Overwrite {
            tid,
            oid,
            after: img(),
        });
        let commit = len(LogRecord::Commit { tids: vec![tid] });
        assert_eq!((update, overwrite, commit), (25, 16, 5));
        assert_eq!(len(LogRecord::Abort { tid }), 4);
        assert_eq!(len(LogRecord::Prepared { tids: vec![tid] }), 5);
        assert_eq!(len(LogRecord::Checkpoint), 1);
        assert_eq!(len(LogRecord::Clr { oid, image: img() }), 13);
        let delegate = |obs| LogRecord::Delegate {
            from: tid,
            to: tid,
            obs,
        };
        assert_eq!(len(delegate(None)), 8);
        assert_eq!(len(delegate(Some(vec![oid, oid]))), 14);
        let mut block = vec![1, 2, 3];
        open_seal(&mut block);
        assert_eq!(block.len() - 3, SEAL_LEN);
        assert_eq!(SEAL_LEN, 5);
        assert_eq!(2 * overwrite + commit, 37, "a transfer's log bytes");
    }

    /// A seal is kind 0 and the folded FNV-1a of the block it closes; the
    /// checksum of no bytes is not zero, so a run of zeroes — what a file
    /// system may leave behind a crash — is not an empty sealed block.
    #[test]
    fn a_seal_closes_the_bytes_since_the_previous_one() {
        let mut log = LogRecord::Abort { tid: Tid(1) }.encode();
        open_seal(&mut log);
        fill_seal(&mut log, 0);
        let second = log.len();
        LogRecord::Checkpoint.as_ref().encode_into(&mut log);
        open_seal(&mut log);
        fill_seal(&mut log, second);
        let (_, at) = decode(&log, 0).unwrap();
        let Some((LogEntry::Seal(sum), next)) = LogEntry::decode(&log, at).unwrap() else {
            panic!("a seal");
        };
        assert_eq!((at + SEAL_LEN, next), (second, second));
        assert!(seals(sum, &log[..at]));
        assert!(!seals(sum, &log[..at - 1]));
        let Some((LogEntry::Seal(sum), _)) = LogEntry::decode(&log, second + 1).unwrap() else {
            panic!("a seal");
        };
        assert!(seals(sum, &log[second..second + 1]));
        assert!(!seals(sum, &log[..second + 1]), "one block each");
        assert!(!seals(0, &[]));
    }

    #[test]
    fn varint_edges_roundtrip() {
        roundtrip(LogRecord::Abort { tid: Tid(u64::MAX) });
        roundtrip(LogRecord::Commit {
            tids: vec![Tid(0), Tid(127), Tid(128), Tid(u64::MAX)],
        });
        // `None` and the empty image are different records and lengths
        let update = |before: Option<Vec<u8>>| LogRecord::Update {
            tid: Tid(1),
            oid: Oid(u64::MAX),
            before,
            after: None,
        };
        assert_ne!(update(None).encode(), update(Some(vec![])).encode());
        // image sizes on both sides of every length-prefix width
        for n in [0, 1, 100, 127, 128, 16_383, 16_384] {
            roundtrip(update(Some(vec![0xA5; n])));
            roundtrip(LogRecord::Overwrite {
                tid: Tid(u64::MAX),
                oid: Oid(1),
                after: Some(vec![0xC3; n]),
            });
            roundtrip(LogRecord::Clr {
                oid: Oid(3),
                image: Some(vec![0x5A; n]),
            });
        }
        let bytes = update(Some(vec![1; 16_384])).encode();
        assert_eq!(bytes.len(), 1 + 1 + 10 + (3 + 16_384) + 1);
    }

    #[test]
    fn overlong_varint_is_corrupt_not_torn() {
        // eleven continuation bytes cannot be the prefix of any record
        let mut bytes = vec![KIND_ABORT];
        bytes.extend_from_slice(&[0xFF; 11]);
        assert!(LogEntry::decode(&bytes, 0).is_err());
        bytes.truncate(10);
        bytes.push(0x02); // bit 64
        assert!(LogEntry::decode(&bytes, 0).is_err());
        // nor is a kind nobody writes — v2's `Begin` included
        assert!(LogEntry::decode(&[1, 7], 0).is_err());
        assert!(LogEntry::decode(&[10], 0).is_err());
    }

    /// A count no buffer could hold is never allocated for, nor walked: it
    /// reads as "the record is not whole yet".
    #[test]
    fn id_count_is_bounded_by_the_bytes_at_hand() {
        let mut bytes = vec![KIND_COMMIT];
        put_varint(&mut bytes, u64::MAX);
        assert!(LogEntry::decode(&bytes, 0).unwrap().is_none());
    }

    /// An id list that ends inside an id is not whole when the record is
    /// decoded, not when the list is walked.
    #[test]
    fn truncated_id_list_is_refused_at_decode() {
        let mut bytes = vec![KIND_COMMIT, 2, 5, 0x80];
        assert!(LogEntry::decode(&bytes, 0).unwrap().is_none());
        bytes.push(1);
        let Some((LogEntry::Record(RecordRef::Commit { tids }), _)) =
            LogEntry::decode(&bytes, 0).unwrap()
        else {
            panic!("a commit record");
        };
        assert_eq!(tids.iter().collect::<Vec<_>>(), [Tid(5), Tid(128)]);
    }

    /// Cut a four-record stream at every byte — one record's image length
    /// is two bytes, so one cut falls inside it, and the stream ends in an
    /// `Overwrite` and a seal: the whole entries before the cut decode and
    /// the rest reads as "not whole", never as an error.
    #[test]
    fn a_cut_at_every_byte_is_short_not_corrupt() {
        let recs = [
            LogRecord::Abort { tid: Tid(1) },
            LogRecord::Commit { tids: vec![Tid(1)] },
            LogRecord::Clr {
                oid: Oid(2),
                image: Some(vec![9; 200]),
            },
            LogRecord::Overwrite {
                tid: Tid(3),
                oid: Oid(2),
                after: Some(vec![8; 8]),
            },
        ];
        let mut log = vec![];
        let mut ends = vec![];
        for r in &recs {
            r.as_ref().encode_into(&mut log);
            ends.push(log.len());
        }
        open_seal(&mut log);
        fill_seal(&mut log, 0);
        for cut in 0..log.len() {
            let whole = ends.iter().filter(|e| **e <= cut).count();
            let mut off = 0;
            for rec in &recs[..whole] {
                let (back, next) = decode(&log[..cut], off).unwrap();
                assert_eq!(&back, rec);
                off = next;
            }
            let rest = LogEntry::decode(&log[..cut], off).unwrap();
            assert!(rest.is_none(), "cut at {cut} should read as not whole");
        }
        // an offset past the end of the buffer is the same
        assert!(LogEntry::decode(&log, log.len() + 8).unwrap().is_none());
    }
}
