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
//! Nor does an `Overwrite` log the bytes of its after image that equal that
//! base: it carries a [`Patch`] — the bytes of the base it keeps and the
//! bytes between them — so a transfer that moves one low byte of an 8-byte
//! balance logs that byte; and the CLR that undoes it logs that byte back.
//! The log is therefore a self-contained redo history: reading it needs no
//! object store, and a transaction enters it with its first record — there
//! is no `Begin`.
//!
//! Delegation transfers *responsibility* for uncommitted operations, so it
//! must be visible to restart recovery: a [`LogRecord::Delegate`] record
//! reassigns earlier updates to the delegatee.
//!
//! Wire format (v9). A record is its own frame, `[kind u8][payload]`:
//! every count and image length in a payload is LEB128; an `Update`'s
//! optional image, or an optional object list, is its length **plus one**,
//! `0` meaning `None`. A record
//! carries no length and no checksum of its own, because nothing reaches
//! the file one record at a time: the unit of integrity is the **block**
//! one drain writes,
//!
//! ```text
//! [record]* [kind 0][checksum u32]
//! ```
//!
//! closed by a seal whose checksum (FNV-1a, xor-folded to 32 bits) covers
//! every byte since the previous seal. The first block of a log generation
//! opens with the eight-byte [`FORMAT_MARKER`], which its seal covers too.
//!
//! Ids are written against the generation's [`IdCursor`], which has a tid
//! half and an oid half: each tid field is the zigzag LEB128 delta from
//! the tid field before it, and each oid field — of an `Update`, an
//! `Overwrite`, a CLR, a `Delegate`'s list — from the oid field before it,
//! across seals; the first of each in a generation from 0. So the tids of
//! a transaction's records, and of transactions that follow each other,
//! cost a byte each, and so does the oid of an object created right after
//! the one before it, however many objects came before. A manager that
//! opens a log someone else wrote does not know the last ids in it: the
//! first block it writes opens with a one-byte **reset** entry (kind 12),
//! which starts both halves at 0 again. So a block decodes only with the
//! cursor the blocks before it left, back to the marker or the latest
//! reset. A one-tid `Commit` whose zigzag delta is below 32 carries it in
//! its kind, `0xC0 | z`; a one-tid `Prepared` or an `Abort` below 16,
//! `0xE0 | z` and `0xF0 | z`. Other one-tid `Commit`s and `Prepared`s are
//! kinds 10 and 11, with the delta after them.
//!
//! An `Update` that creates an object — no before image, an after image of
//! 1 to 32 bytes — is **packed**: kind `0x20 | (len − 1)`, its ids, then
//! the bytes, with no before tag and no length. Any other `Update` is kind
//! 2. An image a record installs over one the log already holds — the
//! after image of an `Overwrite`, the restored image of a CLR — is a
//! [`Patch`] against that base. A patch that keeps the base's length, a
//! prefix of at most 7 bytes and a middle of 1 to 8 has a kind of its own,
//! `0x40 | prefix << 3 | (middle − 1)` for an `Overwrite` and `0x80 | …`
//! for a CLR, and the middle bytes are all its payload after the ids: the
//! suffix is what is left of the base. Any other such image is kind 9 or 7
//! with a length varint `h`: `0` for `None`, `2·len + 1` for a whole image
//! of `len` bytes, and `2·(len + 1)` for a patch whose middle is `len`
//! bytes, which the kept prefix and suffix lengths follow before the bytes.
//! A transfer that moves one low byte of two 8-byte balances the log has
//! seen (two packed `Overwrite`s and a `Commit`) is 13 bytes when its oids
//! are three-byte deltas apart, 9 when they are neighbours, plus its share
//! of one five-byte seal per drain; the CLR that undoes one of those writes
//! is 5, and the creation of an 8-byte object next to the previous one 11.
//! Kind 1 was v2's `Begin` and stays reserved.

use asset_common::codec::{put_varint, CodecError, Reader};
use asset_common::{AssetError, Lsn, Oid, Result, Tid};

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
    /// record exists is corrupt. In the log the after image is a [`Patch`]
    /// against that before image; here it is whole, as
    /// [`LogManager::scan`](crate::LogManager::scan) rebuilds it.
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
    /// later committed transactions overwrote the object. In the log the
    /// image is a [`Patch`] against the image the object's latest earlier
    /// record installed, as an `Overwrite`'s is, when the undo found that
    /// image in the cache; here it is whole.
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
#[allow(missing_docs, reason = "field for field, `LogRecord`")]
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
        after: Option<Patch<'a>>,
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
        image: Option<Patch<'a>>,
    },
    Prepared {
        tids: Ids<'a, Tid>,
    },
}

/// The image an `Overwrite` or a CLR installs, as the log carries it: a
/// patch against its **base**, the image the object's latest earlier
/// record installed. The image is the base's first `prefix` bytes, then
/// `middle`, then the base's last `suffix` bytes (PostgreSQL logs a heap
/// update the same way). A patch that keeps nothing is the whole image and
/// needs no base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Patch<'a> {
    /// Bytes kept from the start of the base.
    prefix: usize,
    /// Bytes kept from the end of the base; `None`: every byte past the
    /// middle, so the image keeps the base's length. `None` only in a shape
    /// a packed kind holds (a prefix below 8, a middle of 1 to 8 bytes).
    suffix: Option<usize>,
    /// The bytes between them.
    middle: &'a [u8],
}

/// Bytes of `v` as LEB128.
fn varint_len(v: usize) -> usize {
    1 + (usize::BITS - (v | 1).leading_zeros() - 1) as usize / 7
}

impl<'a> Patch<'a> {
    /// `image`, whole: a patch that keeps nothing of its base.
    pub fn whole(image: &'a [u8]) -> Patch<'a> {
        Patch {
            prefix: 0,
            suffix: Some(0),
            middle: image,
        }
    }

    /// The shortest patch that makes `after` of `base` (`None`: no image):
    /// the longest common prefix, then the longest common suffix of what is
    /// left, packed when the image keeps the base's length and the shape
    /// fits a kind; or the whole image, when that is no longer.
    pub fn between(base: Option<&[u8]>, after: &'a [u8]) -> Patch<'a> {
        let base = base.unwrap_or_default();
        let prefix = base.iter().zip(after).take_while(|(b, a)| b == a).count();
        let room = base.len().min(after.len()) - prefix;
        let ends = base.iter().rev().zip(after.iter().rev()).take(room);
        let suffix = ends.take_while(|(b, a)| b == a).count();
        let middle = &after[prefix..after.len() - suffix];
        let packs = base.len() == after.len() && prefix < 8 && (1..=8).contains(&middle.len());
        let kept = Patch {
            prefix,
            suffix: (!packs).then_some(suffix),
            middle,
        };
        let whole = Patch::whole(after);
        if kept.size() < whole.size() {
            kept
        } else {
            whole
        }
    }

    /// Does the patch keep nothing of its base?
    pub fn is_whole(&self) -> bool {
        self.prefix == 0 && self.suffix == Some(0)
    }

    /// The kind of the 64 from `first` on that holds the patch's shape,
    /// if it keeps the base's length.
    fn kind(self, first: u8) -> Option<u8> {
        let shape = || (self.prefix << 3 | (self.middle.len() - 1)) as u8;
        self.suffix.is_none().then(|| first | shape())
    }

    /// Its bytes in a record past the record's ids.
    fn size(&self) -> usize {
        let m = self.middle.len();
        m + match self.suffix {
            None => 0,
            _ if self.is_whole() => varint_len(2 * m + 1),
            Some(s) => varint_len(2 * (m + 1)) + varint_len(self.prefix) + varint_len(s),
        }
    }

    /// The image this patch makes of `base` (`None`: no image); `None`
    /// when the patch keeps more bytes than `base` has.
    pub fn apply(&self, base: Option<&[u8]>) -> Option<Vec<u8>> {
        if self.is_whole() {
            return Some(self.middle.to_vec());
        }
        let base = base?;
        let tail = match self.suffix {
            Some(suffix) => base.len().checked_sub(suffix)?,
            None => self.prefix + self.middle.len(),
        };
        (self.prefix <= tail && tail <= base.len())
            .then(|| [&base[..self.prefix], self.middle, &base[tail..]].concat())
    }
}

/// The image `after` — an `Overwrite`'s or a CLR's — makes of `base`, the
/// latest image of `oid` in the log read so far (`None`: the log holds
/// none): the one check of a patch, made wherever the log is replayed. A patch that keeps more bytes than
/// its base has — or keeps bytes of no image — is `Corrupt`.
pub(crate) fn rebuild(
    lsn: Lsn,
    oid: Oid,
    after: Option<Patch<'_>>,
    base: Option<&Option<Vec<u8>>>,
) -> Result<Option<Vec<u8>>> {
    let Some(patch) = after else { return Ok(None) };
    let base = base.and_then(Option::as_deref);
    patch.apply(base).map(Some).ok_or_else(|| {
        let of = base.map_or("no image".into(), |b| format!("a {}-byte image", b.len()));
        AssetError::Corrupt(format!(
            "log offset {}: the patch of {oid} does not fit {of}: {patch:?}",
            lsn.0
        ))
    })
}

/// What a log generation's next id fields are written against: a tid half
/// and an oid half, each 0 at the start of the generation and after a
/// reset entry, then the id of the previous field of its kind, from which
/// the next is a zigzag delta — across seals. The encoder keeps one beside
/// the pending buffer, a reader one for the stream it walks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdCursor {
    tid: u64,
    oid: u64,
}

impl IdCursor {
    /// Move to `tid` and return its zigzag delta from where the tid half
    /// was, if that is below `2^bits`; else leave the cursor be.
    fn short(&mut self, tid: Tid, bits: u32) -> Option<u8> {
        let z = zigzag(i128::from(tid.0) - i128::from(self.tid));
        (z >> bits == 0).then(|| {
            self.tid = tid.0;
            z as u8
        })
    }
}

/// Move `half` by the zigzag delta `z`: `Corrupt` when it leaves `u64`.
fn step(half: &mut u64, z: u128) -> Step<u64> {
    let prev = *half;
    *half = u64::try_from(i128::from(prev) + unzigzag(z))
        .map_err(|_| CodecError::Corrupt(format!("an id delta leaves u64 from {prev}")))?;
    Ok(*half)
}

/// `0, -1, 1, -2, …` as `0, 1, 2, 3, …`: a delta between two `u64`s in 65
/// bits.
fn zigzag(d: i128) -> u128 {
    ((d << 1) ^ (d >> 127)) as u128
}

/// See [`zigzag`].
fn unzigzag(z: u128) -> i128 {
    (z >> 1) as i128 ^ -((z & 1) as i128)
}

/// A zigzagged delta as LEB128: at most ten bytes, one for a delta within
/// ±63.
fn put_delta(out: &mut Vec<u8>, d: i128) {
    let mut z = zigzag(d);
    while z >= 0x80 {
        out.push(z as u8 | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

/// See [`put_delta`]: the zigzagged delta, not yet undone.
fn delta(r: &mut Reader<'_>) -> Step<u128> {
    let mut z = 0u128;
    for shift in (0..70).step_by(7) {
        let b = r.u8()?;
        z |= u128::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            if z >> 65 != 0 {
                break;
            }
            return Ok(z);
        }
    }
    Err(CodecError::Corrupt("an id delta runs past 65 bits".into()))
}

/// A tid or an oid as the log writes it: the zigzag delta from the previous
/// field of its kind, against its half of the generation's [`IdCursor`].
pub trait WireId: Copy {
    /// The id's half of `cursor`.
    fn half(cursor: &mut IdCursor) -> &mut u64;
    /// The id as a number.
    fn raw(self) -> u64;
    /// The id of a number.
    fn of(raw: u64) -> Self;

    /// Append the id, moving `cursor` past it.
    fn put(self, out: &mut Vec<u8>, cursor: &mut IdCursor) {
        let half = Self::half(cursor);
        put_delta(out, i128::from(self.raw()) - i128::from(*half));
        *half = self.raw();
    }

    /// Read an id, moving `cursor` past it.
    fn get(r: &mut Reader<'_>, cursor: &mut IdCursor) -> std::result::Result<Self, CodecError> {
        step(Self::half(cursor), delta(r)?).map(Self::of)
    }
}

impl WireId for Tid {
    fn half(cursor: &mut IdCursor) -> &mut u64 {
        &mut cursor.tid
    }
    fn raw(self) -> u64 {
        self.0
    }
    fn of(raw: u64) -> Tid {
        Tid(raw)
    }
}

impl WireId for Oid {
    fn half(cursor: &mut IdCursor) -> &mut u64 {
        &mut cursor.oid
    }
    fn raw(self) -> u64 {
        self.0
    }
    fn of(raw: u64) -> Oid {
        Oid(raw)
    }
}

/// A borrowed id list: the `Vec` of an owned [`LogRecord`], or the
/// still-encoded ids of a decoded record.
#[derive(Clone, Copy, Debug)]
pub struct Ids<'a, T>(IdsRepr<'a, T>);

#[derive(Clone, Copy, Debug)]
enum IdsRepr<'a, T> {
    Slice(&'a [T]),
    /// The one tid a short kind carries.
    One(T),
    /// `len` ids, nothing after them (checked by [`ids`]), the first
    /// written against `base`.
    Encoded {
        bytes: &'a [u8],
        len: usize,
        base: IdCursor,
    },
}

impl<'a, T: WireId> Ids<'a, T> {
    /// How many ids.
    pub fn len(&self) -> usize {
        match self.0 {
            IdsRepr::Slice(s) => s.len(),
            IdsRepr::One(_) => 1,
            IdsRepr::Encoded { len, .. } => len,
        }
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids, in record order.
    pub fn iter(&self) -> impl Iterator<Item = T> + 'a {
        let (slice, one, bytes, mut cursor) = match self.0 {
            IdsRepr::Slice(s) => (s, None, &[][..], IdCursor::default()),
            IdsRepr::One(id) => (&[][..], Some(id), &[][..], IdCursor::default()),
            IdsRepr::Encoded { bytes, base, .. } => (&[][..], None, bytes, base),
        };
        let mut r = Reader::new(bytes);
        let encoded = std::iter::from_fn(move || {
            // validated at decode: every id is whole and fits a u64
            T::get(&mut r, &mut cursor).ok()
        });
        slice.iter().copied().chain(one).chain(encoded)
    }
}

impl<'a, T> From<&'a [T]> for Ids<'a, T> {
    fn from(ids: &'a [T]) -> Self {
        Ids(IdsRepr::Slice(ids))
    }
}

/// What a v9 log file starts with, at offset 0 of every generation: a file
/// that starts otherwise was written in another format and is refused
/// whole, before a byte of it is parsed, chopped or appended to.
pub const FORMAT_MARKER: [u8; 8] = *b"ASSETWL9";

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
const KIND_COMMIT_ONE: u8 = 10;
const KIND_PREPARED_ONE: u8 = 11;
const KIND_RESET: u8 = 12;
/// The first of the 32 packed creating `Update` kinds, `0x20..=0x3F`: the
/// after image is the low five bits plus one bytes long.
const KIND_CREATE: u8 = 0x20;
/// The first of the 64 packed `Overwrite` kinds, `0x40..=0x7F`.
const KIND_PACKED: u8 = 0x40;
/// The first of the 64 packed CLR kinds, `0x80..=0xBF`.
const KIND_PACKED_CLR: u8 = 0x80;
/// A one-tid `Commit` whose zigzag delta is the low five bits,
/// `0xC0..=0xDF`.
const KIND_COMMIT_SHORT: u8 = 0xC0;
/// A one-tid `Prepared`, `0xE0..=0xEF`, and an `Abort`, `0xF0..=0xFF`,
/// whose zigzag delta is the low four bits.
const KIND_PREPARED_SHORT: u8 = 0xE0;
const KIND_ABORT_SHORT: u8 = 0xF0;

/// The kinds of a record of one tid: its long form, which the delta
/// follows, its short forms' first kind and how many bits of delta they
/// hold.
struct OneTid {
    long: u8,
    short: u8,
    bits: u32,
}

const COMMIT_ONE: OneTid = OneTid {
    long: KIND_COMMIT_ONE,
    short: KIND_COMMIT_SHORT,
    bits: 5,
};
const PREPARED_ONE: OneTid = OneTid {
    long: KIND_PREPARED_ONE,
    short: KIND_PREPARED_SHORT,
    bits: 4,
};
const ABORT: OneTid = OneTid {
    long: KIND_ABORT,
    short: KIND_ABORT_SHORT,
    bits: 4,
};

/// FNV-1a 64-bit checksum, for log blocks and the object store's image.
///
/// Not cryptographic; it detects torn writes and truncation, which is all a
/// single-node store needs.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The checksum a seal carries for `block`, the bytes since the previous
/// seal.
pub(crate) fn block_sum(block: &[u8]) -> u32 {
    let h = checksum(block);
    (h >> 32) as u32 ^ h as u32
}

/// Open the first block a manager writes to a log it did not start: the
/// entry that starts both halves of the id cursor at 0 again.
pub(crate) fn open_reset(buf: &mut Vec<u8>, cursor: &mut IdCursor) {
    buf.push(KIND_RESET);
    *cursor = IdCursor::default();
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
    buf[at + 1..at + SEAL_LEN].copy_from_slice(&sum.to_le_bytes());
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

/// The kind of an `Overwrite` or a CLR that carries `image`: the one of
/// the 64 from `packed` that holds the patch's shape, else `long`.
fn patched_kind(image: Option<Patch<'_>>, [long, packed]: [u8; 2]) -> u8 {
    image.and_then(|p| p.kind(packed)).unwrap_or(long)
}

/// An image past its record's ids: `h`, then a patch's kept lengths, then
/// the bytes — or the bytes alone, packed (see the module documentation).
fn put_patch(out: &mut Vec<u8>, after: Option<Patch<'_>>) {
    let Some(p) = after else { return out.push(0) };
    match p.suffix {
        _ if p.is_whole() => put_varint(out, 2 * p.middle.len() as u64 + 1),
        Some(suffix) => {
            put_varint(out, 2 * (p.middle.len() as u64 + 1));
            put_varint(out, p.prefix as u64);
            put_varint(out, suffix as u64);
        }
        None => {}
    }
    out.extend_from_slice(p.middle);
}

/// The ids back to back; the caller has written the count. Decoded ids
/// are encoded again, not copied: they were written against another
/// cursor.
fn put_ids<T: WireId>(out: &mut Vec<u8>, ids: Ids<'_, T>, cursor: &mut IdCursor) {
    for id in ids.iter() {
        id.put(out, cursor);
    }
}

/// A record of one tid: a short kind that holds the tid's delta, or the
/// long kind and the delta.
fn put_one(out: &mut Vec<u8>, kinds: OneTid, tid: Tid, c: &mut IdCursor) {
    match c.short(tid, kinds.bits) {
        Some(z) => out.push(kinds.short | z),
        None => {
            out.push(kinds.long);
            tid.put(out, c);
        }
    }
}

/// A `Commit` or `Prepared` group: as a record of one tid, or kind `many`,
/// the count and the tids.
fn put_group(out: &mut Vec<u8>, many: u8, one: OneTid, tids: Ids<'_, Tid>, c: &mut IdCursor) {
    if let (1, Some(tid)) = (tids.len(), tids.iter().next()) {
        return put_one(out, one, tid, c);
    }
    out.push(many);
    put_varint(out, tids.len() as u64);
    put_ids(out, tids, c);
}

/// A decode step: [`CodecError::Short`] is "not whole yet" (at the end of
/// the file, the torn tail), [`CodecError::Corrupt`] is "no entry".
type Step<T> = std::result::Result<T, CodecError>;

fn opt_bytes<'a>(r: &mut Reader<'a>) -> Step<Option<&'a [u8]>> {
    let Some(len) = r.varint()?.checked_sub(1) else {
        return Ok(None);
    };
    r.bytes(usize::try_from(len).map_err(|_| CodecError::Short)?)
        .map(Some)
}

/// The image of a kind-9 `Overwrite` or a kind-7 CLR: see [`put_patch`].
fn patch<'a>(r: &mut Reader<'a>) -> Step<Option<Patch<'a>>> {
    let kept = |r: &mut Reader<'a>| {
        usize::try_from(r.varint()?)
            .map_err(|_| CodecError::Corrupt("a kept length overflows".into()))
    };
    let h = r.varint()?;
    if h == 0 {
        return Ok(None);
    }
    let (prefix, suffix) = match h % 2 {
        1 => (0, 0),
        _ => (kept(r)?, kept(r)?),
    };
    let len = usize::try_from((h - 1) / 2).map_err(|_| CodecError::Short)?;
    Ok(Some(Patch {
        prefix,
        suffix: Some(suffix),
        middle: r.bytes(len)?,
    }))
}

/// `n` ids, each at least one byte long (so `n` is bounded by the bytes
/// left): walked once here, so that iterating them cannot fail.
fn ids<'a, T: WireId>(r: &mut Reader<'a>, n: u64, c: &mut IdCursor) -> Step<Ids<'a, T>> {
    if n > r.remaining() as u64 {
        return Err(CodecError::Short);
    }
    let (mut walk, base) = (*r, *c);
    for _ in 0..n {
        T::get(&mut walk, c)?;
    }
    Ok(Ids(IdsRepr::Encoded {
        bytes: r.bytes(walk.pos() - r.pos())?,
        len: n as usize,
        base,
    }))
}

fn tids<'a>(r: &mut Reader<'a>, c: &mut IdCursor) -> Step<Ids<'a, Tid>> {
    let n = r.varint()?;
    ids(r, n, c)
}

/// The patch a packed kind `k` holds: its shape from the kind, its middle
/// from `r`.
fn packed<'a>(r: &mut Reader<'a>, k: u8) -> Step<Patch<'a>> {
    Ok(Patch {
        prefix: usize::from(k >> 3 & 7),
        suffix: None,
        middle: r.bytes(usize::from(k & 7) + 1)?,
    })
}

/// The tid a short kind `k` of `one` holds: its low bits, the delta.
fn short_tid(k: u8, one: OneTid, c: &mut IdCursor) -> Step<Tid> {
    step(&mut c.tid, u128::from(k & ((1 << one.bits) - 1))).map(Tid)
}

/// The entry at `r`, its ids read against `c`: the one reader of the
/// format. Short when the bytes end inside it, corrupt when no
/// continuation makes them an entry.
fn entry<'a>(r: &mut Reader<'a>, c: &mut IdCursor) -> Step<LogEntry<'a>> {
    Ok(LogEntry::Record(match r.u8()? {
        KIND_SEAL => return Ok(LogEntry::Seal(r.u32()?)),
        KIND_RESET => {
            *c = IdCursor::default();
            return Ok(LogEntry::Reset);
        }
        KIND_UPDATE => RecordRef::Update {
            tid: Tid::get(r, c)?,
            oid: Oid::get(r, c)?,
            before: opt_bytes(r)?,
            after: opt_bytes(r)?,
        },
        k @ KIND_CREATE..=0x3F => RecordRef::Update {
            tid: Tid::get(r, c)?,
            oid: Oid::get(r, c)?,
            before: None,
            after: Some(r.bytes(usize::from(k & 0x1F) + 1)?),
        },
        KIND_OVERWRITE => RecordRef::Overwrite {
            tid: Tid::get(r, c)?,
            oid: Oid::get(r, c)?,
            after: patch(r)?,
        },
        k @ KIND_PACKED..=0x7F => RecordRef::Overwrite {
            tid: Tid::get(r, c)?,
            oid: Oid::get(r, c)?,
            after: Some(packed(r, k)?),
        },
        KIND_COMMIT => RecordRef::Commit { tids: tids(r, c)? },
        KIND_COMMIT_ONE => RecordRef::Commit {
            tids: ids(r, 1, c)?,
        },
        k @ KIND_COMMIT_SHORT..=0xDF => RecordRef::Commit {
            tids: Ids(IdsRepr::One(short_tid(k, COMMIT_ONE, c)?)),
        },
        KIND_ABORT => RecordRef::Abort {
            tid: Tid::get(r, c)?,
        },
        k @ KIND_ABORT_SHORT..=0xFF => RecordRef::Abort {
            tid: short_tid(k, ABORT, c)?,
        },
        KIND_DELEGATE => RecordRef::Delegate {
            from: Tid::get(r, c)?,
            to: Tid::get(r, c)?,
            obs: match r.varint()? {
                0 => None,
                n => Some(ids(r, n - 1, c)?),
            },
        },
        KIND_CHECKPOINT => RecordRef::Checkpoint,
        KIND_PREPARED => RecordRef::Prepared { tids: tids(r, c)? },
        KIND_PREPARED_ONE => RecordRef::Prepared {
            tids: ids(r, 1, c)?,
        },
        k @ KIND_PREPARED_SHORT..=0xEF => RecordRef::Prepared {
            tids: Ids(IdsRepr::One(short_tid(k, PREPARED_ONE, c)?)),
        },
        KIND_CLR => RecordRef::Clr {
            oid: Oid::get(r, c)?,
            image: patch(r)?,
        },
        k @ KIND_PACKED_CLR..=0xBF => RecordRef::Clr {
            oid: Oid::get(r, c)?,
            image: Some(packed(r, k)?),
        },
        k => return Err(CodecError::Corrupt(format!("unknown record kind {k}"))),
    }))
}

/// One entry of the log's byte stream: a record, the seal that closes the
/// block of records one drain wrote, or the reset that opens the first
/// block a manager wrote to a log it did not start.
#[derive(Clone, Copy, Debug)]
pub enum LogEntry<'a> {
    /// A record.
    Record(RecordRef<'a>),
    /// A seal, with the checksum it carries for the bytes since the
    /// previous seal.
    Seal(u32),
    /// The id cursor starts at 0 again.
    Reset,
}

impl<'a> LogEntry<'a> {
    /// Decode the entry at `buf[off]` whose ids are read against a fresh
    /// cursor — the first of a generation, or one a reset entry precedes —
    /// borrowing from `buf`.
    ///
    /// Returns `Ok(Some((entry, next_off)))`; `Ok(None)` when `buf` ends
    /// before the entry does (more of the log may complete it; at the end
    /// of the file it is the torn tail); `Err` when the bytes are no entry.
    pub fn decode(buf: &'a [u8], off: usize) -> Result<Option<(LogEntry<'a>, usize)>> {
        Self::decode_in(buf, off, &mut IdCursor::default())
    }

    /// [`decode`](Self::decode) the entry at `buf[off]` of a stream whose
    /// earlier entries, back to the generation's marker or the latest
    /// reset, left `cursor`, and move the cursor past it if it is whole.
    pub fn decode_in(
        buf: &'a [u8],
        off: usize,
        cursor: &mut IdCursor,
    ) -> Result<Option<(LogEntry<'a>, usize)>> {
        let mut r = Reader::new(buf.get(off..).unwrap_or_default());
        let mut c = *cursor;
        match entry(&mut r, &mut c) {
            Ok(entry) => {
                *cursor = c;
                Ok(Some((entry, off + r.pos())))
            }
            Err(CodecError::Short) => Ok(None),
            Err(CodecError::Corrupt(why)) => Err(AssetError::Corrupt(format!("log record: {why}"))),
        }
    }
}

impl<'a> RecordRef<'a> {
    /// Append the record — kind byte and payload — to `out`, its ids
    /// written against `c`, the cursor of the stream `out` ends: the one
    /// encoder of the format. Encoded in place, so a buffer with room
    /// allocates nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>, c: &mut IdCursor) {
        match *self {
            RecordRef::Update {
                tid,
                oid,
                before,
                after,
            } => {
                let create = after.filter(|a| before.is_none() && (1..=32).contains(&a.len()));
                out.push(create.map_or(KIND_UPDATE, |a| KIND_CREATE | (a.len() - 1) as u8));
                tid.put(out, c);
                oid.put(out, c);
                match create {
                    Some(after) => out.extend_from_slice(after),
                    None => {
                        put_opt_bytes(out, before);
                        put_opt_bytes(out, after);
                    }
                }
            }
            RecordRef::Overwrite { tid, oid, after } => {
                out.push(patched_kind(after, [KIND_OVERWRITE, KIND_PACKED]));
                tid.put(out, c);
                oid.put(out, c);
                put_patch(out, after);
            }
            RecordRef::Commit { tids } => put_group(out, KIND_COMMIT, COMMIT_ONE, tids, c),
            RecordRef::Abort { tid } => put_one(out, ABORT, tid, c),
            RecordRef::Delegate { from, to, obs } => {
                out.push(KIND_DELEGATE);
                from.put(out, c);
                to.put(out, c);
                match obs {
                    None => out.push(0),
                    Some(list) => {
                        put_varint(out, list.len() as u64 + 1);
                        put_ids(out, list, c);
                    }
                }
            }
            RecordRef::Checkpoint => out.push(KIND_CHECKPOINT),
            RecordRef::Prepared { tids } => put_group(out, KIND_PREPARED, PREPARED_ONE, tids, c),
            RecordRef::Clr { oid, image } => {
                out.push(patched_kind(image, [KIND_CLR, KIND_PACKED_CLR]));
                oid.put(out, c);
                put_patch(out, image);
            }
        }
    }

    /// The record with its images and id lists copied out.
    ///
    /// # Panics
    ///
    /// On an `Overwrite` or a CLR whose image is a patch that keeps bytes
    /// of its base: the record does not hold that image.
    /// [`LogManager::scan`](crate::LogManager::scan), which has read the
    /// base, copies such a record out.
    pub fn to_owned(&self) -> LogRecord {
        let image = |i: Option<&[u8]>| i.map(<[u8]>::to_vec);
        #[expect(clippy::panic, reason = "documented: such a patch is not an image")]
        let whole = |i: Option<Patch<'_>>| {
            i.map(|p| {
                p.apply(None)
                    .unwrap_or_else(|| panic!("{p:?} needs its base"))
            })
        };
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
                after: whole(after),
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
            RecordRef::Clr { oid, image } => LogRecord::Clr {
                oid,
                image: whole(image),
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
                after: after.as_deref().map(Patch::whole),
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
                image: image.as_deref().map(Patch::whole),
            },
            LogRecord::Prepared { tids } => RecordRef::Prepared {
                tids: tids.as_slice().into(),
            },
        }
    }

    /// The record's bytes as the first entry of a generation, its ids
    /// deltas from 0.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.as_ref()
            .encode_into(&mut out, &mut IdCursor::default());
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
            (entry, _) => panic!("{entry:?} at {off}"),
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
        borrowed.encode_into(&mut again, &mut IdCursor::default());
        assert_eq!(again, bytes);
        // and it is self-delimiting: what follows it is not its business
        let mut followed = bytes.clone();
        followed.extend_from_slice(&[0xFF; 3]);
        assert_eq!(decode(&followed, 0), Some((rec, bytes.len())));
    }

    /// An `Overwrite` carrying `patch` decodes to the same patch, and ends
    /// where its bytes do.
    fn patch_roundtrip(patch: Patch<'_>) {
        let mut bytes = Vec::new();
        RecordRef::Overwrite {
            tid: Tid(1),
            oid: Oid(2),
            after: Some(patch),
        }
        .encode_into(&mut bytes, &mut IdCursor::default());
        let Some((LogEntry::Record(RecordRef::Overwrite { after, .. }), end)) =
            LogEntry::decode(&bytes, 0).unwrap()
        else {
            panic!("an overwrite");
        };
        assert_eq!((after, end), (Some(patch), bytes.len()));
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
            before: None,
            after: Some(vec![3; 8]),
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

    /// Golden v9 sizes with three-byte tids and oids (16 384 ..= 2 097 151,
    /// where a 100 000-account ledger lives), each record the first of a
    /// generation (its ids deltas from 0, three bytes each), and
    /// `Overwrite`s and CLRs as the write and undo paths patch them over
    /// 8-byte balances near 1 000, the ledger's. Then a transfer as the log
    /// holds it: only a generation's first ids, or the first past a reset,
    /// are wide; every later tid is a one-byte delta, across seals too, and
    /// every later oid costs its distance from the oid before it — one byte
    /// between neighbours, three between two accounts drawn at random. The
    /// last assertions are the benchmark's `log_bytes_per_txn` claim,
    /// guarded in tier-1.
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
        let create = len(LogRecord::Update {
            tid,
            oid,
            before: None,
            after: img(),
        });
        let whole = len(LogRecord::Overwrite {
            tid,
            oid,
            after: img(),
        });
        let encode = |rec: RecordRef<'_>, c: &mut IdCursor| {
            let mut out = Vec::new();
            rec.encode_into(&mut out, c);
            out.len()
        };
        // the write path's `Overwrite` of `oid` from `from` to `to`
        let overwrite = |tid, oid, from: i64, to: i64, c: &mut IdCursor| {
            let (base, after) = (from.to_le_bytes(), to.to_le_bytes());
            let after = Some(Patch::between(Some(&base), &after));
            encode(RecordRef::Overwrite { tid, oid, after }, c)
        };
        // the undo path's CLR of `oid` from `from` back to `to`
        let clr = |from: i64, to: i64| {
            let (base, image) = (from.to_le_bytes(), to.to_le_bytes());
            let image = Some(Patch::between(Some(&base), &image));
            encode(RecordRef::Clr { oid, image }, &mut IdCursor::default())
        };
        let alone = |from, to| overwrite(tid, oid, from, to, &mut IdCursor::default());
        let commit = len(LogRecord::Commit { tids: vec![tid] });
        assert_eq!((update, create, whole, commit), (25, 15, 16, 4));
        // 1 000 - 37 = 0x03C3 beside 0x03E8: one byte moves, seven stay,
        // and the packed kind says which
        assert_eq!(alone(1_000, 963), 8);
        // 1 000 + 50 = 0x041A: the carry moves two
        assert_eq!(alone(1_000, 1_050), 9);
        // an unchanged image keeps all eight, in kind 9's three lengths
        assert_eq!(alone(1_000, 1_000), 10);
        // 50 → -50 moves every byte: packed still, one byte under whole
        assert_eq!(alone(50, -50), whole - 1);
        assert_eq!(len(LogRecord::Abort { tid }), 4);
        assert_eq!(len(LogRecord::Prepared { tids: vec![tid] }), 4);
        // a group carries its count, and its later tids are deltas
        let group = || vec![tid, Tid(70_001)];
        assert_eq!(len(LogRecord::Commit { tids: group() }), 6);
        assert_eq!(len(LogRecord::Prepared { tids: group() }), 6);
        assert_eq!(len(LogRecord::Checkpoint), 1);
        // a CLR with no base carries its whole image; over its base, the
        // bytes it restores: undoing a transfer's write moves one byte back
        assert_eq!(len(LogRecord::Clr { oid, image: img() }), 13);
        assert_eq!(clr(979, 1_000), 5);
        assert_eq!(clr(1_050, 1_000), 6);
        let delegate = |obs| LogRecord::Delegate {
            from: tid,
            to: tid,
            obs,
        };
        assert_eq!(len(delegate(None)), 6);
        // the list's second oid is a delta from its first
        assert_eq!(len(delegate(Some(vec![oid, oid]))), 10);
        let mut block = vec![1, 2, 3];
        open_seal(&mut block);
        assert_eq!(block.len() - 3, SEAL_LEN);
        assert_eq!(SEAL_LEN, 5);
        // one balance down by k, the other up by k, and the commit
        let transfer = |tid: Tid, [a, b]: [Oid; 2], c: &mut IdCursor| {
            let down = overwrite(tid, a, 1_000, 979, c);
            let up = overwrite(tid, b, 1_000, 1_021, c);
            let commit = LogRecord::Commit { tids: vec![tid] };
            [down, up, encode(commit.as_ref(), c)]
        };
        // two accounts far apart, then two neighbours: a transfer opening a
        // generation, then one amid it
        let mut bytes = Vec::new();
        for pair in [[oid, Oid(140_000)], [oid, Oid(90_001)]] {
            let mut c = IdCursor::default();
            let opening = transfer(tid, pair, &mut c);
            let amid = transfer(Tid(70_001), pair, &mut c);
            // a seal between two transfers changes nothing: the cursor runs on
            assert_eq!(transfer(Tid(70_002), pair, &mut c), amid, "{pair:?}");
            let mut reset = Vec::new();
            open_reset(&mut reset, &mut c);
            assert_eq!(transfer(Tid(70_003), pair, &mut c), opening, "{pair:?}");
            assert_eq!(reset.len(), 1);
            bytes.push([opening, amid]);
        }
        assert_eq!(bytes, [[[8, 6, 1], [6, 6, 1]], [[8, 4, 1], [4, 4, 1]]]);
        let sums: Vec<_> = bytes
            .iter()
            .map(|t| t.map(|r| r.iter().sum::<usize>()))
            .collect();
        assert_eq!(sums, [[15, 13], [13, 9]], "a transfer's log bytes");
        // objects created one after the other, as a node stages them: kind,
        // tid, oid and eight bytes, at small oids and past 2^21 alike; only
        // the generation's first tid and the jump between the two cost
        // their width
        let mut c = IdCursor::default();
        let created = [10, 11, (1 << 21) + 5, (1 << 21) + 6].map(|o| {
            let after = 7u64.to_le_bytes();
            let (oid, after) = (Oid(o), Some(&after[..]));
            encode(
                RecordRef::Update {
                    tid,
                    oid,
                    before: None,
                    after,
                },
                &mut c,
            )
        });
        assert_eq!(created, [13, 11, 14, 11]);
    }

    /// Every short kind decodes to the record it encodes — the 32 deltas
    /// a one-tid `Commit`'s kind holds, the 16 of a one-tid `Prepared` and
    /// of an `Abort` — and the delta just past each range, either way,
    /// takes the long form, one byte for the kind and one for the delta.
    #[test]
    fn each_short_tid_kind_roundtrips_and_the_next_delta_is_long() {
        type Make = fn(Tid) -> LogRecord;
        let kinds: [(Make, u8, u8, i64); 3] = [
            (
                |t| LogRecord::Commit { tids: vec![t] },
                KIND_COMMIT_SHORT,
                KIND_COMMIT_ONE,
                16,
            ),
            (
                |t| LogRecord::Prepared { tids: vec![t] },
                KIND_PREPARED_SHORT,
                KIND_PREPARED_ONE,
                8,
            ),
            (
                |t| LogRecord::Abort { tid: t },
                KIND_ABORT_SHORT,
                KIND_ABORT,
                8,
            ),
        ];
        let prev = 70_000i64;
        for (make, short, long, half) in kinds {
            let mut seen = Vec::new();
            for d in -half - 1..=half {
                let rec = make(Tid((prev + d) as u64));
                // after a record that left the cursor at `prev`
                let at = IdCursor {
                    tid: prev as u64,
                    oid: 0,
                };
                let (mut c, mut back) = (at, at);
                let mut bytes = Vec::new();
                rec.as_ref().encode_into(&mut bytes, &mut c);
                let Some((LogEntry::Record(got), end)) =
                    LogEntry::decode_in(&bytes, 0, &mut back).unwrap()
                else {
                    panic!("a record");
                };
                assert_eq!((got.to_owned(), end, back), (rec, bytes.len(), c), "{d}");
                if (-half..half).contains(&d) {
                    assert_eq!(end, 1, "{d}: short");
                    seen.push(bytes[0]);
                } else {
                    assert_eq!((bytes[0], end), (long, 2), "{d}: long");
                }
            }
            seen.sort_unstable();
            let all: Vec<u8> = (short..=short + (2 * half - 1) as u8).collect();
            assert_eq!(seen, all);
        }
        // a group of two is never short
        let two = LogRecord::Commit {
            tids: vec![Tid(1), Tid(1)],
        };
        assert_eq!(two.encode()[0], KIND_COMMIT);
    }

    /// Each of the 64 same-length shapes packs a CLR into a kind of its
    /// own, `0x80 | p << 3 | (m − 1)`, decodes to the same patch and
    /// rebuilds the restored image over its base; a middle of 9 bytes, or
    /// a prefix of 8, takes kind 7's lengths.
    #[test]
    fn each_packed_clr_shape_roundtrips() {
        let base = [0u8; 16];
        let clr = |patch: Patch<'_>| {
            let mut bytes = Vec::new();
            let rec = RecordRef::Clr {
                oid: Oid(90_000),
                image: Some(patch),
            };
            rec.encode_into(&mut bytes, &mut IdCursor::default());
            let Some((LogEntry::Record(RecordRef::Clr { image, .. }), end)) =
                LogEntry::decode(&bytes, 0).unwrap()
            else {
                panic!("a CLR");
            };
            assert_eq!((image, end), (Some(patch), bytes.len()));
            bytes[0]
        };
        for (p, m) in (0..=8).flat_map(|p| (1..=9).map(move |m| (p, m))) {
            let after: Vec<u8> = (0..16).map(|i| u8::from((p..p + m).contains(&i))).collect();
            let patch = Patch::between(Some(&base), &after);
            assert_eq!(patch.apply(Some(&base)), Some(after.clone()));
            let packs = p < 8 && m < 9;
            let kind = if packs {
                0x80 | (p << 3 | (m - 1)) as u8
            } else {
                KIND_CLR
            };
            assert_eq!(clr(patch), kind, "prefix {p}, middle {m}");
        }
        assert_eq!(clr(Patch::whole(b"whole")), KIND_CLR);
    }

    /// An `Update` that creates an object of 1 to 32 bytes packs its length
    /// into its kind, `0x20 | (len − 1)`, and carries its ids and its bytes
    /// alone; one of 0 or 33 bytes, one with no after image, and one with a
    /// before image are kind 2.
    #[test]
    fn each_packed_create_length_roundtrips() {
        let update = |before: Option<Vec<u8>>, after: Option<Vec<u8>>| LogRecord::Update {
            tid: Tid(1),
            oid: Oid(2),
            before,
            after,
        };
        for n in 0..=33 {
            let rec = update(None, Some(vec![0xA5; n]));
            let bytes = rec.encode();
            roundtrip(rec);
            if (1..=32).contains(&n) {
                assert_eq!((bytes[0], bytes.len()), (0x20 | (n - 1) as u8, 3 + n));
            } else {
                assert_eq!(bytes[0], KIND_UPDATE, "{n} bytes");
            }
        }
        for (before, after) in [
            (None, None),
            (Some(vec![]), Some(vec![1])),
            (Some(vec![1]), None),
        ] {
            let rec = update(before, after);
            assert_eq!(rec.encode()[0], KIND_UPDATE, "{rec:?}");
            roundtrip(rec);
        }
    }

    /// Every oid is a delta from the oid field before it, across record
    /// kinds — `Update`, `Overwrite`, CLR, a `Delegate`'s list — and either
    /// way between `Oid(0)` and `Oid(u64::MAX)`; the tids between them move
    /// only the tid half. A `Delegate`'s list, which the decoder hands on
    /// still encoded, moves the cursor past itself, so the `Overwrite` after
    /// it reads its oid against the list's last.
    #[test]
    fn oids_are_deltas_from_the_oid_before_them() {
        let max = Oid(u64::MAX);
        let recs = [
            LogRecord::Update {
                tid: Tid(7),
                oid: max,
                before: None,
                after: Some(vec![1]),
            },
            LogRecord::Clr {
                oid: Oid(0),
                image: None,
            },
            LogRecord::Delegate {
                from: Tid(7),
                to: Tid(8),
                obs: Some(vec![max, Oid(0), Oid(90_000), Oid(90_001)]),
            },
            LogRecord::Overwrite {
                tid: Tid(8),
                oid: Oid(90_002),
                after: Some(vec![2]),
            },
            LogRecord::Commit { tids: vec![Tid(8)] },
            LogRecord::Overwrite {
                tid: Tid(9),
                oid: max,
                after: None,
            },
        ];
        let (mut log, mut c, mut ends) = (Vec::new(), IdCursor::default(), Vec::new());
        for rec in &recs {
            rec.as_ref().encode_into(&mut log, &mut c);
            ends.push(log.len());
        }
        // 2 (kind, tid) + 10 (u64::MAX from 0) + 1; 1 + 10 + 1; the
        // Delegate's list: 10, 10, 3, 1; the Overwrite after it: 1 + 1 + 1
        // + 2; the one-byte Commit; 1 + 1 + 10 + 1
        let lens: Vec<usize> = ends
            .iter()
            .scan(0, |at, &e| Some(e - std::mem::replace(at, e)))
            .collect();
        assert_eq!(lens, [13, 12, 1 + 1 + 1 + 1 + 24, 5, 1, 13]);
        let (mut off, mut back, mut d) = (0, Vec::new(), IdCursor::default());
        while let Some((LogEntry::Record(rec), next)) =
            LogEntry::decode_in(&log, off, &mut d).unwrap()
        {
            back.push(rec.to_owned());
            off = next;
        }
        assert_eq!((back, d, off), (recs.to_vec(), c, log.len()));
    }

    /// An oid delta that would take the oid below 0 or past `u64::MAX` is
    /// `Corrupt`, as a tid delta's is: never a wrapped oid.
    #[test]
    fn an_oid_delta_out_of_range_is_corrupt() {
        let clr = |from: u64, d: i128| {
            let mut c = IdCursor::default();
            let mut bytes = Vec::new();
            Oid(from).put(&mut Vec::new(), &mut c);
            bytes.push(KIND_CLR);
            put_delta(&mut bytes, d);
            bytes.push(0);
            LogEntry::decode_in(&bytes, 0, &mut c).map(|e| e.is_some())
        };
        assert!(clr(5, -5).unwrap());
        assert!(clr(5, -6).is_err());
        assert!(clr(u64::MAX, -i128::from(u64::MAX)).unwrap());
        assert!(clr(u64::MAX - 1, 1).unwrap());
        assert!(clr(u64::MAX - 1, 2).is_err());
        assert!(clr(0, u64::MAX.into()).unwrap());
    }

    /// A patch keeps the longest common prefix, then the longest common
    /// suffix of what is left — never more than the shorter image has —
    /// and rebuilds the after image over its base. It is packed (its
    /// suffix `None`) when the image keeps the base's length, with a prefix
    /// of at most 7 and a middle of 1 to 8 bytes; else kind 9's lengths, or
    /// whole when those would cost as much as the bytes they keep.
    #[test]
    fn a_patch_keeps_what_the_images_share() {
        // base, after, and the patch's prefix and suffix
        type Case = (&'static [u8], &'static [u8], usize, Option<usize>);
        let cases: [Case; 11] = [
            (b"abcdefgh", b"abcXefgh", 3, None),
            (b"abcdefgh", b"XXXXXXXX", 0, None),
            (b"abcdefghijklmnop", b"abcdefgXXXXXXXXp", 7, None),
            (b"abcdefghijklmnop", b"aXXXXXXXXXklmnop", 1, Some(6)),
            (b"abcdefghijklmnop", b"abcdefghXjklmnop", 8, Some(7)),
            (b"abcdefgh", b"abcdefgh", 8, Some(0)),
            (b"abcabc", b"abcxabc", 3, Some(3)),
            (b"aaaa", b"aaaaaa", 4, Some(0)),
            (b"aaaaaa", b"aaaa", 4, Some(0)),
            (b"xyz-long-base", b"xyz", 3, Some(0)),
            (b"ab", b"ab", 0, Some(0)),
        ];
        for (base, after, prefix, suffix) in cases {
            let patch = Patch::between(Some(base), after);
            assert_eq!((patch.prefix, patch.suffix), (prefix, suffix), "{base:?}");
            assert_eq!(patch.apply(Some(base)).as_deref(), Some(after));
            patch_roundtrip(patch);
        }
        assert!(Patch::between(None, b"new").is_whole());
        // a base shorter than what the patch keeps takes none of it
        for after in [&b"abcXefgh"[..], b"abcXYefgh"] {
            let patch = Patch::between(Some(b"abcdefgh"), after);
            assert_eq!(patch.apply(Some(b"abc")), None);
            assert_eq!(patch.apply(None), None);
        }
        assert_eq!(Patch::whole(b"w").apply(None), Some(b"w".to_vec()));
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
        LogRecord::Checkpoint
            .as_ref()
            .encode_into(&mut log, &mut IdCursor::default());
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

    /// Ids and image lengths on both sides of every LEB128 width (the
    /// varint itself is tested beside it, in `asset_common::codec`).
    #[test]
    fn id_and_length_widths_roundtrip() {
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
        // a patch's kept lengths and middle on both sides of a width
        for (keep, n) in [(127, 0), (128, 63), (16_384, 64)] {
            let patch = Patch {
                prefix: keep,
                suffix: Some(3),
                middle: &[0x3C; 64][..n],
            };
            patch_roundtrip(patch);
        }
    }

    #[test]
    fn overlong_varint_is_corrupt_not_torn() {
        // eleven continuation bytes cannot be the prefix of any record
        let mut bytes = vec![KIND_ABORT];
        bytes.extend_from_slice(&[0xFF; 11]);
        assert!(LogEntry::decode(&bytes, 0).is_err());
        let mut oid = vec![KIND_CLR];
        oid.extend_from_slice(&[0xFF; 9]);
        oid.push(0x04); // bit 65 of an oid's delta
        assert!(LogEntry::decode(&oid, 0).is_err());
        // nor is a kind nobody writes — v2's `Begin` included — but each
        // packed kind is a record still to come, and a short kind whole
        assert!(LogEntry::decode(&[1, 7], 0).is_err());
        for kind in [13, 0x1F] {
            assert!(LogEntry::decode(&[kind], 0).is_err());
        }
        assert!((0x20..=0xBF).all(|k| LogEntry::decode(&[k], 0).unwrap().is_none()));
        for kind in [
            KIND_COMMIT_SHORT,
            KIND_PREPARED_SHORT,
            KIND_ABORT_SHORT,
            KIND_RESET,
        ] {
            assert!(LogEntry::decode(&[kind], 0).unwrap().is_some());
        }
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
        let mut bytes = vec![KIND_COMMIT, 2, 10, 0x80];
        assert!(LogEntry::decode(&bytes, 0).unwrap().is_none());
        bytes.push(1);
        let Some((LogEntry::Record(RecordRef::Commit { tids }), _)) =
            LogEntry::decode(&bytes, 0).unwrap()
        else {
            panic!("a commit record");
        };
        // 10, the zigzag of 5 from 0; then 128, the zigzag of +64
        assert_eq!(tids.iter().collect::<Vec<_>>(), [Tid(5), Tid(69)]);
    }

    /// Every tid is a delta from the tid before it, either way, across
    /// every width and across seals, and a reset starts the cursor at 0
    /// again; decoding one entry moves the cursor only when it is whole.
    #[test]
    fn tids_are_deltas_across_seals_and_from_0_after_a_reset() {
        let tids = [70_000, 70_001, 69_990, u64::MAX, 0, 1 << 35, 3];
        let recs: Vec<LogRecord> = tids
            .iter()
            .map(|&t| LogRecord::Abort { tid: Tid(t) })
            .chain([
                LogRecord::Commit { tids: vec![Tid(9)] },
                LogRecord::Prepared {
                    tids: vec![Tid(2), Tid(u64::MAX), Tid(1)],
                },
                LogRecord::Delegate {
                    from: Tid(3),
                    to: Tid(1),
                    obs: Some(vec![Oid(u64::MAX)]),
                },
                LogRecord::Abort { tid: Tid(69_999) },
            ])
            .collect();
        let (mut log, mut c) = (Vec::new(), IdCursor::default());
        let mut sizes = Vec::new();
        // a block, a block past its seal, and a block that a reset opens
        for block in 0..3 {
            let from = log.len();
            if block == 2 {
                open_reset(&mut log, &mut c);
            }
            for rec in &recs {
                let at = log.len();
                rec.as_ref().encode_into(&mut log, &mut c);
                sizes.push(log.len() - at);
            }
            open_seal(&mut log);
            fill_seal(&mut log, from);
        }
        let n = recs.len();
        // 70 000 from 0; from 69 999, a seal away; from 0 past a reset
        assert_eq!([sizes[0], sizes[n], sizes[2 * n]], [4, 1, 4]);
        // +1 and -11, an `Abort` of one byte and a long one
        assert_eq!(&sizes[1..3], [1, 2]);
        // 9 from 3: +6, zigzag 12, in the `Commit`'s kind
        let commit = sizes[..7].iter().sum::<usize>();
        assert_eq!((log[commit], sizes[7]), (KIND_COMMIT_SHORT | 12, 1));
        let (mut off, mut c, mut back) = (0, IdCursor::default(), Vec::new());
        while off < log.len() {
            let before = c;
            let (entry, next) = LogEntry::decode_in(&log, off, &mut c).unwrap().unwrap();
            // short of its last byte, an entry leaves the cursor as it was
            let mut cut = before;
            let short = LogEntry::decode_in(&log[..next - 1], off, &mut cut).unwrap();
            assert!(short.is_none() && cut == before);
            if let LogEntry::Record(rec) = entry {
                back.push(rec.to_owned());
            }
            off = next;
        }
        assert_eq!(back, [recs.clone(), recs.clone(), recs].concat());
    }

    /// A delta that would take a tid below 0 or past `u64::MAX`, or that
    /// runs past 65 bits, is `Corrupt`: never a wrapped tid.
    #[test]
    fn a_tid_delta_out_of_range_is_corrupt() {
        // a `Delegate` from `from` to `from` moved by the delta `to`
        let decode = |from: u64, to: &[u8]| {
            let mut bytes = vec![KIND_DELEGATE];
            Tid(from).put(&mut bytes, &mut IdCursor::default());
            bytes.extend_from_slice(to);
            bytes.push(0);
            LogEntry::decode(&bytes, 0).map(|e| e.is_some())
        };
        let delta = |d| {
            let mut bytes = Vec::new();
            put_delta(&mut bytes, d);
            bytes
        };
        assert!(decode(5, &delta(-5)).unwrap());
        assert!(decode(5, &delta(-6)).is_err());
        assert!(decode(u64::MAX - 1, &delta(1)).unwrap());
        assert!(decode(u64::MAX - 1, &delta(2)).is_err());
        assert!(decode(0, &delta(u64::MAX.into())).unwrap());
        // ten bytes, the last carrying bit 65; eleven
        assert!(decode(0, &[[0x80; 9].as_slice(), &[4]].concat()).is_err());
        assert!(decode(0, &[0xFF; 11]).is_err());
    }

    /// Cut a six-record stream at every byte — one record's image length
    /// is two bytes, so one cut falls inside it, and the stream ends in a
    /// whole and a patched `Overwrite`, a packed CLR and a seal: the whole
    /// entries before the cut decode and the rest reads as "not whole",
    /// never as an error.
    #[test]
    fn a_cut_at_every_byte_is_short_not_corrupt() {
        let owned = [
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
        let patched = RecordRef::Overwrite {
            tid: Tid(3),
            oid: Oid(2),
            after: Some(Patch::between(Some(&[8; 8]), &[8, 8, 8, 1, 2, 8, 8, 8])),
        };
        let restored = RecordRef::Clr {
            oid: Oid(2),
            image: Some(Patch::between(Some(&[8; 8]), &[8, 8, 8, 8, 8, 8, 8, 1])),
        };
        let recs: Vec<RecordRef<'_>> = owned
            .iter()
            .map(LogRecord::as_ref)
            .chain([patched, restored])
            .collect();
        let (mut log, mut ends, mut c) = (vec![], vec![], IdCursor::default());
        for r in &recs {
            r.encode_into(&mut log, &mut c);
            ends.push(log.len());
        }
        open_seal(&mut log);
        fill_seal(&mut log, 0);
        for cut in 0..log.len() {
            let whole = ends.iter().filter(|e| **e <= cut).count();
            let (mut off, mut c) = (0, IdCursor::default());
            for end in &ends[..whole] {
                let mut again = (Vec::new(), c);
                let Some((LogEntry::Record(back), next)) =
                    LogEntry::decode_in(&log[..cut], off, &mut c).unwrap()
                else {
                    panic!("a record at {off}");
                };
                back.encode_into(&mut again.0, &mut again.1);
                assert_eq!((&again.0[..], next), (&log[off..*end], *end));
                off = next;
            }
            let rest = LogEntry::decode_in(&log[..cut], off, &mut c).unwrap();
            assert!(rest.is_none(), "cut at {cut} should read as not whole");
        }
        // an offset past the end of the buffer is the same
        assert!(LogEntry::decode(&log, log.len() + 8).unwrap().is_none());
    }
}
