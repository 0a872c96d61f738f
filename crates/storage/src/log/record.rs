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
//! Wire format of one record (the v3 frame; the framing is v2's):
//!
//! ```text
//! [body_len LEB128][checksum u32][body: kind u8 + payload]
//! ```
//!
//! Every tid, oid, count and image length in a payload is LEB128; an
//! optional image or object list is its length **plus one**, `0` meaning
//! `None`. The checksum (FNV-1a, xor-folded to 32 bits) covers the length
//! bytes and the body; a mismatch mid-log is an error and a truncated tail
//! ends the scan (crash-consistent: the tail record of a torn write is
//! discarded). A transfer carrying 16 user bytes over objects the log has
//! seen (two `Overwrite`s of 8-byte images, `Commit`) is 52 bytes with
//! three-byte ids. Kind 1 was v2's `Begin` and stays reserved: a log that
//! contains it, like one written with the earlier fixed-width frame, is not
//! readable and fails with `Corrupt`.

use crate::page::{fnv1a, get_u32, put_u32, FNV_OFFSET};
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
/// straight out of the read buffer, and what the write path frames while
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
/// still-encoded ids of a decoded frame.
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
            get_varint(bytes, &mut pos).ok().flatten().map(T::from_raw)
        }))
    }
}

impl<'a, T> From<&'a [T]> for Ids<'a, T> {
    fn from(ids: &'a [T]) -> Self {
        Ids(IdsRepr::Slice(ids))
    }
}

const KIND_UPDATE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_ABORT: u8 = 4;
const KIND_DELEGATE: u8 = 5;
const KIND_CHECKPOINT: u8 = 6;
const KIND_CLR: u8 = 7;
const KIND_PREPARED: u8 = 8;
const KIND_OVERWRITE: u8 = 9;

/// Bytes in front of a frame's body when the body is shorter than 128
/// bytes: one length byte and the checksum.
const SHORT_HEADER: usize = 5;

/// `v` as LEB128: the bytes and how many of them are used.
fn leb128(mut v: u64) -> ([u8; 10], usize) {
    let mut out = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    (out, n + 1)
}

fn put_varint(out: &mut Vec<u8>, v: u64) {
    let (bytes, n) = leb128(v);
    out.extend_from_slice(&bytes[..n]);
}

/// Read one LEB128 value at `buf[*pos]`, advancing `pos`. `Ok(None)` when
/// the buffer ends inside the value; `Err` when it does not fit a `u64`.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<Option<u64>> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&b) = buf.get(*pos) else {
            return Ok(None);
        };
        *pos += 1;
        if shift == 63 && b > 1 {
            break;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(Some(v));
        }
    }
    Err(AssetError::Corrupt("log varint overflows u64".into()))
}

/// The frame checksum: FNV-1a over the length bytes, then the body.
fn frame_checksum(len: &[u8], body: &[u8]) -> u32 {
    let h = fnv1a(fnv1a(FNV_OFFSET, len), body);
    (h >> 32) as u32 ^ h as u32
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

/// Reader over one checksummed body: running out of bytes is corruption.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn varint(&mut self) -> Result<u64> {
        get_varint(self.buf, &mut self.pos)?
            .ok_or_else(|| AssetError::Corrupt("log record truncated (varint)".into()))
    }

    fn bytes(&mut self, n: u64) -> Result<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        match usize::try_from(n) {
            Ok(n) if n <= rest.len() => {
                self.pos += n;
                Ok(&rest[..n])
            }
            _ => Err(AssetError::Corrupt("log record truncated (bytes)".into())),
        }
    }

    fn opt_bytes(&mut self) -> Result<Option<&'a [u8]>> {
        match self.varint()? {
            0 => Ok(None),
            n => Ok(Some(self.bytes(n - 1)?)),
        }
    }

    /// `n` ids, each at least one byte long (so `n` is bounded by the
    /// bytes left): walked once here, so that iterating them cannot fail.
    fn ids<T>(&mut self, n: u64) -> Result<Ids<'a, T>> {
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(AssetError::Corrupt("log record truncated (ids)".into()));
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

    fn tids(&mut self) -> Result<Ids<'a, Tid>> {
        let n = self.varint()?;
        self.ids(n)
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(AssetError::Corrupt(format!(
                "log record has {} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// What the log frames: an owned [`LogRecord`] or a borrowed
/// [`RecordRef`].
pub(crate) trait Frame {
    /// Append the record body (kind byte + payload) to `out`.
    fn put_body(&self, out: &mut Vec<u8>);

    /// Append the full on-disk frame (length + checksum + body) to `out`:
    /// the body is encoded in place, so a buffer with room allocates
    /// nothing.
    fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; SHORT_HEADER]);
        self.put_body(out);
        let (len, n) = leb128((out.len() - start - SHORT_HEADER) as u64);
        out[start] = len[0];
        if n > 1 {
            // a body of 128 bytes or more: open the gap its length needs
            out.splice(start + 1..start + 1, len[1..n].iter().copied());
        }
        let (head, body) = out[start..].split_at_mut(n + 4);
        put_u32(head, n, frame_checksum(&head[..n], body));
    }
}

impl Frame for RecordRef<'_> {
    fn put_body(&self, out: &mut Vec<u8>) {
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
}

impl Frame for LogRecord {
    fn put_body(&self, out: &mut Vec<u8>) {
        self.as_ref().put_body(out);
    }
}

impl<'a> RecordRef<'a> {
    /// Decode a record body (kind byte + payload), borrowing from it.
    pub fn decode_body(body: &'a [u8]) -> Result<RecordRef<'a>> {
        let mut c = Cursor { buf: body, pos: 0 };
        let rec = match c.u8()? {
            KIND_UPDATE => RecordRef::Update {
                tid: Tid(c.varint()?),
                oid: Oid(c.varint()?),
                before: c.opt_bytes()?,
                after: c.opt_bytes()?,
            },
            KIND_OVERWRITE => RecordRef::Overwrite {
                tid: Tid(c.varint()?),
                oid: Oid(c.varint()?),
                after: c.opt_bytes()?,
            },
            KIND_COMMIT => RecordRef::Commit { tids: c.tids()? },
            KIND_ABORT => RecordRef::Abort {
                tid: Tid(c.varint()?),
            },
            KIND_DELEGATE => RecordRef::Delegate {
                from: Tid(c.varint()?),
                to: Tid(c.varint()?),
                obs: match c.varint()? {
                    0 => None,
                    n => Some(c.ids(n - 1)?),
                },
            },
            KIND_CHECKPOINT => RecordRef::Checkpoint,
            KIND_PREPARED => RecordRef::Prepared { tids: c.tids()? },
            KIND_CLR => RecordRef::Clr {
                oid: Oid(c.varint()?),
                image: c.opt_bytes()?,
            },
            1 => {
                return Err(AssetError::Corrupt(
                    "log record kind 1 (`Begin`): a v2 log, not readable".into(),
                ))
            }
            k => return Err(AssetError::Corrupt(format!("unknown log record kind {k}"))),
        };
        c.done()?;
        Ok(rec)
    }

    /// Decode one frame starting at `buf[off]`.
    ///
    /// Returns `Ok(Some((record, next_off)))`, `Ok(None)` for a clean or
    /// torn end of log (truncated tail), or `Err` for a checksum mismatch
    /// mid-log.
    pub fn decode_frame(buf: &'a [u8], off: usize) -> Result<Option<(RecordRef<'a>, usize)>> {
        let mut body_start = off;
        let Some(body_len) = get_varint(buf, &mut body_start)? else {
            return Ok(None); // clean end, or torn inside the length
        };
        let len_bytes = &buf[off..body_start];
        body_start += 4;
        let body = usize::try_from(body_len)
            .ok()
            .and_then(|n| body_start.checked_add(n))
            .and_then(|end| buf.get(body_start..end));
        let Some(body) = body else {
            return Ok(None); // torn checksum or body at tail
        };
        if frame_checksum(len_bytes, body) != get_u32(buf, body_start - 4) {
            return Err(AssetError::Corrupt(format!(
                "log checksum mismatch at offset {off}"
            )));
        }
        let rec = RecordRef::decode_body(body)?;
        Ok(Some((rec, body_start + body.len())))
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

    /// Encode the record body (kind byte + payload).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put_body(&mut out);
        out
    }

    /// Decode a record body produced by [`encode_body`](Self::encode_body).
    pub fn decode_body(body: &[u8]) -> Result<LogRecord> {
        Ok(RecordRef::decode_body(body)?.to_owned())
    }

    /// Encode the full on-disk frame: length + checksum + body.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// [`RecordRef::decode_frame`], copied out.
    pub fn decode_frame(buf: &[u8], off: usize) -> Result<Option<(LogRecord, usize)>> {
        Ok(RecordRef::decode_frame(buf, off)?.map(|(rec, next)| (rec.to_owned(), next)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: LogRecord) {
        let body = rec.encode_body();
        let back = LogRecord::decode_body(&body).unwrap();
        assert_eq!(rec, back);
        let frame = rec.encode_frame();
        let (back2, next) = LogRecord::decode_frame(&frame, 0).unwrap().unwrap();
        assert_eq!(rec, back2);
        assert_eq!(next, frame.len());
        // a decoded frame re-encodes byte for byte from its borrowed form
        let (borrowed, _) = RecordRef::decode_frame(&frame, 0).unwrap().unwrap();
        let mut again = Vec::new();
        borrowed.encode_frame_into(&mut again);
        assert_eq!(again, frame);
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

    /// Golden v3 sizes with three-byte tids and oids (16 384 ..= 2 097 151,
    /// where a 100 000-account ledger lives). The last assertion is the
    /// benchmark's `log_bytes_per_txn` claim, guarded in tier-1.
    #[test]
    fn golden_frame_sizes() {
        let (tid, oid) = (Tid(70_000), Oid(90_000));
        let img = || Some(vec![7u8; 8]);
        let len = |r: LogRecord| r.encode_frame().len();
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
        assert_eq!((update, overwrite, commit), (30, 21, 10));
        assert_eq!(len(LogRecord::Abort { tid }), 9);
        assert_eq!(len(LogRecord::Prepared { tids: vec![tid] }), 10);
        assert_eq!(len(LogRecord::Checkpoint), 6);
        assert_eq!(len(LogRecord::Clr { oid, image: img() }), 18);
        let delegate = |obs| LogRecord::Delegate {
            from: tid,
            to: tid,
            obs,
        };
        assert_eq!(len(delegate(None)), 13);
        assert_eq!(len(delegate(Some(vec![oid, oid]))), 19);
        assert!(2 * overwrite + commit <= 56, "a transfer's log bytes");
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
        assert_ne!(
            update(None).encode_frame(),
            update(Some(vec![])).encode_frame()
        );
        // image sizes on both sides of every length-prefix width, the
        // frame's own included (a 127-byte image makes a 2-byte body_len)
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
        let frame = update(Some(vec![1; 16_384])).encode_frame();
        assert_eq!(frame.len(), 3 + 4 + (1 + 1 + 10 + (3 + 16_384) + 1));
    }

    #[test]
    fn overlong_varint_is_corrupt_not_torn() {
        // eleven continuation bytes cannot be the prefix of any frame
        assert!(LogRecord::decode_frame(&[0xFF; 11], 0).is_err());
        let mut body = vec![KIND_ABORT];
        body.extend_from_slice(&[0xFF; 9]);
        body.push(0x02); // bit 64
        assert!(LogRecord::decode_body(&body).is_err());
    }

    #[test]
    fn id_count_is_bounded_before_allocating() {
        let mut body = vec![KIND_COMMIT];
        put_varint(&mut body, u64::MAX);
        assert!(LogRecord::decode_body(&body).is_err());
    }

    /// An id list that ends inside an id is corrupt when the frame is
    /// decoded, not when the list is walked.
    #[test]
    fn truncated_id_list_is_refused_at_decode() {
        let mut body = vec![KIND_COMMIT, 2, 5, 0x80];
        assert!(RecordRef::decode_body(&body).is_err());
        body.push(1);
        let RecordRef::Commit { tids } = RecordRef::decode_body(&body).unwrap() else {
            panic!("a commit record");
        };
        assert_eq!(tids.iter().collect::<Vec<_>>(), [Tid(5), Tid(128)]);
    }

    /// Cut a three-frame log at every byte — the third frame's length is
    /// two bytes, so one cut falls inside it, and the log ends in an
    /// `Overwrite`: the whole frames before the cut decode and the rest
    /// reads as end of log, never as an error.
    #[test]
    fn torn_tail_at_every_byte_is_clean_eof() {
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
            r.encode_frame_into(&mut log);
            ends.push(log.len());
        }
        assert_eq!(log[ends[1]] & 0x80, 0x80, "multi-byte length");
        for cut in 0..=log.len() {
            let whole = ends.iter().filter(|e| **e <= cut).count();
            let mut off = 0;
            for rec in &recs[..whole] {
                let (back, next) = LogRecord::decode_frame(&log[..cut], off).unwrap().unwrap();
                assert_eq!(&back, rec);
                off = next;
            }
            let rest = LogRecord::decode_frame(&log[..cut], off).unwrap();
            assert!(rest.is_none(), "cut at {cut} should be torn-tail EOF");
        }
    }

    #[test]
    fn corrupt_body_is_an_error() {
        let mut frame = LogRecord::Commit {
            tids: vec![Tid(1), Tid(2)],
        }
        .encode_frame();
        let n = frame.len();
        frame[n - 1] ^= 0xFF;
        assert!(LogRecord::decode_frame(&frame, 0).is_err());
    }

    #[test]
    fn sequential_frames() {
        let mut buf = vec![];
        let recs = vec![
            LogRecord::Update {
                tid: Tid(1),
                oid: Oid(9),
                before: None,
                after: Some(b"v1".to_vec()),
            },
            LogRecord::Overwrite {
                tid: Tid(1),
                oid: Oid(9),
                after: Some(b"v2".to_vec()),
            },
            LogRecord::Commit { tids: vec![Tid(1)] },
        ];
        for r in &recs {
            buf.extend_from_slice(&r.encode_frame());
        }
        let mut off = 0;
        let mut out = vec![];
        while let Some((r, next)) = LogRecord::decode_frame(&buf, off).unwrap() {
            out.push(r);
            off = next;
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn trailing_garbage_with_bad_checksum_errors() {
        let mut buf = LogRecord::Checkpoint.encode_frame();
        // a full-size but corrupt "record" after the good one
        buf.push(5); // len = 5
        buf.extend_from_slice(&[0u8; 4]); // bogus checksum
        buf.extend_from_slice(&[1, 2, 3, 4, 5]); // body
        let (_, off) = LogRecord::decode_frame(&buf, 0).unwrap().unwrap();
        assert!(LogRecord::decode_frame(&buf, off).is_err());
    }

    /// A well-formed v2 frame of kind 1 (`Begin { tid }`): the frame is
    /// whole and its checksum good, and the log is refused all the same.
    #[test]
    fn a_v2_begin_frame_is_corrupt() {
        let body = [1u8, 7];
        let mut frame = vec![body.len() as u8, 0, 0, 0, 0];
        frame.extend_from_slice(&body);
        let sum = frame_checksum(&frame[..1], &body);
        put_u32(&mut frame, 1, sum);
        let err = LogRecord::decode_frame(&frame, 0).unwrap_err();
        assert!(err.to_string().contains("v2 log"), "{err}");
    }

    /// A log written with the v1 frame (`[u32 len][u64 checksum][body]`)
    /// is refused, not misread.
    #[test]
    fn v1_frames_are_corrupt() {
        let body = [1u8, 7, 0, 0, 0, 0, 0, 0, 0];
        let mut v1 = vec![9, 0, 0, 0];
        v1.extend_from_slice(&crate::page::checksum(&body).to_le_bytes());
        v1.extend_from_slice(&body);
        assert!(LogRecord::decode_frame(&v1, 0).is_err());
    }
}
