//! Log record types and their binary encoding.
//!
//! The paper's recovery story (§4.2) is physical before/after-image
//! logging: `write` logs the before image, performs the update, then logs
//! the after image; `commit` places a commit record; `abort` installs
//! before images. We fold before and after images of one update into a
//! single [`LogRecord::Update`] record (logically equivalent, and atomic
//! under the object latch that EOS holds across the write).
//!
//! Delegation transfers *responsibility* for uncommitted operations, so it
//! must be visible to restart recovery: a [`LogRecord::Delegate`] record
//! reassigns earlier updates to the delegatee.
//!
//! Wire format of one record (the v2 frame):
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
//! discarded). A transfer carrying 16 user bytes (`Begin`, two `Update`s of
//! 8-byte images, `Commit`) is 79 bytes with three-byte ids. Logs written
//! with the earlier fixed-width frame are not readable: they fail with
//! `Corrupt`.

use crate::page::{fnv1a, get_u32, put_u32, FNV_OFFSET};
use asset_common::{AssetError, Oid, Result, Tid};

/// One write-ahead-log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogRecord {
    /// Transaction `tid` began executing.
    Begin {
        /// The transaction.
        tid: Tid,
    },
    /// `tid` updated `oid`. `before == None` means the update created the
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
    /// Compensation log record: the runtime abort of a transaction
    /// installed `image` over `oid` (one before-image undo step). Redo-only
    /// — recovery replays it in log order and never undoes it, so an abort
    /// that completed before the crash stays exactly where the runtime left
    /// it, even if later committed transactions overwrote the object.
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

const KIND_BEGIN: u8 = 1;
const KIND_UPDATE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_ABORT: u8 = 4;
const KIND_DELEGATE: u8 = 5;
const KIND_CHECKPOINT: u8 = 6;
const KIND_CLR: u8 = 7;
const KIND_PREPARED: u8 = 8;

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

fn put_tids(out: &mut Vec<u8>, tids: &[Tid]) {
    put_varint(out, tids.len() as u64);
    for t in tids {
        put_varint(out, t.raw());
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

    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>> {
        match self.varint()? {
            0 => Ok(None),
            n => Ok(Some(self.bytes(n - 1)?.to_vec())),
        }
    }

    /// `n` ids, each at least one byte long (so `n` is bounded by the
    /// bytes left before anything is allocated for it).
    fn ids<T>(&mut self, n: u64, make: fn(u64) -> T) -> Result<Vec<T>> {
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(AssetError::Corrupt("log record truncated (ids)".into()));
        }
        (0..n).map(|_| self.varint().map(make)).collect()
    }

    fn tids(&mut self) -> Result<Vec<Tid>> {
        let n = self.varint()?;
        self.ids(n, Tid)
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

/// What the log frames: an owned [`LogRecord`], or an update whose images
/// are borrowed from where they live ([`UpdateRef`]).
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

/// A [`LogRecord::Update`] by reference: what `write` logs while both
/// images still sit where they are, in the cache and in the caller's hand.
pub(crate) struct UpdateRef<'a> {
    pub tid: Tid,
    pub oid: Oid,
    pub before: Option<&'a [u8]>,
    pub after: Option<&'a [u8]>,
}

impl Frame for UpdateRef<'_> {
    fn put_body(&self, out: &mut Vec<u8>) {
        out.push(KIND_UPDATE);
        put_varint(out, self.tid.raw());
        put_varint(out, self.oid.raw());
        put_opt_bytes(out, self.before);
        put_opt_bytes(out, self.after);
    }
}

impl Frame for LogRecord {
    fn put_body(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { tid } => {
                out.push(KIND_BEGIN);
                put_varint(out, tid.raw());
            }
            LogRecord::Update {
                tid,
                oid,
                before,
                after,
            } => UpdateRef {
                tid: *tid,
                oid: *oid,
                before: before.as_deref(),
                after: after.as_deref(),
            }
            .put_body(out),
            LogRecord::Commit { tids } => {
                out.push(KIND_COMMIT);
                put_tids(out, tids);
            }
            LogRecord::Abort { tid } => {
                out.push(KIND_ABORT);
                put_varint(out, tid.raw());
            }
            LogRecord::Delegate { from, to, obs } => {
                out.push(KIND_DELEGATE);
                put_varint(out, from.raw());
                put_varint(out, to.raw());
                match obs {
                    None => out.push(0),
                    Some(list) => {
                        put_varint(out, list.len() as u64 + 1);
                        for ob in list {
                            put_varint(out, ob.raw());
                        }
                    }
                }
            }
            LogRecord::Checkpoint => out.push(KIND_CHECKPOINT),
            LogRecord::Prepared { tids } => {
                out.push(KIND_PREPARED);
                put_tids(out, tids);
            }
            LogRecord::Clr { oid, image } => {
                out.push(KIND_CLR);
                put_varint(out, oid.raw());
                put_opt_bytes(out, image.as_deref());
            }
        }
    }
}

impl LogRecord {
    /// Encode the record body (kind byte + payload).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put_body(&mut out);
        out
    }

    /// Decode a record body produced by [`encode_body`](Self::encode_body).
    pub fn decode_body(body: &[u8]) -> Result<LogRecord> {
        let mut c = Cursor { buf: body, pos: 0 };
        let rec = match c.u8()? {
            KIND_BEGIN => LogRecord::Begin {
                tid: Tid(c.varint()?),
            },
            KIND_UPDATE => LogRecord::Update {
                tid: Tid(c.varint()?),
                oid: Oid(c.varint()?),
                before: c.opt_bytes()?,
                after: c.opt_bytes()?,
            },
            KIND_COMMIT => LogRecord::Commit { tids: c.tids()? },
            KIND_ABORT => LogRecord::Abort {
                tid: Tid(c.varint()?),
            },
            KIND_DELEGATE => LogRecord::Delegate {
                from: Tid(c.varint()?),
                to: Tid(c.varint()?),
                obs: match c.varint()? {
                    0 => None,
                    n => Some(c.ids(n - 1, Oid)?),
                },
            },
            KIND_CHECKPOINT => LogRecord::Checkpoint,
            KIND_PREPARED => LogRecord::Prepared { tids: c.tids()? },
            KIND_CLR => LogRecord::Clr {
                oid: Oid(c.varint()?),
                image: c.opt_bytes()?,
            },
            k => return Err(AssetError::Corrupt(format!("unknown log record kind {k}"))),
        };
        c.done()?;
        Ok(rec)
    }

    /// Encode the full on-disk frame: length + checksum + body.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Decode one frame starting at `buf[off]`.
    ///
    /// Returns `Ok(Some((record, next_off)))`, `Ok(None)` for a clean or
    /// torn end of log (truncated tail), or `Err` for a checksum mismatch
    /// mid-log.
    pub fn decode_frame(buf: &[u8], off: usize) -> Result<Option<(LogRecord, usize)>> {
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
        let rec = LogRecord::decode_body(body)?;
        Ok(Some((rec, body_start + body.len())))
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
    }

    #[test]
    fn roundtrip_all_kinds() {
        roundtrip(LogRecord::Begin { tid: Tid(7) });
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

    /// Golden v2 sizes with three-byte tids and oids (16 384 ..= 2 097 151,
    /// where a 100 000-account ledger lives). The last assertion is the
    /// benchmark's `log_bytes_per_txn` claim, guarded in tier-1.
    #[test]
    fn golden_frame_sizes() {
        let (tid, oid) = (Tid(70_000), Oid(90_000));
        let img = || Some(vec![7u8; 8]);
        let len = |r: LogRecord| r.encode_frame().len();
        let begin = len(LogRecord::Begin { tid });
        let update = len(LogRecord::Update {
            tid,
            oid,
            before: img(),
            after: img(),
        });
        let commit = len(LogRecord::Commit { tids: vec![tid] });
        assert_eq!((begin, update, commit), (9, 30, 10));
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
        assert!(begin + 2 * update + commit <= 90, "a transfer's log bytes");
    }

    #[test]
    fn varint_edges_roundtrip() {
        roundtrip(LogRecord::Begin { tid: Tid(u64::MAX) });
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
        let mut body = vec![KIND_BEGIN];
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

    /// Cut a three-frame log at every byte — the third frame's length is
    /// two bytes, so one cut falls inside it: the whole frames before the
    /// cut decode and the rest reads as end of log, never as an error.
    #[test]
    fn torn_tail_at_every_byte_is_clean_eof() {
        let recs = [
            LogRecord::Begin { tid: Tid(1) },
            LogRecord::Commit { tids: vec![Tid(1)] },
            LogRecord::Clr {
                oid: Oid(2),
                image: Some(vec![9; 200]),
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
            LogRecord::Begin { tid: Tid(1) },
            LogRecord::Update {
                tid: Tid(1),
                oid: Oid(9),
                before: None,
                after: Some(b"v1".to_vec()),
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

    /// A log written with the v1 frame (`[u32 len][u64 checksum][body]`)
    /// is refused, not misread.
    #[test]
    fn v1_frames_are_corrupt() {
        let mut v1 = vec![9, 0, 0, 0];
        v1.extend_from_slice(
            &crate::page::checksum(&[KIND_BEGIN, 7, 0, 0, 0, 0, 0, 0, 0]).to_le_bytes(),
        );
        v1.extend_from_slice(&[KIND_BEGIN, 7, 0, 0, 0, 0, 0, 0, 0]);
        assert!(LogRecord::decode_frame(&v1, 0).is_err());
    }
}
