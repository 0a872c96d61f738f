//! The ASSET wire protocol: length-prefixed binary frames over TCP.
//!
//! This module is the implementation of the **normative specification in
//! `DESIGN.md` §13** — the frame layout (§13.1), the opcode table with
//! each body and OK payload (§13.3) — and the one home of its codec: a
//! frame is `u32` len, version, opcode, `u32` reqid, an optional 12-byte
//! trace context, then the body; a response body starts with a [`status`]
//! byte. Each body is read through [`read_body`], which refuses bytes left
//! over; the two shared body shapes have one encoder and one decoder each
//! ([`encode_tids`]/[`read_tids`], [`write_obset`]/[`read_obset`]), called
//! by the client and the server alike. The §13.5 example frames are
//! asserted byte-for-byte by `design_section_13_example_frames` below: if
//! you change anything here, change the spec in the same commit.
//!
//! ## Round-trip
//!
//! ```
//! use asset_obs::TraceCtx;
//! use asset_server::protocol::{opcode, Frame, PROTOCOL_VERSION, PROTOCOL_VERSION_TRACED};
//!
//! let req = Frame::new(opcode::BEGIN, 7, 0u64.to_le_bytes().to_vec());
//! let bytes = req.encode();
//! assert_eq!(bytes[4], PROTOCOL_VERSION);
//! assert_eq!(Frame::decode(&bytes)?, req);
//!
//! let traced = Frame {
//!     ctx: Some(TraceCtx { origin: 2, root: 9 }),
//!     ..req
//! };
//! let bytes = traced.encode();
//! assert_eq!(bytes[4], PROTOCOL_VERSION_TRACED);
//! assert_eq!(Frame::decode(&bytes)?, traced);
//! # Ok::<(), asset_server::protocol::WireError>(())
//! ```

use asset_common::codec::{CodecError, Reader};
use asset_common::AssetError;
use asset_obs::TraceCtx;
use std::io::{self, Read, Write};

/// The protocol version this build speaks (frame byte 4).
pub const PROTOCOL_VERSION: u8 = 0x01;

/// Frame byte 4 of a traced frame: the header carries a 12-byte
/// [`TraceCtx`] between `reqid` and the body (DESIGN.md §13.1). Either
/// version is accepted on any request; responses always use
/// [`PROTOCOL_VERSION`].
pub const PROTOCOL_VERSION_TRACED: u8 = 0x02;

/// Upper bound on the `len` field: frames larger than this are rejected
/// without being read (a corrupt or hostile length prefix must not make
/// the peer allocate gigabytes).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of header covered by `len` before the body begins
/// (version + opcode + reqid); a traced frame adds
/// [`TraceCtx::WIRE_LEN`].
pub const HEADER_LEN: usize = 6;

/// First byte of the `STATS` OK payload (DESIGN.md §13.3): the
/// revision of the versioned metrics body that follows (`u64` live
/// transactions, then the `asset-obs` self-describing snapshot).
pub const STATS_BODY_REVISION: u8 = 1;

/// Server-side cap on one MINT request's `count` (DESIGN.md §13.3). A
/// larger count is rejected with [`status::ERR_RESOURCE_EXHAUSTED`]
/// before any object is created — an attacker must not be able to make
/// the server allocate or write without bound from one small frame.
/// Larger workloads mint in multiple requests.
pub const MAX_MINT_COUNT: u64 = 1 << 22;

/// Server-side cap on one SUM request's `count` (DESIGN.md §13.3). A
/// larger range is rejected with [`status::ERR_RESOURCE_EXHAUSTED`]
/// before any object is read — a sweep must not be able to pin a
/// connection thread without bound.
pub const MAX_SUM_COUNT: u64 = 1 << 24;

/// Request opcodes (frame byte 5). Responses echo the request's opcode.
pub mod opcode {
    /// Liveness probe. Body: empty. OK payload: empty.
    pub const PING: u8 = 0x01;
    /// Version handshake. Body: empty. OK payload: `u8` — the server's
    /// protocol version.
    pub const HELLO: u8 = 0x02;
    /// Map this connection onto a new transaction. Body: `u64` parent
    /// tid — **reserved, must be 0** (a future revision maps it onto
    /// nested initiation). OK payload: `u64` tid.
    pub const BEGIN: u8 = 0x10;
    /// Transactional read. Body: `u64` tid, `u64` oid. OK payload:
    /// `u8` present flag (0 or 1), then the value bytes when present.
    pub const READ: u8 = 0x11;
    /// Transactional write. Body: `u64` tid, `u64` oid, value bytes to
    /// end of frame. OK payload: empty.
    pub const WRITE: u8 = 0x12;
    /// Commit. Body: `u64` tid. OK payload: empty — and OK is sent only
    /// after the transaction's commit record is durable (the ack rides
    /// the group-commit flush window). Distinguished failures:
    /// [`super::status::ERR_COMMIT_ABORTED`] vs
    /// [`super::status::ERR_COMMIT_AMBIGUOUS`].
    pub const COMMIT: u8 = 0x13;
    /// Abort and roll back. Body: `u64` tid. OK payload: empty.
    pub const ABORT: u8 = 0x14;
    /// `delegate(from, to, obs)` — move lock + undo responsibility. Body:
    /// `u64` from, `u64` to, object set ([`super::write_obset`]; all = every
    /// delegable object). OK payload: empty.
    pub const DELEGATE: u8 = 0x20;
    /// `permit(grantor, grantee, obs, ops)`. Body: `u64` grantor, `u64`
    /// grantee (0 = any-transaction wildcard), `u8` ops bitmask (1 = read,
    /// 2 = write), object set. OK payload: empty.
    pub const PERMIT: u8 = 0x21;
    /// `form_dependency(kind, ti, tj)`. Body: `u8` kind (1 = CD,
    /// 2 = AD, 3 = GC), `u64` ti, `u64` tj. OK payload: empty.
    pub const FORM_DEP: u8 = 0x22;
    /// Allocate one object id. Body: empty. OK payload: `u64` oid.
    pub const NEW_OID: u8 = 0x30;
    /// Bulk-create `count` i64 counters holding `initial`, in serialized,
    /// chunked server-side transactions (consecutive oids unless another
    /// connection allocates meanwhile; a failure deletes the chunks already
    /// committed). Body: `u64` count (≤ [`super::MAX_MINT_COUNT`]), `i64`
    /// initial. OK payload: `u64` first oid, `u64` count.
    pub const MINT: u8 = 0x31;
    /// Sum the committed i64 values of oids `first..first+count` (others
    /// skipped) in one server-side read transaction that S-locks the range
    /// in oid order first: a consistent snapshot under concurrent writers.
    /// Body: `u64` first, `u64` count (≤ [`super::MAX_SUM_COUNT`]). OK
    /// payload: `i64` sum, `u64` objects present.
    pub const SUM: u8 = 0x32;
    /// Server statistics. Body: empty. OK payload: `u8` body revision
    /// ([`super::STATS_BODY_REVISION`]), `u64` live transactions, then
    /// the `asset-obs` self-describing metrics snapshot.
    pub const STATS: u8 = 0x33;
    /// Distributed commit (DESIGN.md §14.2): prepare transactions of
    /// **this session** as one group, forcing one `Prepared` record for
    /// the union of their GC groups. Body: tid list ([`super::encode_tids`]).
    /// OK payload: tid list, the full prepared group; OK **is** the yes
    /// vote, any error a no (the group is aborted). Prepared transactions
    /// leave the session: only a decide opcode resolves them.
    pub const PREPARE: u8 = 0x40;
    /// Query a transaction's distributed-commit state — usable by a
    /// recovery coordinator for tids from any session, including before
    /// a crash. Body: `u64` tid. OK payload: `u8` —
    /// 0 = unknown, 1 = prepared (in doubt), 2 = committed, 3 = aborted,
    /// 4 = other (live, not prepared).
    pub const PREPARED: u8 = 0x41;
    /// Coordinator decision: commit a prepared group. Body: tid list.
    /// Sessionless and idempotent (works after a restart). OK payload:
    /// empty, once applied; the `Commit` record rides the node's next force.
    pub const COMMIT_DECIDE: u8 = 0x42;
    /// Coordinator decision: abort a prepared group. Body: tid list.
    /// Sessionless and idempotent. OK payload: empty.
    pub const ABORT_DECIDE: u8 = 0x43;
    /// Stop accepting connections and shut the server down after the OK
    /// response is written. Body: empty. OK payload: empty.
    pub const SHUTDOWN: u8 = 0x7F;

    /// Every opcode above with its §13.3 name, in table order: the one
    /// name table, for trace labels and per-opcode metrics.
    pub const NAMES: [(u8, &str); 19] = [
        (PING, "PING"),
        (HELLO, "HELLO"),
        (BEGIN, "BEGIN"),
        (READ, "READ"),
        (WRITE, "WRITE"),
        (COMMIT, "COMMIT"),
        (ABORT, "ABORT"),
        (DELEGATE, "DELEGATE"),
        (PERMIT, "PERMIT"),
        (FORM_DEP, "FORM_DEP"),
        (NEW_OID, "NEW_OID"),
        (MINT, "MINT"),
        (SUM, "SUM"),
        (STATS, "STATS"),
        (PREPARE, "PREPARE"),
        (PREPARED, "PREPARED"),
        (COMMIT_DECIDE, "COMMIT_DECIDE"),
        (ABORT_DECIDE, "ABORT_DECIDE"),
        (SHUTDOWN, "SHUTDOWN"),
    ];

    /// The §13.3 name of `op`; `"OP"` for a code outside the table.
    pub fn name(op: u8) -> &'static str {
        NAMES
            .iter()
            .find(|(o, _)| *o == op)
            .map_or("OP", |(_, n)| n)
    }
}

/// Response status codes (first body byte of every response).
pub mod status {
    /// Success; the opcode's result payload follows.
    pub const OK: u8 = 0x00;
    /// The frame or body could not be decoded.
    pub const ERR_MALFORMED: u8 = 0x01;
    /// The frame's version byte is not one the server speaks.
    pub const ERR_BAD_VERSION: u8 = 0x02;
    /// Unknown opcode.
    pub const ERR_BAD_OPCODE: u8 = 0x03;
    /// The tid does not name a transaction of this session.
    pub const ERR_TXN_NOT_FOUND: u8 = 0x04;
    /// The operation is invalid in the transaction's current status.
    pub const ERR_INVALID_STATE: u8 = 0x05;
    /// Admission control refused a new transaction.
    pub const ERR_RESOURCE_EXHAUSTED: u8 = 0x06;
    /// `form_dependency` would create a cycle.
    pub const ERR_DEPENDENCY_CYCLE: u8 = 0x07;
    /// The transaction was chosen as a deadlock victim.
    pub const ERR_DEADLOCK: u8 = 0x08;
    /// A lock wait exceeded the configured timeout.
    pub const ERR_LOCK_TIMEOUT: u8 = 0x09;
    /// The transaction is aborted (or was aborted by this failure).
    pub const ERR_TXN_ABORTED: u8 = 0x0A;
    /// The object does not exist.
    pub const ERR_OBJECT_NOT_FOUND: u8 = 0x0B;
    /// Stored state failed validation.
    pub const ERR_CORRUPT: u8 = 0x0C;
    /// An I/O error outside the commit point.
    pub const ERR_IO: u8 = 0x0D;
    /// COMMIT only: the transaction **aborted cleanly** — its commit
    /// record never entered the log and no effect survives. Retrying
    /// the work in a new transaction is safe.
    pub const ERR_COMMIT_ABORTED: u8 = 0x0E;
    /// COMMIT only: the commit record **failed at the commit point** —
    /// it may or may not have reached stable storage. The live system
    /// drove the transaction through abort (DESIGN.md §13.4), but the
    /// client must treat the outcome as unknown, not as aborted:
    /// blindly retrying can double-apply.
    pub const ERR_COMMIT_AMBIGUOUS: u8 = 0x0F;
}

/// A diagnostic name for a status code (stable; used in error messages
/// and tests, not on the wire).
pub fn status_name(s: u8) -> &'static str {
    match s {
        status::OK => "ok",
        status::ERR_MALFORMED => "malformed",
        status::ERR_BAD_VERSION => "bad-version",
        status::ERR_BAD_OPCODE => "bad-opcode",
        status::ERR_TXN_NOT_FOUND => "txn-not-found",
        status::ERR_INVALID_STATE => "invalid-state",
        status::ERR_RESOURCE_EXHAUSTED => "resource-exhausted",
        status::ERR_DEPENDENCY_CYCLE => "dependency-cycle",
        status::ERR_DEADLOCK => "deadlock",
        status::ERR_LOCK_TIMEOUT => "lock-timeout",
        status::ERR_TXN_ABORTED => "txn-aborted",
        status::ERR_OBJECT_NOT_FOUND => "object-not-found",
        status::ERR_CORRUPT => "corrupt",
        status::ERR_IO => "io",
        status::ERR_COMMIT_ABORTED => "commit-aborted",
        status::ERR_COMMIT_AMBIGUOUS => "commit-ambiguous",
        _ => "unknown",
    }
}

/// Map a facility error onto its wire status code (DESIGN.md §13.3).
pub fn status_of(e: &AssetError) -> u8 {
    match e {
        AssetError::TxnNotFound(_) => status::ERR_TXN_NOT_FOUND,
        AssetError::InvalidState { .. } => status::ERR_INVALID_STATE,
        AssetError::ResourceExhausted { .. } => status::ERR_RESOURCE_EXHAUSTED,
        AssetError::DependencyCycle { .. } => status::ERR_DEPENDENCY_CYCLE,
        AssetError::Deadlock(_) => status::ERR_DEADLOCK,
        AssetError::LockTimeout { .. } => status::ERR_LOCK_TIMEOUT,
        AssetError::TxnAborted(_) => status::ERR_TXN_ABORTED,
        AssetError::ObjectNotFound(_) => status::ERR_OBJECT_NOT_FOUND,
        AssetError::Corrupt(_) => status::ERR_CORRUPT,
        AssetError::Io(_) | AssetError::Stopped(_) => status::ERR_IO,
    }
}

/// Why a byte sequence failed to decode as a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// The length prefix disagrees with the bytes present.
    LengthMismatch {
        /// Bytes the prefix promised after itself.
        declared: u32,
        /// Bytes actually present after the prefix.
        present: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is shorter than
    /// the fixed header).
    BadLength(u32),
    /// The version byte is neither [`PROTOCOL_VERSION`] nor
    /// [`PROTOCOL_VERSION_TRACED`] — or a traced frame is too short to
    /// hold its trace context.
    BadVersion(u8),
    /// The body is not its opcode's layout (DESIGN.md §13.3): trailing
    /// bytes, or a field no layout allows. The message names the fault.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::LengthMismatch { declared, present } => {
                write!(f, "length prefix {declared} but {present} bytes present")
            }
            WireError::BadLength(n) => write!(f, "length prefix {n} out of range"),
            WireError::BadVersion(v) => {
                write!(f, "version {v:#04x}, expected {PROTOCOL_VERSION:#04x}")
            }
            WireError::Malformed(why) => write!(f, "malformed body: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        match e {
            CodecError::Short => WireError::Truncated,
            CodecError::Corrupt(why) => WireError::Malformed(why),
        }
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// One wire frame (request or response), without transport state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The operation (see [`opcode`]); responses echo the request's.
    pub opcode: u8,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub reqid: u32,
    /// Propagated trace context (DESIGN.md §7.2). `Some` encodes the
    /// frame as version [`PROTOCOL_VERSION_TRACED`]; `None` keeps the
    /// byte-identical version `0x01` layout. Responses never carry one.
    pub ctx: Option<TraceCtx>,
    /// Opcode-specific payload. For responses, begins with the status
    /// byte.
    pub body: Vec<u8>,
}

impl Frame {
    /// A plain (untraced, version `0x01`) frame.
    pub fn new(opcode: u8, reqid: u32, body: Vec<u8>) -> Frame {
        Frame {
            opcode,
            reqid,
            ctx: None,
            body,
        }
    }

    /// Serialize to bytes, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let ctx = self.ctx.map(TraceCtx::to_bytes);
        let (version, ctx) = match &ctx {
            Some(ctx) => (PROTOCOL_VERSION_TRACED, &ctx[..]),
            None => (PROTOCOL_VERSION, &[][..]),
        };
        let len = (HEADER_LEN + ctx.len() + self.body.len()) as u32;
        let mut out = Vec::with_capacity(4 + len as usize);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&[version, self.opcode]);
        out.extend_from_slice(&self.reqid.to_le_bytes());
        out.extend_from_slice(ctx);
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse a complete frame (length prefix included). The inverse of
    /// [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(buf);
        let len = frame_len(&mut r)?;
        let present = r.remaining() as u32;
        if present != len {
            return Err(WireError::LengthMismatch {
                declared: len,
                present,
            });
        }
        let (version, opcode, reqid) = (r.u8()?, r.u8()?, r.u32()?);
        let ctx = match version {
            PROTOCOL_VERSION => None,
            // a traced header must fit its 12-byte context
            PROTOCOL_VERSION_TRACED => {
                Some(TraceCtx::read(&mut r).map_err(|_| WireError::BadVersion(version))?)
            }
            other => return Err(WireError::BadVersion(other)),
        };
        Ok(Frame {
            opcode,
            reqid,
            ctx,
            body: r.rest().to_vec(),
        })
    }

    /// Write the frame to a stream (one `write_all` of the encoding).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Read one frame from a **blocking** stream. Returns `Ok(None)` on
    /// a clean EOF at a frame boundary; a mid-frame EOF, an out-of-range
    /// length, or a version mismatch is an error.
    ///
    /// On a stream with a read timeout, a `WouldBlock`/`TimedOut` error
    /// loses any bytes already consumed — use a persistent
    /// [`FrameReader`] there instead.
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Frame>> {
        FrameReader::new().read_from(r)
    }

    /// Build an OK response to a request frame with the given payload.
    /// Responses are always version `0x01`: the trace context flows
    /// requester → executor only.
    pub fn ok_response(req: &Frame, payload: &[u8]) -> Frame {
        let mut body = Vec::with_capacity(1 + payload.len());
        body.push(status::OK);
        body.extend_from_slice(payload);
        Frame::new(req.opcode, req.reqid, body)
    }

    /// Build an error response to a request frame.
    pub fn err_response(req: &Frame, code: u8, message: &str) -> Frame {
        let mut body = Vec::with_capacity(1 + message.len());
        body.push(code);
        body.extend_from_slice(message.as_bytes());
        Frame::new(req.opcode, req.reqid, body)
    }
}

/// An incremental frame reader that survives read timeouts.
///
/// [`Frame::read_from`] assumes a blocking stream: if the read errors
/// mid-frame, the bytes already consumed are gone and the stream is
/// desynchronized. A `FrameReader` keeps the partial frame across
/// calls: a `WouldBlock`/`TimedOut` error from the underlying stream
/// propagates to the caller, but the bytes consumed so far stay
/// buffered and the next `read_from` call resumes exactly where the
/// previous one stopped. This is what lets a caller read with a
/// timeout without ever tearing a frame that straddles two timeouts
/// (the server itself reads without one: shutdown reaches an idle
/// handler as EOF).
///
/// ```
/// use asset_server::protocol::{opcode, Frame, FrameReader};
/// use std::io::{self, Read};
///
/// /// Yields its bytes, then `WouldBlock` (like a read timeout).
/// struct Timeout<'a>(&'a [u8]);
/// impl Read for Timeout<'_> {
///     fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
///         if self.0.is_empty() {
///             return Err(io::ErrorKind::WouldBlock.into());
///         }
///         self.0.read(out)
///     }
/// }
///
/// let f = Frame::new(opcode::PING, 1, vec![]);
/// let bytes = f.encode();
/// let (a, b) = bytes.split_at(5);
/// let mut fr = FrameReader::new();
/// // first poll tick times out mid-frame: the 5 bytes stay buffered
/// let err = fr.read_from(&mut Timeout(a)).unwrap_err();
/// assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
/// assert_eq!(fr.buffered(), 5);
/// // the rest of the frame arrives on the next tick
/// assert_eq!(fr.read_from(&mut Timeout(b)).unwrap(), Some(f));
/// ```
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes of the current frame consumed so far, length prefix first.
    buf: Vec<u8>,
    /// Total bytes of the current frame (4 + len) once the length
    /// prefix is complete and validated; 0 while it is not.
    need: usize,
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Bytes of the current frame buffered so far (0 = at a boundary).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Read one frame, resuming any partial frame from a previous call.
    /// Returns `Ok(None)` on EOF at a frame boundary; EOF mid-frame, an
    /// out-of-range length, or a version mismatch is an error. A
    /// `WouldBlock`/`TimedOut` error leaves the partial state intact
    /// for the next call.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<Option<Frame>> {
        loop {
            if self.need == 0 && self.buf.len() == 4 {
                self.need = 4 + frame_len(&mut Reader::new(&self.buf))? as usize;
            }
            if self.need != 0 && self.buf.len() == self.need {
                let frame = Frame::decode(&self.buf);
                self.buf.clear();
                self.need = 0;
                return frame.map(Some).map_err(Into::into);
            }
            // the length prefix first, then the rest of the frame
            let want = self.need.max(4) - self.buf.len();
            let mut tmp = [0u8; 16 * 1024];
            let want = want.min(tmp.len());
            match r.read(&mut tmp[..want]) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Read a frame's `len` prefix, refusing one outside
/// `HEADER_LEN..=MAX_FRAME_LEN` before anything is read or allocated for it.
fn frame_len(r: &mut Reader<'_>) -> Result<u32, WireError> {
    let len = r.u32()?;
    if (HEADER_LEN as u32..=MAX_FRAME_LEN).contains(&len) {
        Ok(len)
    } else {
        Err(WireError::BadLength(len))
    }
}

/// Decode a request body that `f` must consume exactly (DESIGN.md §13.3):
/// bytes missing are [`WireError::Truncated`], bytes left over are
/// [`WireError::Malformed`].
pub fn read_body<'a, T>(
    body: &'a [u8],
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(body);
    let v = f(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Encode the **tid list** shape: `u32` n, n×`u64` tids — the body of
/// PREPARE, COMMIT_DECIDE and ABORT_DECIDE, and PREPARE's OK payload.
pub fn encode_tids(tids: impl ExactSizeIterator<Item = u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * tids.len());
    out.extend_from_slice(&(tids.len() as u32).to_le_bytes());
    for t in tids {
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

/// Read the tid list shape ([`encode_tids`]). The count is checked against
/// the bytes present before anything is allocated, so a hostile `n`
/// cannot reserve gigabytes.
pub fn read_tids(r: &mut Reader<'_>) -> Result<Vec<u64>, CodecError> {
    let n = r.u32()? as usize;
    let mut ids = Reader::new(r.bytes(n.saturating_mul(8))?);
    (0..n).map(|_| ids.u64()).collect()
}

/// Append the **object set** shape of DELEGATE and PERMIT: `u8` all flag,
/// then the oids as a tid list. `None` (every object) is all = 1, n = 0.
pub fn write_obset(out: &mut Vec<u8>, obs: Option<&[u64]>) {
    out.push(u8::from(obs.is_none()));
    out.extend_from_slice(&encode_tids(obs.unwrap_or_default().iter().copied()));
}

/// Read the object set shape ([`write_obset`]): `None` is all = 1. An all
/// flag other than 0 or 1, or all = 1 with n ≠ 0, is corrupt.
pub fn read_obset(r: &mut Reader<'_>) -> Result<Option<Vec<u64>>, CodecError> {
    match r.u8()? {
        0 => read_tids(r).map(Some),
        1 => match r.u32()? {
            0 => Ok(None),
            n => Err(CodecError::Corrupt(format!(
                "object set has all = 1 with n = {n}; all requires n = 0"
            ))),
        },
        flag => Err(CodecError::Corrupt(format!(
            "object set all flag {flag} is neither 0 nor 1"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_empty_and_payload_bodies() {
        for body in [Vec::new(), vec![0xAB; 3], vec![0u8; 4096]] {
            let f = Frame::new(opcode::WRITE, 0xDEAD_BEEF, body);
            assert_eq!(Frame::decode(&f.encode()), Ok(f));
        }
    }

    #[test]
    fn stream_round_trip_and_clean_eof() {
        let a = Frame::new(opcode::PING, 1, vec![]);
        let b = Frame::new(opcode::READ, 2, vec![7; 16]);
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        b.write_to(&mut buf).unwrap();
        let mut r = &buf[..];
        assert_eq!(Frame::read_from(&mut r).unwrap(), Some(a));
        assert_eq!(Frame::read_from(&mut r).unwrap(), Some(b));
        assert_eq!(Frame::read_from(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let f = Frame::new(opcode::PING, 1, vec![1, 2, 3]);
        let bytes = f.encode();
        let mut r = &bytes[..bytes.len() - 1];
        assert!(Frame::read_from(&mut r).is_err());
    }

    #[test]
    fn bad_version_and_bad_length_rejected() {
        let f = Frame::new(opcode::PING, 1, vec![]);
        let mut bytes = f.encode();
        bytes[4] = 0x03;
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadVersion(0x03)));
        // version 0x02 with no room for the 12-byte context is rejected
        bytes[4] = PROTOCOL_VERSION_TRACED;
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadVersion(0x02)));
        let mut short = f.encode();
        short[0] = 2; // < HEADER_LEN
        assert_eq!(Frame::decode(&short), Err(WireError::BadLength(2)));
        let mut r = &short[..];
        assert!(Frame::read_from(&mut r).is_err());
        let oversize = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        let mut r = &oversize[..];
        assert!(Frame::read_from(&mut r).is_err());
    }

    /// A reader that delivers tiny chunks and interleaves `WouldBlock`
    /// errors between them, like a socket with a read timeout firing
    /// mid-frame.
    struct Choppy<'a> {
        data: &'a [u8],
        pos: usize,
        calls: usize,
    }

    impl std::io::Read for Choppy<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) && self.pos < self.data.len() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(3).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_partial_frames_across_timeouts() {
        let a = Frame::new(opcode::WRITE, 5, vec![9; 300]);
        let b = Frame::new(opcode::PING, 6, vec![]);
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut r = Choppy {
            data: &bytes,
            pos: 0,
            calls: 0,
        };
        let mut fr = FrameReader::new();
        let mut got = Vec::new();
        let mut timeouts = 0;
        loop {
            match fr.read_from(&mut r) {
                Ok(Some(f)) => got.push(f),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, vec![a, b], "frames reassembled across timeouts");
        assert!(timeouts > 0, "the reader was actually interrupted");
        assert_eq!(fr.buffered(), 0, "ends at a frame boundary");
    }

    #[test]
    fn frame_reader_still_rejects_bad_lengths_and_mid_frame_eof() {
        let oversize = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut fr = FrameReader::new();
        assert!(fr.read_from(&mut &oversize[..]).is_err());

        let f = Frame::new(opcode::PING, 1, vec![1, 2, 3]);
        let bytes = f.encode();
        let mut fr = FrameReader::new();
        let mut partial = &bytes[..bytes.len() - 1];
        // a slice EOFs rather than blocking, so the torn frame errors
        assert!(fr.read_from(&mut partial).is_err());
    }

    #[test]
    fn traced_frames_round_trip_and_responses_stay_plain() {
        let ctx = TraceCtx {
            origin: 3,
            root: 0x0102_0304_0506_0708,
        };
        for body in [Vec::new(), vec![0xAB; 3], vec![0u8; 4096]] {
            let f = Frame {
                ctx: Some(ctx),
                ..Frame::new(opcode::PREPARE, 11, body)
            };
            let bytes = f.encode();
            assert_eq!(bytes[4], PROTOCOL_VERSION_TRACED);
            assert_eq!(Frame::decode(&bytes), Ok(f.clone()));
            // responses to a traced request carry no context
            let ok = Frame::ok_response(&f, &[]);
            assert_eq!(ok.ctx, None);
            assert_eq!(ok.encode()[4], PROTOCOL_VERSION);
            let err = Frame::err_response(&f, status::ERR_MALFORMED, "x");
            assert_eq!(err.ctx, None);
        }
        // a traced frame streams through the incremental reader too
        let f = Frame {
            ctx: Some(ctx),
            ..Frame::new(opcode::COMMIT_DECIDE, 2, vec![1, 2, 3])
        };
        let bytes = f.encode();
        let mut r = &bytes[..];
        assert_eq!(Frame::read_from(&mut r).unwrap(), Some(f));
    }

    #[test]
    fn length_mismatch_rejected() {
        let f = Frame::new(opcode::PING, 1, vec![1, 2]);
        let mut bytes = f.encode();
        bytes[0] += 1;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    /// The example frames documented in DESIGN.md §13.5, byte for byte.
    /// If this test changes, the spec must change in the same commit.
    #[test]
    fn design_section_13_example_frames() {
        // Example 1: BEGIN request, reqid 7, parent 0.
        let begin = Frame::new(opcode::BEGIN, 7, 0u64.to_le_bytes().to_vec());
        assert_eq!(
            begin.encode(),
            [
                0x0E, 0x00, 0x00, 0x00, // len = 14
                0x01, // version
                0x10, // opcode BEGIN
                0x07, 0x00, 0x00, 0x00, // reqid = 7
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // parent = 0
            ]
        );
        // Example 2: OK response carrying tid 3.
        let ok = Frame::ok_response(&begin, &3u64.to_le_bytes());
        assert_eq!(
            ok.encode(),
            [
                0x0F, 0x00, 0x00, 0x00, // len = 15
                0x01, // version
                0x10, // opcode echoed
                0x07, 0x00, 0x00, 0x00, // reqid echoed
                0x00, // status OK
                0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tid = 3
            ]
        );
        // Example 3: COMMIT (tid 3, reqid 9) answered with
        // ERR_COMMIT_AMBIGUOUS and a diagnostic message.
        let commit = Frame::new(opcode::COMMIT, 9, 3u64.to_le_bytes().to_vec());
        assert_eq!(
            commit.encode(),
            [
                0x0E, 0x00, 0x00, 0x00, // len = 14
                0x01, // version
                0x13, // opcode COMMIT
                0x09, 0x00, 0x00, 0x00, // reqid = 9
                0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tid = 3
            ]
        );
        let ambiguous =
            Frame::err_response(&commit, status::ERR_COMMIT_AMBIGUOUS, "commit fate unknown");
        let mut expect = vec![
            0x1A, 0x00, 0x00, 0x00, // len = 26 (6 + 1 + 19)
            0x01, // version
            0x13, // opcode echoed
            0x09, 0x00, 0x00, 0x00, // reqid echoed
            0x0F, // status ERR_COMMIT_AMBIGUOUS
        ];
        expect.extend_from_slice(b"commit fate unknown");
        assert_eq!(ambiguous.encode(), expect);
        // Example 4: traced PING request (reqid 1) from origin node 2,
        // root span 9.
        let traced = Frame {
            ctx: Some(TraceCtx { origin: 2, root: 9 }),
            ..Frame::new(opcode::PING, 1, Vec::new())
        };
        assert_eq!(
            traced.encode(),
            [
                0x12, 0x00, 0x00, 0x00, // len = 18
                0x02, // version (traced)
                0x01, // opcode PING
                0x01, 0x00, 0x00, 0x00, // reqid = 1
                0x02, 0x00, 0x00, 0x00, // trace origin node = 2
                0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // root span = 9
            ]
        );
    }

    /// Each body shape goes through its one encoder and its one decoder
    /// and comes back equal — random tid lists, empty ones included, and
    /// object sets, `All` included. A cut body is truncated and one extra
    /// byte is malformed.
    #[test]
    fn body_shapes_round_trip_through_their_one_codec() {
        asset_faults::cases(28, 256, |rng| {
            let ids: Vec<u64> = (0..rng.below(6))
                .map(|_| rng.next_u64() >> rng.below(64))
                .collect();
            let obs = (rng.below(4) != 0).then_some(&ids[..]);
            let tids = encode_tids(ids.iter().copied());
            let mut obset = Vec::new();
            write_obset(&mut obset, obs);
            assert_eq!(read_body(&tids, read_tids), Ok(ids.clone()));
            assert_eq!(read_body(&obset, read_obset), Ok(obs.map(<[u64]>::to_vec)));
            exact_only(&tids, read_tids);
            exact_only(&obset, read_obset);
        });
    }

    /// `body` cut anywhere is truncated, and with one byte more malformed.
    fn exact_only<T>(body: &[u8], read: impl Fn(&mut Reader<'_>) -> Result<T, CodecError>) {
        for cut in 0..body.len() {
            let short = read_body(&body[..cut], &read).err();
            assert_eq!(short, Some(WireError::Truncated), "cut at {cut}");
        }
        let long = [body, &[0]].concat();
        assert!(matches!(
            read_body(&long, &read),
            Err(WireError::Malformed(_))
        ));
    }

    /// A count no frame could back (`n = u32::MAX`, no bytes after it) is
    /// refused by the bounds check, before anything is sized by it.
    #[test]
    fn a_hostile_count_is_refused_before_anything_is_allocated() {
        let n = u32::MAX.to_le_bytes();
        assert_eq!(read_body(&n, read_tids), Err(WireError::Truncated));
        let obset = [&[0][..], &n].concat();
        assert_eq!(read_body(&obset, read_obset), Err(WireError::Truncated));
    }

    #[test]
    fn status_codes_cover_every_error_variant() {
        use asset_common::{Oid, Tid, TxnStatus};
        let cases = [
            (
                status_of(&AssetError::TxnNotFound(Tid(1))),
                status::ERR_TXN_NOT_FOUND,
            ),
            (
                status_of(&AssetError::InvalidState {
                    tid: Tid(1),
                    status: TxnStatus::Running,
                    op: "x",
                }),
                status::ERR_INVALID_STATE,
            ),
            (
                status_of(&AssetError::ResourceExhausted { limit: 1 }),
                status::ERR_RESOURCE_EXHAUSTED,
            ),
            (
                status_of(&AssetError::DependencyCycle {
                    dependent: Tid(1),
                    on: Tid(2),
                }),
                status::ERR_DEPENDENCY_CYCLE,
            ),
            (
                status_of(&AssetError::Deadlock(Tid(1))),
                status::ERR_DEADLOCK,
            ),
            (
                status_of(&AssetError::LockTimeout {
                    tid: Tid(1),
                    ob: Oid(2),
                }),
                status::ERR_LOCK_TIMEOUT,
            ),
            (
                status_of(&AssetError::TxnAborted(Tid(1))),
                status::ERR_TXN_ABORTED,
            ),
            (
                status_of(&AssetError::ObjectNotFound(Oid(1))),
                status::ERR_OBJECT_NOT_FOUND,
            ),
            (
                status_of(&AssetError::Corrupt("x".into())),
                status::ERR_CORRUPT,
            ),
            (
                status_of(&AssetError::Io(std::io::ErrorKind::Other.into())),
                status::ERR_IO,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
        // every named status renders a distinct diagnostic name
        let mut names: Vec<&str> = (0x00..=0x0F).map(status_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }
}
