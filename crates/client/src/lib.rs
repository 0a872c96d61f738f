//! # asset-client — blocking client for the ASSET wire protocol
//!
//! Speaks the length-prefixed binary protocol specified in `DESIGN.md`
//! §13 (implemented by [`asset_server::protocol`]) over a blocking
//! `TcpStream`. One [`Client`] is one connection; its transactions are
//! the server-side session transactions created by [`Client::begin`].
//!
//! Requests can be **pipelined**: [`Client::send`] queues a request
//! without waiting, and [`Client::recv`] reads responses in request
//! order — the protocol guarantees ordered responses, so a burst of
//! writes needs only one round trip's worth of latency.
//!
//! The money-ledger helpers ([`Client::transfer`], [`Client::reserve`],
//! [`Client::burn`]) compose `BEGIN`/`READ`/`WRITE`/`COMMIT` into
//! conservation-preserving account movements — every unit leaving one
//! account lands in another, so the global sum is invariant under any
//! interleaving (the property `asset-bench` E16 checks after a
//! fault-injected run).
//!
//! ## Quick start
//!
//! ```
//! use asset_client::{Client, TxnFate};
//! use asset_common::Config;
//! use asset_core::Database;
//! use asset_server::AssetServer;
//!
//! let (db, _) = Database::open(Config::in_memory().with_exec_workers(2))?;
//! let server = AssetServer::spawn(db, "127.0.0.1:0")?;
//!
//! let mut c = Client::connect(&server.local_addr().to_string())?;
//! let (first, n) = c.mint(4, 100)?; // 4 accounts, 100 units each
//! assert_eq!(n, 4);
//! assert_eq!(c.transfer(first, first + 1, 30)?, TxnFate::Committed);
//! let (total, present) = c.sum(first, 4)?;
//! assert_eq!((total, present), (400, 4), "transfers conserve money");
//! assert_eq!(c.read_i64_committed(first)?, Some(70));
//!
//! c.shutdown()?;
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use asset_obs::{EventKind, MetricsSnapshot, Obs, TraceCtx};
use asset_server::protocol::{
    get_i64, get_u32, get_u64, get_u8, opcode, status, status_name, Frame, WireError,
    PROTOCOL_VERSION, STATS_BODY_REVISION,
};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Errors surfaced by the client.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes wire-format violations, which decode
    /// to `io::ErrorKind::InvalidData`).
    Io(std::io::Error),
    /// The server answered with a non-OK status this call does not
    /// model as a normal outcome.
    Server {
        /// The request's opcode.
        opcode: u8,
        /// The response status byte (see `asset_server::protocol::status`).
        status: u8,
        /// The response's diagnostic message (possibly empty).
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server {
                opcode,
                status,
                message,
            } => write!(
                f,
                "server: opcode {opcode:#04x} failed with {} ({message})",
                status_name(*status)
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Io(e.into())
    }
}

/// How a ledger transaction ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnFate {
    /// The commit record is durable; the movement happened exactly once.
    Committed,
    /// The transaction aborted cleanly (carrying the wire status that
    /// reported it); no effect survives and a retry is safe.
    Aborted(u8),
    /// The helper aborted before committing because the source account
    /// could not cover the amount. No effect survives.
    Insufficient,
    /// The commit failed **at the commit point** and its fate is
    /// unknown (`ERR_COMMIT_AMBIGUOUS`, DESIGN.md §13.4). Do not
    /// blindly retry; reconcile against durable state instead.
    Ambiguous,
}

/// One response frame, split into status and payload.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request opcode this responds to.
    pub opcode: u8,
    /// The request id this responds to.
    pub reqid: u32,
    /// The status byte (`0` = OK).
    pub status: u8,
    /// Result payload (OK) or diagnostic message bytes (error).
    pub payload: Vec<u8>,
}

impl Response {
    /// The OK payload, or a [`ClientError::Server`] for an error status.
    pub fn into_ok(self) -> Result<Vec<u8>, ClientError> {
        if self.status == status::OK {
            Ok(self.payload)
        } else {
            Err(ClientError::Server {
                opcode: self.opcode,
                status: self.status,
                message: String::from_utf8_lossy(&self.payload).into_owned(),
            })
        }
    }
}

/// Aggregate counters returned by [`Client::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Transactions committed since the server's database opened.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Transactions currently live (not yet terminated).
    pub live: u64,
    /// Commit-point log failures (each one produced an ambiguous or
    /// aborted commit).
    pub commit_log_failures: u64,
}

/// The distributed-commit state of a transaction as reported by the
/// wire `PREPARED` query (DESIGN.md §14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreparedState {
    /// The server does not know the tid (never existed, or committed/
    /// aborted before a restart and since forgotten).
    Unknown,
    /// Prepared — durable-but-undecided, awaiting the coordinator.
    Prepared,
    /// Committed.
    Committed,
    /// Aborted (or aborting).
    Aborted,
    /// Live but not prepared (running, completed, committing).
    Other,
}

/// A blocking connection to an ASSET server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_reqid: u32,
    /// Reqids written but not yet answered, in request order. The
    /// protocol answers strictly in order, so [`Client::recv`] matches
    /// each response against the front — **error responses included**:
    /// a mid-pipeline failure consumes exactly one entry, keeping the
    /// stream and this queue in lockstep.
    pending: VecDeque<u32>,
    /// Cross-node tracing (DESIGN.md §7.2), set by
    /// [`enable_tracing`](Self::enable_tracing): every request frame is
    /// stamped with the context and mirrored as `MsgSend`/`MsgAck`
    /// events into the local observability hub.
    trace: Option<ClientTrace>,
}

/// The tracing state of a [`Client`] (see [`Client::enable_tracing`]).
struct ClientTrace {
    /// Context stamped onto every outgoing request frame.
    ctx: TraceCtx,
    /// The server's node id (tags `MsgSend`/`MsgAck` events so the
    /// multi-node merge can pair them with that node's
    /// `MsgRecv`/`MsgReply`).
    peer: u32,
    /// The hub the send/ack events are recorded into.
    obs: Arc<Obs>,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:4994"`) and perform the
    /// `HELLO` version handshake.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_reqid: 1,
            pending: VecDeque::new(),
            trace: None,
        };
        let payload = c.call(opcode::HELLO, Vec::new())?.into_ok()?;
        let server_version = get_u8(&payload, 0)?;
        if server_version != PROTOCOL_VERSION {
            return Err(ClientError::Server {
                opcode: opcode::HELLO,
                status: status::ERR_BAD_VERSION,
                message: format!("server speaks version {server_version:#04x}"),
            });
        }
        Ok(c)
    }

    // --- pipelining primitives -------------------------------------------

    /// Queue one request without waiting for its response; returns the
    /// request id. Responses arrive in request order via [`recv`]
    /// (buffered — call [`flush`](Self::flush) or `recv` to ensure the
    /// bytes leave).
    ///
    /// [`recv`]: Self::recv
    pub fn send(&mut self, op: u8, body: Vec<u8>) -> Result<u32, ClientError> {
        let reqid = self.next_reqid;
        self.next_reqid = self.next_reqid.wrapping_add(1);
        Frame {
            opcode: op,
            reqid,
            ctx: self.trace.as_ref().map(|t| t.ctx),
            body,
        }
        .write_to(&mut self.writer)?;
        if let Some(t) = &self.trace {
            t.obs.record(EventKind::MsgSend {
                node: t.peer,
                opcode: op,
                root: t.ctx.root,
            });
        }
        self.pending.push_back(reqid);
        Ok(reqid)
    }

    /// Stamp every subsequent request with `ctx` (sent as a version
    /// `0x02` traced frame, DESIGN.md §13.1) and mirror each request/
    /// response pair as `MsgSend`/`MsgAck` events into `obs`, tagged
    /// with the server's node id `peer`. The multi-node trace merge
    /// (`asset-trace`) pairs these with the server's `MsgRecv`/
    /// `MsgReply` events to draw cross-node flow edges.
    pub fn enable_tracing(&mut self, ctx: TraceCtx, peer: u32, obs: Arc<Obs>) {
        self.trace = Some(ClientTrace { ctx, peer, obs });
    }

    /// Stop stamping requests; frames revert to plain version `0x01`.
    pub fn disable_tracing(&mut self) {
        self.trace = None;
    }

    /// Test hook: set the next request id, e.g. near `u32::MAX` to
    /// exercise reqid wraparound under pipelining.
    #[doc(hidden)]
    pub fn set_next_reqid(&mut self, reqid: u32) {
        self.next_reqid = reqid;
    }

    /// Push buffered requests onto the wire.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next response (in request order). Flushes first so a
    /// `send`/`recv` loop cannot deadlock on buffered bytes.
    ///
    /// The response's reqid is matched against the oldest unanswered
    /// request — a mismatch means the stream desynchronized (a response
    /// was dropped or reordered) and surfaces as an `InvalidData`
    /// transport error rather than silently attributing one request's
    /// answer to another. Error statuses are normal responses here:
    /// they consume exactly one pending slot, so a pipelined batch with
    /// a mid-batch failure still matches every later response to the
    /// right request.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.flush()?;
        let Some(want) = self.pending.front().copied() else {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "recv with no request in flight",
            )));
        };
        let frame = Frame::read_from(&mut self.reader)?
            .ok_or_else(|| ClientError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
        if frame.reqid != want {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "response reqid {} but oldest unanswered request is {want}",
                    frame.reqid
                ),
            )));
        }
        self.pending.pop_front();
        if let Some(t) = &self.trace {
            t.obs.record(EventKind::MsgAck {
                node: t.peer,
                opcode: frame.opcode,
                root: t.ctx.root,
            });
        }
        let status = get_u8(&frame.body, 0)?;
        Ok(Response {
            opcode: frame.opcode,
            reqid: frame.reqid,
            status,
            payload: frame.body[1..].to_vec(),
        })
    }

    /// Requests written but not yet answered.
    pub fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn call(&mut self, op: u8, body: Vec<u8>) -> Result<Response, ClientError> {
        let reqid = self.send(op, body)?;
        // recv matches the response against the oldest pending request;
        // a typed call issued with older requests still unanswered
        // would get their response, so refuse the mixture explicitly
        let resp = self.recv()?;
        if resp.reqid != reqid {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "typed call (reqid {reqid}) answered with reqid {} — \
                     drain pipelined requests with recv() first",
                    resp.reqid
                ),
            )));
        }
        Ok(resp)
    }

    // --- typed operations ------------------------------------------------

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(opcode::PING, Vec::new())?.into_ok().map(|_| ())
    }

    /// Open a session transaction; returns its tid.
    pub fn begin(&mut self) -> Result<u64, ClientError> {
        let payload = self
            .call(opcode::BEGIN, 0u64.to_le_bytes().to_vec())?
            .into_ok()?;
        Ok(get_u64(&payload, 0)?)
    }

    /// Transactional read. `Ok(None)` means the object has no
    /// committed-or-own-written image.
    pub fn read(&mut self, tid: u64, oid: u64) -> Result<Option<Vec<u8>>, ClientError> {
        let payload = self.call(opcode::READ, body_read(tid, oid))?.into_ok()?;
        Ok(decode_read_payload(&payload)?)
    }

    /// Transactional write.
    pub fn write(&mut self, tid: u64, oid: u64, value: &[u8]) -> Result<(), ClientError> {
        self.call(opcode::WRITE, body_write(tid, oid, value))?
            .into_ok()
            .map(|_| ())
    }

    /// Commit; the `Committed` fate means the commit record is durable
    /// (the OK rode the server's group-commit flush window).
    pub fn commit(&mut self, tid: u64) -> Result<TxnFate, ClientError> {
        let resp = self.call(opcode::COMMIT, tid.to_le_bytes().to_vec())?;
        decode_commit_status(resp)
    }

    /// Abort and roll back.
    pub fn abort(&mut self, tid: u64) -> Result<(), ClientError> {
        self.call(opcode::ABORT, tid.to_le_bytes().to_vec())?
            .into_ok()
            .map(|_| ())
    }

    /// `delegate(from, to, obs)` — `None` delegates everything
    /// delegable.
    pub fn delegate(&mut self, from: u64, to: u64, obs: Option<&[u64]>) -> Result<(), ClientError> {
        let mut body = from.to_le_bytes().to_vec();
        body.extend_from_slice(&to.to_le_bytes());
        encode_obset(&mut body, obs);
        self.call(opcode::DELEGATE, body)?.into_ok().map(|_| ())
    }

    /// `permit(grantor, grantee, obs, ops)` — `grantee: None` is the
    /// any-transaction wildcard, `obs: None` means every object, `ops`
    /// is the wire bitmask (1 = read, 2 = write, 3 = both).
    pub fn permit(
        &mut self,
        grantor: u64,
        grantee: Option<u64>,
        obs: Option<&[u64]>,
        ops: u8,
    ) -> Result<(), ClientError> {
        let mut body = grantor.to_le_bytes().to_vec();
        body.extend_from_slice(&grantee.unwrap_or(0).to_le_bytes());
        body.push(ops);
        encode_obset(&mut body, obs);
        self.call(opcode::PERMIT, body)?.into_ok().map(|_| ())
    }

    /// `form_dependency(kind, ti, tj)` with the wire kind byte
    /// (1 = CD, 2 = AD, 3 = GC).
    pub fn form_dependency(&mut self, kind: u8, ti: u64, tj: u64) -> Result<(), ClientError> {
        let mut body = vec![kind];
        body.extend_from_slice(&ti.to_le_bytes());
        body.extend_from_slice(&tj.to_le_bytes());
        self.call(opcode::FORM_DEP, body)?.into_ok().map(|_| ())
    }

    /// Allocate one object id.
    pub fn new_oid(&mut self) -> Result<u64, ClientError> {
        let payload = self.call(opcode::NEW_OID, Vec::new())?.into_ok()?;
        Ok(get_u64(&payload, 0)?)
    }

    /// Bulk-create `count` accounts holding `initial` units each;
    /// returns `(first_oid, count)`. The server caps one request at
    /// `MAX_MINT_COUNT` (DESIGN.md §13.3) — mint larger populations in
    /// multiple calls. On an error no funded accounts remain: the
    /// server deletes any chunks that had committed before the failure.
    pub fn mint(&mut self, count: u64, initial: i64) -> Result<(u64, u64), ClientError> {
        let mut body = count.to_le_bytes().to_vec();
        body.extend_from_slice(&initial.to_le_bytes());
        let payload = self.call(opcode::MINT, body)?.into_ok()?;
        Ok((get_u64(&payload, 0)?, get_u64(&payload, 8)?))
    }

    /// Sum committed i64 counters over `first..first+count`; returns
    /// `(sum, objects_present)`. Runs as one server-side read
    /// transaction, so the answer is a consistent snapshot even while
    /// writers are active. The server caps one request's range at
    /// `MAX_SUM_COUNT` (DESIGN.md §13.3); sweep wider ranges in
    /// multiple calls.
    pub fn sum(&mut self, first: u64, count: u64) -> Result<(i64, u64), ClientError> {
        let mut body = first.to_le_bytes().to_vec();
        body.extend_from_slice(&count.to_le_bytes());
        let payload = self.call(opcode::SUM, body)?.into_ok()?;
        Ok((get_i64(&payload, 0)?, get_u64(&payload, 8)?))
    }

    /// Aggregate server counters — a compact summary derived from the
    /// full [`metrics`](Self::metrics) snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let (live, snap) = self.metrics()?;
        Ok(ServerStats {
            committed: snap.counters.txn_committed,
            aborted: snap.counters.txn_aborted,
            live,
            commit_log_failures: snap.counters.commit_log_failures,
        })
    }

    /// The server's full metrics snapshot (every counter and histogram
    /// of its observability hub) plus its live-transaction gauge, from
    /// the versioned `STATS` body (DESIGN.md §13.3). The body is
    /// self-describing, so a newer server's extra metrics are skipped
    /// rather than failing the call.
    pub fn metrics(&mut self) -> Result<(u64, MetricsSnapshot), ClientError> {
        let payload = self.call(opcode::STATS, Vec::new())?.into_ok()?;
        let rev = get_u8(&payload, 0)?;
        if rev != STATS_BODY_REVISION {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("STATS body revision {rev}, expected {STATS_BODY_REVISION}"),
            )));
        }
        let live = get_u64(&payload, 1)?;
        let snap = asset_obs::wire::decode_snapshot(&payload[9..]).ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "STATS metrics snapshot failed to decode",
            ))
        })?;
        Ok((live, snap))
    }

    // --- distributed commit (DESIGN.md §14) ------------------------------

    /// Prepare this connection's transactions `tids` as one
    /// distributed-commit group. An `Ok` return **is** the yes vote:
    /// the participant's `Prepared` record is durable and the returned
    /// group (the union of the tids' GC groups) awaits the
    /// coordinator's decision — [`commit_decide`](Self::commit_decide)
    /// or [`abort_decide`](Self::abort_decide). Any error is a no vote;
    /// the transactions are aborted server-side.
    pub fn prepare(&mut self, tids: &[u64]) -> Result<Vec<u64>, ClientError> {
        let payload = self
            .call(opcode::PREPARE, encode_tid_list(tids))?
            .into_ok()?;
        decode_tid_list_payload(&payload).map_err(Into::into)
    }

    /// Query a transaction's distributed-commit state — usable for tids
    /// of any session, including after the server restarted.
    pub fn prepared_state(&mut self, tid: u64) -> Result<PreparedState, ClientError> {
        let payload = self
            .call(opcode::PREPARED, tid.to_le_bytes().to_vec())?
            .into_ok()?;
        Ok(match get_u8(&payload, 0)? {
            1 => PreparedState::Prepared,
            2 => PreparedState::Committed,
            3 => PreparedState::Aborted,
            4 => PreparedState::Other,
            _ => PreparedState::Unknown,
        })
    }

    /// Deliver the coordinator's **commit** decision for a prepared
    /// group. Sessionless and idempotent; the OK is written once the
    /// decision is applied (it is already durable at the coordinator's
    /// acceptors; the participant's commit record rides its next force).
    pub fn commit_decide(&mut self, tids: &[u64]) -> Result<(), ClientError> {
        self.call(opcode::COMMIT_DECIDE, encode_tid_list(tids))?
            .into_ok()
            .map(|_| ())
    }

    /// Deliver the coordinator's **abort** decision for a prepared
    /// group. Sessionless and idempotent.
    pub fn abort_decide(&mut self, tids: &[u64]) -> Result<(), ClientError> {
        self.call(opcode::ABORT_DECIDE, encode_tid_list(tids))?
            .into_ok()
            .map(|_| ())
    }

    /// Ask the server to shut down (acknowledged before it stops).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(opcode::SHUTDOWN, Vec::new())?
            .into_ok()
            .map(|_| ())
    }

    /// Convenience: the committed i64 counter value of `oid`, read in a
    /// throwaway transaction.
    pub fn read_i64_committed(&mut self, oid: u64) -> Result<Option<i64>, ClientError> {
        let tid = self.begin()?;
        let v = self.read(tid, oid)?;
        // terminal either way; an abort after a pure read is free
        self.abort(tid)?;
        Ok(v.and_then(|b| {
            <[u8; 8]>::try_from(b.as_slice())
                .ok()
                .map(i64::from_le_bytes)
        }))
    }

    // --- money-ledger helpers --------------------------------------------

    /// Move `amount` from `from` to `to` unconditionally (balances may
    /// go negative). Conserves the global sum.
    pub fn transfer(&mut self, from: u64, to: u64, amount: i64) -> Result<TxnFate, ClientError> {
        self.move_funds(from, to, amount, false)
    }

    /// Reserve `amount` out of `from` into the escrow account `escrow`:
    /// the movement happens only if `from` can cover it, otherwise the
    /// transaction aborts with [`TxnFate::Insufficient`].
    pub fn reserve(&mut self, from: u64, escrow: u64, amount: i64) -> Result<TxnFate, ClientError> {
        self.move_funds(from, escrow, amount, true)
    }

    /// Burn `amount` of `from` into the treasury/sink account `sink`.
    /// Modeled as a checked movement (not destruction) so the global
    /// conservation invariant stays checkable.
    pub fn burn(&mut self, from: u64, sink: u64, amount: i64) -> Result<TxnFate, ClientError> {
        self.move_funds(from, sink, amount, true)
    }

    /// One `BEGIN`/`READ`+`WRITE`/`COMMIT` movement. Accounts are
    /// touched in oid order so concurrent movements over the same pair
    /// acquire locks in a consistent order (upgrades can still
    /// deadlock; the server's detector aborts a victim, surfaced as
    /// [`TxnFate::Aborted`] — retry with fresh amounts).
    fn move_funds(
        &mut self,
        from: u64,
        to: u64,
        amount: i64,
        checked: bool,
    ) -> Result<TxnFate, ClientError> {
        if from == to {
            return Ok(TxnFate::Committed); // net-zero movement
        }
        let tid = self.begin()?;
        let (lo, hi) = if from <= to { (from, to) } else { (to, from) };
        for acct in [lo, hi] {
            let delta = if acct == from { -amount } else { amount };
            let old = match self.read(tid, acct) {
                // a server-reported failure means the session
                // transaction terminated; nothing left to abort
                Ok(v) => decode_i64(v),
                Err(ClientError::Server { status, .. }) => {
                    return Ok(TxnFate::Aborted(status));
                }
                Err(e) => return Err(e),
            };
            if checked && acct == from && old < amount {
                self.abort(tid)?;
                return Ok(TxnFate::Insufficient);
            }
            let new = old.wrapping_add(delta);
            match self.write(tid, acct, &new.to_le_bytes()) {
                Ok(()) => {}
                Err(ClientError::Server { status, .. }) => {
                    return Ok(TxnFate::Aborted(status));
                }
                Err(e) => return Err(e),
            }
        }
        self.commit(tid)
    }
}

fn body_read(tid: u64, oid: u64) -> Vec<u8> {
    let mut b = tid.to_le_bytes().to_vec();
    b.extend_from_slice(&oid.to_le_bytes());
    b
}

fn body_write(tid: u64, oid: u64, value: &[u8]) -> Vec<u8> {
    let mut b = body_read(tid, oid);
    b.extend_from_slice(value);
    b
}

/// Decode a READ OK payload: present flag + bytes.
fn decode_read_payload(payload: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
    match get_u8(payload, 0)? {
        0 => Ok(None),
        _ => Ok(Some(payload[1..].to_vec())),
    }
}

/// A missing or malformed counter reads as 0 units.
fn decode_i64(v: Option<Vec<u8>>) -> i64 {
    v.and_then(|b| {
        <[u8; 8]>::try_from(b.as_slice())
            .ok()
            .map(i64::from_le_bytes)
    })
    .unwrap_or(0)
}

/// Map a COMMIT response onto a [`TxnFate`].
fn decode_commit_status(resp: Response) -> Result<TxnFate, ClientError> {
    match resp.status {
        status::OK => Ok(TxnFate::Committed),
        status::ERR_COMMIT_ABORTED => Ok(TxnFate::Aborted(status::ERR_COMMIT_ABORTED)),
        status::ERR_COMMIT_AMBIGUOUS => Ok(TxnFate::Ambiguous),
        _ => Err(ClientError::Server {
            opcode: resp.opcode,
            status: resp.status,
            message: String::from_utf8_lossy(&resp.payload).into_owned(),
        }),
    }
}

/// Encode the `u32` n + n×`u64` tids list shape shared by PREPARE and
/// the decide opcodes.
fn encode_tid_list(tids: &[u64]) -> Vec<u8> {
    let mut body = (tids.len() as u32).to_le_bytes().to_vec();
    for t in tids {
        body.extend_from_slice(&t.to_le_bytes());
    }
    body
}

/// Decode a `u32` m + m×`u64` tids payload (the PREPARE OK body).
fn decode_tid_list_payload(payload: &[u8]) -> Result<Vec<u64>, WireError> {
    let n = get_u32(payload, 0)? as usize;
    let mut tids = Vec::with_capacity(n.min(payload.len() / 8));
    for i in 0..n {
        tids.push(get_u64(payload, 4 + 8 * i)?);
    }
    Ok(tids)
}

/// Encode the shared object-set body shape: `u8` all flag, `u32` n,
/// n×`u64` oids.
fn encode_obset(body: &mut Vec<u8>, obs: Option<&[u64]>) {
    match obs {
        None => {
            body.push(1);
            body.extend_from_slice(&0u32.to_le_bytes());
        }
        Some(oids) => {
            body.push(0);
            body.extend_from_slice(&(oids.len() as u32).to_le_bytes());
            for oid in oids {
                body.extend_from_slice(&oid.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Config;
    use asset_core::Database;
    use asset_server::AssetServer;
    use std::time::Duration;

    fn server() -> AssetServer {
        let (db, _) = Database::open(
            Config::in_memory()
                .with_exec_workers(2)
                .with_commit_flush_window(Duration::from_micros(100)),
        )
        .expect("open");
        AssetServer::spawn(db, "127.0.0.1:0").expect("spawn")
    }

    fn connect(s: &AssetServer) -> Client {
        Client::connect(&s.local_addr().to_string()).expect("connect")
    }

    #[test]
    fn begin_write_read_commit_round_trip() {
        let s = server();
        let mut c = connect(&s);
        c.ping().unwrap();
        let oid = c.new_oid().unwrap();
        let tid = c.begin().unwrap();
        assert_eq!(c.read(tid, oid).unwrap(), None);
        c.write(tid, oid, b"hello").unwrap();
        assert_eq!(c.read(tid, oid).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(c.commit(tid).unwrap(), TxnFate::Committed);
        // a new transaction observes the committed image
        let t2 = c.begin().unwrap();
        assert_eq!(c.read(t2, oid).unwrap().as_deref(), Some(&b"hello"[..]));
        c.abort(t2).unwrap();
        s.shutdown();
        s.join();
    }

    #[test]
    fn abort_discards_and_unknown_tid_is_reported() {
        let s = server();
        let mut c = connect(&s);
        let oid = c.new_oid().unwrap();
        let tid = c.begin().unwrap();
        c.write(tid, oid, b"doomed").unwrap();
        c.abort(tid).unwrap();
        let t2 = c.begin().unwrap();
        assert_eq!(c.read(t2, oid).unwrap(), None);
        c.abort(t2).unwrap();
        // the aborted tid no longer names a session transaction
        match c.write(tid, oid, b"x") {
            Err(ClientError::Server { status, .. }) => {
                assert_eq!(status, status::ERR_TXN_NOT_FOUND)
            }
            other => panic!("expected txn-not-found, got {other:?}"),
        }
        s.shutdown();
        s.join();
    }

    #[test]
    fn ledger_helpers_conserve_and_check_funds() {
        let s = server();
        let mut c = connect(&s);
        let (first, n) = c.mint(3, 50).unwrap();
        assert_eq!(n, 3);
        assert_eq!(
            c.transfer(first, first + 1, 20).unwrap(),
            TxnFate::Committed
        );
        assert_eq!(
            c.reserve(first, first + 2, 1000).unwrap(),
            TxnFate::Insufficient
        );
        assert_eq!(
            c.burn(first + 1, first + 2, 70).unwrap(),
            TxnFate::Committed
        );
        assert_eq!(c.sum(first, 3).unwrap(), (150, 3), "money conserved");
        assert_eq!(c.read_i64_committed(first).unwrap(), Some(30));
        assert_eq!(c.read_i64_committed(first + 1).unwrap(), Some(0));
        assert_eq!(c.read_i64_committed(first + 2).unwrap(), Some(120));
        let stats = c.stats().unwrap();
        assert!(stats.committed >= 3);
        s.shutdown();
        s.join();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let s = server();
        let mut c = connect(&s);
        let (first, _) = c.mint(1, 0).unwrap();
        let tid = c.begin().unwrap();
        // queue a burst of writes plus a read without waiting
        let mut ids = Vec::new();
        for i in 0..8u8 {
            ids.push(c.send(opcode::WRITE, body_write(tid, first, &[i])).unwrap());
        }
        ids.push(c.send(opcode::READ, body_read(tid, first)).unwrap());
        assert_eq!(c.inflight(), 9);
        for want in &ids[..8] {
            let resp = c.recv().unwrap();
            assert_eq!(resp.reqid, *want);
            assert_eq!(resp.status, status::OK);
        }
        let last = c.recv().unwrap();
        assert_eq!(last.reqid, ids[8]);
        assert_eq!(
            decode_read_payload(&last.into_ok().unwrap()).unwrap(),
            Some(vec![7]),
            "responses arrive in request order"
        );
        assert_eq!(c.commit(tid).unwrap(), TxnFate::Committed);
        s.shutdown();
        s.join();
    }

    /// Satellite regression (ISSUE 8): a deliberate error response in
    /// the middle of a pipelined batch must consume exactly one pending
    /// slot — every later response still matches its request, and the
    /// connection remains usable.
    #[test]
    fn mid_pipeline_error_does_not_desync_the_stream() {
        use asset_server::protocol::MAX_SUM_COUNT;
        let s = server();
        let mut c = connect(&s);
        let (first, _) = c.mint(2, 10).unwrap();
        let mut sum_body = first.to_le_bytes().to_vec();
        sum_body.extend_from_slice(&u64::MAX.to_le_bytes());
        const { assert!(u64::MAX > MAX_SUM_COUNT) };
        // good, bad (oversized SUM → ERR_RESOURCE_EXHAUSTED), good
        let a = c.send(opcode::PING, Vec::new()).unwrap();
        let b = c.send(opcode::SUM, sum_body).unwrap();
        let d = c.send(opcode::PING, Vec::new()).unwrap();
        assert_eq!(c.inflight(), 3);
        let ra = c.recv().unwrap();
        assert_eq!((ra.reqid, ra.status), (a, status::OK));
        let rb = c.recv().unwrap();
        assert_eq!((rb.reqid, rb.status), (b, status::ERR_RESOURCE_EXHAUSTED));
        let rd = c.recv().unwrap();
        assert_eq!((rd.reqid, rd.status), (d, status::OK));
        assert_eq!(c.inflight(), 0);
        // the connection still works for typed calls after the error
        assert_eq!(c.sum(first, 2).unwrap(), (20, 2));
        s.shutdown();
        s.join();
    }

    /// Satellite regression (ISSUE 8): reqids are correlation ids, not
    /// sequence numbers — a pipelined batch that wraps `u32::MAX` keeps
    /// matching responses to requests.
    #[test]
    fn reqid_wraparound_keeps_responses_matched() {
        let s = server();
        let mut c = connect(&s);
        let (first, _) = c.mint(1, 7).unwrap();
        c.set_next_reqid(u32::MAX - 1);
        let ids: Vec<u32> = (0..4)
            .map(|_| c.send(opcode::PING, Vec::new()).unwrap())
            .collect();
        assert_eq!(ids, vec![u32::MAX - 1, u32::MAX, 0, 1]);
        for want in ids {
            let r = c.recv().unwrap();
            assert_eq!((r.reqid, r.status), (want, status::OK));
        }
        // typed calls keep working across the wrapped space
        assert_eq!(c.sum(first, 1).unwrap(), (7, 1));
        s.shutdown();
        s.join();
    }

    #[test]
    fn recv_without_inflight_is_refused() {
        let s = server();
        let mut c = connect(&s);
        assert!(matches!(c.recv(), Err(ClientError::Io(_))));
        // refusing early left no stream state behind
        c.ping().unwrap();
        s.shutdown();
        s.join();
    }

    /// Wire PREPARE / decide round trip: prepare survives the client
    /// disconnecting, and a second connection delivers the decision.
    #[test]
    fn prepare_then_decide_over_the_wire() {
        let s = server();
        let oid;
        let group;
        {
            let mut c = connect(&s);
            oid = c.new_oid().unwrap();
            let tid = c.begin().unwrap();
            c.write(tid, oid, b"staged").unwrap();
            group = c.prepare(&[tid]).unwrap();
            assert_eq!(group, vec![tid]);
            assert_eq!(c.prepared_state(tid).unwrap(), PreparedState::Prepared);
            // the session no longer owns the prepared txn
            match c.write(tid, oid, b"x") {
                Err(ClientError::Server { status, .. }) => {
                    assert_eq!(status, status::ERR_TXN_NOT_FOUND)
                }
                other => panic!("expected txn-not-found, got {other:?}"),
            }
            // disconnect with the vote cast: must NOT abort it
        }
        let mut c2 = connect(&s);
        assert_eq!(
            c2.prepared_state(group[0]).unwrap(),
            PreparedState::Prepared,
            "disconnect does not abort a prepared transaction"
        );
        c2.commit_decide(&group).unwrap();
        assert_eq!(
            c2.prepared_state(group[0]).unwrap(),
            PreparedState::Committed
        );
        assert_eq!(c2.read_i64_committed(oid).map(|_| ()).unwrap(), ());
        let t = c2.begin().unwrap();
        assert_eq!(c2.read(t, oid).unwrap().as_deref(), Some(&b"staged"[..]));
        c2.abort(t).unwrap();
        // idempotent re-decide
        c2.commit_decide(&group).unwrap();
        s.shutdown();
        s.join();
    }

    /// The abort decision rolls a prepared group back.
    #[test]
    fn prepare_then_abort_decide_over_the_wire() {
        let s = server();
        let mut c = connect(&s);
        let oid = c.new_oid().unwrap();
        let tid = c.begin().unwrap();
        c.write(tid, oid, b"doomed").unwrap();
        let group = c.prepare(&[tid]).unwrap();
        c.abort_decide(&group).unwrap();
        assert_eq!(c.prepared_state(tid).unwrap(), PreparedState::Aborted);
        let t = c.begin().unwrap();
        assert_eq!(c.read(t, oid).unwrap(), None, "prepared write undone");
        c.abort(t).unwrap();
        s.shutdown();
        s.join();
    }

    #[test]
    fn disconnect_aborts_open_transactions() {
        let s = server();
        let oid;
        {
            let mut c = connect(&s);
            oid = c.new_oid().unwrap();
            let tid = c.begin().unwrap();
            c.write(tid, oid, b"orphan").unwrap();
            // drop the connection with the transaction open
        }
        let mut c2 = connect(&s);
        // the server aborts the orphan; its write must not surface.
        // poll briefly: the abort is asynchronous to the disconnect.
        let mut last = None;
        for _ in 0..100 {
            let t = c2.begin().unwrap();
            last = c2.read(t, oid).unwrap();
            c2.abort(t).unwrap();
            if last.is_none() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(last, None, "orphaned write rolled back");
        s.shutdown();
        s.join();
    }
}
