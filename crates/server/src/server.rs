//! The network server: a `std::net::TcpListener` accept loop, one
//! handler thread per connection, requests dispatched onto the
//! executor through per-transaction mailboxes ([`crate::session`]).
//!
//! The server owns no transaction state of its own — a connection is a
//! map from wire tids to [`SessionTxn`]s, and everything transactional
//! lives in the [`Database`]. Dropping a connection aborts its live
//! transactions (queued as terminal ops; the executor rolls them back).

use crate::protocol::{self, get_i64, get_u32, get_u64, get_u8, opcode, status, Frame, WireError};
use crate::session::{OpReply, SessionTxn, TxnOp};
use asset_common::sync::Mutex;
use asset_core::{AssetError, Database, DepType, ObSet, Oid, OpSet, Tid, TxnOutcome, TxnStatus};
use asset_obs::{bump, AtomicHistogram, EventKind, SpanName, LATENCY_NS_BOUNDS};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Objects written per server-side transaction while servicing a MINT
/// request. Bounds undo-chain length and lock footprint for
/// million-object mints.
const MINT_CHUNK: u64 = 10_000;

/// How many times a SUM's read transaction is retried when it loses a
/// deadlock against concurrent writers before the request fails.
const SUM_RETRIES: usize = 16;

struct Shared {
    db: Database,
    shutdown: AtomicBool,
    /// Serializes MINT requests so each mint's oids are consecutive
    /// (unless an unrelated connection allocates concurrently).
    mint: Mutex<()>,
    /// This node's id in a fleet — stamped on fleet metrics and matched
    /// against trace contexts when per-node traces are merged (§7.2).
    node_id: u32,
    metrics: ServerMetrics,
}

/// Fleet metrics local to the server layer (DESIGN.md §7.2): service
/// time per wire opcode plus live connection/session gauges. Everything
/// here is wait-free atomics, recorded on the connection thread after
/// the response is built — never inside the executor or a lock stripe.
struct ServerMetrics {
    /// `(opcode, metric label, service-time histogram)` per §13.3 wire
    /// opcode, in table order.
    ops: Vec<(u8, &'static str, AtomicHistogram)>,
    /// Fallback for opcodes outside the §13.3 table (answered with
    /// `ERR_BAD_OPCODE` but still timed).
    other: AtomicHistogram,
    /// Currently-open client connections.
    live_connections: AtomicU64,
    /// Session transactions currently open across all connections
    /// (BEGIN'd, neither finished nor released to a coordinator).
    live_sessions: AtomicU64,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let ops = [
            (opcode::PING, "ping"),
            (opcode::HELLO, "hello"),
            (opcode::BEGIN, "begin"),
            (opcode::READ, "read"),
            (opcode::WRITE, "write"),
            (opcode::COMMIT, "commit"),
            (opcode::ABORT, "abort"),
            (opcode::DELEGATE, "delegate"),
            (opcode::PERMIT, "permit"),
            (opcode::FORM_DEP, "form_dep"),
            (opcode::NEW_OID, "new_oid"),
            (opcode::MINT, "mint"),
            (opcode::SUM, "sum"),
            (opcode::STATS, "stats"),
            (opcode::PREPARE, "prepare"),
            (opcode::PREPARED, "prepared"),
            (opcode::COMMIT_DECIDE, "commit_decide"),
            (opcode::ABORT_DECIDE, "abort_decide"),
            (opcode::SHUTDOWN, "shutdown"),
        ]
        .into_iter()
        .map(|(op, name)| (op, name, AtomicHistogram::new(LATENCY_NS_BOUNDS)))
        .collect();
        ServerMetrics {
            ops,
            other: AtomicHistogram::new(LATENCY_NS_BOUNDS),
            live_connections: AtomicU64::new(0),
            live_sessions: AtomicU64::new(0),
        }
    }

    fn op_hist(&self, op: u8) -> &AtomicHistogram {
        self.ops
            .iter()
            .find(|(o, _, _)| *o == op)
            .map(|(_, _, h)| h)
            .unwrap_or(&self.other)
    }
}

impl Shared {
    /// The node's Prometheus scrape body — see
    /// [`AssetServer::metrics_text`].
    fn metrics_text(&self) -> String {
        let snap = self.db.metrics_snapshot();
        let stripes = self.db.locks().stripe_stats();
        let mut out = asset_trace::prom::render_node(&snap, &stripes, self.node_id);
        use std::fmt::Write as _;
        for (_, name, h) in &self.metrics.ops {
            asset_trace::prom::render_histogram(
                &mut out,
                &format!("asset_server_op_{name}_ns"),
                "Wire-request service time on this node (ns).",
                &h.snapshot(),
            );
        }
        let node = self.node_id;
        for (name, help, v) in [
            (
                "asset_server_live_connections",
                "Open client connections on this node.",
                self.metrics.live_connections.load(Ordering::Relaxed),
            ),
            (
                "asset_server_live_sessions",
                "Open session transactions on this node.",
                self.metrics.live_sessions.load(Ordering::Relaxed),
            ),
            (
                "asset_server_live_transactions",
                "Live transactions in this node's database.",
                self.db.live_transactions() as u64,
            ),
            (
                "asset_server_in_doubt",
                "Prepared distributed-commit transactions awaiting a \
                 coordinator decision on this node (DESIGN.md 14.2).",
                self.db.in_doubt_transactions().len() as u64,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{node=\"{node}\"}} {v}");
        }
        out
    }
}

/// A running ASSET network server.
///
/// Spawned with [`AssetServer::spawn`]; stopped with
/// [`AssetServer::shutdown`] + [`AssetServer::join`], or by a wire
/// `SHUTDOWN` request.
///
/// The server requires a database configured with live executor worker
/// threads (`Config::with_exec_workers(n)`, `n >= 1`): session
/// transactions are step programs (they park on
/// [`asset_core::TxnStep::WaitExternal`] between requests), and with no
/// worker nothing drives them.
pub struct AssetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Conns,
}

/// The live connections: each handler thread beside a weak handle on its
/// stream — what shutdown reaches a handler blocked in `read` through.
/// Weak, so the socket closes the moment its handler is done with it.
type Conns = Arc<Mutex<Vec<(Weak<TcpStream>, JoinHandle<()>)>>>;

impl AssetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting
    /// connections against `db`.
    ///
    /// Fails with `InvalidInput` if `db`'s executor has no live worker
    /// threads: every session transaction is a `Database::submit`, which
    /// fails without a worker to drive it. Failing fast here beats failing
    /// every `BEGIN`.
    pub fn spawn(db: Database, addr: &str) -> std::io::Result<AssetServer> {
        Self::spawn_node(db, addr, 0)
    }

    /// [`spawn`](Self::spawn) with an explicit fleet node id. The id is
    /// stamped on this node's Prometheus series and is the `origin` a
    /// trace merge matches this node's events against (§7.2); single-node
    /// deployments use node 0.
    pub fn spawn_node(db: Database, addr: &str, node_id: u32) -> std::io::Result<AssetServer> {
        if db.executor_workers() == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "asset-server requires a live executor worker pool to \
                 run session transactions (see Config::with_exec_workers)",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            shutdown: AtomicBool::new(false),
            mint: Mutex::new(()),
            node_id,
            metrics: ServerMetrics::new(),
        });
        let conns = Conns::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("asset-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))?
        };
        Ok(AssetServer {
            shared,
            addr: local,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database this server fronts.
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// This node's fleet id (see [`spawn_node`](Self::spawn_node)).
    pub fn node_id(&self) -> u32 {
        self.shared.node_id
    }

    /// Render this node's full metrics in Prometheus text format: the
    /// database snapshot and stripe stats, node-attributed fleet series
    /// (`asset_events_dropped{node=...}`), per-opcode service-time
    /// histograms, and the live connection/session gauges. This is the
    /// body served by the binary's `--serve-metrics` endpoint; callers
    /// embedding the server can serve it through
    /// [`asset_trace::prom::PromServer`] via [`metrics_source`](Self::metrics_source).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// A `Fn() -> String` scrape source for
    /// [`asset_trace::prom::PromServer::spawn`], detached from the
    /// server's lifetime (the closure holds its own handle on the shared
    /// state, so the exporter may outlive [`join`](Self::join)).
    pub fn metrics_source(&self) -> impl Fn() -> String + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.metrics_text()
    }

    /// Ask the server to stop: no new connections are accepted, and a
    /// handler thread exits once the request it is serving is answered
    /// (one idle in `read` sees EOF at once). Does not wait — call
    /// [`join`](Self::join).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        // verify: allow(status_flow) — wake-up connection; no transaction outcome flows here
        let _ = TcpStream::connect(self.addr);
    }

    /// Wait for the accept loop and every connection handler to exit.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock());
        for (_, h) in conns {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Conns) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let stream = Arc::new(stream);
        let peer = Arc::downgrade(&stream);
        bump(&shared.db.obs().counters.server_connections);
        shared
            .metrics
            .live_connections
            .fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("asset-conn".into())
            .spawn(move || {
                // connection-level I/O errors only: txn fates are
                // written to the wire before serve returns, and dangling
                // sessions are drained by abort_leftovers
                // verify: allow(status_flow) — txn outcomes surfaced via wire statuses and the drain counter
                let _ = Connection::new(Arc::clone(&shared), &stream).serve(&stream);
                shared
                    .metrics
                    .live_connections
                    .fetch_sub(1, Ordering::Relaxed);
            });
        if let Ok(h) = spawned {
            conns.lock().push((peer, h));
        }
    }
    // stopping: a handler blocked in `read` on an idle client sees EOF
    // and drains its session. Only the read side is shut — a response
    // being written still goes out.
    for (peer, _) in conns.lock().iter() {
        if let Some(peer) = peer.upgrade() {
            // verify: allow(status_flow) — socket shutdown; no transaction outcome flows here
            let _ = peer.shutdown(Shutdown::Read);
        }
    }
}

/// Per-connection state: the wire-visible transactions this connection
/// opened and has not yet finished.
struct Connection {
    shared: Arc<Shared>,
    txns: HashMap<u64, SessionTxn>,
}

/// The abort-leftovers guarantee lives in `Drop`, not at the end of
/// [`Connection::serve`]: an I/O error (or panic) anywhere in the serve
/// loop must still release the session's transactions, or they would
/// hold their locks forever while parked on `WaitExternal`.
impl Drop for Connection {
    fn drop(&mut self) {
        self.abort_leftovers();
    }
}

impl Connection {
    fn new(shared: Arc<Shared>, stream: &TcpStream) -> Connection {
        let _ = stream.set_nodelay(true);
        Connection {
            shared,
            txns: HashMap::new(),
        }
    }

    /// Serve the connection until EOF (the client's, or the read side shut
    /// by a stopping accept loop) or error. Open
    /// transactions are aborted by [`Drop`] on **every** exit path —
    /// including a `?` on a write error (a client disconnecting
    /// mid-response is routine) and a panic — so a dead session can
    /// never park transactions on `WaitExternal` holding locks forever.
    fn serve(mut self, stream: &TcpStream) -> std::io::Result<()> {
        let mut reader = stream;
        let mut writer = BufWriter::new(stream);
        let mut frames = protocol::FrameReader::new();
        loop {
            let frame = match frames.read_from(&mut reader) {
                Ok(Some(f)) => f,
                Ok(None) => break, // clean EOF
                Err(_) => {
                    bump(&self.shared.db.obs().counters.server_protocol_errors);
                    break; // mid-frame EOF / bad version / bad length
                }
            };
            bump(&self.shared.db.obs().counters.server_requests);
            // §7.2: a traced frame lands its MsgRecv/MsgReply pair in
            // this node's event ring so a fleet merge can draw the
            // cross-node edge back to the origin's MsgSend/MsgAck.
            if let Some(ctx) = frame.ctx {
                bump(&self.shared.db.obs().counters.server_traced_frames);
                self.shared.db.obs().record(EventKind::MsgRecv {
                    opcode: frame.opcode,
                    origin: ctx.origin,
                    root: ctx.root,
                });
            }
            let started = Instant::now();
            let resp = self.dispatch(&frame);
            self.shared
                .metrics
                .op_hist(frame.opcode)
                .record(started.elapsed().as_nanos() as u64);
            if let Some(ctx) = frame.ctx {
                self.shared.db.obs().record(EventKind::MsgReply {
                    opcode: frame.opcode,
                    origin: ctx.origin,
                    root: ctx.root,
                    status: resp.body.first().copied().unwrap_or(status::OK),
                });
            }
            resp.write_to(&mut writer)?;
            // flush per request unless more are already queued (cheap
            // pipelining: a burst of requests gets one syscall)
            writer.flush()?;
            if frame.opcode == opcode::SHUTDOWN {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                // unblock the accept loop
                // verify: allow(status_flow) — wake-up connection; no transaction outcome flows here
                let _ = TcpStream::connect(stream.local_addr()?);
                break;
            }
        }
        Ok(())
    }

    /// Abort every transaction the connection left open (client gone or
    /// server stopping). Terminal ops are queued and nudged; the
    /// executor performs the rollbacks, and this thread **waits for
    /// each outcome** so the drain is deterministic: once every handler
    /// has exited (`AssetServer::join`), no session transaction still
    /// holds a lock or is mid-rollback. Prepared transactions are never
    /// here — a successful PREPARE removes them from the session, so a
    /// shutdown or disconnect cannot abort a cast vote (§14.2).
    fn abort_leftovers(&mut self) {
        let db = &self.shared.db;
        for (_, st) in self.txns.drain() {
            self.shared
                .metrics
                .live_sessions
                .fetch_sub(1, Ordering::Relaxed);
            st.finishing(db, TxnOp::Abort);
            if matches!(db.outcome_kind(st.tid), Ok(TxnOutcome::CommitAmbiguous)) {
                // the commit record may already be durable; surface the
                // ambiguity instead of silently dropping it (§13.4)
                bump(&db.obs().counters.session_drain_ambiguous);
            }
            db.obs().record(EventKind::SpanClose {
                tid: st.tid,
                span: SpanName::Session,
            });
        }
    }

    fn dispatch(&mut self, req: &Frame) -> Frame {
        match self.dispatch_inner(req) {
            Ok(f) => f,
            Err(e) => {
                bump(&self.shared.db.obs().counters.server_protocol_errors);
                Frame::err_response(req, status::ERR_MALFORMED, &e.to_string())
            }
        }
    }

    fn dispatch_inner(&mut self, req: &Frame) -> Result<Frame, WireError> {
        let db = self.shared.db.clone();
        let b = &req.body;
        Ok(match req.opcode {
            opcode::PING => Frame::ok_response(req, &[]),
            opcode::HELLO => Frame::ok_response(req, &[protocol::PROTOCOL_VERSION]),
            opcode::BEGIN => {
                let parent = get_u64(b, 0)?;
                if parent != 0 {
                    return Ok(Frame::err_response(
                        req,
                        status::ERR_MALFORMED,
                        "parent tid is reserved and must be 0",
                    ));
                }
                match SessionTxn::submit(&db) {
                    Ok(st) => {
                        let tid = st.tid;
                        self.txns.insert(tid.0, st);
                        self.shared
                            .metrics
                            .live_sessions
                            .fetch_add(1, Ordering::Relaxed);
                        bump(&db.obs().counters.session_txns);
                        db.obs().record(EventKind::SpanOpen {
                            tid,
                            span: SpanName::Session,
                        });
                        Frame::ok_response(req, &tid.0.to_le_bytes())
                    }
                    Err(e) => err_of(req, &e),
                }
            }
            opcode::READ => {
                let tid = get_u64(b, 0)?;
                let oid = Oid(get_u64(b, 8)?);
                self.txn_op(req, tid, TxnOp::Read(oid))
            }
            opcode::WRITE => {
                let tid = get_u64(b, 0)?;
                let oid = Oid(get_u64(b, 8)?);
                let value = b.get(16..).ok_or(WireError::Truncated)?.to_vec();
                self.txn_op(req, tid, TxnOp::Write(oid, value))
            }
            opcode::COMMIT => {
                let tid = get_u64(b, 0)?;
                self.finish_txn(req, tid, TxnOp::Commit)
            }
            opcode::ABORT => {
                let tid = get_u64(b, 0)?;
                self.finish_txn(req, tid, TxnOp::Abort)
            }
            opcode::DELEGATE => {
                let from = Tid(get_u64(b, 0)?);
                let to = Tid(get_u64(b, 8)?);
                let obs = decode_obset(b, 16)?;
                // all=1 delegates everything delegable (`None` per the
                // Database API); an explicit list delegates just those
                let obs = match obs {
                    ObSet::All => None,
                    objects => Some(objects),
                };
                ack(req, db.delegate(from, to, obs))
            }
            opcode::PERMIT => {
                let grantor = Tid(get_u64(b, 0)?);
                let grantee = match get_u64(b, 8)? {
                    0 => None,
                    t => Some(Tid(t)),
                };
                let ops = match get_u8(b, 16)? {
                    0 => OpSet::NONE,
                    1 => OpSet::READ,
                    2 => OpSet::WRITE,
                    3 => OpSet::ALL,
                    _ => {
                        return Ok(Frame::err_response(
                            req,
                            status::ERR_MALFORMED,
                            "ops bitmask out of range (0..=3)",
                        ))
                    }
                };
                let obs = decode_obset(b, 17)?;
                ack(req, db.permit(grantor, grantee, obs, ops))
            }
            opcode::FORM_DEP => {
                let kind = match get_u8(b, 0)? {
                    1 => DepType::CD,
                    2 => DepType::AD,
                    3 => DepType::GC,
                    _ => {
                        return Ok(Frame::err_response(
                            req,
                            status::ERR_MALFORMED,
                            "dependency kind out of range (1=CD, 2=AD, 3=GC)",
                        ))
                    }
                };
                let ti = Tid(get_u64(b, 1)?);
                let tj = Tid(get_u64(b, 9)?);
                ack(req, db.form_dependency(kind, ti, tj))
            }
            opcode::NEW_OID => Frame::ok_response(req, &db.new_oid().0.to_le_bytes()),
            opcode::MINT => {
                let count = get_u64(b, 0)?;
                let initial = get_i64(b, 8)?;
                self.mint(req, count, initial)
            }
            opcode::SUM => {
                let first = get_u64(b, 0)?;
                let count = get_u64(b, 8)?;
                if count > protocol::MAX_SUM_COUNT {
                    return Ok(Frame::err_response(
                        req,
                        status::ERR_RESOURCE_EXHAUSTED,
                        &format!(
                            "sum count {count} exceeds the per-request cap {}",
                            protocol::MAX_SUM_COUNT
                        ),
                    ));
                }
                self.sum(req, first, count)
            }
            opcode::STATS => {
                // §13.3: revision byte, live-transaction gauge, then the
                // full self-describing metrics snapshot
                let mut payload = Vec::with_capacity(2048);
                payload.push(protocol::STATS_BODY_REVISION);
                payload.extend_from_slice(&(db.live_transactions() as u64).to_le_bytes());
                payload
                    .extend_from_slice(&asset_obs::wire::encode_snapshot(&db.metrics_snapshot()));
                Frame::ok_response(req, &payload)
            }
            opcode::PREPARE => {
                let tids = decode_tid_list(b)?;
                self.prepare(req, &tids)
            }
            opcode::PREPARED => {
                let tid = Tid(get_u64(b, 0)?);
                let state: u8 = match db.status(tid) {
                    Ok(TxnStatus::Prepared) => 1,
                    Ok(TxnStatus::Committed) => 2,
                    Ok(TxnStatus::Aborting) | Ok(TxnStatus::Aborted) => 3,
                    Ok(_) => 4,
                    Err(_) => 0,
                };
                Frame::ok_response(req, &[state])
            }
            opcode::COMMIT_DECIDE => {
                let tids = decode_tid_list(b)?;
                ack(req, db.decide_commit_group(&tids))
            }
            opcode::ABORT_DECIDE => {
                let tids = decode_tid_list(b)?;
                db.decide_abort_group(&tids);
                Frame::ok_response(req, &[])
            }
            opcode::SHUTDOWN => Frame::ok_response(req, &[]),
            _ => {
                bump(&db.obs().counters.server_protocol_errors);
                Frame::err_response(req, status::ERR_BAD_OPCODE, "unknown opcode")
            }
        })
    }

    /// Run a non-terminal op (READ/WRITE) on one of this connection's
    /// transactions. A `Fail` reply or a missing reply means the
    /// transaction terminated — drop it from the session map.
    fn txn_op(&mut self, req: &Frame, tid: u64, op: TxnOp) -> Frame {
        let db = &self.shared.db;
        let Some(st) = self.txns.get(&tid) else {
            return Frame::err_response(
                req,
                status::ERR_TXN_NOT_FOUND,
                "tid does not name a transaction of this session",
            );
        };
        match st.call(db, op) {
            Some(OpReply::Value(v)) => {
                let mut payload = vec![u8::from(v.is_some())];
                if let Some(bytes) = v {
                    payload.extend_from_slice(&bytes);
                }
                Frame::ok_response(req, &payload)
            }
            Some(OpReply::Done) => Frame::ok_response(req, &[]),
            Some(OpReply::Fail(code, msg)) => {
                self.close_session(tid);
                Frame::err_response(req, code, &msg)
            }
            None => {
                self.close_session(tid);
                Frame::err_response(
                    req,
                    status::ERR_TXN_ABORTED,
                    "transaction terminated before answering",
                )
            }
        }
    }

    /// COMMIT/ABORT: queue the terminal op, then block on the
    /// transaction's outcome — for COMMIT the OK therefore rides the
    /// group-commit flush window (DESIGN.md §13.2), and ambiguous
    /// commit-point failures surface as their own status (§13.4).
    fn finish_txn(&mut self, req: &Frame, tid: u64, op: TxnOp) -> Frame {
        let db = self.shared.db.clone();
        let Some(st) = self.txns.remove(&tid) else {
            return Frame::err_response(
                req,
                status::ERR_TXN_NOT_FOUND,
                "tid does not name a transaction of this session",
            );
        };
        self.shared
            .metrics
            .live_sessions
            .fetch_sub(1, Ordering::Relaxed);
        let wanted_commit = matches!(op, TxnOp::Commit);
        st.finishing(&db, op);
        let outcome = db.outcome_kind(st.tid);
        db.obs().record(EventKind::SpanClose {
            tid: st.tid,
            span: SpanName::Session,
        });
        match (outcome, wanted_commit) {
            (Ok(TxnOutcome::Committed), true) => Frame::ok_response(req, &[]),
            (Ok(TxnOutcome::Committed), false) => Frame::err_response(
                req,
                status::ERR_INVALID_STATE,
                "transaction already committed",
            ),
            (Ok(TxnOutcome::Aborted), true) => Frame::err_response(
                req,
                status::ERR_COMMIT_ABORTED,
                "transaction aborted cleanly; no effect survives",
            ),
            (Ok(TxnOutcome::Aborted), false) => Frame::ok_response(req, &[]),
            (Ok(TxnOutcome::CommitAmbiguous), _) => {
                Frame::err_response(req, status::ERR_COMMIT_AMBIGUOUS, "commit fate unknown")
            }
            (Err(e), _) => err_of(req, &e),
        }
    }

    /// SUM as one server-side read transaction (DESIGN.md §13.3): every
    /// object in the range is S-locked in ascending oid order — the
    /// same order writers acquire theirs — before any value is summed,
    /// so the result is a consistent snapshot even under a concurrent
    /// transfer storm. If the reader still loses a deadlock (writers
    /// that lock out of order), the transaction is retried.
    fn sum(&self, req: &Frame, first: u64, count: u64) -> Frame {
        let db = &self.shared.db;
        for _ in 0..SUM_RETRIES {
            let result = Arc::new(Mutex::new((0i64, 0u64)));
            let out = Arc::clone(&result);
            let ran = db.run(move |ctx| {
                let mut sum = 0i64;
                let mut present = 0u64;
                for oid in first..first.saturating_add(count) {
                    if let Some(bytes) = ctx.read(Oid(oid))? {
                        if let Ok(arr) = <[u8; 8]>::try_from(bytes.as_slice()) {
                            sum = sum.wrapping_add(i64::from_le_bytes(arr));
                            present += 1;
                        }
                    }
                }
                *out.lock() = (sum, present);
                Ok(())
            });
            match ran {
                Ok(true) => {
                    let (sum, present) = *result.lock();
                    let mut payload = sum.to_le_bytes().to_vec();
                    payload.extend_from_slice(&present.to_le_bytes());
                    return Frame::ok_response(req, &payload);
                }
                Ok(false) => continue, // deadlock victim: retry
                Err(e) => return err_of(req, &e),
            }
        }
        Frame::err_response(
            req,
            status::ERR_TXN_ABORTED,
            "sum transaction aborted repeatedly under contention",
        )
    }

    /// Wire PREPARE (DESIGN.md §14.2): finish each named session
    /// transaction's program leaving it `Completed` with locks held,
    /// then force the group's `Prepared` record through
    /// [`Database::prepare_group`]. The OK response **is** the yes
    /// vote; any error is a no vote and every named transaction is
    /// aborted (unless its record landed and only the vote was lost —
    /// it is then in doubt and the coordinator must resolve it).
    /// Prepared transactions leave the session map so a later
    /// disconnect or shutdown cannot abort a cast vote.
    fn prepare(&mut self, req: &Frame, tids: &[Tid]) -> Frame {
        let db = self.shared.db.clone();
        if tids.is_empty() {
            return Frame::err_response(req, status::ERR_MALFORMED, "empty prepare group");
        }
        for t in tids {
            if !self.txns.contains_key(&t.0) {
                return Frame::err_response(
                    req,
                    status::ERR_TXN_NOT_FOUND,
                    "tid does not name a transaction of this session",
                );
            }
        }
        for t in tids {
            // verify: allow(no_panics) — membership checked above
            let st = &self.txns[&t.0];
            match st.call(&db, TxnOp::Hold) {
                Some(OpReply::Done) => {}
                other => {
                    // vote no: a member died before it could hold.
                    // Held members have no program left, so abort at
                    // the database, not through the mailbox.
                    self.drop_prepare_failures(&db, tids, true);
                    return match other {
                        Some(OpReply::Fail(code, msg)) => Frame::err_response(req, code, &msg),
                        _ => Frame::err_response(
                            req,
                            status::ERR_TXN_ABORTED,
                            "transaction terminated before it could prepare",
                        ),
                    };
                }
            }
        }
        match db.prepare_group(tids) {
            Ok(group) => {
                for t in tids {
                    self.close_session(t.0);
                }
                let mut payload = (group.len() as u32).to_le_bytes().to_vec();
                for t in &group {
                    payload.extend_from_slice(&t.0.to_le_bytes());
                }
                Frame::ok_response(req, &payload)
            }
            Err(e) => {
                // prepare_group already aborted the group on a no vote
                self.drop_prepare_failures(&db, tids, false);
                err_of(req, &e)
            }
        }
    }

    /// Drop the named transactions from the session after a failed
    /// prepare, waiting out each rollback so the no vote is
    /// deterministic. A transaction whose `Prepared` record landed but
    /// whose vote was lost in transit stays in doubt — it is released
    /// from the session without being touched (§14.3).
    fn drop_prepare_failures(&mut self, db: &Database, tids: &[Tid], abort: bool) {
        for t in tids {
            if let Some(st) = self.txns.remove(&t.0) {
                self.shared
                    .metrics
                    .live_sessions
                    .fetch_sub(1, Ordering::Relaxed);
                if matches!(db.status(st.tid), Ok(TxnStatus::Prepared)) {
                    // in doubt: only the coordinator may resolve it
                } else {
                    if abort {
                        // enqueue errors mean the txn is already
                        // terminal; the outcome probe below reports its
                        // actual fate either way
                        // verify: allow(status_flow) — outcome consumed by the probe below
                        let _ = db.abort(st.tid);
                    }
                    if matches!(db.outcome_kind(st.tid), Ok(TxnOutcome::CommitAmbiguous)) {
                        bump(&db.obs().counters.session_drain_ambiguous);
                    }
                }
                db.obs().record(EventKind::SpanClose {
                    tid: st.tid,
                    span: SpanName::Session,
                });
            }
        }
    }

    fn close_session(&mut self, tid: u64) {
        if self.txns.remove(&tid).is_some() {
            self.shared
                .metrics
                .live_sessions
                .fetch_sub(1, Ordering::Relaxed);
            self.shared.db.obs().record(EventKind::SpanClose {
                tid: Tid(tid),
                span: SpanName::Session,
            });
        }
    }

    /// Bulk-create `count` objects holding `initial` as an i64 counter.
    /// Serialized under the mint mutex so the allocated oids are
    /// consecutive; oids are allocated and written one
    /// [`MINT_CHUNK`]-sized server-side transaction at a time, so peak
    /// allocation is bounded by the chunk, not the request.
    ///
    /// Counts above [`protocol::MAX_MINT_COUNT`] are rejected before
    /// any work. On a mid-mint failure the chunks that had already
    /// committed are deleted again ([`Self::unmint`]) so a failed MINT
    /// leaves no funded orphan accounts behind.
    fn mint(&self, req: &Frame, count: u64, initial: i64) -> Frame {
        let db = &self.shared.db;
        if count > protocol::MAX_MINT_COUNT {
            return Frame::err_response(
                req,
                status::ERR_RESOURCE_EXHAUSTED,
                &format!(
                    "mint count {count} exceeds the per-request cap {}",
                    protocol::MAX_MINT_COUNT
                ),
            );
        }
        let _serial = self.shared.mint.lock();
        let mut first = 0u64;
        let mut minted: Vec<Oid> = Vec::new();
        let mut remaining = count;
        let failed = loop {
            if remaining == 0 {
                break None;
            }
            let n = remaining.min(MINT_CHUNK) as usize;
            let chunk: Vec<Oid> = (0..n).map(|_| db.new_oid()).collect();
            if minted.is_empty() {
                first = chunk.first().map(|o| o.0).unwrap_or(0);
            }
            let written = chunk.clone();
            let ran = db.run(move |ctx| {
                for oid in &written {
                    ctx.write(*oid, initial.to_le_bytes().to_vec())?;
                }
                Ok(())
            });
            match ran {
                Ok(true) => {
                    minted.extend_from_slice(&chunk);
                    remaining -= n as u64;
                }
                Ok(false) => {
                    break Some(Frame::err_response(
                        req,
                        status::ERR_TXN_ABORTED,
                        "mint transaction aborted",
                    ))
                }
                Err(e) => break Some(err_of(req, &e)),
            }
        };
        if let Some(err) = failed {
            self.unmint(&minted);
            return err;
        }
        let mut payload = first.to_le_bytes().to_vec();
        payload.extend_from_slice(&count.to_le_bytes());
        Frame::ok_response(req, &payload)
    }

    /// Compensate a failed MINT: delete the objects of every chunk that
    /// had already committed, so the failure is all-or-nothing as far
    /// as funded accounts are concerned (DESIGN.md §13.3). Best-effort:
    /// a compensating delete that itself fails bumps
    /// `mint_rollback_failures` — nonzero means a conservation audit
    /// must sweep for orphans by hand.
    fn unmint(&self, minted: &[Oid]) {
        let db = &self.shared.db;
        for chunk in minted.chunks(MINT_CHUNK as usize) {
            let chunk = chunk.to_vec();
            let ran = db.run(move |ctx| {
                for oid in &chunk {
                    ctx.delete(*oid)?;
                }
                Ok(())
            });
            if !matches!(ran, Ok(true)) {
                bump(&db.obs().counters.mint_rollback_failures);
            }
        }
    }
}

/// Decode the `u32` n + n×`u64` tids list shape shared by PREPARE,
/// COMMIT_DECIDE, and ABORT_DECIDE bodies. The length is validated
/// against the bytes present before anything is allocated, so a
/// hostile count cannot reserve gigabytes.
fn decode_tid_list(b: &[u8]) -> Result<Vec<Tid>, WireError> {
    let n = get_u32(b, 0)? as usize;
    if b.len() < 4 + 8 * n {
        return Err(WireError::Truncated);
    }
    let mut tids = Vec::with_capacity(n);
    for i in 0..n {
        tids.push(Tid(get_u64(b, 4 + 8 * i)?));
    }
    Ok(tids)
}

/// Decode the `u8` all flag + `u32` n + n×`u64` oids object-set shape
/// shared by DELEGATE and PERMIT bodies.
fn decode_obset(b: &[u8], off: usize) -> Result<ObSet, WireError> {
    let all = get_u8(b, off)?;
    let n = get_u32(b, off + 1)?;
    if all == 1 {
        if n != 0 {
            return Err(WireError::Truncated);
        }
        return Ok(ObSet::All);
    }
    let mut set = BTreeSet::new();
    for i in 0..n as usize {
        set.insert(Oid(get_u64(b, off + 5 + 8 * i)?));
    }
    Ok(ObSet::Objects(set))
}

/// OK or the facility error mapped onto its wire status (§13.3).
fn ack(req: &Frame, r: Result<(), AssetError>) -> Frame {
    match r {
        Ok(()) => Frame::ok_response(req, &[]),
        Err(e) => err_of(req, &e),
    }
}

fn err_of(req: &Frame, e: &AssetError) -> Frame {
    Frame::err_response(req, protocol::status_of(e), &e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asset_common::Config;
    use std::time::Duration;

    /// The REVIEW-driven regression for leaked sessions: a `Connection`
    /// that goes away without reaching the end of `serve()` (write
    /// error, panic) must still abort its parked transactions and
    /// release their locks — the guarantee lives in `Drop`.
    #[test]
    fn dropping_a_connection_aborts_its_open_transactions() {
        let (db, _) = Database::open(
            Config::in_memory()
                .with_exec_workers(2)
                .with_commit_flush_window(Duration::from_micros(100)),
        )
        .expect("in-memory open");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let shared = Arc::new(Shared {
            db: db.clone(),
            shutdown: AtomicBool::new(false),
            mint: Mutex::new(()),
            node_id: 0,
            metrics: ServerMetrics::new(),
        });
        let mut conn = Connection::new(shared, &stream);
        let st = SessionTxn::submit(&db).expect("submit");
        let tid = st.tid;
        let oid = db.new_oid();
        assert!(matches!(
            st.call(&db, TxnOp::Write(oid, vec![1])),
            Some(OpReply::Done)
        ));
        conn.txns.insert(tid.0, st);

        // the write lock is held while the session txn parks
        drop(conn);

        assert_eq!(db.outcome_kind(tid).unwrap(), TxnOutcome::Aborted);
        // the lock was released: another writer gets through
        assert!(db.run(move |ctx| ctx.write(oid, vec![2])).unwrap());
    }
}
