//! End-to-end tests of the network server + wire client against the
//! money-ledger workload: conservation under concurrent clients, wire
//! error taxonomy, and (with `--features faults`) the regression that a
//! commit-point failure surfaces as `ERR_COMMIT_AMBIGUOUS` — not as a
//! generic error or a clean abort (DESIGN.md §13.4).

use asset::client::{Client, TxnFate};
use asset::faults::Rng;
use asset::server::protocol::{opcode, status, Frame};
use asset::server::AssetServer;
use asset::{Config, Database};
use std::time::Duration;

fn spawn_server(config: Config) -> AssetServer {
    let (db, _) = Database::open(config).expect("open database");
    AssetServer::spawn(db, "127.0.0.1:0").expect("bind server")
}

fn connect(s: &AssetServer) -> Client {
    Client::connect(&s.local_addr().to_string()).expect("connect")
}

fn test_config() -> Config {
    Config::in_memory()
        .with_exec_workers(4)
        .with_commit_flush_window(Duration::from_micros(200))
}

#[test]
fn concurrent_clients_conserve_money() {
    const CLIENTS: usize = 8;
    const TRANSFERS: usize = 40;
    const ACCOUNTS: u64 = 64;
    const INITIAL: i64 = 1_000;

    let server = spawn_server(test_config());
    let mut admin = connect(&server);
    let (first, n) = admin.mint(ACCOUNTS, INITIAL).unwrap();
    assert_eq!(n, ACCOUNTS);

    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("worker connect");
                let mut rng = Rng::new(0x9E37_79B9, c as u64);
                let (mut committed, mut aborted) = (0u64, 0u64);
                for _ in 0..TRANSFERS {
                    // distinct accounts: a self-transfer is a client-side
                    // no-op and would not reach the server's counters
                    let a = rng.below(ACCOUNTS);
                    let b = (a + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                    let (from, to) = (first + a, first + b);
                    let amount = (rng.below(50)) as i64;
                    match client.transfer(from, to, amount).expect("transfer") {
                        TxnFate::Committed => committed += 1,
                        // deadlock victims and upgrade races abort
                        // cleanly; the movement simply did not happen
                        TxnFate::Aborted(_) | TxnFate::Insufficient => aborted += 1,
                        TxnFate::Ambiguous => panic!("ambiguity without faults"),
                    }
                }
                (committed, aborted)
            })
        })
        .collect();
    let mut committed = 0;
    for h in handles {
        committed += h.join().expect("worker").0;
    }
    assert!(committed > 0, "no transfer committed");

    let (sum, present) = admin.sum(first, ACCOUNTS).unwrap();
    assert_eq!(present, ACCOUNTS);
    assert_eq!(
        sum,
        ACCOUNTS as i64 * INITIAL,
        "conservation of money violated"
    );
    let stats = admin.stats().unwrap();
    assert!(stats.committed >= committed);
    server.shutdown();
    server.join();
}

/// Regression (PR 8): `SUM` used to loop `peek` per account — a
/// lock-free point read per object — so a transfer could move money
/// between the two peeks and the scan would observe a total that never
/// existed. `SUM` now runs as one server-side read transaction; every
/// snapshot it returns must show *exact* conservation even while a
/// transfer storm is in full flight.
#[test]
fn sum_is_a_consistent_snapshot_under_a_transfer_storm() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const WRITERS: usize = 6;
    const ACCOUNTS: u64 = 32;
    const INITIAL: i64 = 500;
    const SNAPSHOTS: usize = 25;

    let server = spawn_server(test_config());
    let mut admin = connect(&server);
    let (first, _) = admin.mint(ACCOUNTS, INITIAL).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let addr = server.local_addr().to_string();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("writer connect");
                let mut rng = Rng::new(0xDEAD_BEEF, w as u64);
                while !stop.load(Ordering::Relaxed) {
                    let a = rng.below(ACCOUNTS);
                    let b = (a + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                    let amount = (rng.below(100)) as i64;
                    // aborts (deadlock victims) are fine — they move
                    // nothing; only a torn observation would be a bug
                    let _ = client
                        .transfer(first + a, first + b, amount)
                        .expect("transfer");
                }
            })
        })
        .collect();

    // every snapshot, mid-storm, shows the exact total
    for i in 0..SNAPSHOTS {
        let (sum, present) = admin.sum(first, ACCOUNTS).unwrap();
        assert_eq!(present, ACCOUNTS, "snapshot {i} lost accounts");
        assert_eq!(
            sum,
            ACCOUNTS as i64 * INITIAL,
            "snapshot {i} observed a torn (non-transactional) total"
        );
    }

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer");
    }
    server.shutdown();
    server.join();
}

/// Regression (PR 8): SHUTDOWN used to race live sessions — a parked
/// session transaction could outlive the accept loop and leak its
/// locks. Shutting down under a herd of active connections (some with
/// open, lock-holding transactions; some parked mid-pipeline) must
/// drain deterministically: `join` returns, and every lock is released
/// so a direct user of the same database can immediately write the very
/// objects the dead sessions had locked.
#[test]
fn shutdown_under_active_connections_leaks_no_locks() {
    const CONNS: usize = 16;

    let config = test_config().with_lock_timeout(Some(Duration::from_secs(2)));
    let (db, _) = Database::open(config).expect("open database");
    let server = AssetServer::spawn(db.clone(), "127.0.0.1:0").expect("bind server");

    let mut admin = connect(&server);
    let (first, _) = admin.mint(CONNS as u64, 10).unwrap();

    // 16 live sessions, each holding an X lock on its own account via
    // an open (uncommitted) transaction
    let mut sessions = Vec::new();
    for i in 0..CONNS {
        let mut c = connect(&server);
        let t = c.begin().unwrap();
        c.write(t, first + i as u64, &99i64.to_le_bytes()).unwrap();
        sessions.push((c, t));
    }

    // shutdown races all of them; join must not hang
    server.shutdown();
    server.join();

    // every session's lock must be gone: a direct transaction can lock
    // and write all 16 accounts well inside the 2 s lock timeout
    let committed = db
        .run(move |ctx| {
            for i in 0..CONNS as u64 {
                ctx.write(asset::Oid(first + i), 7i64.to_le_bytes().to_vec())?;
            }
            Ok(())
        })
        .expect("post-shutdown transaction");
    assert!(committed, "post-shutdown writer must not be a victim");

    // and none of the aborted sessions' dirty writes survived
    for i in 0..CONNS as u64 {
        let v = db.peek(asset::Oid(first + i)).unwrap().unwrap();
        assert_eq!(
            i64::from_le_bytes(v.try_into().unwrap()),
            7,
            "session writes must be rolled back, then overwritten by ours"
        );
    }
    drop(sessions); // keep the TCP connections alive through shutdown
}

#[test]
fn wire_error_taxonomy() {
    let server = spawn_server(test_config());
    let mut c = connect(&server);

    // unknown opcode
    c.send(0x6E, Vec::new()).unwrap();
    let resp = c.recv().unwrap();
    assert_eq!(resp.status, status::ERR_BAD_OPCODE);

    // truncated body
    c.send(opcode::READ, vec![1, 2, 3]).unwrap();
    assert_eq!(c.recv().unwrap().status, status::ERR_MALFORMED);

    // reserved parent tid
    c.send(opcode::BEGIN, 7u64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(c.recv().unwrap().status, status::ERR_MALFORMED);

    // operating on a transaction this session never opened
    let mut body = 424_242u64.to_le_bytes().to_vec();
    body.extend_from_slice(&1u64.to_le_bytes());
    c.send(opcode::READ, body).unwrap();
    assert_eq!(c.recv().unwrap().status, status::ERR_TXN_NOT_FOUND);

    // double-commit: the first consumes the session transaction
    let tid = c.begin().unwrap();
    assert_eq!(c.commit(tid).unwrap(), TxnFate::Committed);
    c.send(opcode::COMMIT, tid.to_le_bytes().to_vec()).unwrap();
    assert_eq!(c.recv().unwrap().status, status::ERR_TXN_NOT_FOUND);

    server.shutdown();
    server.join();
}

#[test]
fn delegate_permit_and_form_dependency_over_the_wire() {
    let server = spawn_server(test_config());
    let mut c = connect(&server);
    let oid = c.new_oid().unwrap();

    // t1 writes, then delegates everything to t2; t2 commits and the
    // write survives even though t1 aborts.
    let t1 = c.begin().unwrap();
    let t2 = c.begin().unwrap();
    c.write(t1, oid, b"delegated").unwrap();
    c.delegate(t1, t2, None).unwrap();
    c.abort(t1).unwrap();
    assert_eq!(c.commit(t2).unwrap(), TxnFate::Committed);
    assert_eq!(
        c.read_i64_committed(oid).unwrap(),
        None,
        "value is not an i64 counter"
    );
    let t3 = c.begin().unwrap();
    assert_eq!(c.read(t3, oid).unwrap().as_deref(), Some(&b"delegated"[..]));
    c.abort(t3).unwrap();

    // permit + form_dependency round-trip (wildcard grantee, CD edge)
    let t4 = c.begin().unwrap();
    let t5 = c.begin().unwrap();
    c.permit(t4, None, Some(&[oid]), 3).unwrap();
    c.form_dependency(1, t5, t4).unwrap();
    // a cycle is refused with its own status
    match c.form_dependency(1, t4, t5) {
        Err(asset::client::ClientError::Server { status: s, .. }) => {
            assert_eq!(s, status::ERR_DEPENDENCY_CYCLE)
        }
        other => panic!("expected dependency-cycle, got {other:?}"),
    }
    c.abort(t5).unwrap();
    c.abort(t4).unwrap();

    server.shutdown();
    server.join();
}

#[test]
fn example_frames_match_the_spec_on_a_live_connection() {
    // DESIGN.md §13.5's BEGIN example, pushed through a real server:
    // the request bytes are accepted and the response has the documented
    // shape (status OK + 8-byte tid).
    let server = spawn_server(test_config());
    let mut c = connect(&server);
    let reqid = c.send(opcode::BEGIN, 0u64.to_le_bytes().to_vec()).unwrap();
    let frame = Frame::new(opcode::BEGIN, reqid, 0u64.to_le_bytes().to_vec());
    assert_eq!(frame.encode()[4..6], [0x01, 0x10], "version + opcode bytes");
    let resp = c.recv().unwrap();
    assert_eq!(resp.status, status::OK);
    assert_eq!(resp.payload.len(), 8, "OK payload is one u64 tid");
    let tid = u64::from_le_bytes(resp.payload.try_into().unwrap());
    c.abort(tid).unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn oversized_mint_and_sum_are_rejected_before_any_work() {
    use asset::server::protocol::{MAX_MINT_COUNT, MAX_SUM_COUNT};
    let server = spawn_server(test_config());
    let mut c = connect(&server);

    // a 16-byte frame must not be able to make the server allocate or
    // scan without bound (remote-DoS regression)
    let mut body = (MAX_MINT_COUNT + 1).to_le_bytes().to_vec();
    body.extend_from_slice(&1i64.to_le_bytes());
    c.send(opcode::MINT, body).unwrap();
    assert_eq!(c.recv().unwrap().status, status::ERR_RESOURCE_EXHAUSTED);

    let mut body = 0u64.to_le_bytes().to_vec();
    body.extend_from_slice(&(MAX_SUM_COUNT + 1).to_le_bytes());
    c.send(opcode::SUM, body).unwrap();
    assert_eq!(c.recv().unwrap().status, status::ERR_RESOURCE_EXHAUSTED);

    // nothing was created by the rejected MINT, and within-cap
    // requests still work
    let (first, n) = c.mint(4, 5).unwrap();
    assert_eq!(n, 4);
    let (sum, present) = c.sum(first, 4).unwrap();
    assert_eq!((sum, present), (20, 4));
    server.shutdown();
    server.join();
}

/// Commit-point failures must surface as `ERR_COMMIT_AMBIGUOUS`, never
/// as a clean abort — a client that saw `ERR_COMMIT_ABORTED` would
/// blindly retry and double-apply if the record had in fact reached
/// stable storage.
#[cfg(feature = "faults")]
mod ambiguity {
    use super::*;
    use asset::faults::{FaultAction, FaultRegistry, Trigger};
    use std::sync::Arc;

    #[test]
    fn commit_point_failure_maps_to_the_ambiguous_wire_status() {
        let dir =
            std::env::temp_dir().join(format!("asset-server-ambiguity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = Arc::new(FaultRegistry::new());
        let config = Config::on_disk(&dir)
            .with_exec_workers(2)
            .with_commit_flush_window(Duration::from_micros(200))
            .with_faults(Arc::clone(&faults));
        let server = spawn_server(config);
        let mut c = connect(&server);
        let (first, _) = c.mint(4, 100).unwrap();

        // the next flush window fails at its sync: every commit in it
        // is ambiguous
        faults.arm(
            asset::storage::failpoints::FLUSH_WINDOW_SYNC,
            Trigger::Once,
            FaultAction::Error,
        );
        let tid = c.begin().unwrap();
        c.write(tid, first, &25i64.to_le_bytes()).unwrap();
        c.send(opcode::COMMIT, tid.to_le_bytes().to_vec()).unwrap();
        let resp = c.recv().unwrap();
        assert_eq!(
            resp.status,
            status::ERR_COMMIT_AMBIGUOUS,
            "commit-point failure must be distinguishable from a clean abort, got {}",
            asset::server::protocol::status_name(resp.status)
        );

        // a clean abort still reports ERR_COMMIT_ABORTED, not ambiguous
        let t2 = c.begin().unwrap();
        c.write(t2, first + 1, &1i64.to_le_bytes()).unwrap();
        c.abort(t2).unwrap();
        c.send(opcode::COMMIT, t2.to_le_bytes().to_vec()).unwrap();
        assert_eq!(c.recv().unwrap().status, status::ERR_TXN_NOT_FOUND);

        // the fault was Once: the system keeps committing afterwards,
        // and transfers conserve even across the ambiguous commit
        assert_eq!(
            c.transfer(first + 1, first + 2, 40).unwrap(),
            TxnFate::Committed
        );
        let (sum, present) = c.sum(first, 4).unwrap();
        assert_eq!(present, 4);
        assert_eq!(sum, 400, "pure movements conserve the total");

        // the ambiguity was surfaced on the wire (ERR_COMMIT_AMBIGUOUS
        // above), so the session drain must NOT have found an
        // unreported ambiguous transaction — `session_drain_ambiguous`
        // counts only fates that would otherwise have been swallowed
        // (DESIGN.md §13.4; asset-verify R7)
        drop(c);
        server.shutdown();
        let drained = server
            .database()
            .obs()
            .counters
            .snapshot()
            .session_drain_ambiguous;
        assert_eq!(drained, 0, "wire-surfaced fates are not drain findings");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A MINT that fails between chunks must not leave the earlier,
    /// already-committed chunks behind as funded orphan accounts — the
    /// server compensates by deleting them (DESIGN.md §13.3).
    #[test]
    fn failed_mint_rolls_back_committed_chunks() {
        let dir = std::env::temp_dir().join(format!("asset-server-mint-rb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = Arc::new(FaultRegistry::new());
        let config = Config::on_disk(&dir)
            .with_exec_workers(2)
            .with_commit_flush_window(Duration::from_micros(200))
            .with_faults(Arc::clone(&faults));
        let server = spawn_server(config);
        let mut c = connect(&server);

        // MINT is chunked at 10k objects per transaction, so 25k takes
        // three; fail the second chunk's flush window
        faults.arm(
            asset::storage::failpoints::FLUSH_WINDOW_SYNC,
            Trigger::Nth(2),
            FaultAction::Error,
        );
        assert!(c.mint(25_000, 7).is_err(), "mid-mint failure surfaces");

        // the first chunk had committed; the compensation deleted it
        let (sum, present) = c.sum(0, 40_000).unwrap();
        assert_eq!(present, 0, "a failed MINT leaves no funded orphans");
        assert_eq!(sum, 0);

        // the server stays healthy: a fresh mint works end to end
        let (first, n) = c.mint(8, 3).unwrap();
        assert_eq!(n, 8);
        assert_eq!(c.sum(first, 8).unwrap(), (24, 8));

        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
