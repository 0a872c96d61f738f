//! Per-layer probes: short single-threaded loops that call one layer's
//! public functions with the workloads' own shapes, timed from outside.
//! They run after the window of a traced pass, never during it.

use crate::common::{ctx, set_p50_us, Params, R};
use crate::spec::Sheet;
use crate::stats;
use asset_common::{Config, DepType, Durability, ObSet, Oid, OpSet, Operation, Tid};
use asset_core::Database;
use asset_dep::DepGraph;
use asset_lock::LockTable;
use asset_obs::Obs;
use asset_server::protocol::{opcode, Frame};
use asset_storage::{GroupFlusher, LogManager, LogRecord};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Time `f` once: `(ns, its result)`.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

fn set_p50_ns(sheet: &mut Sheet, name: &str, samples: &mut [u64]) {
    samples.sort_unstable();
    sheet.set(name, stats::percentile(samples, 50.0) as f64);
}

/// The environment fingerprint: cores and the device's sync floor.
pub fn environment(p: &Params, dir: &Path, sheet: &mut Sheet) -> R<()> {
    sheet.set("env.nproc", crate::env::nproc() as f64);
    let mut floor =
        crate::env::sync_floor_us(dir, p.probe_iters(300)).map_err(ctx("sync floor"))?;
    floor.sort_unstable();
    sheet.set(
        "env.sync_floor_us_p50",
        stats::percentile(&floor, 50.0) as f64,
    );
    sheet.set("env.sync_floor_us_p99", stats::tail(&floor).value as f64);
    Ok(())
}

/// `asset-server` protocol: encode and decode the twelve frames of one
/// transfer (six requests, six responses); mean ns per frame, median
/// over batches.
fn protocol(p: &Params, sheet: &mut Sheet) {
    let tid = 42u64.to_le_bytes();
    let oid = 1_000_123u64.to_le_bytes();
    let balance = 1_000i64.to_le_bytes();
    let rw = |extra: &[u8]| [&tid[..], &oid[..], extra].concat();
    let requests = [
        Frame::new(opcode::BEGIN, 1, 0u64.to_le_bytes().to_vec()),
        Frame::new(opcode::READ, 2, rw(&[])),
        Frame::new(opcode::WRITE, 3, rw(&balance)),
        Frame::new(opcode::READ, 4, rw(&[])),
        Frame::new(opcode::WRITE, 5, rw(&balance)),
        Frame::new(opcode::COMMIT, 6, tid.to_vec()),
    ];
    let mut frames: Vec<Frame> = Vec::new();
    for req in requests {
        let payload: &[u8] = match req.opcode {
            opcode::BEGIN => &tid,
            opcode::READ => &[1, 0xE8, 3, 0, 0, 0, 0, 0, 0],
            _ => &[],
        };
        frames.push(Frame::ok_response(&req, payload));
        frames.push(req);
    }
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let rounds = p.probe_iters(2_000);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..11 {
        let per_frame = |ns: u64| ns / (rounds * frames.len()) as u64;
        let (ns, ()) = timed(|| {
            for _ in 0..rounds {
                for f in &frames {
                    std::hint::black_box(std::hint::black_box(f).encode());
                }
            }
        });
        enc.push(per_frame(ns));
        let (ns, ()) = timed(|| {
            for _ in 0..rounds {
                for b in &encoded {
                    std::hint::black_box(Frame::decode(std::hint::black_box(b)).is_ok());
                }
            }
        });
        dec.push(per_frame(ns));
    }
    set_p50_ns(sheet, "protocol.encode_ns_per_frame", &mut enc);
    set_p50_ns(sheet, "protocol.decode_ns_per_frame", &mut dec);
}

/// `asset-lock`: the uncontended acquire/release pair of a transfer,
/// and a lock granted through a two-hop permit chain.
fn lock(p: &Params, sheet: &mut Sheet) -> R<()> {
    let table = LockTable::new();
    let n = p.probe_iters(20_000) as u64;
    let mut pair = Vec::with_capacity(n as usize);
    for i in 0..n {
        let (t, a, b) = (Tid(i + 1), Oid(2 * i + 1), Oid(2 * i + 2));
        let (ns, locked) = timed(|| {
            let locked = table
                .lock(t, a, Operation::Write, None)
                .and_then(|()| table.lock(t, b, Operation::Write, None));
            table.release_all(t);
            locked
        });
        locked.map_err(ctx("lock probe"))?;
        pair.push(ns);
    }
    set_p50_ns(sheet, "lock.acquire_release_ns_p50", &mut pair);

    let n = p.probe_iters(5_000) as u64;
    let mut chain = Vec::with_capacity(n as usize);
    for i in 0..n {
        let (holder, via, asker, ob) = (Tid(3 * i + 1), Tid(3 * i + 2), Tid(3 * i + 3), Oid(i + 1));
        table
            .lock(holder, ob, Operation::Write, None)
            .map_err(ctx("permit probe"))?;
        table.permit(holder, Some(via), ObSet::one(ob), OpSet::ALL);
        table.permit(via, Some(asker), ObSet::one(ob), OpSet::ALL);
        // a timeout turns a broken chain into an error, not a hang
        let (ns, granted) =
            timed(|| table.lock(asker, ob, Operation::Write, Some(Duration::from_secs(2))));
        granted.map_err(ctx("two-hop permit chain"))?;
        chain.push(ns);
        for t in [asker, via, holder] {
            table.release_all(t);
        }
    }
    set_p50_ns(sheet, "lock.permit_chain2_ns_p50", &mut chain);
    Ok(())
}

/// `asset-dep`: forming an edge and evaluating a commit gate on a graph
/// with 1 024 registered transactions.
fn dep(p: &Params, sheet: &mut Sheet) -> R<()> {
    let mut g = DepGraph::new();
    for t in 1..=1_024u64 {
        g.register(Tid(t));
    }
    let mut rng = crate::rng::Rng::new(0xDE9, 0);
    let n = p.probe_iters(5_000);
    let (mut form, mut gate) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        // commit dependencies of a younger on an older transaction
        // cannot close a cycle
        let on = 1 + rng.below(1_023);
        let dependent = on + 1 + rng.below(1_024 - on);
        let (ns, formed) = timed(|| g.form(DepType::CD, Tid(on), Tid(dependent)));
        formed.map_err(ctx("form_dependency probe"))?;
        form.push(ns);
        gate.push(timed(|| std::hint::black_box(g.commit_gate(Tid(dependent)))).0);
    }
    set_p50_ns(sheet, "dep.form_ns_p50", &mut form);
    set_p50_ns(sheet, "dep.commit_gate_ns_p50", &mut gate);
    Ok(())
}

/// `asset-storage`: appending a transfer-sized update record, and a
/// lone commit's trip through the group flusher (to be read against
/// `env.sync_floor_us`).
fn storage(p: &Params, dir: &Path, sheet: &mut Sheet) -> R<()> {
    let log = Arc::new(
        LogManager::open(&dir.join("probe.log"), Durability::Strict)
            .map_err(ctx("open probe log"))?,
    );
    let update = LogRecord::Update {
        tid: Tid(7),
        oid: Oid(1_000_123),
        before: Some(1_000i64.to_le_bytes().to_vec()),
        after: Some(1_042i64.to_le_bytes().to_vec()),
    };
    let n = p.probe_iters(20_000);
    let mut append = Vec::with_capacity(n);
    for _ in 0..n {
        let (ns, appended) = timed(|| log.append(&update));
        appended.map_err(ctx("append probe"))?;
        append.push(ns);
    }
    set_p50_ns(sheet, "storage.log.append_ns_p50", &mut append);

    let flusher = GroupFlusher::spawn(
        Arc::clone(&log),
        Durability::Strict,
        Duration::ZERO,
        Obs::shared(),
    );
    let n = p.probe_iters(300);
    let mut wait = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let (ns, flushed) =
            timed(|| flusher.submit_and_wait(LogRecord::Commit { tids: vec![Tid(i)] }));
        flushed.map_err(ctx("flusher probe"))?;
        wait.push(ns);
    }
    set_p50_us(sheet, "storage.flusher.sync_wait_us_p50", &mut wait);
    Ok(())
}

/// `asset-core`, blocking path: one whole single-write transaction, and
/// the three §2 primitives between two begun transactions over eight
/// objects.
fn core_blocking(p: &Params, sheet: &mut Sheet) -> R<()> {
    let (db, _) = Database::open(Config::in_memory()).map_err(ctx("open probe database"))?;
    let ob = db.new_oid();
    let n = p.probe_iters(2_000);
    let mut txn = Vec::with_capacity(n);
    for i in 0..n as i64 {
        let (ns, committed) = timed(|| db.run(move |t| t.write(ob, i.to_le_bytes().to_vec())));
        if !committed.map_err(ctx("blocking transaction probe"))? {
            return Err("blocking transaction probe aborted".into());
        }
        txn.push(ns);
    }
    set_p50_us(sheet, "core.blocking_txn_us_p50", &mut txn);

    let obs: Vec<Oid> = (0..8).map(|_| db.new_oid()).collect();
    let scope = ObSet::from_slice(&obs);
    let n = p.probe_iters(300);
    let (mut permit, mut form, mut delegate) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        // two begun transactions: the first has written the eight
        // objects, both then hold still until told to finish
        let mut release = Vec::new();
        let mut pair = Vec::new();
        for writes in [true, false] {
            let (tx, rx) = mpsc::channel::<()>();
            let (started_tx, started_rx) = mpsc::channel::<()>();
            let obs = obs.clone();
            let t = db
                .initiate(move |t| {
                    if writes {
                        for ob in &obs {
                            t.write(*ob, vec![1])?;
                        }
                    }
                    let _ = started_tx.send(());
                    let _ = rx.recv();
                    Ok(())
                })
                .map_err(ctx("primitive probe initiate"))?;
            db.begin(t).map_err(ctx("primitive probe begin"))?;
            started_rx.recv().map_err(ctx("primitive probe start"))?;
            release.push(tx);
            pair.push(t);
        }
        let (t1, t2) = (pair[0], pair[1]);
        let (ns, done) = timed(|| db.permit(t1, Some(t2), scope.clone(), OpSet::ALL));
        done.map_err(ctx("permit probe"))?;
        permit.push(ns);
        let (ns, done) = timed(|| db.form_dependency(DepType::CD, t1, t2));
        done.map_err(ctx("form_dependency probe"))?;
        form.push(ns);
        let (ns, done) = timed(|| db.delegate(t1, t2, None));
        done.map_err(ctx("delegate probe"))?;
        delegate.push(ns);
        drop(release);
        for t in [t1, t2] {
            db.commit(t).map_err(ctx("primitive probe commit"))?;
        }
    }
    set_p50_us(sheet, "core.permit_us_p50", &mut permit);
    set_p50_us(sheet, "core.form_dependency_us_p50", &mut form);
    set_p50_us(sheet, "core.delegate_us_p50", &mut delegate);
    Ok(())
}

/// `asset-core`'s distributed-commit participant calls on one on-disk
/// node, no transport: `prepare_group` + `decide_commit_group`.
fn prepare_decide(p: &Params, dir: &Path, sheet: &mut Sheet) -> R<()> {
    let node_dir = dir.join("probe-node");
    std::fs::create_dir_all(&node_dir).map_err(ctx("create probe node"))?;
    let (db, _) = Database::open(Config::on_disk(node_dir)).map_err(ctx("open probe node"))?;
    let n = p.probe_iters(300);
    let mut samples = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let ob = db.new_oid();
        let t = db
            .initiate(move |t| t.write(ob, i.to_le_bytes().to_vec()))
            .map_err(ctx("prepare probe initiate"))?;
        db.begin(t).map_err(ctx("prepare probe begin"))?;
        db.wait(t).map_err(ctx("prepare probe wait"))?;
        let (ns, decided) = timed(|| {
            db.prepare_group(&[t])
                .and_then(|group| db.decide_commit_group(&group))
        });
        decided.map_err(ctx("prepare/decide probe"))?;
        samples.push(ns);
    }
    set_p50_us(sheet, "coord.prepare_decide_us_p50", &mut samples);
    Ok(())
}

/// Every probe that needs no running workload.
pub fn standalone(p: &Params, dir: &Path, sheet: &mut Sheet) -> R<()> {
    protocol(p, sheet);
    lock(p, sheet)?;
    dep(p, sheet)?;
    storage(p, dir, sheet)?;
    core_blocking(p, sheet)?;
    prepare_decide(p, dir, sheet)
}
