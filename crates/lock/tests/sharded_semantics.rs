//! Sharding must be invisible: a `LockTable` with 1, 2 or 64 shards has to
//! produce identical grant/block/suspension/deadlock behaviour — the stripe
//! count is a performance knob, never a semantics knob.
//!
//! A deterministic scripted workload (seeded `asset_faults::Rng`) is
//! replayed against each shard count and the full observable trace is
//! compared byte-for-byte; threaded stress tests then check mutual
//! exclusion and deadlock detection at every shard count.

use asset_common::{AssetError, LockMode, ObSet, Oid, OpSet, Operation, Tid};
use asset_faults::Rng;
use asset_lock::LockTable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARD_COUNTS: [usize; 3] = [1, 2, 64];

/// Replay a seeded single-threaded script of lock-manager operations and
/// record every observable outcome. Sorted where the API's ordering is
/// explicitly unspecified (released-object lists, blocker lists).
fn run_script(shards: usize, seed: u64, steps: usize) -> Vec<String> {
    const TIDS: u64 = 6;
    const OIDS: u64 = 12;
    let t = LockTable::with_shards(shards);
    let mut rng = Rng::new(seed, 0);
    let mut trace = Vec::new();
    for step in 0..steps {
        let tid = Tid(1 + rng.below(TIDS));
        let oid = Oid(1 + rng.below(OIDS));
        match rng.below(10) {
            0..=3 => {
                let op = if rng.below(2) == 0 {
                    Operation::Read
                } else {
                    Operation::Write
                };
                match t.try_lock(tid, oid, op) {
                    Ok(()) => trace.push(format!("{step}: grant {tid} {oid} {op:?}")),
                    Err(mut blockers) => {
                        blockers.sort_by_key(|b| b.raw());
                        trace.push(format!("{step}: block {tid} {oid} {op:?} by {blockers:?}"));
                    }
                }
            }
            4 => {
                let grantee = Tid(1 + rng.below(TIDS));
                t.permit(tid, Some(grantee), ObSet::one(oid), OpSet::ALL);
                trace.push(format!("{step}: permit -> {}", t.permit_count()));
            }
            5 => {
                // wildcard-object permit: exercises the global table on
                // multi-shard configurations
                t.permit(tid, None, ObSet::All, OpSet::READ);
                trace.push(format!("{step}: wildcard-permit -> {}", t.permit_count()));
            }
            6 => {
                // cross-shard scope: two objects that land in different
                // shards whenever shards > 1
                let other = Oid(1 + rng.below(OIDS));
                let grantee = Tid(1 + rng.below(TIDS));
                t.permit(
                    tid,
                    Some(grantee),
                    ObSet::from_slice(&[oid, other]),
                    OpSet::WRITE,
                );
                trace.push(format!("{step}: span-permit -> {}", t.permit_count()));
            }
            7 => {
                let to = Tid(1 + rng.below(TIDS));
                t.delegate(tid, to, None);
                trace.push(format!("{step}: delegate {tid} -> {to}"));
            }
            8 => {
                let mut released = t.release_all(tid);
                released.sort_by_key(|o| o.raw());
                trace.push(format!("{step}: release {tid} {released:?}"));
            }
            _ => {
                trace.push(format!(
                    "{step}: holds {tid} {oid} = {}",
                    t.holds(tid, oid, LockMode::Write)
                ));
            }
        }
    }
    // final-state digest: per-object holder lists and counters
    for o in 1..=OIDS {
        let mut h: Vec<(u64, LockMode, bool)> = t
            .holders(Oid(o))
            .into_iter()
            .map(|l| (l.tid.raw(), l.mode, l.suspended))
            .collect();
        h.sort_by_key(|(tid, ..)| *tid);
        trace.push(format!("holders {o}: {h:?}"));
    }
    trace.push(format!("permits: {}", t.permit_count()));
    let s = t.stats();
    trace.push(format!(
        "grants: {} suspensions: {}",
        s.grants, s.suspensions
    ));
    trace
}

#[test]
fn scripted_traces_identical_across_shard_counts() {
    for seed in [1u64, 7, 42, 1337, 99999] {
        let reference = run_script(1, seed, 400);
        for shards in [2usize, 64] {
            let trace = run_script(shards, seed, 400);
            assert_eq!(
                trace, reference,
                "seed {seed}: shards={shards} diverged from shards=1"
            );
        }
    }
}

#[test]
fn suspension_semantics_identical_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        let t = LockTable::with_shards(shards);
        t.lock(Tid(1), Oid(1), Operation::Write, None).unwrap();
        // wildcard permit goes through the global table when sharded
        t.permit(Tid(1), Some(Tid(2)), ObSet::All, OpSet::ALL);
        t.lock(
            Tid(2),
            Oid(1),
            Operation::Write,
            Some(Duration::from_millis(200)),
        )
        .unwrap();
        let holders = t.holders(Oid(1));
        assert!(
            holders.iter().any(|l| l.tid == Tid(1) && l.suspended),
            "shards={shards}: permitting holder suspended"
        );
        assert!(
            t.holds(Tid(2), Oid(1), LockMode::Write),
            "shards={shards}: permitted requester holds"
        );
        // unpermitted third party still blocks
        let err = t
            .lock(
                Tid(3),
                Oid(1),
                Operation::Write,
                Some(Duration::from_millis(50)),
            )
            .unwrap_err();
        assert!(
            matches!(err, AssetError::LockTimeout { .. }),
            "shards={shards}: unpermitted writer must time out"
        );
    }
}

#[test]
fn deadlock_detected_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        let t = Arc::new(LockTable::with_shards(shards));
        t.lock(Tid(1), Oid(1), Operation::Write, None).unwrap();
        t.lock(Tid(2), Oid(2), Operation::Write, None).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.lock(
                Tid(1),
                Oid(2),
                Operation::Write,
                Some(Duration::from_secs(5)),
            )
        });
        // t1's request is listed, so its waits-for edge is published
        while !t.pending(Oid(2)).iter().any(|p| p.tid == Tid(1)) {
            std::thread::yield_now();
        }
        let err = t
            .lock(
                Tid(2),
                Oid(1),
                Operation::Write,
                Some(Duration::from_secs(5)),
            )
            .unwrap_err();
        assert!(
            matches!(err, AssetError::Deadlock(Tid(2))),
            "shards={shards}: second requester is the deadlock victim"
        );
        t.release_all(Tid(2));
        h.join().unwrap().unwrap();
        assert_eq!(t.stats().deadlocks, 1, "shards={shards}");
    }
}

#[test]
fn stress_disjoint_objects_never_block() {
    // 16 threads on disjoint key ranges: with per-object striping there is
    // nothing to contend on — every acquisition must be an immediate grant.
    const THREADS: u64 = 16;
    const ITERS: u64 = 300;
    const OBJS: u64 = 8;
    for shards in SHARD_COUNTS {
        let t = Arc::new(LockTable::with_shards(shards));
        let mut handles = Vec::new();
        for i in 0..THREADS {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let tid = Tid(i + 1);
                for round in 0..ITERS {
                    for k in 0..OBJS {
                        let ob = Oid(1_000 * (i + 1) + k);
                        t.lock(tid, ob, Operation::Write, None).unwrap();
                        let _ = round;
                    }
                    t.release_all(tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = t.stats();
        assert_eq!(s.grants, THREADS * ITERS * OBJS, "shards={shards}");
        assert_eq!(s.blocks, 0, "shards={shards}: disjoint keys never block");
        assert_eq!(s.deadlocks, 0, "shards={shards}");
    }
}

#[test]
fn stress_overlapping_objects_stay_mutually_exclusive() {
    // 16 threads hammer 4 shared objects. Mutual exclusion is proven with
    // a CAS-claimed owner word per object: if two unsuspended write locks
    // ever coexisted, a claim would observe a non-zero owner.
    const THREADS: u64 = 16;
    const TARGET: u64 = 60;
    const OBJS: usize = 4;
    for shards in SHARD_COUNTS {
        let t = Arc::new(LockTable::with_shards(shards));
        let owners: Arc<Vec<AtomicU64>> = Arc::new((0..OBJS).map(|_| AtomicU64::new(0)).collect());
        let done = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..THREADS {
            let t = Arc::clone(&t);
            let owners = Arc::clone(&owners);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let tid = Tid(i + 1);
                let mut rng = Rng::new(i + 1, 0);
                let mut completed = 0u64;
                while completed < TARGET {
                    let k = rng.below(OBJS as u64) as usize;
                    let ob = Oid(k as u64 + 1);
                    match t.lock(tid, ob, Operation::Write, Some(Duration::from_secs(10))) {
                        Ok(()) => {
                            let claimed = owners[k]
                                .compare_exchange(0, tid.raw(), Ordering::AcqRel, Ordering::Acquire)
                                .is_ok();
                            assert!(claimed, "two write locks coexisted on {ob}");
                            owners[k].store(0, Ordering::Release);
                            t.release_all(tid);
                            completed += 1;
                        }
                        Err(AssetError::Deadlock(_)) | Err(AssetError::LockTimeout { .. }) => {
                            // victim backs off, drops everything, retries
                            t.release_all(tid);
                        }
                        Err(e) => panic!("unexpected lock error: {e:?}"),
                    }
                }
                done.fetch_add(completed, Ordering::Relaxed);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            done.load(Ordering::Relaxed),
            THREADS * TARGET,
            "shards={shards}: every thread completed its quota"
        );
        // quiesced: no locks left behind
        for k in 0..OBJS {
            assert!(t.holders(Oid(k as u64 + 1)).is_empty(), "shards={shards}");
        }
    }
}

#[test]
fn release_all_spans_shards() {
    for shards in SHARD_COUNTS {
        let t = LockTable::with_shards(shards);
        let obs: Vec<Oid> = (1..=200).map(Oid).collect();
        for ob in &obs {
            t.lock(Tid(1), *ob, Operation::Write, None).unwrap();
        }
        assert_eq!(t.locked_objects(Tid(1)).len(), obs.len(), "shards={shards}");
        let mut released = t.release_all(Tid(1));
        released.sort_by_key(|o| o.raw());
        assert_eq!(released, obs, "shards={shards}: everything released");
        for ob in &obs {
            assert!(t.holders(*ob).is_empty(), "shards={shards}");
        }
    }
}

#[test]
fn cross_shard_permit_chain_grants() {
    // t1 -> t2 permit lives in one shard, t2 -> t3 spans two shards (global
    // table); the transitive closure must stitch them at any shard count.
    for shards in SHARD_COUNTS {
        let t = LockTable::with_shards(shards);
        t.lock(Tid(1), Oid(17), Operation::Write, None).unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(17)), OpSet::ALL);
        t.permit(
            Tid(2),
            Some(Tid(3)),
            ObSet::from_slice(&[Oid(17), Oid(18)]),
            OpSet::ALL,
        );
        t.lock(
            Tid(3),
            Oid(17),
            Operation::Write,
            Some(Duration::from_millis(200)),
        )
        .unwrap();
        assert!(t.holds(Tid(3), Oid(17), LockMode::Write), "shards={shards}");
    }
}
