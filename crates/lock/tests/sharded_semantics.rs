//! Sharding must be invisible: a `LockTable` with 1, 2 or 64 shards has to
//! produce identical grant/block/suspension/deadlock behaviour — the stripe
//! count is a performance knob, never a semantics knob.
//!
//! A deterministic scripted workload (seeded `asset_faults::Rng`) is
//! replayed against each shard count and the full observable trace is
//! compared byte-for-byte; threaded stress tests then check mutual
//! exclusion and deadlock detection at every shard count.

use asset_common::ids::stripe_of;
use asset_common::{AssetError, LockMode, ObSet, Oid, OpSet, Operation, Tid};
use asset_faults::Rng;
use asset_lock::{LockTable, StripeStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::Duration;

/// `f` summed over the table's stripes.
fn total(t: &LockTable, f: fn(&StripeStats) -> u64) -> u64 {
    t.stripe_stats().iter().map(f).sum()
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 64];

/// Replay a seeded single-threaded script of lock-manager operations and
/// record every observable outcome. Sorted where the API's ordering is
/// explicitly unspecified (released-object lists, blocker lists). Each
/// transaction's list of its locked objects is held by the script, as
/// asset-core holds it in the TD, and driven through the list-taking forms.
fn run_script(shards: usize, seed: u64, steps: usize) -> Vec<String> {
    const TIDS: u64 = 6;
    const OIDS: u64 = 12;
    let t = LockTable::with_shards(shards);
    let mut lists: Vec<Vec<Oid>> = vec![Vec::new(); TIDS as usize + 1];
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
                match t.request(tid, oid, op, None).unwrap() {
                    Ok(new) => {
                        if new {
                            lists[tid.raw() as usize].push(oid);
                        }
                        trace.push(format!("{step}: grant {tid} {oid} {op:?}"));
                    }
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
                let mut moving = std::mem::take(&mut lists[tid.raw() as usize]);
                let listed = t.delegate(tid, to, &mut moving, None);
                lists[to.raw() as usize].extend(listed);
                trace.push(format!("{step}: delegate {tid} -> {to}"));
            }
            8 => {
                let mut held = std::mem::take(&mut lists[tid.raw() as usize]);
                assert_eq!(t.release(tid, &mut held), held.len());
                assert_eq!(t.release_all(tid), 0, "{tid} listed every LRD");
                held.sort_by_key(|o| o.raw());
                trace.push(format!("{step}: release {tid} {held:?}"));
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
    trace.push(format!(
        "grants: {} suspensions: {}",
        total(&t, |s| s.grants),
        total(&t, |s| s.suspensions)
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
    // a wildcard permit, and one naming the object and writes only
    let scopes = [(ObSet::All, OpSet::ALL), (ObSet::one(Oid(1)), OpSet::WRITE)];
    for ((scope, ops), shards) in scopes
        .into_iter()
        .flat_map(|p| SHARD_COUNTS.map(|n| (p.clone(), n)))
    {
        let t = LockTable::with_shards(shards);
        t.lock(Tid(1), Oid(1), Operation::Write, None).unwrap();
        t.permit(Tid(1), Some(Tid(2)), scope, ops);
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
        assert!(holders.iter().any(|l| l.tid == Tid(2) && !l.suspended));
        assert_eq!(total(&t, |s| s.suspensions), 1, "shards={shards}");
        // t1's lock is suspended: it no longer *holds* write
        assert!(!t.holds(Tid(1), Oid(1), LockMode::Write));
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
        assert_eq!(total(&t, |s| s.deadlocks), 1, "shards={shards}");
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
        let grants = total(&t, |s| s.grants);
        assert_eq!(grants, THREADS * ITERS * OBJS, "shards={shards}");
        let blocks = total(&t, |s| s.blocks);
        assert_eq!(blocks, 0, "shards={shards}: disjoint keys never block");
        assert_eq!(total(&t, |s| s.deadlocks), 0, "shards={shards}");
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
        let mut obs: Vec<Oid> = (1..=200).map(Oid).collect();
        for ob in &obs {
            assert!(t.acquire(Tid(1), *ob, Operation::Write, None).unwrap());
        }
        assert_eq!(t.release(Tid(1), &mut obs), 200, "shards={shards}");
        assert_eq!(t.release_all(Tid(1)), 0, "shards={shards}");
        for ob in &obs {
            assert!(t.holders(*ob).is_empty(), "shards={shards}");
        }
    }
}

#[test]
fn cross_shard_permit_chain_grants() {
    // t1 -> t2 names one object, t2 -> t3 two objects on two shards, or
    // every object; the transitive closure must stitch them at any shard
    // count.
    let hops = [ObSet::from_slice(&[Oid(17), Oid(18)]), ObSet::All];
    for (hop, shards) in hops
        .into_iter()
        .flat_map(|h| SHARD_COUNTS.map(|n| (h.clone(), n)))
    {
        let t = LockTable::with_shards(shards);
        t.lock(Tid(1), Oid(17), Operation::Write, None).unwrap();
        t.permit(Tid(1), Some(Tid(2)), ObSet::one(Oid(17)), OpSet::ALL);
        t.permit(Tid(2), Some(Tid(3)), hop, OpSet::ALL);
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

/// A waker that only counts its wakes, as a driver that does not sleep
/// (the executor's enqueue) looks to the table.
#[derive(Default)]
struct Wakes(AtomicUsize);

impl Wake for Wakes {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_permit_wakes_the_requests_it_can_admit() {
    // `y` sorts before `x` and lies on another stripe at 64 stripes, so a
    // wake that reached only the first object's stripe would miss `x`
    let x = Oid(17);
    let y = (1..17)
        .map(Oid)
        .find(|y| stripe_of(y.raw(), 63) != stripe_of(x.raw(), 63))
        .expect("an oid below 17 on another of 64 stripes");
    let scope = ObSet::from_slice(&[y, x]);
    for shards in SHARD_COUNTS {
        // the permit is granted by the blocker itself, or by a third
        // transaction that then delegates it to the blocker
        for by_delegation in [false, true] {
            let t = LockTable::with_shards(shards);
            t.lock(Tid(1), x, Operation::Write, None).unwrap();
            if by_delegation {
                t.permit(Tid(3), Some(Tid(2)), scope.clone(), OpSet::ALL);
            }
            let wakes = Arc::new(Wakes::default());
            let waker = || Waker::from(Arc::clone(&wakes));
            let queued = t.request(Tid(2), x, Operation::Write, Some(&waker));
            assert_eq!(queued.unwrap(), Err(vec![Tid(1)]), "shards={shards}");
            if by_delegation {
                t.delegate(Tid(3), Tid(1), &mut [], None);
            } else {
                t.permit(Tid(1), Some(Tid(2)), scope.clone(), OpSet::ALL);
            }
            assert_eq!(
                wakes.0.load(Ordering::SeqCst),
                1,
                "shards={shards} by_delegation={by_delegation}: woken once"
            );
            let retry = t.request(Tid(2), x, Operation::Write, Some(&waker));
            assert_eq!(retry.unwrap(), Ok(true), "shards={shards}");
            assert!(t.pending(x).is_empty(), "shards={shards}");
        }
    }
}
