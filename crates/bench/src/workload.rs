//! Workload generators: bank accounts, design objects, inventories. Random
//! draws come from the seeded `asset_faults::Rng`, so runs are reproducible.

use asset_core::{Database, Oid, Result, TxnCtx};

/// Encode an i64 counter value.
pub fn enc_i64(v: i64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// Decode an i64 counter value.
pub fn dec_i64(bytes: &[u8]) -> i64 {
    i64::from_le_bytes(bytes.try_into().expect("i64 payload"))
}

/// Create `n` objects, each holding `initial` as an i64 counter, committed.
pub fn setup_counters(db: &Database, n: usize, initial: i64) -> Vec<Oid> {
    let oids: Vec<Oid> = (0..n).map(|_| db.new_oid()).collect();
    let o2 = oids.clone();
    let ok = db
        .run(move |ctx| {
            for oid in &o2 {
                ctx.write(*oid, enc_i64(initial))?;
            }
            Ok(())
        })
        .expect("bootstrap run");
    assert!(ok, "bootstrap must commit");
    oids
}

/// Create `n` objects with `size`-byte payloads, committed.
pub fn setup_blobs(db: &Database, n: usize, size: usize) -> Vec<Oid> {
    let oids: Vec<Oid> = (0..n).map(|_| db.new_oid()).collect();
    let o2 = oids.clone();
    let ok = db
        .run(move |ctx| {
            for (i, oid) in o2.iter().enumerate() {
                ctx.write(*oid, vec![i as u8; size])?;
            }
            Ok(())
        })
        .expect("bootstrap run");
    assert!(ok);
    oids
}

/// Read a committed counter (diagnostic peek).
pub fn counter(db: &Database, oid: Oid) -> i64 {
    dec_i64(&db.peek(oid).expect("peek").expect("counter exists"))
}

/// A transfer closure moving `amount` between two accounts, aborting on
/// insufficient funds. Locks in oid order to reduce deadlocks.
pub fn transfer(from: Oid, to: Oid, amount: i64) -> impl Fn(&TxnCtx) -> Result<()> + Send + Sync {
    move |ctx: &TxnCtx| {
        let (first, second) = if from.raw() < to.raw() {
            (from, to)
        } else {
            (to, from)
        };
        let vf = dec_i64(&ctx.read(first)?.expect("account"));
        let vs = dec_i64(&ctx.read(second)?.expect("account"));
        let (nf, ns) = if first == from {
            (vf - amount, vs + amount)
        } else {
            (vf + amount, vs - amount)
        };
        if (first == from && nf < 0) || (second == from && ns < 0) {
            return ctx.abort_self();
        }
        ctx.write(first, enc_i64(nf))?;
        ctx.write(second, enc_i64(ns))
    }
}

/// Run `f` on `threads` threads and return the wall-clock time for all of
/// them to finish.
pub fn parallel_time(threads: usize, f: impl Fn(usize) + Send + Sync) -> std::time::Duration {
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for i in 0..threads {
            let f = &f;
            scope.spawn(move || f(i));
        }
    });
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_setup_and_read() {
        let db = Database::in_memory();
        let oids = setup_counters(&db, 5, 123);
        for oid in &oids {
            assert_eq!(counter(&db, *oid), 123);
        }
    }

    #[test]
    fn blobs_setup() {
        let db = Database::in_memory();
        let oids = setup_blobs(&db, 3, 64);
        assert_eq!(db.peek(oids[1]).unwrap().unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn transfer_moves_and_guards() {
        let db = Database::in_memory();
        let accts = setup_counters(&db, 2, 100);
        let (a, b) = (accts[0], accts[1]);
        assert!(db.run(move |ctx| transfer(a, b, 30)(ctx)).unwrap());
        assert_eq!(counter(&db, a), 70);
        assert_eq!(counter(&db, b), 130);
        // overdraft aborts
        assert!(!db.run(move |ctx| transfer(a, b, 1_000)(ctx)).unwrap());
        assert_eq!(counter(&db, a), 70);
    }

    #[test]
    fn parallel_time_runs_all() {
        let hits = std::sync::atomic::AtomicUsize::new(0);
        parallel_time(4, |_| {
            hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 4);
    }
}
