//! Workload helpers shared by the experiments: i64 counter objects and a
//! thread fan-out timer.

use asset_core::{Database, Oid};

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

/// Read a committed counter (diagnostic peek).
pub fn counter(db: &Database, oid: Oid) -> i64 {
    dec_i64(&db.peek(oid).expect("peek").expect("counter exists"))
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
    fn parallel_time_runs_all() {
        let hits = std::sync::atomic::AtomicUsize::new(0);
        parallel_time(4, |_| {
            hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 4);
    }
}
