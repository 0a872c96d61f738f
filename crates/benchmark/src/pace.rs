//! Pacing: the one timing primitive of the driver (park until shortly
//! before a deadline, then spin onto it) and the open-loop arrival
//! generator built on it.

use crate::rng::Rng;
use std::time::{Duration, Instant};

/// How long before the deadline parking stops and spinning starts: a
/// parked thread wakes late by tens of microseconds, a spinning one
/// does not.
const SPIN_MARGIN: Duration = Duration::from_micros(150);

/// Return at `deadline` (immediately if it has passed).
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN_MARGIN {
            std::thread::park_timeout(left - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One open-loop arrival as the generator saw it, in nanoseconds from
/// the schedule's start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the schedule said the request was due.
    pub due_ns: u64,
    /// When the generator actually issued it (later than `due_ns` if
    /// the connection was still busy with an earlier request).
    pub issued_ns: u64,
    /// When it completed.
    pub done_ns: u64,
}

impl Arrival {
    /// Latency **from the due time**: a stall is charged to every
    /// arrival that queued behind it, not only to the request that
    /// suffered it (no coordinated omission).
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator issued the request.
    pub fn lag_ns(&self) -> u64 {
        self.issued_ns - self.due_ns
    }
}

/// Poisson arrival times (ns from start) at `rate_per_s` covering
/// `[from_ns, until_ns)`: independent users do not arrive on a grid.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, from_ns: u64, until_ns: u64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = from_ns as f64;
    loop {
        t += -rng.unit().ln() / rate_per_s * 1e9;
        if t >= until_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Drive one connection's fixed schedule: issue request `i` at
/// `due_ns[i]` after `start` — or as soon as the previous request has
/// returned, if that is later — and time it from its due time. `op`
/// gets the arrival's index.
pub fn run_open_loop(start: Instant, due_ns: &[u64], mut op: impl FnMut(usize)) -> Vec<Arrival> {
    let mut out = Vec::with_capacity(due_ns.len());
    for (i, &due) in due_ns.iter().enumerate() {
        wait_until(start + Duration::from_nanos(due));
        let issued_ns = start.elapsed().as_nanos() as u64;
        op(i);
        out.push(Arrival {
            due_ns: due,
            issued_ns,
            done_ns: start.elapsed().as_nanos() as u64,
        });
    }
    out
}

/// Arrivals due at or before `at_ns` that had not yet been issued by
/// then — the connection's backlog at that instant.
pub fn backlog_at(arrivals: &[Arrival], at_ns: u64) -> usize {
    arrivals
        .iter()
        .filter(|a| a.due_ns <= at_ns && a.issued_ns > at_ns)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_until_does_not_return_early() {
        let d = Instant::now() + Duration::from_millis(3);
        wait_until(d);
        assert!(Instant::now() >= d);
        // a deadline in the past returns at once
        wait_until(Instant::now() - Duration::from_millis(1));
    }

    #[test]
    fn a_stall_is_charged_to_every_arrival_due_during_it() {
        const MS: u64 = 1_000_000;
        // one arrival every 5 ms; request 2 (due at 10 ms) stalls 50 ms
        let due: Vec<u64> = (0..16).map(|i| i * 5 * MS).collect();
        let start = Instant::now();
        let arrivals = run_open_loop(start, &due, |i| {
            if i == 2 {
                wait_until(Instant::now() + Duration::from_millis(50));
            }
        });
        assert_eq!(arrivals.len(), due.len());
        let stall_end = arrivals[2].done_ns;
        assert!(stall_end >= 60 * MS, "request 2 ran 10 ms .. 60 ms");
        for a in &arrivals {
            assert!(a.issued_ns >= a.due_ns, "never issued early");
            if a.due_ns >= 10 * MS && a.due_ns < stall_end {
                // due while the connection was stalled: it waited for
                // the stall to end, and that wait is in its latency
                assert!(
                    a.latency_ns() >= stall_end - a.due_ns,
                    "arrival due at {} ns was charged only {} ns",
                    a.due_ns,
                    a.latency_ns()
                );
            }
        }
        // a closed-loop timer would have seen one slow request; here
        // every arrival due in the 50 ms shows it (>= 9 of them)
        let slow = arrivals.iter().filter(|a| a.latency_ns() >= 5 * MS).count();
        assert!(slow >= 9, "only {slow} arrivals saw the stall");
        // generator lag is reported: the arrival due at 15 ms was
        // issued no earlier than the stall's end
        assert!(arrivals[3].lag_ns() >= 40 * MS);
        assert_eq!(
            arrivals[0].lag_ns() / (5 * MS),
            0,
            "no lag before the stall"
        );
        // and the backlog during the stall counts what was due but unissued
        assert!(backlog_at(&arrivals, 55 * MS) >= 8);
        assert_eq!(backlog_at(&arrivals, arrivals.last().unwrap().done_ns), 0);
    }

    #[test]
    fn poisson_schedule_is_seeded_ordered_and_on_rate() {
        let a = poisson_schedule(&mut Rng::new(3, 0), 2_000.0, 1_000, 1_000_000_000);
        let b = poisson_schedule(&mut Rng::new(3, 0), 2_000.0, 1_000, 1_000_000_000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.first().unwrap() >= 1_000 && *a.last().unwrap() < 1_000_000_000);
        assert!(
            (1_800..2_200).contains(&a.len()),
            "{} arrivals in 1 s at 2000/s",
            a.len()
        );
    }
}
