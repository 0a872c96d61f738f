//! The workspace's one seeded generator, and the loop that drives a
//! property over it.
//!
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c): one `u64` of
//! state, every seed valid, the same `(seed, stream)` giving the same
//! sequence on every platform. It decides [`Trigger::Prob`](crate::Trigger)
//! schedules, draws the experiment workloads and generates the cases of
//! the property suites — none of which needs more than "uniform enough and
//! exactly repeatable".

/// A seeded splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Stream number `stream` of `seed`: equal pairs give equal sequences,
    /// distinct streams of one seed start from unrelated states, and
    /// stream 0 is the plain splitmix64 sequence of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ mix(stream))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `[0, n)`. The modulo bias is below `n / 2^64`.
    ///
    /// # Panics
    /// If `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0): empty range");
        self.next_u64() % n
    }

    /// One element of `items`.
    ///
    /// # Panics
    /// If `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Put `items` in a uniformly random order (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// splitmix64's output function: a bijection on `u64` that fixes zero.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Check `property` on `count` generated cases: case `c` draws from
/// `Rng::new(seed, c)`. A failing case panics with its `(seed, case)` after
/// the property's own message; there is no shrinking, and running
/// `property(&mut Rng::new(seed, case))` replays exactly that case.
pub fn cases(seed: u64, count: u64, property: impl Fn(&mut Rng)) {
    for case in 0..count {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut Rng::new(seed, case))
        }));
        if let Err(cause) = run {
            let why = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("property failed at (seed, case) = ({seed}, {case}): {why}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_and_stream_fix_the_sequence_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..32).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 7), draw(42, 7));
        assert_ne!(draw(42, 7), draw(42, 8));
        assert_ne!(draw(42, 0), draw(42, 1));
        assert_ne!(draw(42, 7), draw(43, 7));
        // reference value of splitmix64 seeded with 0 (Vigna's test vector)
        assert_eq!(Rng::new(0, 0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn derived_draws_stay_in_range_and_keep_every_element() {
        let mut r = Rng::new(7, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
        assert_eq!(r.bytes(13).len(), 13);
        assert!([3, 5, 8].contains(r.pick(&[3, 5, 8])));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn a_failing_case_is_named_and_replays() {
        let property = |r: &mut Rng| assert!(r.below(8) != 3, "drew the three");
        let failure = std::panic::catch_unwind(|| cases(11, 64, property))
            .expect_err("one of 64 cases draws a 3");
        let msg = failure.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.ends_with("drew the three"), "{msg}");
        let case: u64 = msg
            .split_once("(11, ")
            .and_then(|(_, rest)| rest.split_once(')'))
            .expect("names (seed, case)")
            .0
            .parse()
            .expect("case number");
        assert_eq!(Rng::new(11, case).below(8), 3, "the named case replays");
    }
}
