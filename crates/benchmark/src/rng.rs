//! The benchmark's own PRNG: every input (account pairs, amounts,
//! activity kinds, protocol coin, arrival gaps) is drawn from it, so
//! one `--seed` fixes the whole op stream.

/// xorshift64* seeded through splitmix64 (so small seeds still give
/// well-mixed streams, and `(seed, stream)` pairs never collide on the
/// all-zero state).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` (a thread index or a purpose tag) of
    /// the run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_F491_4F6C_DD1D } else { z })
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n >= 1`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]` — safe to take the logarithm of.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let d: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(8, 0), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(0, 0);
        for _ in 0..10_000 {
            assert!(r.below(16) < 16);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
