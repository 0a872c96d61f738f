//! Order statistics: the percentile helper every timing goes through,
//! and the median/quartile summary `compare` and the acceptance runs use.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Empty input reads as 0 so a layer that saw no samples prints 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile together with what the sample could support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99, or lower on a small sample).
    pub pct: f64,
    /// Its value.
    pub value: u64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99 / p95 / p90 / p75 / p50 with at least
/// [`MIN_BEYOND`] samples beyond it (p99 needs 1 000 samples); a
/// smaller sample falls back to the median and says so through `pct`.
pub fn tail(sorted: &[u64]) -> Tail {
    let n = sorted.len();
    let rank = |pct: f64| (pct / 100.0 * n as f64).ceil() as usize;
    let pct = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|pct| n >= rank(*pct) + MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(sorted, pct),
        beyond: n.saturating_sub(rank(pct)),
        n,
    }
}

/// Sort in place and return `(p50, tail)`.
pub fn summarize(samples: &mut [u64]) -> (u64, Tail) {
    samples.sort_unstable();
    (percentile(samples, 50.0), tail(samples))
}

/// Median of p50s etc.: the middle of an unsorted f64 sample (mean of
/// the two middle values for an even count). Empty reads as 0.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(xs, n=4)`
/// (the default exclusive method) computes them — the driver judges
/// spreads with that function, so `compare` must agree with it.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        // exclusive method: position i*(n+1)/4, clamped into the data
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 1 000 samples: rank 990, exactly 10 beyond -> p99
        let t = tail(&ramp(1_000));
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990, 10, 1_000));
        // one fewer: p99 would leave 9 beyond -> p95
        let t = tail(&ramp(999));
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.n, 999);
        assert!(t.beyond >= MIN_BEYOND);
        // 200 samples: p95 leaves exactly 10 beyond
        let t = tail(&ramp(200));
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190, 10));
        // 100 samples: p90
        assert_eq!(tail(&ramp(100)).pct, 90.0);
        // 40 samples: p75
        assert_eq!(tail(&ramp(40)).pct, 75.0);
        // tiny sample: the median, with the count reported
        let t = tail(&ramp(7));
        assert_eq!((t.pct, t.value, t.n), (50.0, 4, 7));
        assert_eq!(tail(&[]).value, 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 50.0), 20);
        assert_eq!(percentile(&v, 75.0), 30);
        assert_eq!(percentile(&v, 100.0), 40);
        assert_eq!(percentile(&v, 0.0), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2,5,4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
