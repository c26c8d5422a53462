//! Sample statistics: nearest-rank percentiles that refuse thin tails,
//! medians and means, plus the seeded generator every workload draws
//! its inputs from.

/// A percentile is reported only when at least this many samples lie
/// beyond its rank; fewer would make the tail an anecdote.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample, with the
/// rank given in per-mille (500 = median, 990 = p99) so that no float
/// rounding can move it. `None` when the sample is empty or fewer than
/// [`MIN_TAIL`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (n * per_mille).div_ceil(1000).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort a copy of `xs` ascending (total order, so NaN cannot panic).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); `None` if empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(f64::midpoint(v[n / 2 - 1], v[n / 2])),
    }
}

/// Arithmetic mean; `None` if empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// `SplitMix64`: a tiny, fully specified generator, so the benchmark's
/// own draws (Poisson due times, derived seeds) never depend on any
/// crate's RNG stream.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for stream `stream` derived from the run seed, so every
/// workload's inputs are a pure function of `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Offsets in seconds of `n` Poisson arrivals at `rate` per second:
/// exponential gaps `-ln(1 - u) / rate` from the seeded stream.
pub fn poisson_offsets(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(derive_seed(seed, 0x9015_5011));
    let mut t = 0.0_f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

/// FNV-1a over a byte string: the digest used to compare schedules
/// across processes and passes.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 500), Some(50.0));
        assert_eq!(percentile(&xs, 900), Some(90.0));
        // 20 samples: the median is rank 10, ten samples beyond it.
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
    }

    #[test]
    fn percentile_refuses_a_tail_thinner_than_ten_samples() {
        // p99 of 999 samples has rank 990: only 9 beyond it.
        assert_eq!(percentile(&ramp(999), 990), None);
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(19), 500), None);
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&ramp(5), 1000), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn poisson_due_times_are_seed_deterministic_and_increasing() {
        let a = poisson_offsets(2006, 200.0, 4000);
        let b = poisson_offsets(2006, 200.0, 4000);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_ne!(a[0].to_bits(), poisson_offsets(2007, 200.0, 1)[0].to_bits());
        // 4000 arrivals at 200/s span about 20 s.
        let span = a[a.len() - 1];
        assert!((18.0..22.0).contains(&span), "span {span}");
    }
}
