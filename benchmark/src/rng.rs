//! The benchmark's own random numbers and key popularity, so that the
//! program under test only ever sees inputs generated from `--seed`.

/// SplitMix64: one multiply-xorshift chain per draw, good enough for
/// choosing keys and filling pages, and cheap enough to sit in a timed
/// loop.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The SplitMix64 finalizer, also used as a stateless hash.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf popularity over `n` ranks with exponent `s`, sampled by binary
/// search over the cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Rounding leaves the last entry a few ulps from 1; pin it so a
        // draw of 0.999… always lands on a rank.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    #[cfg(test)]
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// The rank (0 = most popular) that the uniform draw `u` selects.
    #[inline]
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Spread popularity ranks over the key space. `n` is a power of two
/// and the multiplier is odd, so this is a bijection on `0..n`: the hot
/// keys land on every shard and every page class, and the mapping does
/// not depend on the seed (so the class of the hottest keys, which
/// decides the tier split, is the same on every run).
#[inline]
pub fn rank_to_key(rank: usize, n: usize) -> u64 {
    debug_assert!(n.is_power_of_two());
    (rank as u64).wrapping_mul(0x9E37_79B1) & (n as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_sums_to_one_and_is_monotone() {
        for (n, s) in [(1usize, 0.99), (8192, 0.99), (32768, 0.6)] {
            let z = Zipf::new(n, s);
            assert_eq!(z.cdf().len(), n);
            assert_eq!(*z.cdf().last().unwrap(), 1.0);
            assert!(z.cdf().windows(2).all(|w| w[0] <= w[1]));
            // The unpinned sum must already be 1 to within rounding.
            let raw: f64 = (1..=n).map(|r| (r as f64).powf(-s)).sum();
            let sum: f64 = (1..=n).map(|r| (r as f64).powf(-s) / raw).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        }
    }

    #[test]
    fn zipf_rank_covers_the_ends() {
        let z = Zipf::new(1024, 0.99);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999_999), 1023);
        assert_eq!(z.rank(1.0), 1023);
        // Rank 0 holds the first weight's share of draws.
        assert_eq!(z.rank(z.cdf()[0] - 1e-12), 0);
        assert_eq!(z.rank(z.cdf()[0]), 1);
    }

    #[test]
    fn rank_to_key_is_a_bijection() {
        let n = 8192;
        let mut seen = vec![false; n];
        for r in 0..n {
            let k = rank_to_key(r, n) as usize;
            assert!(!seen[k]);
            seen[k] = true;
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let u = a.unit_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
