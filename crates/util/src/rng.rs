//! Deterministic pseudo-random number generation.
//!
//! The simulator core must be reproducible bit-for-bit from a seed, so it
//! cannot depend on ambient entropy. SplitMix64 (Steele, Lea & Flood 2014)
//! is tiny, passes BigCrush when used as a 64-bit generator, and is more
//! than random enough for workload address streams and synthetic data.

/// SplitMix64's increment: the odd integer nearest 2⁶⁴ / φ.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function as a stateless hash: one step of the
/// state, then the finalizer's three xor-shift-multiplies, so every input
/// bit flips about half the output bits. [`SplitMix64::next_u64`] is
/// `mix64` of its state.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use cc_util::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire 2019: fast unbiased bounded integers.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derive an independent generator (useful for giving each workload
    /// phase its own stream while staying reproducible from one seed).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(0xDEAD_BEEF);
        let mut b = SplitMix64::new(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn the_stream_is_splitmix64s() {
        // The reference generator's first outputs from seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn seed_zero_is_not_degenerate() {
        let mut r = SplitMix64::new(0);
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.windows(2).all(|w| w[0] != w[1]));
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut r = SplitMix64::new(42);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_hits_all_small_values() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.gen_index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left slice sorted (astronomically unlikely)"
        );
    }

    #[test]
    fn fork_streams_differ() {
        let mut r = SplitMix64::new(5);
        let mut f1 = r.fork();
        let mut f2 = r.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        SplitMix64::new(0).gen_range(0);
    }
}
