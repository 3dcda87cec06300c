//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The spill file's self-verifying extent headers, the batch summaries
//! and the superblock slots need a checksum that is cheap,
//! well-understood, and dependency-free. Two kernels compute it, and
//! [`Crc32::update`] picks one per region:
//!
//! - **carry-less multiply** (x86_64 only, when the CPU reports
//!   `pclmulqdq` and `sse4.1`, for regions of at least 64 bytes): four
//!   128-bit lanes fold 64 input bytes per step, then fold into one lane,
//!   and a Barrett reduction brings that lane down to the 32-bit
//!   register (Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ", Intel 2009). The < 16 bytes a region
//!   leaves over go through the portable kernel;
//! - **portable** slice-by-16: sixteen 256-entry tables built at compile
//!   time (16 KiB), sixteen input bytes folded per step by sixteen
//!   independent lookups, and the classic one-lookup-per-byte loop for
//!   the last ≤ 15 bytes. It is the whole kernel on other targets, on
//!   CPUs without the instructions and on short regions.
//!
//! Both compute the same function. The polynomial, the init value and
//! the xor-out are what is already on disk and do not change.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of the portable kernel.
const STRIDE: usize = 16;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which is what lets
/// one step combine sixteen bytes that are `k = 15..=0` positions from
/// the end of the stride.
static TABLES: [[u32; 256]; STRIDE] = build_tables();

const fn build_tables() -> [[u32; 256]; STRIDE] {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One input byte into the running (pre-xor-out) state.
#[inline(always)]
fn step_byte(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// The four table lookups for little-endian word `w`, whose lowest byte
/// sits `hi` positions from the end of the stride.
#[inline(always)]
fn fold_word(w: u32, hi: usize) -> u32 {
    TABLES[hi][(w & 0xFF) as usize]
        ^ TABLES[hi - 1][((w >> 8) & 0xFF) as usize]
        ^ TABLES[hi - 2][((w >> 16) & 0xFF) as usize]
        ^ TABLES[hi - 3][(w >> 24) as usize]
}

/// CRC-32 of `data` (full message; init `0xFFFF_FFFF`, final xor-out).
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// [`crc32`] on the portable kernel alone, whatever the CPU offers: the
/// baseline the `codec_kernels` bench sets beside the live kernel.
pub fn crc32_portable(data: &[u8]) -> u32 {
    !portable(!0, data)
}

/// The kernel [`Crc32::update`] runs on regions of 64 bytes and more on
/// this CPU: `"pclmulqdq"` or `"portable"`.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        return "pclmulqdq";
    }
    "portable"
}

/// Absorb `data` into the register `state` with the kernel this CPU runs
/// best: the carry-less one for a long enough region where it exists,
/// the portable one otherwise.
fn dispatch(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::detected() {
        // SAFETY: `clmul::update` is safe code compiled for `pclmulqdq`
        // and `sse4.1`, and `detected()` has just found both on this CPU.
        return unsafe { clmul::update(state, data) };
    }
    portable(state, data)
}

/// The slice-by-16 kernel: `data` into the register `state`.
fn portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut strides = data.chunks_exact(STRIDE);
    for s in &mut strides {
        let word = |i: usize| u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]]);
        crc = fold_word(word(0) ^ crc, 15)
            ^ fold_word(word(4), 11)
            ^ fold_word(word(8), 7)
            ^ fold_word(word(12), 3);
    }
    for &b in strides.remainder() {
        crc = step_byte(crc, b);
    }
    crc
}

/// The carry-less-multiply kernel. Each fold multiplies a lane's two
/// 64-bit halves by `x^(d+32) mod P` and `x^(d-32) mod P` (bit-reflected,
/// shifted left one), which carries the lane `d` bits forward, and XORs
/// it into the lane `d` bits on. The constants are zlib's and
/// crc32fast's for `0xEDB88320`; `fold_constants_are_powers_of_x_mod_p`
/// derives them again from [`POLY`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest region the kernel takes: one load of all four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold by four lanes (512 bits): `x^(512+32)`, `x^(512-32)`.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// Fold by one lane (128 bits): `x^(128+32)`, `x^(128-32)`.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// 96 → 64 bits: `x^64`.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// Barrett reduction: `P` and `μ = ⌊x^64 / P⌋`, reflected over 33 bits.
    pub(super) const P_X: i64 = 0x1_DB71_0641;
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Counts the calls that reach the kernel, so a test can tell that
    /// the dispatch took it.
    #[cfg(test)]
    pub(super) static CALLS: std::sync::atomic::AtomicUsize =
        std::sync::atomic::AtomicUsize::new(0);

    /// The CPU has every instruction [`update`] is compiled for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `data` (at least [`MIN_LEN`] bytes) into the register `state`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        #[cfg(test)]
        CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut chunks = data.chunks_exact(MIN_LEN);
        let first = chunks.next().expect("a region of at least MIN_LEN bytes");
        let mut x: [__m128i; 4] = std::array::from_fn(|i| load(&first[16 * i..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for c in &mut chunks {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = fold(*lane, load(&c[16 * i..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut blocks = chunks.remainder().chunks_exact(16);
        for b in &mut blocks {
            acc = fold(acc, load(b), k3k4);
        }

        // 128 → 96 → 64 bits, then Barrett down to the 32-bit register,
        // which the reflected form leaves in bits 32..64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::portable(crc, blocks.remainder())
    }

    /// `a` carried one fold distance forward (`keys`), XOR `b`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The first 16 bytes of `b`, little-endian, as one lane.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8]) -> __m128i {
        let half = |i: usize| i64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }
}

/// Incremental CRC-32 over a message supplied in pieces.
///
/// The spill extent header checksums discontiguous regions (the header
/// prefix and then the payload, with the CRC field itself sitting between
/// them on disk), so the one-shot [`crc32`] is not enough: feed each region
/// with [`Crc32::update`] and read the digest with [`Crc32::finish`].
/// Feeding the same bytes in any split produces the same value as one
/// contiguous [`crc32`] call — the state between calls is the plain
/// 32-bit register, so a region may end anywhere inside a stride.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh digest (init `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Absorb the next region of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.state = dispatch(self.state, data);
    }

    /// Final digest (applies the final xor-out; the hasher may keep
    /// absorbing afterwards — `finish` does not consume it).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel this file shipped before the 16-byte stride: one table
    /// lookup plus one shift per input byte. Every value the strided
    /// kernel produces is checked against it.
    fn crc32_reference(state: u32, data: &[u8]) -> u32 {
        let mut crc = state;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// Both kernels as register → register functions: the portable one
    /// alone, and the dispatch `update` runs, which takes the carry-less
    /// kernel for regions of 64 bytes and more where the CPU has it
    /// (`the_dispatch_takes_the_carry_less_kernel_where_the_cpu_has_it`).
    type Kernel = fn(u32, &[u8]) -> u32;
    const KERNELS: [(&str, Kernel); 2] = [("portable", portable), ("dispatch", dispatch)];

    /// Deterministic filler with no 16-byte period.
    fn filler(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    /// Values printed by the byte-at-a-time build (the commit before the
    /// stride), so the comparison does not rest on this file's own tables.
    #[test]
    fn golden_values_from_the_bytewise_build() {
        let big = filler(4097);
        assert_eq!(crc32(&big), 0xA3CD_D652);
        assert_eq!(crc32(&big[3..1503]), 0x18F7_89CB);
    }

    #[test]
    fn incremental_matches_one_shot_for_every_split() {
        let base: Vec<u8> = (0..129u32).map(|i| (i * 131 % 251) as u8).collect();
        let want = crc32(&base);
        for split in 0..=base.len() {
            let mut h = Crc32::new();
            h.update(&base[..split]);
            h.update(&base[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
        // Three-way split with an empty middle piece.
        let mut h = Crc32::new();
        h.update(&base[..40]);
        h.update(&[]);
        h.update(&base[40..]);
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn any_single_bit_flip_changes_the_crc() {
        let base: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let want = crc32(&base);
        let mut flipped = base.clone();
        for byte in 0..base.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at {byte}:{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
        assert_eq!(flipped, base);
    }

    /// Every length a spilled extent can have (and some), at every
    /// alignment of the slice within its buffer, on each kernel. The
    /// reference state is carried from one length to the next, so the
    /// sweep is linear in it.
    #[test]
    fn matches_the_reference_at_every_length_and_start_offset() {
        const MAX_LEN: usize = 4200;
        let buf = filler(MAX_LEN + STRIDE);
        for (name, kernel) in KERNELS {
            for start in 0..STRIDE {
                let mut want = !0u32;
                for len in 0..=MAX_LEN {
                    assert_eq!(
                        kernel(!0, &buf[start..start + len]),
                        want,
                        "{name}: start {start}, len {len}"
                    );
                    want = crc32_reference(want, &buf[start + len..start + len + 1]);
                }
            }
        }
    }

    /// Regions that begin or end on either side of the carry-less
    /// kernel's 64-byte threshold, its 128-byte second stride and the
    /// 16-byte tail it hands to the portable kernel.
    #[test]
    fn splits_straddling_the_fold_threshold_and_the_tail_match_the_reference() {
        let buf = filler(208);
        for (name, kernel) in KERNELS {
            for len in 48..=buf.len() {
                let want = crc32_reference(!0, &buf[..len]);
                for split in 0..=len {
                    let got = kernel(kernel(!0, &buf[..split]), &buf[split..len]);
                    assert_eq!(got, want, "{name}: len {len}, split at {split}");
                }
            }
        }
    }

    /// A green suite must not mean that only the portable kernel ran.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_dispatch_takes_the_carry_less_kernel_where_the_cpu_has_it() {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            assert_eq!(kernel(), "portable");
            return;
        }
        assert_eq!(kernel(), "pclmulqdq");
        let before = clmul::CALLS.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(crc32(&filler(64)), crc32_portable(&filler(64)));
        assert!(clmul::CALLS.load(std::sync::atomic::Ordering::Relaxed) > before);
    }

    /// The checksum guards every spilled extent both ways, so it stays
    /// under 2 000 ns per 1 500-byte extent (the mean spilled extent):
    /// the fastest of 32 batches of 256 calls. The byte-at-a-time
    /// kernel read ~4 400 ns here, the portable one ~800, the carry-less
    /// one ~100. Timed, so release codegen only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timed: release codegen only")]
    fn crc32_takes_under_2000_ns_per_1500_byte_extent() {
        let buf = filler(1500);
        let ns = (0..32)
            .map(|_| {
                let t0 = std::time::Instant::now();
                for _ in 0..256 {
                    std::hint::black_box(crc32(std::hint::black_box(&buf)));
                }
                t0.elapsed().as_nanos() as f64 / 256.0
            })
            .fold(f64::INFINITY, f64::min);
        println!(
            "crc32: {ns:.0} ns per 1500-byte extent (kernel: {})",
            kernel()
        );
        assert!(ns <= 2_000.0, "crc32 takes {ns:.0} ns per 1500-byte extent");
    }

    /// The fold constants are `x^n mod P` bit-reflected and shifted left
    /// one; μ and `P` are reflected over 33 bits (Gopal et al., 2009).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_mod_p() {
        let p = POLY.reverse_bits() as u64 | 1 << 32;
        let x_pow_mod_p = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= p;
                }
            }
            ((r as u32).reverse_bits() as i64) << 1
        };
        assert_eq!(x_pow_mod_p(4 * 128 + 32), clmul::K1);
        assert_eq!(x_pow_mod_p(4 * 128 - 32), clmul::K2);
        assert_eq!(x_pow_mod_p(128 + 32), clmul::K3);
        assert_eq!(x_pow_mod_p(128 - 32), clmul::K4);
        assert_eq!(x_pow_mod_p(64), clmul::K5);
        // ⌊x^64 / P⌋ by long division, then both reflected over 33 bits.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rem >> (shift + 32) & 1 != 0 {
                rem ^= (p as u128) << shift;
                mu |= 1 << shift;
            }
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(reflect33(mu), clmul::MU);
        assert_eq!(reflect33(p), clmul::P_X);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_the_reference_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..4200usize),
            start in 0..STRIDE,
        ) {
            let data = &data[start.min(data.len())..];
            for (name, kernel) in KERNELS {
                prop_assert_eq!(kernel(!0, data), crc32_reference(!0, data), "{}", name);
            }
        }

        /// The extent header feeds 20 + n bytes in two calls, so a region
        /// must be able to end — and the next to begin — mid-stride.
        #[test]
        fn every_two_and_three_way_split_matches_the_reference(
            data in proptest::collection::vec(any::<u8>(), 0..100usize),
        ) {
            let want = crc32_reference(!0, &data);
            for (name, kernel) in KERNELS {
                for a in 0..=data.len() {
                    for b in a..=data.len() {
                        let got = kernel(kernel(kernel(!0, &data[..a]), &data[a..b]), &data[b..]);
                        prop_assert_eq!(got, want, "{}: splits at {} and {}", name, a, b);
                    }
                }
            }
        }
    }
}
