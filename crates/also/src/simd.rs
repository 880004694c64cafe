//! **P8 — SIMDization**: vectorized bit-vector intersection and population
//! count, the computation kernel of Eclat-style vertical miners (§3.5,
//! §4.2 of the paper).
//!
//! The paper observes that 98% of Eclat's time is spent ANDing bit vectors
//! and counting the ones in the result, and that the original
//! implementation's *table-lookup* popcount is an indirect load that cannot
//! be SIMDized — so it replaces the lookup with *computation* (a
//! Hacker's-Delight-style bit-sliced count) that vectorizes cleanly.
//!
//! This module provides the full ladder the evaluation compares:
//!
//! * [`Popcount::Table16`] — the FIMI'04 baseline: a 16-bit lookup table;
//! * [`Popcount::Scalar64`] — portable 64-bit computed popcount
//!   (`u64::count_ones`, which compiles to `popcnt` where available);
//! * [`Popcount::Sse2`] — 128-bit SSE2 AND + bit-sliced popcount
//!   (no `popcnt`/SSSE3 needed: this is what a 2006 Pentium D could do);
//! * [`Popcount::Avx2`] — 256-bit AVX2 AND + nibble-shuffle popcount, the
//!   modern extension of the same pattern.
//!
//! Every kernel computes `popcount(a & b)` fused — the AND result is
//! consumed in registers, never written back — and every kernel accepts a
//! word sub-range so the 0-escaping optimization ([`crate::bits::OneRange`])
//! composes with all of them.

use crate::bits::{BitVec, OneRange};

/// Strategy for the fused AND + population-count kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Popcount {
    /// 16-bit table lookup per half-word — the un-SIMDizable baseline used
    /// by the original Eclat implementation.
    Table16,
    /// Portable computed popcount on 64-bit words.
    Scalar64,
    /// SSE2 128-bit vectors with a bit-sliced (shift/mask/add) count.
    Sse2,
    /// AVX2 256-bit vectors with a nibble-shuffle (`vpshufb`) count.
    Avx2,
}

impl Popcount {
    /// All strategies supported on the current CPU, slowest-baseline first.
    pub fn available() -> Vec<Popcount> {
        let mut v = vec![Popcount::Table16, Popcount::Scalar64];
        #[cfg(target_arch = "x86_64")]
        {
            // SSE2 is architecturally guaranteed on x86_64.
            v.push(Popcount::Sse2);
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Popcount::Avx2);
            }
        }
        v
    }

    /// The fastest strategy available on the current CPU. Cached after the
    /// first call so hot kernels can consult it without allocating.
    pub fn best() -> Popcount {
        static BEST: std::sync::OnceLock<Popcount> = std::sync::OnceLock::new();
        *BEST.get_or_init(|| *Popcount::available().last().expect("non-empty"))
    }

    /// Human-readable label used in benchmark reports.
    pub fn label(&self) -> &'static str {
        match self {
            Popcount::Table16 => "table16",
            Popcount::Scalar64 => "scalar64",
            Popcount::Sse2 => "sse2",
            Popcount::Avx2 => "avx2",
        }
    }

    /// `true` if this strategy runs on the current CPU.
    pub fn is_available(&self) -> bool {
        Popcount::available().contains(self)
    }
}

/// The 16-bit population-count lookup table (65,536 entries, 64 KiB).
///
/// Deliberately large — the paper's point is that this table competes with
/// the mined data for cache capacity and its indirect loads cannot be
/// vectorized.
struct Table16 {
    counts: Vec<u8>,
}

impl Table16 {
    fn new() -> Self {
        let mut counts = vec![0u8; 1 << 16];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = (i as u32).count_ones() as u8;
        }
        Table16 { counts }
    }

    #[inline]
    fn count_word(&self, w: u64) -> u64 {
        let t = &self.counts;
        t[(w & 0xFFFF) as usize] as u64
            + t[(w >> 16 & 0xFFFF) as usize] as u64
            + t[(w >> 32 & 0xFFFF) as usize] as u64
            + t[(w >> 48) as usize] as u64
    }
}

fn table16() -> &'static Table16 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Table16> = OnceLock::new();
    TABLE.get_or_init(Table16::new)
}

/// Computes `popcount(a & b)` over the word sub-range `span`, using the
/// given strategy.
///
/// `span` is a *word* range; passing each vector's full word range gives
/// the un-escaped kernel, passing an intersected [`OneRange`] span gives
/// the 0-escaped kernel.
///
/// # Panics
/// Panics if `span` exceeds either vector's allocated words.
// also-lint: hot
pub fn and_count(a: &BitVec, b: &BitVec, span: std::ops::Range<usize>, strategy: Popcount) -> u64 {
    let aw = &a.as_words()[span.clone()];
    let bw = &b.as_words()[span];
    and_count_words(aw, bw, strategy)
}

/// Computes `popcount(a & b)` over two equal-length word slices.
///
/// ```
/// use also::simd::{and_count_words, Popcount};
/// let a = [0b1011u64, u64::MAX];
/// let b = [0b0011u64, u64::MAX];
/// for s in Popcount::available() {
///     assert_eq!(and_count_words(&a, &b, s), 2 + 64);
/// }
/// ```
///
/// # Panics
/// Panics if the slices differ in length, or if the strategy is not
/// available on the current CPU.
// also-lint: hot
pub fn and_count_words(a: &[u64], b: &[u64], strategy: Popcount) -> u64 {
    assert_eq!(a.len(), b.len(), "word slices must match");
    match strategy {
        Popcount::Table16 => and_count_table16(a, b),
        Popcount::Scalar64 => and_count_scalar(a, b),
        Popcount::Sse2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: SSE2 is guaranteed on x86_64.
                unsafe { x86::and_count_sse2(a, b) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            panic!("SSE2 kernel unavailable on this architecture")
        }
        Popcount::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "AVX2 not available on this CPU"
                );
                // SAFETY: AVX2 presence just checked.
                unsafe { x86::and_count_avx2(a, b) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            panic!("AVX2 kernel unavailable on this architecture")
        }
    }
}

/// Computes `a & b` into `out` and returns the population count of the
/// result, over `span` words. Words of `out` **outside** `span` are zeroed
/// by the caller's contract (use on freshly zeroed vectors or full spans).
///
/// This is the materializing variant used when the result vector is needed
/// for deeper recursion levels (Eclat keeps the intersected tidset).
// also-lint: hot
pub fn and_into_count(
    a: &BitVec,
    b: &BitVec,
    out: &mut BitVec,
    span: std::ops::Range<usize>,
    strategy: Popcount,
) -> u64 {
    let aw = &a.as_words()[span.clone()];
    let bw = &b.as_words()[span.clone()];
    let ow = &mut out.as_words_mut()[span];
    match strategy {
        Popcount::Table16 => {
            let t = table16();
            let mut total = 0u64;
            for ((o, &x), &y) in ow.iter_mut().zip(aw).zip(bw) {
                let w = x & y;
                *o = w;
                total += t.count_word(w);
            }
            total
        }
        _ => {
            // The vector strategies materialize with scalar stores and then
            // count with the vector kernel; on every tested CPU this fused
            // loop is store-bound, so one pass is enough.
            let mut total = 0u64;
            for ((o, &x), &y) in ow.iter_mut().zip(aw).zip(bw) {
                let w = x & y;
                *o = w;
                total += w.count_ones() as u64;
            }
            total
        }
    }
}

// also-lint: hot
fn and_count_table16(a: &[u64], b: &[u64]) -> u64 {
    let t = table16();
    a.iter().zip(b).map(|(&x, &y)| t.count_word(x & y)).sum()
}

// also-lint: hot
fn and_count_scalar(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones() as u64).sum()
}

/// Intersects `a & b` within the conservative range produced by
/// intersecting the operands' 1-ranges, returning the popcount — the full
/// 0-escaped kernel of §4.2. Returns 0 without touching memory when the
/// intersected range is empty.
// also-lint: hot
pub fn and_count_escaped(
    a: &BitVec,
    ra: &OneRange,
    b: &BitVec,
    rb: &OneRange,
    strategy: Popcount,
) -> u64 {
    let r = ra.intersect(rb);
    if r.is_empty() {
        return 0;
    }
    and_count(a, b, r.as_word_span(), strategy)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The x86-64 intrinsic kernels. All functions take equal-length word
    //! slices (checked by the public wrappers).

    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// SSE2 fused AND + bit-sliced popcount.
    ///
    /// The count uses the classic shift/mask/add reduction (Hacker's
    /// Delight fig. 5-2) entirely in 128-bit registers — the "use
    /// computations to count the frequency of ones" transformation the
    /// paper applies, expressible with nothing newer than SSE2.
    ///
    /// # Safety
    /// Caller must ensure SSE2 (always true on x86_64) and
    /// `a.len() == b.len()`.
    // also-lint: hot
    #[target_feature(enable = "sse2")]
    pub unsafe fn and_count_sse2(a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 2;
        let mut total: u64 = 0;
        // SAFETY: all pointer arithmetic stays within the slices; loads are
        // unaligned-tolerant (`loadu`) because 0-escaping spans start at
        // arbitrary word offsets.
        unsafe {
            let pa = a.as_ptr() as *const __m128i;
            let pb = b.as_ptr() as *const __m128i;
            let m1 = _mm_set1_epi8(0x55u8 as i8);
            let m2 = _mm_set1_epi8(0x33u8 as i8);
            let m4 = _mm_set1_epi8(0x0Fu8 as i8);
            let zero = _mm_setzero_si128();
            let mut i = 0;
            while i < chunks {
                // Accumulate up to 31 iterations of byte-wise counts before
                // widening, to amortize the horizontal reduction (each byte
                // holds <= 8, sad accumulates across 8 bytes: safe up to 31).
                let block_end = (i + 31).min(chunks);
                let mut acc = _mm_setzero_si128();
                while i < block_end {
                    let v = _mm_and_si128(_mm_loadu_si128(pa.add(i)), _mm_loadu_si128(pb.add(i)));
                    // Bit-sliced per-byte popcount.
                    let v = _mm_sub_epi8(v, _mm_and_si128(_mm_srli_epi64::<1>(v), m1));
                    let v = _mm_add_epi8(
                        _mm_and_si128(v, m2),
                        _mm_and_si128(_mm_srli_epi64::<2>(v), m2),
                    );
                    let v = _mm_and_si128(_mm_add_epi8(v, _mm_srli_epi64::<4>(v)), m4);
                    acc = _mm_add_epi8(acc, v);
                    i += 1;
                }
                // Horizontal add of 16 bytes into two u64 lanes, then out.
                let sums = _mm_sad_epu8(acc, zero);
                total += _mm_cvtsi128_si64(sums) as u64;
                total += _mm_cvtsi128_si64(_mm_unpackhi_epi64(sums, sums)) as u64;
            }
        }
        // Tail word (odd length).
        for k in chunks * 2..n {
            total += (a[k] & b[k]).count_ones() as u64;
        }
        total
    }

    /// AVX2 fused AND + nibble-shuffle popcount (Mula's method).
    ///
    /// # Safety
    /// Caller must ensure AVX2 and `a.len() == b.len()`.
    // also-lint: hot
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_count_avx2(a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 4;
        let mut total: u64 = 0;
        // SAFETY: same containment argument as the SSE2 kernel.
        unsafe {
            let pa = a.as_ptr() as *const __m256i;
            let pb = b.as_ptr() as *const __m256i;
            let nibble_counts = _mm256_setr_epi8(
                0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                3, 2, 3, 3, 4,
            );
            let low_mask = _mm256_set1_epi8(0x0F);
            let zero = _mm256_setzero_si256();
            let mut i = 0;
            while i < chunks {
                let block_end = (i + 31).min(chunks);
                let mut acc = _mm256_setzero_si256();
                while i < block_end {
                    let v = _mm256_and_si256(
                        _mm256_loadu_si256(pa.add(i)),
                        _mm256_loadu_si256(pb.add(i)),
                    );
                    let lo = _mm256_and_si256(v, low_mask);
                    let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), low_mask);
                    let cnt = _mm256_add_epi8(
                        _mm256_shuffle_epi8(nibble_counts, lo),
                        _mm256_shuffle_epi8(nibble_counts, hi),
                    );
                    acc = _mm256_add_epi8(acc, cnt);
                    i += 1;
                }
                let sums = _mm256_sad_epu8(acc, zero);
                let lo128 = _mm256_castsi256_si128(sums);
                let hi128 = _mm256_extracti128_si256::<1>(sums);
                total += _mm_cvtsi128_si64(lo128) as u64;
                total += _mm_cvtsi128_si64(_mm_unpackhi_epi64(lo128, lo128)) as u64;
                total += _mm_cvtsi128_si64(hi128) as u64;
                total += _mm_cvtsi128_si64(_mm_unpackhi_epi64(hi128, hi128)) as u64;
            }
        }
        for k in chunks * 4..n {
            total += (a[k] & b[k]).count_ones() as u64;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_words(n: usize, seed: u64) -> Vec<u64> {
        // Small xorshift so the test has no external deps.
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    fn reference(a: &[u64], b: &[u64]) -> u64 {
        a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones() as u64).sum()
    }

    #[test]
    fn all_strategies_agree_on_random_words() {
        for n in [0usize, 1, 2, 3, 7, 8, 31, 32, 33, 63, 64, 65, 200, 1000] {
            let a = rng_words(n, 42);
            let b = rng_words(n, 4242);
            let expect = reference(&a, &b);
            for s in Popcount::available() {
                assert_eq!(and_count_words(&a, &b, s), expect, "{} n={n}", s.label());
            }
        }
    }

    #[test]
    fn strategies_agree_on_extremes() {
        for n in [5usize, 64, 129] {
            let ones = vec![u64::MAX; n];
            let zeros = vec![0u64; n];
            for s in Popcount::available() {
                assert_eq!(and_count_words(&ones, &ones, s), 64 * n as u64);
                assert_eq!(and_count_words(&ones, &zeros, s), 0);
            }
        }
    }

    #[test]
    fn long_accumulation_does_not_overflow_byte_lanes() {
        // > 31 SIMD chunks of all-ones exercises the block-accumulator
        // widening logic in both vector kernels.
        let n = 4 * 200 + 3;
        let ones = vec![u64::MAX; n];
        for s in Popcount::available() {
            assert_eq!(and_count_words(&ones, &ones, s), 64 * n as u64, "{}", s.label());
        }
    }

    #[test]
    fn escaped_equals_full() {
        let a = BitVec::from_indices(2048, &[100, 700, 701, 1500]);
        let b = BitVec::from_indices(2048, &[100, 701, 1600]);
        let full = and_count(&a, &b, 0..a.words().min(b.words()), Popcount::Scalar64);
        for s in Popcount::available() {
            let esc = and_count_escaped(&a, &a.one_range(), &b, &b.one_range(), s);
            assert_eq!(esc, full, "{}", s.label());
        }
        assert_eq!(full, 2);
    }

    #[test]
    fn escaped_disjoint_ranges_short_circuit() {
        let a = BitVec::from_indices(4096, &[10]);
        let b = BitVec::from_indices(4096, &[4000]);
        assert_eq!(
            and_count_escaped(&a, &a.one_range(), &b, &b.one_range(), Popcount::Scalar64),
            0
        );
    }

    #[test]
    fn and_into_count_materializes_and_counts() {
        let a = BitVec::from_indices(512, &[1, 64, 65, 300]);
        let b = BitVec::from_indices(512, &[1, 65, 300, 301]);
        for s in Popcount::available() {
            let mut out = BitVec::zeros(512);
            let n = and_into_count(&a, &b, &mut out, 0..a.words(), s);
            assert_eq!(n, 3);
            assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![1, 65, 300]);
        }
    }

    #[test]
    fn unaligned_spans_work() {
        // 0-escaping spans start at arbitrary word offsets; vector loads
        // must tolerate 8-byte (not 16/32-byte) alignment.
        let a = BitVec::from_indices(4096, &(0..4096).step_by(3).map(|x| x as u32).collect::<Vec<_>>());
        let b = BitVec::from_indices(4096, &(0..4096).step_by(5).map(|x| x as u32).collect::<Vec<_>>());
        for start in [1usize, 3, 5, 7] {
            let span = start..a.words();
            let expect = and_count(&a, &b, span.clone(), Popcount::Scalar64);
            for s in Popcount::available() {
                assert_eq!(and_count(&a, &b, span.clone(), s), expect, "{}", s.label());
            }
        }
    }

    #[test]
    fn best_is_available() {
        assert!(Popcount::best().is_available());
        assert!(!Popcount::available().is_empty());
    }

    #[test]
    fn table16_counts_every_halfword_correctly() {
        // Spot-check the table against u32::count_ones on a stratified set.
        for w in [0u64, 1, 0xFFFF, 0x1_0000, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(
                and_count_words(&[w], &[u64::MAX], Popcount::Table16),
                w.count_ones() as u64
            );
        }
    }
}
