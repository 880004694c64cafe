//! Cache-line-aligned bit vectors — the storage substrate for the
//! SIMDization pattern (P8) and the 0-escaping optimization (§4.2).
//!
//! A [`BitVec`] stores bits packed into `u64` words inside a buffer aligned
//! to [`crate::CACHE_LINE_BYTES`], so that the SIMD kernels in
//! [`crate::simd`] can use aligned 128/256-bit loads. A [`OneRange`]
//! records a conservative `[first_one, last_one]` word range, which is the
//! bookkeeping the paper's *0-escaping* needs: intersections and population
//! counts may skip words outside the range because they are provably zero.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::ops::Range;

use crate::CACHE_LINE_BYTES;

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// A fixed-capacity, cache-line-aligned bit vector.
///
/// The vector owns `words()` 64-bit words, rounded up so the allocation is
/// a whole number of cache lines. Bit `i` is word `i / 64`, bit `i % 64`
/// (LSB first). All words beyond `len` bits are kept zero — an invariant
/// the population-count kernels rely on and the tests assert.
///
/// ```
/// use also::bits::BitVec;
/// let v = BitVec::from_indices(1000, &[3, 64, 999]);
/// assert_eq!(v.count_ones(), 3);
/// assert!(v.get(64) && !v.get(65));
/// assert_eq!(v.one_range().as_word_span(), 0..16); // words 0..=15
/// ```
pub struct BitVec {
    ptr: *mut u64,
    /// Number of addressable bits.
    len: usize,
    /// Number of allocated words (multiple of words-per-cache-line).
    words: usize,
}

// SAFETY: BitVec owns its buffer exclusively; the raw pointer is never
// aliased outside `&self`/`&mut self` borrows, so moving the value to
// another thread moves sole ownership of the allocation with it.
unsafe impl Send for BitVec {}

// SAFETY: all &self methods only read the buffer (writes require &mut
// self), so concurrent shared access from multiple threads is data-race
// free — the same guarantee a Vec<u64> would derive automatically.
unsafe impl Sync for BitVec {}

impl BitVec {
    /// Creates an all-zero bit vector with room for `len` bits.
    pub fn zeros(len: usize) -> Self {
        let words_needed = len.div_ceil(WORD_BITS);
        let per_line = CACHE_LINE_BYTES / std::mem::size_of::<u64>();
        let words = words_needed.div_ceil(per_line).max(1) * per_line;
        let layout = Self::layout(words);
        // SAFETY: layout has non-zero size (words >= per_line >= 1).
        let ptr = unsafe { alloc_zeroed(layout) } as *mut u64;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        BitVec { ptr, len, words }
    }

    /// Builds a bit vector of `len` bits with the given bit positions set.
    ///
    /// Positions ≥ `len` are ignored (callers pass pre-validated tids).
    pub fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut v = Self::zeros(len);
        for &i in indices {
            if (i as usize) < len {
                v.set(i as usize);
            }
        }
        v
    }

    fn layout(words: usize) -> Layout {
        Layout::from_size_align(words * std::mem::size_of::<u64>(), CACHE_LINE_BYTES)
            .expect("bitvec layout")
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector addresses zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated 64-bit words (a multiple of the words per cache
    /// line; at least one cache line).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The words as a shared slice.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        // SAFETY: ptr is valid for `words` u64s for the life of self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.words) }
    }

    /// The words as a mutable slice.
    #[inline]
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        // SAFETY: ptr is valid for `words` u64s; &mut self guarantees
        // exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.words) }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.as_words_mut()[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.as_words_mut()[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.as_words()[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Population count over the whole vector (portable scalar path).
    pub fn count_ones(&self) -> u64 {
        self.as_words().iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.as_words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// Computes the conservative [`OneRange`] (in *words*) covering every
    /// set bit, scanning from both ends. Empty vectors produce
    /// [`OneRange::EMPTY`].
    pub fn one_range(&self) -> OneRange {
        let ws = self.as_words();
        let first = match ws.iter().position(|&w| w != 0) {
            Some(f) => f,
            None => return OneRange::EMPTY,
        };
        let last = ws.iter().rposition(|&w| w != 0).expect("first exists");
        OneRange {
            first: first as u32,
            last: last as u32,
        }
    }
}

impl Drop for BitVec {
    fn drop(&mut self) {
        // SAFETY: ptr was allocated with exactly this layout in `zeros`.
        unsafe { dealloc(self.ptr as *mut u8, Self::layout(self.words)) }
    }
}

impl Clone for BitVec {
    fn clone(&self) -> Self {
        let mut v = Self::zeros(self.len);
        v.as_words_mut().copy_from_slice(self.as_words());
        v
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(len={}, ones={})", self.len, self.count_ones())
    }
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.as_words()[..self.len.div_ceil(WORD_BITS)]
                == other.as_words()[..other.len.div_ceil(WORD_BITS)]
    }
}
impl Eq for BitVec {}

/// A conservative word-granular range `[first, last]` containing every set
/// bit of a [`BitVec`] — the bookkeeping behind the paper's *0-escaping*
/// (§4.2).
///
/// Ranges are **conservative, not necessarily optimal**: intersecting two
/// ranges when two vectors are ANDed gives a range that still covers every
/// set bit of the result but may be wider than the tight range. That is
/// exactly the trade the paper makes — recomputing tight ranges would cost
/// more than it saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneRange {
    /// First word that may contain a set bit.
    pub first: u32,
    /// Last word that may contain a set bit (inclusive).
    pub last: u32,
}

impl OneRange {
    /// The canonical empty range (`first > last`).
    pub const EMPTY: OneRange = OneRange { first: 1, last: 0 };

    /// `true` when the range certifies the vector is all-zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.first > self.last
    }

    /// Number of words inside the range.
    #[inline]
    pub fn width(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.last - self.first + 1) as usize
        }
    }

    /// The word range as a half-open `Range<usize>` for slicing.
    #[inline]
    pub fn as_word_span(&self) -> Range<usize> {
        if self.is_empty() {
            0..0
        } else {
            self.first as usize..self.last as usize + 1
        }
    }

    /// Intersects two ranges — the update rule applied when two bit vectors
    /// are ANDed.
    #[inline]
    pub fn intersect(&self, other: &OneRange) -> OneRange {
        let first = self.first.max(other.first);
        let last = self.last.min(other.last);
        if first > last {
            OneRange::EMPTY
        } else {
            OneRange { first, last }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_empty_and_aligned() {
        for len in [0usize, 1, 63, 64, 65, 1000, 4096] {
            let v = BitVec::zeros(len);
            assert_eq!(v.len(), len);
            assert_eq!(v.count_ones(), 0);
            assert_eq!(v.as_words().as_ptr() as usize % CACHE_LINE_BYTES, 0);
            assert_eq!(v.words() * 8 % CACHE_LINE_BYTES, 0);
        }
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec::zeros(200);
        for i in (0..200).step_by(3) {
            v.set(i);
        }
        for i in 0..200 {
            assert_eq!(v.get(i), i % 3 == 0, "bit {i}");
        }
        v.clear(0);
        assert!(!v.get(0));
        assert_eq!(v.count_ones(), (0..200).filter(|i| i % 3 == 0).count() as u64 - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitVec::zeros(10).set(10);
    }

    #[test]
    fn from_indices_matches_iter_ones() {
        let idx = [3u32, 9, 64, 65, 127, 128, 199];
        let v = BitVec::from_indices(200, &idx);
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, idx.iter().map(|&i| i as usize).collect::<Vec<_>>());
    }

    #[test]
    fn one_range_tight_on_fresh_vector() {
        let v = BitVec::from_indices(1024, &[130, 700]);
        let r = v.one_range();
        assert_eq!(r.first, 130 / 64);
        assert_eq!(r.last, 700 / 64);
        assert_eq!(r.width(), (700 / 64 - 130 / 64 + 1));
    }

    #[test]
    fn one_range_of_empty_vector() {
        assert!(BitVec::zeros(512).one_range().is_empty());
        assert_eq!(OneRange::EMPTY.width(), 0);
        assert_eq!(OneRange::EMPTY.as_word_span(), 0..0);
    }

    #[test]
    fn range_intersection_rules() {
        let a = OneRange { first: 2, last: 9 };
        let b = OneRange { first: 5, last: 20 };
        assert_eq!(a.intersect(&b), OneRange { first: 5, last: 9 });
        let c = OneRange { first: 10, last: 12 };
        assert!(a.intersect(&c).is_empty());
        assert!(a.intersect(&OneRange::EMPTY).is_empty());
    }

    #[test]
    fn clone_and_eq() {
        let v = BitVec::from_indices(300, &[1, 2, 250]);
        let w = v.clone();
        assert_eq!(v, w);
        let mut x = w.clone();
        x.set(0);
        assert_ne!(v, x);
    }

    #[test]
    fn tail_words_stay_zero() {
        let mut v = BitVec::zeros(65); // 2 words used, padded to a cache line
        v.set(64);
        let used = 65usize.div_ceil(WORD_BITS);
        for w in &v.as_words()[used..] {
            assert_eq!(*w, 0);
        }
    }
}
