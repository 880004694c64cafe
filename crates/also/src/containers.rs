//! Roaring-style **adaptive containers** for the vertical path — the
//! modern extension of P2 (data-structure adaptation, §3.3) that replaces
//! one global dense-vs-sparse pick with a *per-chunk* choice.
//!
//! A [`TidSet`] holds transaction ids (u32) partitioned into chunks of
//! 2^16 consecutive ids (the high 16 bits are the chunk key). Each chunk
//! stores its low 16 bits in whichever [`Container`] is cheapest for its
//! local density:
//!
//! * **Array** — a sorted `Vec<u16>`, for sparse chunks
//!   (≤ [`ARRAY_MAX`] elements, 2 bytes each);
//! * **Bitmap** — 1024 words of 64 bits, for dense chunks (fixed 8 KiB,
//!   word-wise SIMD-friendly set ops);
//! * **Runs** — sorted intervals, for clustered chunks (4 bytes per run —
//!   the shape lexicographic ordering (P1) produces on purpose).
//!
//! The decision rules (thresholds, promotion/demotion **hysteresis**)
//! live in [`crate::adapt`]; this module is the mechanism. Pairwise
//! AND/OR/ANDNOT are implemented across **all nine container pairs**
//! (galloping array∩array for skewed operands, word-wise bitmap∩bitmap,
//! array-probe-into-bitmap, run merges), plus a k-way [`TidSet::multi_and`]
//! that intersects several sets in one pass over preallocated scratch —
//! the FastLMFI-style backbone for deep Eclat recursions.
//!
//! Everything here is deterministic: chunks are kept sorted by key,
//! arrays sorted ascending, and container choice is a pure function of
//! content — two sets with equal elements built the same way have equal
//! layout, and iteration order is always ascending tid order.

use crate::adapt::{choose_container, should_demote, should_promote, ContainerKind, ARRAY_MAX};

/// Bits of a tid addressing *within* a chunk.
pub const CHUNK_BITS: u32 = 16;

/// Number of tids spanned by one chunk (2^16).
pub const CHUNK_SPAN: u32 = 1 << CHUNK_BITS;

/// 64-bit words in a bitmap container (2^16 bits).
pub const BITMAP_WORDS: usize = 1024;

/// A maximal interval of present values inside one chunk: covers
/// `start ..= start + len` (so `len` is the run length **minus one**,
/// letting a single run span a full chunk: `{start: 0, len: 65535}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First value of the interval.
    pub start: u16,
    /// Interval length minus one (inclusive end is `start + len`).
    pub len: u16,
}

impl Run {
    #[inline]
    fn end(&self) -> u32 {
        self.start as u32 + self.len as u32
    }

    #[inline]
    fn card(&self) -> u32 {
        self.len as u32 + 1
    }
}

/// One chunk's storage: the three roaring container shapes.
///
/// Invariants (maintained by every constructor and operation):
/// * `Array` is sorted ascending with no duplicates and holds at most
///   [`ARRAY_MAX`] values — except transiently inside the hysteresis band
///   (a bitmap demotes back to array only below the *demote* threshold).
/// * `Bitmap` caches its exact cardinality.
/// * `Runs` is sorted, non-overlapping, non-adjacent (maximal runs).
/// * No container is empty (empty chunks are removed from the set).
#[derive(Debug, Clone)]
pub enum Container {
    /// Sorted array of low-16-bit values.
    Array(Vec<u16>),
    /// 2^16-bit bitmap plus cached cardinality.
    Bitmap(Box<[u64; BITMAP_WORDS]>, u32),
    /// Sorted maximal intervals.
    Runs(Vec<Run>),
}

impl Container {
    /// Which of the three shapes this container currently uses.
    pub fn kind(&self) -> ContainerKind {
        match self {
            Container::Array(_) => ContainerKind::Array,
            Container::Bitmap(..) => ContainerKind::Bitmap,
            Container::Runs(_) => ContainerKind::Runs,
        }
    }

    /// Number of values stored.
    pub fn cardinality(&self) -> u32 {
        match self {
            Container::Array(a) => a.len() as u32,
            Container::Bitmap(_, card) => *card,
            Container::Runs(rs) => rs.iter().map(Run::card).sum(),
        }
    }

    /// The sorted array view, when this is an array container.
    pub fn as_array(&self) -> Option<&[u16]> {
        match self {
            Container::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The bitmap words, when this is a bitmap container.
    pub fn as_bitmap(&self) -> Option<&[u64; BITMAP_WORDS]> {
        match self {
            Container::Bitmap(w, _) => Some(w),
            _ => None,
        }
    }

    /// The run list, when this is a run container.
    pub fn as_runs(&self) -> Option<&[Run]> {
        match self {
            Container::Runs(r) => Some(r),
            _ => None,
        }
    }

    /// Heap bytes used by this container's storage.
    pub fn bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.len() * 2,
            Container::Bitmap(..) => BITMAP_WORDS * 8 + 4,
            Container::Runs(rs) => rs.len() * 4,
        }
    }

    /// Membership test for a low-16-bit value.
    pub fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&v).is_ok(),
            Container::Bitmap(w, _) => w[v as usize / 64] >> (v % 64) & 1 == 1,
            Container::Runs(rs) => match rs.binary_search_by_key(&v, |r| r.start) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => rs[i - 1].end() >= v as u32,
            },
        }
    }

    /// Number of stored values `<= v`.
    pub fn rank(&self, v: u16) -> u32 {
        match self {
            Container::Array(a) => a.partition_point(|&x| x <= v) as u32,
            Container::Bitmap(w, _) => {
                let wi = v as usize / 64;
                let full: u32 = w[..wi].iter().map(|x| x.count_ones()).sum();
                let mask = if v % 64 == 63 { u64::MAX } else { (1u64 << (v % 64 + 1)) - 1 };
                full + (w[wi] & mask).count_ones()
            }
            Container::Runs(rs) => {
                let mut n = 0u32;
                for r in rs {
                    if r.start > v {
                        break;
                    }
                    n += (v as u32).min(r.end()) - r.start as u32 + 1;
                }
                n
            }
        }
    }

    /// Iterator over stored values, ascending.
    pub fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(a) => ContainerIter::Array(a.iter()),
            Container::Bitmap(w, _) => ContainerIter::Bitmap {
                words: w,
                wi: 0,
                cur: w[0],
            },
            Container::Runs(rs) => ContainerIter::Runs {
                runs: rs.iter(),
                cur: None,
            },
        }
    }

    /// Builds from sorted unique values, choosing array vs bitmap by
    /// cardinality (runs are only chosen by [`Container::optimize`]).
    fn from_sorted(vals: &[u16]) -> Container {
        debug_assert!(vals.windows(2).all(|w| w[0] < w[1]), "values must be sorted unique");
        if vals.len() > ARRAY_MAX {
            let mut words = new_bitmap();
            for &v in vals {
                words[v as usize / 64] |= 1u64 << (v % 64);
            }
            Container::Bitmap(words, vals.len() as u32)
        } else {
            Container::Array(vals.to_vec())
        }
    }

    /// Counts the maximal runs of this container's content.
    fn count_runs(&self) -> u32 {
        match self {
            Container::Runs(rs) => rs.len() as u32,
            _ => {
                let mut runs = 0u32;
                let mut prev: i64 = -2;
                for v in self.iter() {
                    if v as i64 != prev + 1 {
                        runs += 1;
                    }
                    prev = v as i64;
                }
                runs
            }
        }
    }

    /// Re-chooses the cheapest shape for the current content using the
    /// static rule [`choose_container`] (this is where run containers are
    /// adopted).
    pub fn optimize(&mut self) {
        let card = self.cardinality() as usize;
        let runs = self.count_runs() as usize;
        let want = choose_container(card, runs);
        if want == self.kind() {
            return;
        }
        *self = match want {
            ContainerKind::Array => Container::Array(self.iter().collect()),
            ContainerKind::Bitmap => {
                let mut words = new_bitmap();
                for v in self.iter() {
                    words[v as usize / 64] |= 1u64 << (v % 64);
                }
                Container::Bitmap(words, card as u32)
            }
            ContainerKind::Runs => {
                let mut rs: Vec<Run> = Vec::with_capacity(runs);
                for v in self.iter() {
                    match rs.last_mut() {
                        Some(r) if r.end() + 1 == v as u32 => r.len += 1,
                        _ => rs.push(Run { start: v, len: 0 }),
                    }
                }
                Container::Runs(rs)
            }
        };
    }

    /// Rewrites a run container as array or bitmap (by cardinality) so it
    /// can be mutated in place. No-op for the other shapes.
    fn materialize(&mut self) {
        if let Container::Runs(rs) = self {
            let card: u32 = rs.iter().map(Run::card).sum();
            if card as usize > ARRAY_MAX {
                let mut words = new_bitmap();
                for r in rs.iter() {
                    set_run(&mut words, r);
                }
                *self = Container::Bitmap(words, card);
            } else {
                let mut a: Vec<u16> = Vec::with_capacity(card as usize);
                for r in rs.iter() {
                    for v in r.start as u32..=r.end() {
                        a.push(v as u16);
                    }
                }
                *self = Container::Array(a);
            }
        }
    }
}

/// Iterator over a single container's values (ascending).
pub enum ContainerIter<'a> {
    /// Array walk.
    Array(std::slice::Iter<'a, u16>),
    /// Bitmap bit scan.
    Bitmap {
        /// The 1024 bitmap words.
        words: &'a [u64; BITMAP_WORDS],
        /// Current word index.
        wi: usize,
        /// Remaining bits of the current word.
        cur: u64,
    },
    /// Run expansion.
    Runs {
        /// Remaining runs.
        runs: std::slice::Iter<'a, Run>,
        /// Current `(next, end)` interval being expanded.
        cur: Option<(u32, u32)>,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bitmap { words, wi, cur } => loop {
                if *cur != 0 {
                    let b = cur.trailing_zeros() as usize;
                    *cur &= *cur - 1;
                    return Some((*wi * 64 + b) as u16);
                }
                if *wi + 1 >= BITMAP_WORDS {
                    return None;
                }
                *wi += 1;
                *cur = words[*wi];
            },
            ContainerIter::Runs { runs, cur } => {
                if cur.is_none() {
                    let r = runs.next()?;
                    *cur = Some((r.start as u32, r.end()));
                }
                let (next, end) = cur.take().unwrap_or((1, 0));
                if next < end {
                    *cur = Some((next + 1, end));
                }
                Some(next as u16)
            }
        }
    }
}

#[inline]
fn new_bitmap() -> Box<[u64; BITMAP_WORDS]> {
    vec![0u64; BITMAP_WORDS]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("vec built with BITMAP_WORDS words"))
}

/// Sets every bit of `r` in `words`.
fn set_run(words: &mut [u64; BITMAP_WORDS], r: &Run) {
    let (lo, hi) = (r.start as usize, r.end() as usize);
    let (wl, wh) = (lo / 64, hi / 64);
    let lmask = u64::MAX << (lo % 64);
    let hmask = if hi % 64 == 63 { u64::MAX } else { (1u64 << (hi % 64 + 1)) - 1 };
    if wl == wh {
        words[wl] |= lmask & hmask;
    } else {
        words[wl] |= lmask;
        for w in &mut words[wl + 1..wh] {
            *w = u64::MAX;
        }
        words[wh] |= hmask;
    }
}

/// Counts the set bits of `words` inside the interval `r`.
fn bitmap_count_in_run(words: &[u64; BITMAP_WORDS], r: &Run) -> u32 {
    let (lo, hi) = (r.start as usize, r.end() as usize);
    let (wl, wh) = (lo / 64, hi / 64);
    let lmask = u64::MAX << (lo % 64);
    let hmask = if hi % 64 == 63 { u64::MAX } else { (1u64 << (hi % 64 + 1)) - 1 };
    if wl == wh {
        (words[wl] & lmask & hmask).count_ones()
    } else {
        (words[wl] & lmask).count_ones()
            + words[wl + 1..wh].iter().map(|w| w.count_ones()).sum::<u32>()
            + (words[wh] & hmask).count_ones()
    }
}

/// Clears every bit of `r` in `words`, returning how many were set.
fn clear_run(words: &mut [u64; BITMAP_WORDS], r: &Run) -> u32 {
    let (lo, hi) = (r.start as usize, r.end() as usize);
    let (wl, wh) = (lo / 64, hi / 64);
    let lmask = u64::MAX << (lo % 64);
    let hmask = if hi % 64 == 63 { u64::MAX } else { (1u64 << (hi % 64 + 1)) - 1 };
    let mut cleared = 0u32;
    if wl == wh {
        let m = lmask & hmask;
        cleared += (words[wl] & m).count_ones();
        words[wl] &= !m;
    } else {
        cleared += (words[wl] & lmask).count_ones();
        words[wl] &= !lmask;
        for w in &mut words[wl + 1..wh] {
            cleared += w.count_ones();
            *w = 0;
        }
        cleared += (words[wh] & hmask).count_ones();
        words[wh] &= !hmask;
    }
    cleared
}

// ---------------------------------------------------------------------------
// Chunk kernels — the hot, allocation-free inner loops. Outputs are
// caller-preallocated slices; every kernel returns the number of values
// (or the cardinality) written. These are the functions the
// `crates/eclat/tests/hot_loops.rs` alloc-guard battery pins.
// ---------------------------------------------------------------------------

/// Ratio at which a skewed array∩array switches from the linear merge to
/// the galloping probe: gallop when `small.len() * GALLOP_RATIO < large.len()`.
pub const GALLOP_RATIO: usize = 16;

/// Intersects two sorted u16 arrays into `out`, returning the count.
/// Dispatches to the galloping kernel when the lengths are skewed.
///
/// # Panics
/// Panics if `out` is shorter than `min(a.len(), b.len())`.
// also-lint: hot
pub fn array_and_into(a: &[u16], b: &[u16], out: &mut [u16]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * GALLOP_RATIO < large.len() {
        return array_and_gallop_into(small, large, out);
    }
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < small.len() && j < large.len() {
        let (x, y) = (small[i], large[j]);
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            out[k] = x;
            k += 1;
            i += 1;
            j += 1;
        }
    }
    k
}

/// Galloping (exponential-search) intersection of a small sorted array
/// against a much larger one — each probe doubles its stride from the
/// last match position, then binary-searches the bracketed window.
///
/// # Panics
/// Panics if `out` is shorter than `small.len()`.
// also-lint: hot
pub fn array_and_gallop_into(small: &[u16], large: &[u16], out: &mut [u16]) -> usize {
    let mut k = 0usize;
    let mut lo = 0usize;
    for &x in small {
        // Gallop: find the window [lo + step/2, lo + step] containing x.
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step] < x {
            step <<= 1;
        }
        let hi = (lo + step + 1).min(large.len());
        match large[lo..hi].binary_search(&x) {
            Ok(p) => {
                out[k] = x;
                k += 1;
                lo += p + 1;
            }
            Err(p) => lo += p,
        }
        if lo >= large.len() {
            break;
        }
    }
    k
}

/// Unions two sorted u16 arrays into `out`, returning the count.
///
/// # Panics
/// Panics if `out` is shorter than `a.len() + b.len()`.
// also-lint: hot
pub fn array_or_into(a: &[u16], b: &[u16], out: &mut [u16]) -> usize {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            out[k] = x;
            i += 1;
        } else if y < x {
            out[k] = y;
            j += 1;
        } else {
            out[k] = x;
            i += 1;
            j += 1;
        }
        k += 1;
    }
    while i < a.len() {
        out[k] = a[i];
        i += 1;
        k += 1;
    }
    while j < b.len() {
        out[k] = b[j];
        j += 1;
        k += 1;
    }
    k
}

/// Computes `a − b` over sorted u16 arrays into `out`, returning the count.
///
/// # Panics
/// Panics if `out` is shorter than `a.len()`.
// also-lint: hot
pub fn array_andnot_into(a: &[u16], b: &[u16], out: &mut [u16]) -> usize {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out[k] = a[i];
            k += 1;
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    k
}

/// Probes each array value against a bitmap, keeping members — the
/// array-probe-into-bitmap AND.
///
/// # Panics
/// Panics if `out` is shorter than `arr.len()`.
// also-lint: hot
pub fn array_bitmap_and_into(arr: &[u16], bm: &[u64; BITMAP_WORDS], out: &mut [u16]) -> usize {
    let mut k = 0usize;
    for &v in arr {
        if bm[v as usize / 64] >> (v % 64) & 1 == 1 {
            out[k] = v;
            k += 1;
        }
    }
    k
}

/// Probes each array value against a bitmap, keeping **non**-members
/// (`arr − bm`).
///
/// # Panics
/// Panics if `out` is shorter than `arr.len()`.
// also-lint: hot
pub fn array_bitmap_andnot_into(arr: &[u16], bm: &[u64; BITMAP_WORDS], out: &mut [u16]) -> usize {
    let mut k = 0usize;
    for &v in arr {
        if bm[v as usize / 64] >> (v % 64) & 1 == 0 {
            out[k] = v;
            k += 1;
        }
    }
    k
}

/// Word-wise bitmap AND into `out`, returning the result cardinality.
// also-lint: hot
pub fn bitmap_and_into(
    a: &[u64; BITMAP_WORDS],
    b: &[u64; BITMAP_WORDS],
    out: &mut [u64; BITMAP_WORDS],
) -> u32 {
    let mut card = 0u32;
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        let w = x & y;
        *o = w;
        card += w.count_ones();
    }
    card
}

/// In-place bitmap AND (`acc &= b`), returning the result cardinality —
/// the k-way fold step.
// also-lint: hot
pub fn bitmap_and_inplace(acc: &mut [u64; BITMAP_WORDS], b: &[u64; BITMAP_WORDS]) -> u32 {
    let mut card = 0u32;
    for (x, &y) in acc.iter_mut().zip(b.iter()) {
        *x &= y;
        card += x.count_ones();
    }
    card
}

/// Count-only bitmap AND, routed through the P8 SIMD popcount ladder
/// ([`crate::simd::and_count_words`]) with the best available strategy.
// also-lint: hot
pub fn bitmap_and_count(a: &[u64; BITMAP_WORDS], b: &[u64; BITMAP_WORDS]) -> u32 {
    crate::simd::and_count_words(&a[..], &b[..], crate::simd::Popcount::best()) as u32
}

/// Word-wise bitmap OR into `out`, returning the result cardinality.
// also-lint: hot
pub fn bitmap_or_into(
    a: &[u64; BITMAP_WORDS],
    b: &[u64; BITMAP_WORDS],
    out: &mut [u64; BITMAP_WORDS],
) -> u32 {
    let mut card = 0u32;
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        let w = x | y;
        *o = w;
        card += w.count_ones();
    }
    card
}

/// Word-wise bitmap ANDNOT (`a & !b`) into `out`, returning the result
/// cardinality.
// also-lint: hot
pub fn bitmap_andnot_into(
    a: &[u64; BITMAP_WORDS],
    b: &[u64; BITMAP_WORDS],
    out: &mut [u64; BITMAP_WORDS],
) -> u32 {
    let mut card = 0u32;
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        let w = x & !y;
        *o = w;
        card += w.count_ones();
    }
    card
}

/// Intersects a sorted array with a run list into `out` (two-pointer over
/// intervals), returning the count.
///
/// # Panics
/// Panics if `out` is shorter than `arr.len()`.
// also-lint: hot
pub fn array_runs_and_into(arr: &[u16], runs: &[Run], out: &mut [u16]) -> usize {
    let (mut k, mut ri) = (0usize, 0usize);
    for &v in arr {
        while ri < runs.len() && runs[ri].end() < v as u32 {
            ri += 1;
        }
        if ri >= runs.len() {
            break;
        }
        if runs[ri].start <= v {
            out[k] = v;
            k += 1;
        }
    }
    k
}

/// Keeps the array values **outside** every run (`arr − runs`).
///
/// # Panics
/// Panics if `out` is shorter than `arr.len()`.
// also-lint: hot
pub fn array_runs_andnot_into(arr: &[u16], runs: &[Run], out: &mut [u16]) -> usize {
    let (mut k, mut ri) = (0usize, 0usize);
    for &v in arr {
        while ri < runs.len() && runs[ri].end() < v as u32 {
            ri += 1;
        }
        if ri >= runs.len() || runs[ri].start > v {
            out[k] = v;
            k += 1;
        }
    }
    k
}

/// Zeroes every bitmap bit outside the run list (in-place run∩bitmap),
/// returning the surviving cardinality.
pub fn bitmap_retain_runs(bm: &mut [u64; BITMAP_WORDS], runs: &[Run]) -> u32 {
    // Walk gaps between runs, clearing each.
    let mut next_free = 0u32; // first value not yet accounted for
    for r in runs {
        if (r.start as u32) > next_free {
            clear_run(
                bm,
                &Run {
                    start: next_free as u16,
                    len: (r.start as u32 - next_free - 1) as u16,
                },
            );
        }
        next_free = r.end() + 1;
        if next_free == CHUNK_SPAN {
            break;
        }
    }
    if next_free < CHUNK_SPAN {
        clear_run(
            bm,
            &Run {
                start: next_free as u16,
                len: (CHUNK_SPAN - next_free - 1) as u16,
            },
        );
    }
    bm.iter().map(|w| w.count_ones()).sum()
}

/// Intersects two run lists into `out` (interval walk).
pub fn runs_and(a: &[Run], b: &[Run], out: &mut Vec<Run>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].start.max(b[j].start) as u32;
        let hi = a[i].end().min(b[j].end());
        if lo <= hi {
            out.push(Run {
                start: lo as u16,
                len: (hi - lo) as u16,
            });
        }
        if a[i].end() <= b[j].end() {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Unions two run lists into `out` (interval merge, coalescing adjacency).
pub fn runs_or(a: &[Run], b: &[Run], out: &mut Vec<Run>) {
    let (mut i, mut j) = (0usize, 0usize);
    let push = |out: &mut Vec<Run>, lo: u32, hi: u32| match out.last_mut() {
        Some(last) if last.end() + 1 >= lo => {
            if hi > last.end() {
                last.len = (hi - last.start as u32) as u16;
            }
        }
        _ => out.push(Run {
            start: lo as u16,
            len: (hi - lo) as u16,
        }),
    };
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i].start <= b[j].start);
        let r = if take_a { &a[i] } else { &b[j] };
        push(out, r.start as u32, r.end());
        if take_a {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Subtracts run list `b` from `a` into `out` (interval subtraction).
pub fn runs_andnot(a: &[Run], b: &[Run], out: &mut Vec<Run>) {
    let mut j = 0usize;
    for ra in a {
        let mut lo = ra.start as u32;
        let hi = ra.end();
        while j < b.len() && b[j].end() < lo {
            j += 1;
        }
        let mut jj = j;
        while lo <= hi {
            if jj >= b.len() || b[jj].start as u32 > hi {
                out.push(Run {
                    start: lo as u16,
                    len: (hi - lo) as u16,
                });
                break;
            }
            let (blo, bhi) = (b[jj].start as u32, b[jj].end());
            if blo > lo {
                out.push(Run {
                    start: lo as u16,
                    len: (blo - 1 - lo) as u16,
                });
            }
            if bhi >= hi {
                break;
            }
            lo = bhi + 1;
            jj += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Pairwise chunk dispatch — all nine type pairs per operation.
// ---------------------------------------------------------------------------

/// Normalizes computed sorted values into the deterministic result shape:
/// array iff the cardinality fits, bitmap otherwise. (Runs are chosen
/// only by `optimize` or by the run∩run/run∪run merges.)
fn normalize_sorted(vals: &[u16]) -> Option<Container> {
    if vals.is_empty() {
        None
    } else {
        Some(Container::from_sorted(vals))
    }
}

fn normalize_bitmap(words: Box<[u64; BITMAP_WORDS]>, card: u32) -> Option<Container> {
    if card == 0 {
        None
    } else if card as usize > ARRAY_MAX {
        Some(Container::Bitmap(words, card))
    } else {
        let mut a: Vec<u16> = Vec::with_capacity(card as usize);
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                a.push((wi * 64 + w.trailing_zeros() as usize) as u16);
                w &= w - 1;
            }
        }
        Some(Container::Array(a))
    }
}

fn normalize_runs(runs: Vec<Run>) -> Option<Container> {
    if runs.is_empty() {
        return None;
    }
    let card: u32 = runs.iter().map(Run::card).sum();
    match choose_container(card as usize, runs.len()) {
        ContainerKind::Runs => Some(Container::Runs(runs)),
        _ => {
            let mut words = new_bitmap();
            for r in &runs {
                set_run(&mut words, r);
            }
            normalize_bitmap(words, card)
        }
    }
}

fn runs_to_bitmap(runs: &[Run]) -> (Box<[u64; BITMAP_WORDS]>, u32) {
    let mut words = new_bitmap();
    for r in runs {
        set_run(&mut words, r);
    }
    (words, runs.iter().map(Run::card).sum())
}

impl Container {
    /// Pairwise AND across all nine container pairs. `None` when empty.
    pub fn and(&self, other: &Container) -> Option<Container> {
        use Container::*;
        match (self, other) {
            (Array(a), Array(b)) => {
                let mut out = vec![0u16; a.len().min(b.len())];
                let n = array_and_into(a, b, &mut out);
                out.truncate(n);
                normalize_sorted(&out)
            }
            (Array(a), Bitmap(w, _)) | (Bitmap(w, _), Array(a)) => {
                let mut out = vec![0u16; a.len()];
                let n = array_bitmap_and_into(a, w, &mut out);
                out.truncate(n);
                normalize_sorted(&out)
            }
            (Array(a), Runs(rs)) | (Runs(rs), Array(a)) => {
                let mut out = vec![0u16; a.len()];
                let n = array_runs_and_into(a, rs, &mut out);
                out.truncate(n);
                normalize_sorted(&out)
            }
            (Bitmap(a, _), Bitmap(b, _)) => {
                let mut out = new_bitmap();
                let card = bitmap_and_into(a, b, &mut out);
                normalize_bitmap(out, card)
            }
            (Bitmap(w, _), Runs(rs)) | (Runs(rs), Bitmap(w, _)) => {
                let mut out: Box<[u64; BITMAP_WORDS]> = w.clone();
                let card = bitmap_retain_runs(&mut out, rs);
                normalize_bitmap(out, card)
            }
            (Runs(a), Runs(b)) => {
                let mut out = Vec::new();
                runs_and(a, b, &mut out);
                normalize_runs(out)
            }
        }
    }

    /// Count-only pairwise AND (no result materialization).
    pub fn and_card(&self, other: &Container) -> u32 {
        use Container::*;
        match (self, other) {
            (Bitmap(a, _), Bitmap(b, _)) => bitmap_and_count(a, b),
            (Array(a), Bitmap(w, _)) | (Bitmap(w, _), Array(a)) => {
                let mut n = 0u32;
                for &v in a {
                    n += (w[v as usize / 64] >> (v % 64) & 1) as u32;
                }
                n
            }
            (Runs(a), Runs(b)) => {
                let (mut i, mut j, mut n) = (0usize, 0usize, 0u32);
                while i < a.len() && j < b.len() {
                    let lo = a[i].start.max(b[j].start) as u32;
                    let hi = a[i].end().min(b[j].end());
                    if lo <= hi {
                        n += hi - lo + 1;
                    }
                    if a[i].end() <= b[j].end() {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                n
            }
            (Bitmap(w, _), Runs(rs)) | (Runs(rs), Bitmap(w, _)) => {
                rs.iter().map(|r| bitmap_count_in_run(w, r)).sum()
            }
            (Array(a), Runs(rs)) | (Runs(rs), Array(a)) => {
                let (mut ri, mut n) = (0usize, 0u32);
                for &v in a {
                    while ri < rs.len() && rs[ri].end() < v as u32 {
                        ri += 1;
                    }
                    if ri >= rs.len() {
                        break;
                    }
                    if rs[ri].start <= v {
                        n += 1;
                    }
                }
                n
            }
            // Array∩array: merge count without output.
            (Array(a), Array(b)) => {
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                if small.len() * GALLOP_RATIO < large.len() {
                    let mut lo = 0usize;
                    let mut n = 0u32;
                    for &x in small.iter() {
                        let mut step = 1usize;
                        while lo + step < large.len() && large[lo + step] < x {
                            step <<= 1;
                        }
                        let hi = (lo + step + 1).min(large.len());
                        match large[lo..hi].binary_search(&x) {
                            Ok(p) => {
                                n += 1;
                                lo += p + 1;
                            }
                            Err(p) => lo += p,
                        }
                        if lo >= large.len() {
                            break;
                        }
                    }
                    n
                } else {
                    let (mut i, mut j, mut n) = (0usize, 0usize, 0u32);
                    while i < small.len() && j < large.len() {
                        match small[i].cmp(&large[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                n += 1;
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    n
                }
            }
        }
    }

    /// Pairwise OR across all nine container pairs.
    pub fn or(&self, other: &Container) -> Container {
        use Container::*;
        match (self, other) {
            (Array(a), Array(b)) => {
                if a.len() + b.len() <= ARRAY_MAX {
                    let mut out = vec![0u16; a.len() + b.len()];
                    let n = array_or_into(a, b, &mut out);
                    out.truncate(n);
                    Container::Array(out)
                } else {
                    let mut words = new_bitmap();
                    for &v in a.iter().chain(b.iter()) {
                        words[v as usize / 64] |= 1u64 << (v % 64);
                    }
                    let card: u32 = words.iter().map(|w| w.count_ones()).sum();
                    normalize_bitmap(words, card).unwrap_or_else(|| Container::Array(Vec::new()))
                }
            }
            (Array(a), Bitmap(w, _)) | (Bitmap(w, _), Array(a)) => {
                let mut words: Box<[u64; BITMAP_WORDS]> = w.clone();
                for &v in a {
                    words[v as usize / 64] |= 1u64 << (v % 64);
                }
                let card: u32 = words.iter().map(|x| x.count_ones()).sum();
                normalize_bitmap(words, card).unwrap_or_else(|| Container::Array(Vec::new()))
            }
            (Bitmap(a, _), Bitmap(b, _)) => {
                let mut out = new_bitmap();
                let card = bitmap_or_into(a, b, &mut out);
                normalize_bitmap(out, card).unwrap_or_else(|| Container::Array(Vec::new()))
            }
            (Runs(a), Runs(b)) => {
                let mut out = Vec::new();
                runs_or(a, b, &mut out);
                normalize_runs(out).unwrap_or_else(|| Container::Array(Vec::new()))
            }
            (Runs(rs), other_c @ (Array(_) | Bitmap(..)))
            | (other_c @ (Array(_) | Bitmap(..)), Runs(rs)) => {
                let (words, _) = runs_to_bitmap(rs);
                Container::Bitmap(words, 0).or_fixup(other_c)
            }
        }
    }

    /// Helper for run∪{array,bitmap}: `self` is a bitmap expansion of the
    /// runs (card field unused), `other` the second operand.
    fn or_fixup(self, other: &Container) -> Container {
        let Container::Bitmap(mut words, _) = self else {
            unreachable!("or_fixup is only called on bitmap expansions")
        };
        match other {
            Container::Array(a) => {
                for &v in a {
                    words[v as usize / 64] |= 1u64 << (v % 64);
                }
            }
            Container::Bitmap(b, _) => {
                for (x, &y) in words.iter_mut().zip(b.iter()) {
                    *x |= y;
                }
            }
            Container::Runs(rs) => {
                for r in rs {
                    set_run(&mut words, r);
                }
            }
        }
        let card: u32 = words.iter().map(|x| x.count_ones()).sum();
        normalize_bitmap(words, card).unwrap_or_else(|| Container::Array(Vec::new()))
    }

    /// Pairwise ANDNOT (`self − other`) across all nine container pairs.
    /// `None` when empty.
    pub fn andnot(&self, other: &Container) -> Option<Container> {
        use Container::*;
        match (self, other) {
            (Array(a), Array(b)) => {
                let mut out = vec![0u16; a.len()];
                let n = array_andnot_into(a, b, &mut out);
                out.truncate(n);
                normalize_sorted(&out)
            }
            (Array(a), Bitmap(w, _)) => {
                let mut out = vec![0u16; a.len()];
                let n = array_bitmap_andnot_into(a, w, &mut out);
                out.truncate(n);
                normalize_sorted(&out)
            }
            (Array(a), Runs(rs)) => {
                let mut out = vec![0u16; a.len()];
                let n = array_runs_andnot_into(a, rs, &mut out);
                out.truncate(n);
                normalize_sorted(&out)
            }
            (Bitmap(a, _), Bitmap(b, _)) => {
                let mut out = new_bitmap();
                let card = bitmap_andnot_into(a, b, &mut out);
                normalize_bitmap(out, card)
            }
            (Bitmap(w, card), Array(b)) => {
                let mut out: Box<[u64; BITMAP_WORDS]> = w.clone();
                let mut c = *card;
                for &v in b {
                    let bit = 1u64 << (v % 64);
                    if out[v as usize / 64] & bit != 0 {
                        out[v as usize / 64] &= !bit;
                        c -= 1;
                    }
                }
                normalize_bitmap(out, c)
            }
            (Bitmap(w, card), Runs(rs)) => {
                let mut out: Box<[u64; BITMAP_WORDS]> = w.clone();
                let mut c = *card;
                for r in rs {
                    c -= clear_run(&mut out, r);
                }
                normalize_bitmap(out, c)
            }
            (Runs(a), Runs(b)) => {
                let mut out = Vec::new();
                runs_andnot(a, b, &mut out);
                normalize_runs(out)
            }
            (Runs(_), Array(_) | Bitmap(..)) => {
                let mut lhs = self.clone();
                lhs.materialize();
                lhs.andnot(other)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TidSet — the chunked hybrid set.
// ---------------------------------------------------------------------------

/// A hybrid set of u32 transaction ids: sorted chunk keys (high 16 bits)
/// paired with per-chunk adaptive [`Container`]s.
#[derive(Debug, Clone, Default)]
pub struct TidSet {
    keys: Vec<u16>,
    chunks: Vec<Container>,
}

/// Preallocated scratch for the k-way AND fold: two u16 arrays (for array
/// accumulators, which never exceed [`ARRAY_MAX`]) and one bitmap. One
/// instance serves any number of [`TidSet::multi_and_with`] /
/// [`TidSet::multi_and_count_with`] calls without further allocation.
pub struct AndScratch {
    arr_a: Vec<u16>,
    arr_b: Vec<u16>,
    bm: Box<[u64; BITMAP_WORDS]>,
}

impl Default for AndScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl AndScratch {
    /// Allocates the scratch buffers (the only allocation the k-way fold
    /// ever performs).
    pub fn new() -> Self {
        AndScratch {
            arr_a: vec![0; ARRAY_MAX],
            arr_b: vec![0; ARRAY_MAX],
            bm: new_bitmap(),
        }
    }
}

/// Accumulator state of the k-way chunk fold: which scratch buffer holds
/// the current intersection and how many values it has.
enum Acc {
    /// Values live in `arr_a` (true) or `arr_b` (false), `len` of them.
    Arr { in_a: bool, len: usize },
    /// Values live in the bitmap scratch with this cardinality.
    Bm { card: u32 },
}

impl TidSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TidSet::default()
    }

    /// Builds from strictly ascending tids (the order tid-lists are built
    /// in). Chooses array vs bitmap per chunk; call [`TidSet::optimize`]
    /// afterwards to adopt run containers where they win.
    pub fn from_sorted(tids: &[u32]) -> Self {
        debug_assert!(tids.windows(2).all(|w| w[0] < w[1]), "tids must be strictly ascending");
        let mut set = TidSet::new();
        let mut i = 0usize;
        while i < tids.len() {
            let key = (tids[i] >> CHUNK_BITS) as u16;
            let mut j = i;
            while j < tids.len() && (tids[j] >> CHUNK_BITS) as u16 == key {
                j += 1;
            }
            let lows: Vec<u16> = tids[i..j].iter().map(|&t| t as u16).collect();
            set.keys.push(key);
            set.chunks.push(Container::from_sorted(&lows));
            i = j;
        }
        set
    }

    /// `true` when no tid is stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total number of stored tids.
    pub fn cardinality(&self) -> u64 {
        self.chunks.iter().map(|c| c.cardinality() as u64).sum()
    }

    /// Heap bytes of container storage (keys + per-chunk payloads).
    pub fn bytes(&self) -> usize {
        self.keys.len() * 2 + self.chunks.iter().map(Container::bytes).sum::<usize>()
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.keys.len()
    }

    /// Iterates `(chunk_key, container)` pairs in ascending key order.
    pub fn chunks(&self) -> impl Iterator<Item = (u16, &Container)> {
        self.keys.iter().copied().zip(self.chunks.iter())
    }

    /// The `(key, kind, cardinality)` layout — what each chunk holds, as
    /// built or as [`TidSet::optimize`] chose it.
    pub fn chunk_kinds(&self) -> Vec<(u16, ContainerKind, u32)> {
        self.chunks()
            .map(|(k, c)| (k, c.kind(), c.cardinality()))
            .collect()
    }

    /// Membership test.
    pub fn contains(&self, tid: u32) -> bool {
        let key = (tid >> CHUNK_BITS) as u16;
        match self.keys.binary_search(&key) {
            Ok(i) => self.chunks[i].contains(tid as u16),
            Err(_) => false,
        }
    }

    /// Number of stored tids `<= tid` (the roaring `rank` operation).
    pub fn rank(&self, tid: u32) -> u64 {
        let key = (tid >> CHUNK_BITS) as u16;
        let (below, at) = match self.keys.binary_search(&key) {
            Ok(i) => (i, Some(i)),
            Err(i) => (i, None),
        };
        let full: u64 = self.chunks[..below].iter().map(|c| c.cardinality() as u64).sum();
        full + at.map_or(0, |i| self.chunks[i].rank(tid as u16) as u64)
    }

    /// Inserts a tid; returns whether it was newly added. Sparse chunks
    /// grow as arrays and **promote** to bitmaps above
    /// [`ARRAY_MAX`] (see [`should_promote`]); run
    /// containers materialize to the shape their cardinality dictates
    /// before mutation.
    pub fn insert(&mut self, tid: u32) -> bool {
        let key = (tid >> CHUNK_BITS) as u16;
        let low = tid as u16;
        let i = match self.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, key);
                self.chunks.insert(i, Container::Array(vec![low]));
                return true;
            }
        };
        let c = &mut self.chunks[i];
        c.materialize();
        match c {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(_) => false,
                Err(p) => {
                    a.insert(p, low);
                    if should_promote(a.len()) {
                        let mut words = new_bitmap();
                        for &v in a.iter() {
                            words[v as usize / 64] |= 1u64 << (v % 64);
                        }
                        let card = a.len() as u32;
                        *c = Container::Bitmap(words, card);
                    }
                    true
                }
            },
            Container::Bitmap(w, card) => {
                let bit = 1u64 << (low % 64);
                if w[low as usize / 64] & bit != 0 {
                    false
                } else {
                    w[low as usize / 64] |= bit;
                    *card += 1;
                    true
                }
            }
            Container::Runs(_) => unreachable!("materialized above"),
        }
    }

    /// Removes a tid; returns whether it was present. Bitmaps **demote**
    /// back to arrays only below the demote
    /// threshold (see [`should_demote`]) — the hysteresis band keeps a
    /// chunk oscillating around the promote threshold from thrashing.
    pub fn remove(&mut self, tid: u32) -> bool {
        let key = (tid >> CHUNK_BITS) as u16;
        let low = tid as u16;
        let Ok(i) = self.keys.binary_search(&key) else {
            return false;
        };
        let c = &mut self.chunks[i];
        c.materialize();
        let removed = match c {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(p) => {
                    a.remove(p);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap(w, card) => {
                let bit = 1u64 << (low % 64);
                if w[low as usize / 64] & bit == 0 {
                    false
                } else {
                    w[low as usize / 64] &= !bit;
                    *card -= 1;
                    if should_demote(*card as usize) {
                        let mut a: Vec<u16> = Vec::with_capacity(*card as usize);
                        for (wi, &word) in w.iter().enumerate() {
                            let mut word = word;
                            while word != 0 {
                                a.push((wi * 64 + word.trailing_zeros() as usize) as u16);
                                word &= word - 1;
                            }
                        }
                        *c = Container::Array(a);
                    }
                    true
                }
            }
            Container::Runs(_) => unreachable!("materialized above"),
        };
        if removed && self.chunks[i].cardinality() == 0 {
            self.keys.remove(i);
            self.chunks.remove(i);
        }
        removed
    }

    /// Re-chooses every chunk's container by the static cost rule
    /// (adopting run containers for clustered chunks).
    pub fn optimize(&mut self) {
        for c in &mut self.chunks {
            c.optimize();
        }
    }

    /// Iterates stored tids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks().flat_map(|(k, c)| {
            let base = (k as u32) << CHUNK_BITS;
            c.iter().map(move |lo| base | lo as u32)
        })
    }

    /// Collects the set into a sorted `Vec<u32>`.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Pairwise intersection.
    pub fn and(&self, other: &TidSet) -> TidSet {
        let mut out = TidSet::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let Some(c) = self.chunks[i].and(&other.chunks[j]) {
                        out.keys.push(self.keys[i]);
                        out.chunks.push(c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Count-only intersection (no result set is built).
    pub fn and_count(&self, other: &TidSet) -> u64 {
        let mut total = 0u64;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += self.chunks[i].and_card(&other.chunks[j]) as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }

    /// Pairwise union.
    pub fn or(&self, other: &TidSet) -> TidSet {
        let mut out = TidSet::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() || j < other.keys.len() {
            let take_left = j >= other.keys.len()
                || (i < self.keys.len() && self.keys[i] <= other.keys[j]);
            let take_right =
                i >= self.keys.len() || (j < other.keys.len() && other.keys[j] <= self.keys[i]);
            if take_left && take_right {
                out.keys.push(self.keys[i]);
                out.chunks.push(self.chunks[i].or(&other.chunks[j]));
                i += 1;
                j += 1;
            } else if take_left {
                out.keys.push(self.keys[i]);
                out.chunks.push(self.chunks[i].clone());
                i += 1;
            } else {
                out.keys.push(other.keys[j]);
                out.chunks.push(other.chunks[j].clone());
                j += 1;
            }
        }
        out
    }

    /// Pairwise difference (`self − other`).
    pub fn andnot(&self, other: &TidSet) -> TidSet {
        let mut out = TidSet::new();
        let mut j = 0usize;
        for (i, &key) in self.keys.iter().enumerate() {
            while j < other.keys.len() && other.keys[j] < key {
                j += 1;
            }
            if j < other.keys.len() && other.keys[j] == key {
                if let Some(c) = self.chunks[i].andnot(&other.chunks[j]) {
                    out.keys.push(key);
                    out.chunks.push(c);
                }
            } else {
                out.keys.push(key);
                out.chunks.push(self.chunks[i].clone());
            }
        }
        out
    }

    /// k-way AND: intersects every set in **one pass per chunk** over
    /// internally allocated scratch. `multi_and(&[])` is empty;
    /// `multi_and(&[a])` clones `a`.
    pub fn multi_and(sets: &[&TidSet]) -> TidSet {
        TidSet::multi_and_with(sets, &mut AndScratch::new())
    }

    /// [`TidSet::multi_and`] with caller-provided scratch; only the result
    /// containers are allocated.
    pub fn multi_and_with(sets: &[&TidSet], scratch: &mut AndScratch) -> TidSet {
        let mut out = TidSet::new();
        TidSet::multi_and_fold(sets, scratch, |key, container| {
            out.keys.push(key);
            out.chunks.push(container);
        });
        out
    }

    /// Count-only k-way AND over internally allocated scratch.
    pub fn multi_and_count(sets: &[&TidSet]) -> u64 {
        TidSet::multi_and_count_with(sets, &mut AndScratch::new())
    }

    /// Count-only k-way AND with caller-provided scratch — performs **no
    /// allocation at all** (the alloc-guard-pinned deep-recursion path).
    pub fn multi_and_count_with(sets: &[&TidSet], scratch: &mut AndScratch) -> u64 {
        let mut total = 0u64;
        TidSet::multi_and_fold_counts(sets, scratch, |_, card| total += card as u64);
        total
    }

    /// Shared chunk loop of the k-way AND: for every chunk key present in
    /// **all** operands, folds the operands' containers through the
    /// scratch accumulator and hands the materialized result to `emit`.
    fn multi_and_fold(sets: &[&TidSet], scratch: &mut AndScratch, mut emit: impl FnMut(u16, Container)) {
        let Some((driver, rest)) = sets.split_first() else {
            return;
        };
        if rest.is_empty() {
            for (k, c) in driver.chunks() {
                emit(k, c.clone());
            }
            return;
        }
        for (key, first) in driver.chunks() {
            let Some(acc) = TidSet::fold_chunk(key, first, rest, scratch) else {
                continue;
            };
            let container = match acc {
                Acc::Arr { in_a, len } => {
                    if len == 0 {
                        continue;
                    }
                    let arr = if in_a { &scratch.arr_a } else { &scratch.arr_b };
                    Container::Array(arr[..len].to_vec())
                }
                Acc::Bm { card } => {
                    if card == 0 {
                        continue;
                    }
                    let Some(c) = normalize_bitmap(scratch.bm.clone(), card) else {
                        continue;
                    };
                    c
                }
            };
            emit(key, container);
        }
    }

    /// Count-only twin of [`TidSet::multi_and_fold`] — never allocates.
    fn multi_and_fold_counts(
        sets: &[&TidSet],
        scratch: &mut AndScratch,
        mut emit: impl FnMut(u16, u32),
    ) {
        let Some((driver, rest)) = sets.split_first() else {
            return;
        };
        if rest.is_empty() {
            for (k, c) in driver.chunks() {
                emit(k, c.cardinality());
            }
            return;
        }
        for (key, first) in driver.chunks() {
            let Some(acc) = TidSet::fold_chunk(key, first, rest, scratch) else {
                continue;
            };
            let card = match acc {
                Acc::Arr { len, .. } => len as u32,
                Acc::Bm { card } => card,
            };
            if card > 0 {
                emit(key, card);
            }
        }
    }

    /// Folds one chunk key through every remaining operand. Returns `None`
    /// when some operand lacks the chunk or the accumulator empties.
    ///
    /// The accumulator lives entirely in `scratch`: array accumulators
    /// ping-pong between the two u16 buffers (AND never grows an array, so
    /// [`ARRAY_MAX`] capacity suffices), bitmap accumulators fold in place.
    // also-lint: hot
    fn fold_chunk(key: u16, first: &Container, rest: &[&TidSet], scratch: &mut AndScratch) -> Option<Acc> {
        // Seed the accumulator from the driver's chunk.
        let mut acc = match first {
            Container::Array(a) => {
                scratch.arr_a[..a.len()].copy_from_slice(a);
                Acc::Arr { in_a: true, len: a.len() }
            }
            Container::Bitmap(w, card) => {
                scratch.bm.copy_from_slice(&w[..]);
                Acc::Bm { card: *card }
            }
            Container::Runs(rs) => {
                let card: u32 = rs.iter().map(Run::card).sum();
                if card as usize > ARRAY_MAX {
                    scratch.bm.fill(0);
                    for r in rs {
                        set_run(&mut scratch.bm, r);
                    }
                    Acc::Bm { card }
                } else {
                    let mut len = 0usize;
                    for r in rs {
                        let mut v = r.start as u32;
                        while v <= r.end() {
                            scratch.arr_a[len] = v as u16;
                            len += 1;
                            v += 1;
                        }
                    }
                    Acc::Arr { in_a: true, len }
                }
            }
        };
        for set in rest {
            let i = set.keys.binary_search(&key).ok()?;
            let next = &set.chunks[i];
            acc = match acc {
                Acc::Arr { in_a, len } => {
                    let (src, dst) = if in_a {
                        (&scratch.arr_a, &mut scratch.arr_b)
                    } else {
                        (&scratch.arr_b, &mut scratch.arr_a)
                    };
                    let n = match next {
                        Container::Array(b) => array_and_into(&src[..len], b, dst),
                        Container::Bitmap(w, _) => array_bitmap_and_into(&src[..len], w, dst),
                        Container::Runs(rs) => array_runs_and_into(&src[..len], rs, dst),
                    };
                    Acc::Arr { in_a: !in_a, len: n }
                }
                Acc::Bm { .. } => match next {
                    Container::Array(b) => {
                        let n = array_bitmap_and_into(b, &scratch.bm, &mut scratch.arr_a);
                        Acc::Arr { in_a: true, len: n }
                    }
                    Container::Bitmap(w, _) => {
                        let card = bitmap_and_inplace(&mut scratch.bm, w);
                        Acc::Bm { card }
                    }
                    Container::Runs(rs) => {
                        let card = bitmap_retain_runs(&mut scratch.bm, rs);
                        Acc::Bm { card }
                    }
                },
            };
            let empty = match &acc {
                Acc::Arr { len, .. } => *len == 0,
                Acc::Bm { card } => *card == 0,
            };
            if empty {
                return None;
            }
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tids: &[u32]) -> TidSet {
        TidSet::from_sorted(tids)
    }

    #[test]
    fn from_sorted_roundtrips() {
        let tids = [0u32, 1, 63, 64, 65, 65535, 65536, 65537, 131072, 200000];
        let s = set(&tids);
        assert_eq!(s.to_vec(), tids);
        assert_eq!(s.cardinality(), tids.len() as u64);
        assert_eq!(s.n_chunks(), 4);
        for &t in &tids {
            assert!(s.contains(t));
        }
        assert!(!s.contains(2));
        assert!(!s.contains(65538));
    }

    #[test]
    fn dense_chunk_builds_bitmap_sparse_builds_array() {
        let dense: Vec<u32> = (0..5000u32).collect();
        let s = set(&dense);
        assert_eq!(s.chunk_kinds()[0].1, ContainerKind::Bitmap);
        let sparse: Vec<u32> = (0..5000u32).map(|i| i * 20).collect();
        let s = set(&sparse);
        assert!(s.chunk_kinds().iter().all(|&(_, k, _)| k == ContainerKind::Array));
    }

    #[test]
    fn optimize_adopts_runs_for_contiguous_chunks() {
        let tids: Vec<u32> = (1000..3000u32).collect();
        let mut s = set(&tids);
        assert_eq!(s.chunk_kinds()[0].1, ContainerKind::Array);
        s.optimize();
        assert_eq!(s.chunk_kinds()[0].1, ContainerKind::Runs);
        assert_eq!(s.to_vec(), tids);

        // Mixed layout: chunk 0 sparse, chunk 1 a solid run, chunk 2
        // every other tid — each chunk decides on its own.
        let mut tids: Vec<u32> = (0..100u32).map(|i| i * 600).collect();
        tids.extend(65_536..65_536 + 30_000u32);
        tids.extend((0..30_000u32).map(|i| 131_072 + i * 2));
        let mut s = set(&tids);
        s.optimize();
        let layout: Vec<(u16, ContainerKind)> =
            s.chunk_kinds().into_iter().map(|(k, kind, _)| (k, kind)).collect();
        assert_eq!(
            layout,
            vec![
                (0, ContainerKind::Array),
                (1, ContainerKind::Runs),
                (2, ContainerKind::Bitmap)
            ]
        );
        assert_eq!(s.to_vec(), tids);
    }

    #[test]
    fn and_or_andnot_toy() {
        let a = set(&[1, 5, 9, 65536, 70000]);
        let b = set(&[5, 9, 11, 70000, 131072]);
        assert_eq!(a.and(&b).to_vec(), vec![5, 9, 70000]);
        assert_eq!(a.and_count(&b), 3);
        assert_eq!(a.or(&b).to_vec(), vec![1, 5, 9, 11, 65536, 70000, 131072]);
        assert_eq!(a.andnot(&b).to_vec(), vec![1, 65536]);
        assert_eq!(b.andnot(&a).to_vec(), vec![11, 131072]);
    }

    #[test]
    fn multi_and_matches_pairwise_folds() {
        let a = set(&(0..2000u32).map(|i| i * 3).collect::<Vec<_>>());
        let b = set(&(0..3000u32).map(|i| i * 2).collect::<Vec<_>>());
        let c = set(&(0..1500u32).map(|i| i * 4).collect::<Vec<_>>());
        let expect = a.and(&b).and(&c).to_vec();
        let got = TidSet::multi_and(&[&a, &b, &c]);
        assert_eq!(got.to_vec(), expect);
        assert_eq!(TidSet::multi_and_count(&[&a, &b, &c]), expect.len() as u64);
        assert_eq!(TidSet::multi_and(&[&a]).to_vec(), a.to_vec());
        assert!(TidSet::multi_and(&[]).is_empty());
    }

    #[test]
    fn rank_counts_at_boundaries() {
        let s = set(&[0, 64, 65535, 65536, 131071]);
        assert_eq!(s.rank(0), 1);
        assert_eq!(s.rank(63), 1);
        assert_eq!(s.rank(64), 2);
        assert_eq!(s.rank(65535), 3);
        assert_eq!(s.rank(65536), 4);
        assert_eq!(s.rank(u32::MAX), 5);
    }

    #[test]
    fn insert_remove_hysteresis() {
        let mut s = TidSet::new();
        for t in 0..=(ARRAY_MAX as u32) {
            assert!(s.insert(t));
        }
        // ARRAY_MAX + 1 values: promoted past the threshold.
        assert_eq!(s.chunk_kinds()[0].1, ContainerKind::Bitmap);
        // Dropping back under ARRAY_MAX must NOT demote (hysteresis band).
        for t in (crate::adapt::ARRAY_DEMOTE as u32 + 1..=(ARRAY_MAX as u32)).rev() {
            assert!(s.remove(t));
        }
        assert_eq!(s.chunk_kinds()[0].1, ContainerKind::Bitmap);
        // At exactly the demote threshold the bitmap still holds...
        assert!(s.remove(crate::adapt::ARRAY_DEMOTE as u32));
        assert_eq!(s.chunk_kinds()[0].1, ContainerKind::Bitmap);
        // ...and one below it flips to array.
        assert!(s.remove(crate::adapt::ARRAY_DEMOTE as u32 - 1));
        assert_eq!(s.chunk_kinds()[0].1, ContainerKind::Array);
        assert_eq!(s.cardinality(), crate::adapt::ARRAY_DEMOTE as u64 - 1);
    }

    #[test]
    fn gallop_kernel_matches_merge() {
        let small: Vec<u16> = (0..40u16).map(|i| i * 1000).collect();
        let large: Vec<u16> = (0..60000u16).collect();
        let mut out1 = vec![0u16; 40];
        let mut out2 = [0u16; 40];
        let n1 = array_and_gallop_into(&small, &large, &mut out1);
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out2[k] = small[i];
                    k += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        assert_eq!(n1, k);
        assert_eq!(out1[..n1], out2[..k]);
    }

    #[test]
    fn run_merges_cover_boundaries() {
        // Full-chunk run {0, 65535} intersected and subtracted.
        let full = vec![Run { start: 0, len: 65535 }];
        let mid = vec![Run { start: 100, len: 99 }, Run { start: 65000, len: 535 }];
        let mut out = Vec::new();
        runs_and(&full, &mid, &mut out);
        assert_eq!(out, mid);
        out.clear();
        runs_andnot(&full, &mid, &mut out);
        assert_eq!(
            out,
            vec![
                Run { start: 0, len: 99 },
                Run { start: 200, len: 64799 },
            ]
        );
        out.clear();
        runs_or(&mid, &[Run { start: 200, len: 64799 }], &mut out);
        assert_eq!(out, vec![Run { start: 100, len: 65435 }]);
    }
}
