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
//! The cost rule lives in [`crate::adapt`]; this module is the mechanism.
//! Its one set operation is the one Eclat spends its time in: the
//! pairwise AND of [`TidSet::and`], dispatched per chunk pair across all
//! nine container pairs (galloping array∩array for skewed operands,
//! word-wise bitmap∩bitmap, array-probe-into-bitmap, run walks). No
//! operation adds or removes a tid: every container comes from
//! [`TidSet::from_sorted`], [`TidSet::optimize`] or [`TidSet::and`], so an
//! array holds at most [`ARRAY_MAX`] values and a bitmap holds more by
//! construction.
//!
//! Everything here is deterministic: chunks are kept sorted by key,
//! arrays sorted ascending, and container choice is a pure function of
//! content — two sets with equal elements built the same way have equal
//! layout, and iteration order is always ascending tid order.

use crate::adapt::{choose_container, ContainerKind, ARRAY_MAX};
use std::cell::RefCell;

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
/// Invariants (every container comes from `from_sorted`, `optimize` or
/// `and`, and each of them establishes all four):
/// * `Array` is sorted ascending with no duplicates and holds at most
///   [`ARRAY_MAX`] values.
/// * `Bitmap` holds more than [`ARRAY_MAX`] values and caches its exact
///   cardinality.
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
    fn from_sorted(vals: Vec<u16>) -> Container {
        debug_assert!(vals.windows(2).all(|w| w[0] < w[1]), "values must be sorted unique");
        if vals.len() > ARRAY_MAX {
            let mut words = new_bitmap();
            for &v in &vals {
                words[v as usize / 64] |= 1u64 << (v % 64);
            }
            Container::Bitmap(words, vals.len() as u32)
        } else {
            Container::Array(vals)
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

/// Clears every bit of `r` in `words`.
fn clear_run(words: &mut [u64; BITMAP_WORDS], r: &Run) {
    let (lo, hi) = (r.start as usize, r.end() as usize);
    let (wl, wh) = (lo / 64, hi / 64);
    let lmask = u64::MAX << (lo % 64);
    let hmask = if hi % 64 == 63 { u64::MAX } else { (1u64 << (hi % 64 + 1)) - 1 };
    if wl == wh {
        words[wl] &= !(lmask & hmask);
    } else {
        words[wl] &= !lmask;
        for w in &mut words[wl + 1..wh] {
            *w = 0;
        }
        words[wh] &= !hmask;
    }
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

// ---------------------------------------------------------------------------
// Pairwise chunk AND — all nine type pairs.
// ---------------------------------------------------------------------------

thread_local! {
    /// The buffer [`array_result`] intersects into. Const-initialized, so
    /// it is zeroed once, with the thread's static storage, and never
    /// allocated; the kernels overwrite the slots they report.
    static ARRAY_SCRATCH: RefCell<[u16; ARRAY_MAX]> = const { RefCell::new([0; ARRAY_MAX]) };
}

/// An AND with an array operand: `and_into` writes at most the array's
/// [`ARRAY_MAX`] values into this thread's scratch buffer, and the result
/// array is allocated once, at its exact size.
fn array_result(and_into: impl FnOnce(&mut [u16]) -> usize) -> Option<Container> {
    ARRAY_SCRATCH.with_borrow_mut(|out| {
        let n = and_into(out);
        (n > 0).then(|| Container::Array(out[..n].to_vec()))
    })
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

impl Container {
    /// Pairwise AND across all nine container pairs. `None` when empty.
    pub fn and(&self, other: &Container) -> Option<Container> {
        use Container::*;
        match (self, other) {
            (Array(a), Array(b)) => array_result(|out| array_and_into(a, b, out)),
            (Array(a), Bitmap(w, _)) | (Bitmap(w, _), Array(a)) => {
                array_result(|out| array_bitmap_and_into(a, w, out))
            }
            (Array(a), Runs(rs)) | (Runs(rs), Array(a)) => {
                array_result(|out| array_runs_and_into(a, rs, out))
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
            set.chunks.push(Container::from_sorted(lows));
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
        assert_eq!(s.chunks().count(), 4);
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
    fn and_toy() {
        let a = set(&[1, 5, 9, 65536, 70000]);
        let b = set(&[5, 9, 11, 70000, 131072]);
        assert_eq!(a.and(&b).to_vec(), vec![5, 9, 70000]);
        assert_eq!(a.and(&b).cardinality(), 3);
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
    fn runs_and_covers_a_full_chunk() {
        // Full-chunk run {0, 65535} intersected with runs, the last of
        // which ends on the chunk's final value.
        let full = vec![Run { start: 0, len: 65535 }];
        let mid = vec![Run { start: 100, len: 99 }, Run { start: 65000, len: 535 }];
        let mut out = Vec::new();
        runs_and(&full, &mid, &mut out);
        assert_eq!(out, mid);
    }
}
