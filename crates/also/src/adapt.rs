//! **P2 — Data structure adaptation** (§3.3 of the paper): pick, or
//! specialize, the in-memory database representation according to the
//! input's characteristics.
//!
//! Two concrete adaptations from the paper live here:
//!
//! * [`choose_repr`] — the representation chooser over the paper's
//!   Feature 1/Feature 2 design space (horizontal vs vertical; dense bit
//!   matrix vs sparse index lists vs prefix tree), driven by the measured
//!   density of the `m × n` occurrence table.
//! * [`DeltaByte`] — the compression scheme of §4.3: encode a node's item
//!   ID as the difference from its parent's item ID in **one byte**, with
//!   an escape code for the rare large deltas. In an FP-tree built over
//!   frequency-ranked items, parent/child ranks are close, so nearly every
//!   delta fits — shrinking the node and the tree's cache footprint
//!   dramatically.

/// The database representations of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Repr {
    /// Horizontal sparse: per transaction, the indices of its items (LCM).
    HorizontalSparse,
    /// Vertical dense bit matrix: per item, a bit per transaction (Eclat).
    VerticalBits,
    /// Prefix tree with shared prefixes (FP-Growth).
    PrefixTree,
}

/// Chooses a representation from gross input statistics.
///
/// * dense tables (≥ [`DENSE_THRESHOLD`] fill) → bit matrix: the
///   vertical AND+popcount kernel streams whole words and is
///   SIMD-friendly, and above that fill it mines faster than per-chunk
///   containers even where it spends more memory;
/// * sparse tables with heavy prefix sharing (low distinct-transaction
///   ratio) → prefix tree;
/// * otherwise → horizontal sparse arrays.
///
/// `distinct_ratio` is `distinct transactions / transactions` in `0..=1`;
/// pass `1.0` when unknown (disables the tree choice).
pub fn choose_repr(n_transactions: usize, n_items: usize, nnz: u64, distinct_ratio: f64) -> Repr {
    let cells = n_transactions as u64 * n_items as u64;
    let density = if cells == 0 { 0.0 } else { nnz as f64 / cells as f64 };
    if density >= DENSE_THRESHOLD {
        Repr::VerticalBits
    } else if distinct_ratio <= TREE_SHARING_THRESHOLD {
        Repr::PrefixTree
    } else {
        Repr::HorizontalSparse
    }
}

/// Density from which Eclat mines the bit matrix at least as fast as
/// hybrid containers: 1/192, at most 24 bytes of bit matrix per
/// occurrence.
///
/// This is a speed crossover, not the 1/32 memory break-even of a bit
/// against a 32-bit index, and it moves with the shape. Serial mines of
/// QUEST DS4 cuts on a 2-vCPU VM, bit matrix speed relative to the
/// containers (EXPERIMENTS.md, "Served Eclat on the bit matrix"): at
/// smoke scale 0.35 % dense 0.66×, 0.44 % 0.80–0.86×, 0.47–0.56 %
/// 0.92–1.12×, 0.6 % 1.04–1.13×, 0.8 % 1.47×, 2.1–3.1 % 3.5–3.9×; at
/// ci scale, ten times the rows, 0.39 % 1.17×, 0.54 % 1.46×, 1.5 % 3.4×.
/// The threshold sits above the smoke-scale crossover, so no measured
/// cut mines slower than on the containers.
pub const DENSE_THRESHOLD: f64 = 1.0 / 192.0;

// ---------------------------------------------------------------------------
// Per-chunk container rules — the roaring-style refinement of P2. The
// global [`choose_repr`] picks one representation for the whole table;
// these rules pick one *per 2^16-tid chunk* (mechanism in
// [`crate::containers`]).
// ---------------------------------------------------------------------------

/// The three per-chunk container shapes of [`crate::containers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// Sorted `u16` array — 2 bytes per element, for sparse chunks.
    Array,
    /// 1024×u64 bitmap — fixed 8 KiB, for dense chunks.
    Bitmap,
    /// Run-length intervals — 4 bytes per run, for clustered chunks.
    Runs,
}

/// Largest cardinality stored as a sorted-u16 array: past this point the
/// fixed 8 KiB bitmap is smaller than `2 × card` bytes (the classic
/// roaring 4096 crossover).
pub const ARRAY_MAX: usize = 4096;

/// Static cost rule choosing the cheapest container for a chunk with
/// `card` values forming `n_runs` maximal intervals: compares exact
/// storage bytes (array `2·card` when it fits, bitmap 8 KiB, runs
/// `4·n_runs`) and picks the smallest, runs winning ties because its
/// set ops are also the cheapest per byte.
pub fn choose_container(card: usize, n_runs: usize) -> ContainerKind {
    let array_bytes = if card <= ARRAY_MAX { card * 2 } else { usize::MAX };
    let bitmap_bytes = 8 * 1024;
    let runs_bytes = n_runs * 4;
    if runs_bytes <= array_bytes && runs_bytes <= bitmap_bytes {
        ContainerKind::Runs
    } else if array_bytes <= bitmap_bytes {
        ContainerKind::Array
    } else {
        ContainerKind::Bitmap
    }
}

/// Distinct-transaction ratio below which prefix sharing pays for a tree.
pub const TREE_SHARING_THRESHOLD: f64 = 0.5;

/// The escape byte: a stored `0xFF` means "the real delta did not fit;
/// look it up in the side table".
pub const DELTA_ESCAPE: u8 = 0xFF;

/// Differential one-byte item-ID encoding with an escape side table
/// (§4.3 of the paper).
///
/// ```
/// use also::adapt::{DeltaByte, NO_PARENT};
/// let mut codec = DeltaByte::new();
/// let byte = codec.encode(0, 4, 7);          // child rank 7 under parent rank 4
/// assert_eq!(byte, 2);                       // 7 - 4 - 1
/// assert_eq!(codec.decode(0, 4, byte), 7);
/// let far = codec.encode(1, NO_PARENT, 5000); // too far: escapes
/// assert_eq!(codec.decode(1, NO_PARENT, far), 5000);
/// assert_eq!(codec.escape_count(), 1);
/// ```
///
/// `encode(parent_item, item)` stores `item − parent_item − 1` (a child's
/// rank is strictly greater than its parent's in a rank-ordered FP-tree)
/// when it fits in `0..=0xFE`; larger deltas are escaped to a `u32` side
/// table. The root's children encode against a virtual parent rank of
/// `−1`, which callers express by passing `parent_item = NO_PARENT`.
#[derive(Debug, Clone, Default)]
pub struct DeltaByte {
    escapes: Vec<(u32, u32)>, // (node_index, absolute item) sorted by node_index
}

/// Virtual parent rank for root children (represents rank −1).
pub const NO_PARENT: u32 = u32::MAX;

impl DeltaByte {
    /// Creates an empty codec (no escapes yet).
    pub fn new() -> Self {
        DeltaByte { escapes: Vec::new() }
    }

    /// Encodes `item` relative to `parent_item` for the node at
    /// `node_index`, returning the byte to store. Escaped values are
    /// recorded in the side table; `node_index` values must be encoded in
    /// ascending order (node pools grow monotonically).
    pub fn encode(&mut self, node_index: u32, parent_item: u32, item: u32) -> u8 {
        let base = if parent_item == NO_PARENT { 0 } else { parent_item + 1 };
        debug_assert!(item >= base, "child rank must exceed parent rank");
        let delta = item - base;
        if delta < DELTA_ESCAPE as u32 {
            delta as u8
        } else {
            debug_assert!(
                self.escapes.last().is_none_or(|&(n, _)| n < node_index),
                "escapes must be recorded in ascending node order"
            );
            self.escapes.push((node_index, item));
            DELTA_ESCAPE
        }
    }

    /// Decodes the byte stored for `node_index` back to the absolute item.
    #[inline]
    pub fn decode(&self, node_index: u32, parent_item: u32, stored: u8) -> u32 {
        if stored == DELTA_ESCAPE {
            let at = self
                .escapes
                .binary_search_by_key(&node_index, |&(n, _)| n)
                .expect("escaped node must be in side table");
            self.escapes[at].1
        } else {
            let base = if parent_item == NO_PARENT { 0 } else { parent_item + 1 };
            base + stored as u32
        }
    }

    /// Number of escaped nodes — benches report the escape rate to show
    /// the "usually fits in a single byte" claim holds.
    pub fn escape_count(&self) -> usize {
        self.escapes.len()
    }

    /// Bytes of side-table storage.
    pub fn bytes(&self) -> usize {
        self.escapes.len() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chooser_picks_bits_for_dense() {
        // 300 transactions × 100 items, 40% full.
        assert_eq!(choose_repr(300, 100, 12_000, 1.0), Repr::VerticalBits);
    }

    #[test]
    fn chooser_picks_tree_for_shared_prefixes() {
        assert_eq!(choose_repr(100_000, 10_000, 1_000_000, 0.2), Repr::PrefixTree);
    }

    #[test]
    fn chooser_picks_sparse_otherwise() {
        assert_eq!(choose_repr(100_000, 10_000, 1_000_000, 0.9), Repr::HorizontalSparse);
    }

    #[test]
    fn chooser_empty_input() {
        assert_eq!(choose_repr(0, 0, 0, 1.0), Repr::HorizontalSparse);
    }

    #[test]
    fn delta_roundtrip_small() {
        let mut c = DeltaByte::new();
        // parent rank 10, child rank 11 → delta byte 0.
        let b = c.encode(0, 10, 11);
        assert_eq!(b, 0);
        assert_eq!(c.decode(0, 10, b), 11);
        assert_eq!(c.escape_count(), 0);
    }

    #[test]
    fn delta_roundtrip_root_children() {
        let mut c = DeltaByte::new();
        let b = c.encode(0, NO_PARENT, 0); // most frequent item under root
        assert_eq!(b, 0);
        assert_eq!(c.decode(0, NO_PARENT, b), 0);
        let b2 = c.encode(1, NO_PARENT, 200);
        assert_eq!(c.decode(1, NO_PARENT, b2), 200);
    }

    #[test]
    fn delta_escape_roundtrip() {
        let mut c = DeltaByte::new();
        let b = c.encode(7, 3, 3 + 1 + 300); // delta 300 doesn't fit
        assert_eq!(b, DELTA_ESCAPE);
        assert_eq!(c.decode(7, 3, b), 304);
        assert_eq!(c.escape_count(), 1);
        assert_eq!(c.bytes(), 8);
    }

    #[test]
    fn delta_boundary_values() {
        let mut c = DeltaByte::new();
        // delta 0xFE is the largest inline value
        let b = c.encode(0, 0, 1 + 0xFE - 1 + 1);
        assert_eq!(b, 0xFE);
        assert_eq!(c.decode(0, 0, b), 0xFF);
        // delta 0xFF must escape
        let b = c.encode(1, 0, 1 + 0xFF);
        assert_eq!(b, DELTA_ESCAPE);
        assert_eq!(c.decode(1, 0, b), 0x100);
    }

    #[test]
    fn many_escapes_binary_search() {
        let mut c = DeltaByte::new();
        let mut stored = Vec::new();
        for n in 0..100u32 {
            stored.push(c.encode(n, 0, 1000 + n));
        }
        for n in 0..100u32 {
            assert_eq!(c.decode(n, 0, stored[n as usize]), 1000 + n);
        }
        assert_eq!(c.escape_count(), 100);
    }
}
