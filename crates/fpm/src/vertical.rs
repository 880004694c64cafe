//! The vertical representations of the paper's Figure 3 (top):
//! per-item transaction sets.
//!
//! * [`VerticalBitDb`] — the dense bit matrix: one bit vector per item,
//!   bit `t` set iff transaction `t` contains the item. The per-column
//!   [`OneRange`]s are the 0-escaping bookkeeping the lexicographic
//!   ordering makes effective (§4.2).
//! * [`VerticalHybridDb`] — the roaring-style refinement: one adaptive
//!   [`TidSet`] per item, each 2^16-tid chunk stored as a sorted-u16
//!   array, bitmap, or run container chosen by local density
//!   ([`also::containers`], DESIGN.md §16).

use also::bits::{BitVec, OneRange};
use also::containers::TidSet;
use crate::types::Item;

/// A vertical bit-matrix database over rank ids.
#[derive(Debug)]
pub struct VerticalBitDb {
    n_transactions: usize,
    columns: Vec<BitVec>,
    ranges: Vec<OneRange>,
}

impl VerticalBitDb {
    /// Builds the bit matrix from ranked transactions: column `r` gets bit
    /// `t` for every transaction `t` containing rank `r`.
    pub fn from_ranked(transactions: &[Vec<u32>], n_ranks: usize) -> Self {
        let n = transactions.len();
        let mut columns: Vec<BitVec> = (0..n_ranks).map(|_| BitVec::zeros(n)).collect();
        for (t, items) in transactions.iter().enumerate() {
            for &r in items {
                columns[r as usize].set(t);
            }
        }
        let ranges = columns.iter().map(|c| c.one_range()).collect();
        VerticalBitDb {
            n_transactions: n,
            columns,
            ranges,
        }
    }

    /// Number of transactions (bits per column).
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Number of item columns.
    pub fn n_items(&self) -> usize {
        self.columns.len()
    }

    /// The bit column of `item`.
    #[inline]
    pub fn column(&self, item: Item) -> &BitVec {
        &self.columns[item as usize]
    }

    /// The initial (tight) 1-range of `item`'s column.
    #[inline]
    pub fn range(&self, item: Item) -> OneRange {
        self.ranges[item as usize]
    }

    /// Support of a single item (popcount of its column).
    pub fn support(&self, item: Item) -> u64 {
        self.columns[item as usize].count_ones()
    }

    /// Bytes of bit-matrix storage.
    pub fn bytes(&self) -> usize {
        self.columns.iter().map(|c| c.words() * 8).sum()
    }
}

/// A vertical database over rank ids with one adaptive hybrid
/// [`TidSet`] per item: per-2^16-tid chunks choose array, bitmap, or run
/// containers by local density instead of one global dense-vs-sparse
/// pick. Eclat's spine mines it on cuts sparser than
/// `also::adapt::DENSE_THRESHOLD`, and the bit matrix on denser ones.
#[derive(Debug)]
pub struct VerticalHybridDb {
    n_transactions: usize,
    columns: Vec<TidSet>,
}

impl VerticalHybridDb {
    /// Builds one hybrid column per rank: column `r` holds the tids of
    /// every transaction containing rank `r`, each chunk stored in the
    /// container the per-chunk cost rule picks (runs included —
    /// [`TidSet::optimize`] runs at build time).
    pub fn from_ranked(transactions: &[Vec<u32>], n_ranks: usize) -> Self {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
        for (t, items) in transactions.iter().enumerate() {
            for &r in items {
                lists[r as usize].push(t as u32);
            }
        }
        let columns = lists
            .iter()
            .map(|l| {
                let mut s = TidSet::from_sorted(l);
                s.optimize();
                s
            })
            .collect();
        VerticalHybridDb {
            n_transactions: transactions.len(),
            columns,
        }
    }

    /// Number of transactions in the underlying database.
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Number of item columns.
    pub fn n_items(&self) -> usize {
        self.columns.len()
    }

    /// The hybrid tid-set of `item`.
    #[inline]
    pub fn column(&self, item: Item) -> &TidSet {
        &self.columns[item as usize]
    }

    /// Support of a single item (cardinality of its column).
    pub fn support(&self, item: Item) -> u64 {
        self.columns[item as usize].cardinality()
    }

    /// Bytes of container storage across all columns.
    pub fn bytes(&self) -> usize {
        self.columns.iter().map(TidSet::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> VerticalBitDb {
        VerticalBitDb::from_ranked(
            &[
                vec![0, 1, 2],
                vec![0, 1, 2],
                vec![0, 1, 2, 3, 4, 5],
                vec![0, 1, 3],
                vec![4, 5],
            ],
            6,
        )
    }

    #[test]
    fn columns_match_occurrences() {
        let v = toy();
        assert_eq!(v.n_transactions(), 5);
        assert_eq!(v.n_items(), 6);
        assert_eq!(v.column(0).iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(v.column(4).iter_ones().collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(v.support(0), 4);
        assert_eq!(v.support(5), 2);
    }

    #[test]
    fn ranges_are_tight_initially() {
        let v = toy();
        for i in 0..6u32 {
            assert_eq!(v.range(i), v.column(i).one_range());
        }
        // every column of the toy fits in word 0
        assert_eq!(v.range(0), OneRange { first: 0, last: 0 });
    }

    #[test]
    fn lexicographic_ordering_shortens_ranges() {
        // 1000 transactions; item 0 in every 10th one (scattered), vs the
        // same database lexicographically ordered (item-0 transactions
        // first). The scattered column spans ~16 words; the clustered one
        // spans ~2 — the effect §4.2 banks on.
        let scattered: Vec<Vec<u32>> = (0..1000u32)
            .map(|t| if t % 10 == 0 { vec![0, 1] } else { vec![1] })
            .collect();
        let mut ordered = scattered.clone();
        also::lexorder::lex_order(&mut ordered);
        let vs = VerticalBitDb::from_ranked(&scattered, 2);
        let vo = VerticalBitDb::from_ranked(&ordered, 2);
        assert_eq!(vs.support(0), vo.support(0));
        assert!(
            vo.range(0).width() < vs.range(0).width() / 4,
            "ordered range {} should be far shorter than scattered {}",
            vo.range(0).width(),
            vs.range(0).width()
        );
    }

    #[test]
    fn empty_matrix() {
        let v = VerticalBitDb::from_ranked(&[], 0);
        assert_eq!(v.n_transactions(), 0);
        assert_eq!(v.n_items(), 0);
        assert_eq!(v.bytes(), 0);
    }

    /// A two-item database over exactly `n` transactions: item 0 in every
    /// transaction, item 1 in every other one.
    fn striped(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|t| if t % 2 == 0 { vec![0, 1] } else { vec![0] })
            .collect()
    }

    #[test]
    fn word_multiple_universe_has_no_phantom_tail_bits() {
        // Universes that are exact multiples of 64: the last word is
        // completely full, so any mishandled trailing-word mask would
        // either drop its bits or count past the end.
        for n in [64usize, 128, 192, 1024] {
            let v = VerticalBitDb::from_ranked(&striped(n), 2);
            assert_eq!(v.support(0), n as u64, "universe {n}");
            assert_eq!(v.support(1), n as u64 / 2, "universe {n}");
            assert_eq!(
                v.column(0).iter_ones().count(),
                n,
                "iter_ones must stop at the boundary for {n}"
            );
            // The tight 1-range of the full column ends exactly at the
            // last real word.
            assert_eq!(v.range(0).last as usize, (n - 1) / 64, "universe {n}");
            let h = VerticalHybridDb::from_ranked(&striped(n), 2);
            assert_eq!(h.support(0), n as u64, "hybrid universe {n}");
            assert_eq!(
                h.column(0).and(h.column(1)).cardinality(),
                n as u64 / 2,
                "hybrid AND at word boundary {n}"
            );
        }
    }

    #[test]
    fn chunk_multiple_universe_intersects_exactly() {
        // Universes that are exact multiples of 65536: the hybrid set's
        // last chunk is completely full, exercising the chunk-boundary
        // full-run/full-bitmap paths.
        for n in [65_536usize, 131_072] {
            let h = VerticalHybridDb::from_ranked(&striped(n), 2);
            assert_eq!(h.support(0), n as u64);
            assert_eq!(h.support(1), n as u64 / 2);
            let and = h.column(0).and(h.column(1));
            assert_eq!(and.cardinality(), n as u64 / 2);
            assert_eq!(and.to_vec(), h.column(1).to_vec());
            // The dense matrix agrees.
            let v = VerticalBitDb::from_ranked(&striped(n), 2);
            assert_eq!(v.support(0), h.support(0));
            assert_eq!(v.support(1), h.support(1));
        }
    }

    #[test]
    fn empty_intersection_early_exit_on_chunk_boundary() {
        // Disjoint columns that share no chunk (item 0 in chunk 0, item 1
        // in chunk 1) and disjoint columns *within* a shared chunk.
        let n = 2 * 65_536usize;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|t| if t < 65_536 { vec![0] } else { vec![1] })
            .collect();
        let h = VerticalHybridDb::from_ranked(&rows, 2);
        assert_eq!(h.column(0).and(h.column(1)).cardinality(), 0);
        assert!(h.column(0).and(h.column(1)).is_empty());

        let interleaved: Vec<Vec<u32>> =
            (0..n).map(|t| if t % 2 == 0 { vec![0] } else { vec![1] }).collect();
        let h2 = VerticalHybridDb::from_ranked(&interleaved, 2);
        assert_eq!(h2.column(0).and(h2.column(1)).cardinality(), 0);
        assert!(h2.column(0).and(h2.column(1)).is_empty());
    }

    #[test]
    fn hybrid_agrees_with_bits_on_scattered_db() {
        let rows: Vec<Vec<u32>> = (0..3000u32)
            .map(|t| (0..6).filter(|&i| (t * 7 + i * 13) % (i + 2) == 0).collect())
            .collect();
        let v = VerticalBitDb::from_ranked(&rows, 6);
        let h = VerticalHybridDb::from_ranked(&rows, 6);
        assert_eq!(v.n_transactions(), h.n_transactions());
        assert_eq!(v.n_items(), h.n_items());
        for i in 0..6u32 {
            assert_eq!(v.support(i), h.support(i), "item {i}");
            assert_eq!(
                v.column(i).iter_ones().map(|t| t as u32).collect::<Vec<_>>(),
                h.column(i).to_vec(),
                "item {i}"
            );
        }
    }
}
