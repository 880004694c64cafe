//! Property-based tests for the ALSO pattern library: every pattern is a
//! *semantics-preserving* transformation, so each property asserts
//! equivalence between the optimized form and a plain reference.

use also::adapt::{DeltaByte, NO_PARENT};
use also::aggregate::{ChunkPool, ChunkedList};
use also::bits::BitVec;
use also::lexorder;
use also::simd::{and_count_escaped, and_count_words, Popcount};
use proptest::prelude::*;

proptest! {
    /// All popcount strategies compute the same AND-popcount.
    #[test]
    fn simd_strategies_agree(a in prop::collection::vec(any::<u64>(), 0..300),
                             b in prop::collection::vec(any::<u64>(), 0..300)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference: u64 = a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones() as u64).sum();
        for s in Popcount::available() {
            prop_assert_eq!(and_count_words(a, b, s), reference, "{}", s.label());
        }
    }

    /// 0-escaping never changes the result of AND + count.
    #[test]
    fn zero_escaping_is_transparent(xs in prop::collection::vec(0u32..5000, 0..200),
                                    ys in prop::collection::vec(0u32..5000, 0..200)) {
        let a = BitVec::from_indices(5000, &xs);
        let b = BitVec::from_indices(5000, &ys);
        let full = and_count_words(a.as_words(), b.as_words(), Popcount::Scalar64);
        for s in Popcount::available() {
            let esc = and_count_escaped(&a, &a.one_range(), &b, &b.one_range(), s);
            prop_assert_eq!(esc, full, "{}", s.label());
        }
    }

    /// BitVec::from_indices + iter_ones is the sorted-dedup of the input.
    #[test]
    fn bitvec_roundtrip(xs in prop::collection::vec(0u32..4096, 0..300)) {
        let v = BitVec::from_indices(4096, &xs);
        let mut expect: Vec<usize> = xs.iter().map(|&x| x as usize).collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(v.iter_ones().collect::<Vec<_>>(), expect.clone());
        prop_assert_eq!(v.count_ones() as usize, expect.len());
        // one_range covers every set bit
        let r = v.one_range();
        for i in expect {
            let w = (i / 64) as u32;
            prop_assert!(r.first <= w && w <= r.last);
        }
    }

    /// Lexicographic ordering is idempotent and preserves the multiset of
    /// (item-sorted) transactions; the rank-0 item ends contiguous.
    #[test]
    fn lex_order_properties(db in prop::collection::vec(
        // transactions are item *sets* — no duplicates
        prop::collection::btree_set(0u32..30, 0..12)
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>()), 0..60)) {
        let mut once = db.clone();
        lexorder::lex_order(&mut once);
        let mut twice = once.clone();
        lexorder::lex_order(&mut twice);
        prop_assert_eq!(&once, &twice, "idempotent");

        let mut expect: Vec<Vec<u32>> = db.iter().map(|t| {
            let mut t = t.clone();
            t.sort_unstable();
            t
        }).collect();
        expect.sort();
        prop_assert_eq!(&once, &expect, "multiset preserved");

        // After ordering: item 0 (the first alphabet letter) is one
        // contiguous run; item 1 has at most one gap (the paper's §3.2
        // claim — item k can have up to 2^k - 1 gaps, so only the first
        // two ranks admit a tight bound).
        prop_assert_eq!(lexorder::discontinuities(&once, 0), 0);
        prop_assert!(lexorder::discontinuities(&once, 1) <= 1);
    }

    /// Aggregated lists reproduce the pushed sequence, whatever the
    /// interleaving across lists sharing the pool.
    #[test]
    fn chunked_list_preserves_sequences(ops in prop::collection::vec((0usize..5, any::<u32>()), 0..400)) {
        let mut pool: ChunkPool<u32, 14> = ChunkPool::new();
        let mut lists = [ChunkedList::new(); 5];
        let mut expect: Vec<Vec<u32>> = vec![Vec::new(); 5];
        for (li, v) in ops {
            lists[li].push(&mut pool, v);
            expect[li].push(v);
        }
        for (li, l) in lists.iter().enumerate() {
            prop_assert_eq!(l.to_vec(&pool), expect[li].clone());
            prop_assert_eq!(l.len(), expect[li].len());
        }
    }

    /// Differential byte encoding decodes back to the original item for
    /// arbitrary parent/child rank chains.
    #[test]
    fn delta_byte_roundtrip(chain in prop::collection::vec(1u32..2000, 1..100)) {
        // Build a strictly increasing rank chain from the deltas.
        let mut codec = DeltaByte::new();
        let mut parent = NO_PARENT;
        let mut item = 0u32;
        let mut stored = Vec::new();
        for (n, d) in chain.iter().enumerate() {
            item = if parent == NO_PARENT { d - 1 } else { item + d };
            stored.push((parent, item, codec.encode(n as u32, parent, item)));
            parent = item;
        }
        for (n, &(p, it, byte)) in stored.iter().enumerate() {
            prop_assert_eq!(codec.decode(n as u32, p, byte), it);
        }
    }
}
