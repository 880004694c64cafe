//! Differential container-conformance battery: the hybrid-container AND
//! that Eclat runs, checked against a naive `BTreeSet<u32>` oracle
//! (DESIGN.md §16).
//!
//! The directed half pins all nine container type pairs (array, bitmap,
//! runs — forced explicitly) for AND and iteration, at the chunk-boundary
//! values 0, 65535, 65536. The property half throws randomized shapes at
//! the same oracle; failing seeds persist via the vendored proptest's
//! `.proptest-regressions` mechanism.

use also::adapt::{ContainerKind, ARRAY_MAX};
use also::containers::TidSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Chunk-boundary tids every directed case weaves in.
const BOUNDARIES: &[u32] = &[0, 63, 64, 65_535, 65_536, 65_537, 131_071, 131_072];

fn from_oracle(o: &BTreeSet<u32>) -> TidSet {
    let v: Vec<u32> = o.iter().copied().collect();
    TidSet::from_sorted(&v)
}

fn assert_matches(set: &TidSet, oracle: &BTreeSet<u32>, what: &str) {
    assert_eq!(set.cardinality(), oracle.len() as u64, "{what}: cardinality");
    assert_eq!(
        set.to_vec(),
        oracle.iter().copied().collect::<Vec<_>>(),
        "{what}: iteration order/content"
    );
    // Container invariants: arrays never exceed ARRAY_MAX; bitmaps always
    // do.
    for (key, kind, card) in set.chunk_kinds() {
        match kind {
            ContainerKind::Array => assert!(
                card as usize <= ARRAY_MAX,
                "{what}: array chunk {key} holds {card} > ARRAY_MAX"
            ),
            ContainerKind::Bitmap => assert!(
                card as usize > ARRAY_MAX,
                "{what}: bitmap chunk {key} holds {card} <= ARRAY_MAX"
            ),
            ContainerKind::Runs => assert!(card > 0, "{what}: empty runs chunk {key}"),
        }
    }
}

/// Builds a single-chunk set of the requested kind, offset into chunk
/// `chunk` and including that chunk's first/last values.
fn forced(kind: ContainerKind, chunk: u32, salt: u32) -> (TidSet, BTreeSet<u32>) {
    let base = chunk << 16;
    let vals: Vec<u32> = match kind {
        // Sparse scatter, pinned to both chunk edges.
        ContainerKind::Array => (0..200u32)
            .map(|i| base + (i * 307 + salt * 11) % 65_536)
            .chain([base, base + 65_535])
            .collect(),
        // More than ARRAY_MAX values: from_sorted builds a bitmap.
        ContainerKind::Bitmap => (0..65_536u32)
            .filter(|i| !(i + salt).is_multiple_of(13))
            .take(ARRAY_MAX + 1000)
            .map(|i| base + i)
            .chain([base, base + 65_535])
            .collect(),
        // A few solid blocks: optimize() adopts runs.
        ContainerKind::Runs => (0..2000u32)
            .map(|i| base + i)
            .chain((40_000..41_000u32).map(|i| base + i + salt % 7))
            .chain([base, base + 65_535])
            .collect(),
    };
    let oracle: BTreeSet<u32> = vals.into_iter().collect();
    let mut set = from_oracle(&oracle);
    if kind == ContainerKind::Runs {
        set.optimize();
    }
    let built = set.chunk_kinds()[0].1;
    assert_eq!(built, kind, "forced container must materialize as requested");
    (set, oracle)
}

const KINDS: [ContainerKind; 3] =
    [ContainerKind::Array, ContainerKind::Bitmap, ContainerKind::Runs];

#[test]
fn all_nine_pairs_and_match_oracle() {
    for (ai, &ka) in KINDS.iter().enumerate() {
        for (bi, &kb) in KINDS.iter().enumerate() {
            // Same chunk (so the pair actually meets) on chunk 0 and on
            // chunk 1 (boundary 65536).
            for chunk in [0u32, 1] {
                let (a, oa) = forced(ka, chunk, ai as u32 + 1);
                let (b, ob) = forced(kb, chunk, bi as u32 + 5);
                let label = format!("{ka:?}∧{kb:?} chunk {chunk}");
                let and_o: BTreeSet<u32> = oa.intersection(&ob).copied().collect();
                assert_matches(&a.and(&b), &and_o, &label);
            }
        }
    }
}

#[test]
fn cross_chunk_and_aligns_keys() {
    // a spans chunks 0+1, b spans chunks 1+2: AND must align per key and
    // drop the unmatched chunks.
    let (_, oa0) = forced(ContainerKind::Array, 0, 3);
    let (_, oa1) = forced(ContainerKind::Bitmap, 1, 4);
    let (_, ob1) = forced(ContainerKind::Runs, 1, 9);
    let (_, ob2) = forced(ContainerKind::Array, 2, 2);
    let oa: BTreeSet<u32> = oa0.union(&oa1).copied().collect();
    let ob: BTreeSet<u32> = ob1.union(&ob2).copied().collect();
    let a = from_oracle(&oa);
    let mut b = from_oracle(&ob);
    b.optimize();
    let layout = |s: &TidSet| -> Vec<(u16, ContainerKind)> {
        s.chunk_kinds().into_iter().map(|(k, kind, _)| (k, kind)).collect()
    };
    assert_eq!(layout(&a), [(0, ContainerKind::Array), (1, ContainerKind::Bitmap)]);
    assert_eq!(layout(&b), [(1, ContainerKind::Runs), (2, ContainerKind::Array)]);
    assert_matches(&a, &oa, "composed a");
    assert_matches(&b, &ob, "composed b");
    assert_matches(
        &a.and(&b),
        &oa.intersection(&ob).copied().collect(),
        "cross-chunk and",
    );
}

#[test]
fn empty_and_boundary_singletons() {
    let empty = TidSet::new();
    assert!(empty.is_empty());
    assert!(empty.and(&empty).is_empty());
    for &b in BOUNDARIES {
        let s = TidSet::from_sorted(&[b]);
        let oracle: BTreeSet<u32> = [b].into_iter().collect();
        assert_matches(&s, &oracle, &format!("singleton {b}"));
        assert!(s.and(&empty).is_empty());
        assert!(empty.and(&s).is_empty());
        assert_eq!(s.and(&s).to_vec(), vec![b]);
    }
}

// ---------------------------------------------------------------------------
// Property half: randomized shapes vs the oracle. Failing seeds are
// appended to `container_conformance.proptest-regressions` by the
// vendored runner and replayed on the next run.
// ---------------------------------------------------------------------------

/// Random tid sets spanning several chunks, salted with boundary values.
fn arb_tids() -> impl Strategy<Value = BTreeSet<u32>> {
    (
        prop::collection::btree_set(0u32..200_000, 0..300),
        0u32..256,
    )
        .prop_map(|(mut s, mask)| {
            for (i, &b) in BOUNDARIES.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(b);
                }
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_pairwise_and_matches_oracle(oa in arb_tids(), ob in arb_tids(), opt in 0u32..4) {
        let mut a = from_oracle(&oa);
        let mut b = from_oracle(&ob);
        // Randomly re-shape either side so run containers join the mix.
        if opt & 1 != 0 { a.optimize(); }
        if opt & 2 != 0 { b.optimize(); }
        let and_o: BTreeSet<u32> = oa.intersection(&ob).copied().collect();
        assert_matches(&a.and(&b), &and_o, "random and");
    }
}
