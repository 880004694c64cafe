//! Sparse vertical representations: **hybrid containers** and
//! **diffsets** — the other side of the paper's Feature 2 design space
//! (§3.3, P2 data structure adaptation), and the dEclat algorithm of
//! Zaki & Gouda (KDD'03, the paper's reference \[33\]).
//!
//! A dense bit matrix spends one bit per (item, transaction) *cell*; a
//! 32-bit tid-list spends 32 bits per *occurrence*. Below ~1/32 density
//! the list wins — which is exactly the boundary
//! [`also::adapt::choose_repr`] encodes, and [`mine_auto`] consumes. The
//! sparse side it runs is the hybrid miner: each 2^16-tid chunk of every
//! tid-set picks its own array (16 bits per occurrence), bitmap or run
//! container by the one rule in [`also::adapt::choose_container`],
//! applied by [`also::containers::TidSet::optimize`] (DESIGN.md §16).
//!
//! Diffsets go further for dense data: within a prefix equivalence
//! class, each member stores only the transactions *lost* relative to
//! the class prefix (`d(PX) = t(P) − t(PX)`), so deep recursion carries
//! tiny sets even when tidsets are huge.

use crate::hybrid::HybridMiner;
use crate::EclatConfig;
use fpm::control::MineControl;
use fpm::vertical::VerticalHybridDb;
use fpm::{remap, PatternSink, TransactionDb, TranslateSink};
use memsim::{NullProbe, Probe};

/// Vertical set representation for the sparse miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseRepr {
    /// dEclat: tidsets at level 1, diffsets below.
    Diffsets,
    /// Roaring-style adaptive containers: per-2^16-tid chunks stored as
    /// sorted-u16 arrays, bitmaps, or runs ([`also::containers`],
    /// DESIGN.md §16).
    Hybrid,
}

/// Work counters for a sparse-representation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Set operations (intersections or differences) performed.
    pub set_ops: u64,
    /// Total elements written into result sets.
    pub elements_out: u64,
    /// Total elements scanned from operand sets.
    pub elements_in: u64,
}

/// Mines every frequent itemset over hybrid containers (or diffsets),
/// emitting patterns in **original item ids**. Results are identical to
/// the bit-matrix [`crate::mine`].
pub fn mine<S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    repr: SparseRepr,
    sink: &mut S,
) -> SparseStats {
    mine_probed(db, minsup, repr, &mut NullProbe, sink)
}

/// [`mine`] with memory instrumentation.
pub fn mine_probed<P: Probe, S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    repr: SparseRepr,
    probe: &mut P,
    sink: &mut S,
) -> SparseStats {
    let ranked = remap(db, minsup);
    let mut translate = TranslateSink::new(&ranked.map, sink);
    let minsup = minsup.max(1);
    match repr {
        SparseRepr::Hybrid => {
            // Build the per-chunk adaptive columns and run the container
            // DFS (crate::hybrid): the bit-matrix class walk, same output.
            let hdb = VerticalHybridDb::from_ranked(&ranked.transactions, ranked.n_ranks());
            let control = MineControl::unlimited();
            let mut miner = HybridMiner {
                minsup,
                probe,
                sink: &mut translate,
                stats: SparseStats::default(),
                control: &control,
                cut: false,
                prefix: Vec::new(),
            };
            miner.run(&hdb);
            miner.stats
        }
        SparseRepr::Diffsets => {
            // Level 1 members carry tidsets, built in one scan of the
            // transactions; recursion converts to diffsets:
            // d(xy) = t(x) − t(y).
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); ranked.n_ranks()];
            for (tid, t) in ranked.transactions.iter().enumerate() {
                for &r in t {
                    lists[r as usize].push(tid as u32);
                }
            }
            let class: Vec<Member> = lists
                .into_iter()
                .enumerate()
                .map(|(r, tids)| Member {
                    item: r as u32,
                    support: tids.len() as u64,
                    set: tids,
                })
                .collect();
            let mut stats = SparseStats::default();
            let mut prefix = Vec::new();
            recurse_level1_diff(&class, &mut prefix, minsup, probe, &mut translate, &mut stats);
            stats
        }
    }
}

/// Picks bit matrix vs sparse from the measured density
/// ([`also::adapt::choose_repr`]) and runs the corresponding miner: the
/// bit matrix, or the hybrid containers for every sparse pick. Returns
/// which representation was chosen.
pub fn mine_auto<S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    sink: &mut S,
) -> also::adapt::Repr {
    let ranked = remap(db, minsup);
    let nnz: u64 = ranked.transactions.iter().map(|t| t.len() as u64).sum();
    let repr = also::adapt::choose_repr(
        ranked.transactions.len(),
        ranked.n_ranks(),
        nnz,
        1.0, // prefix sharing is the tree miner's business
    );
    match repr {
        also::adapt::Repr::VerticalBits => {
            crate::mine(db, minsup, &EclatConfig::all(), sink);
        }
        _ => {
            mine(db, minsup, SparseRepr::Hybrid, sink);
        }
    }
    repr
}

struct Member {
    item: u32,
    support: u64,
    /// tidset (level 1) or diffset (deeper dEclat levels).
    set: Vec<u32>,
}

/// Sorted-merge difference `a − b` with probing.
fn difference<P: Probe>(a: &[u32], b: &[u32], probe: &mut P, stats: &mut SparseStats) -> Vec<u32> {
    stats.set_ops += 1;
    stats.elements_in += (a.len() + b.len()) as u64;
    let (pa, la) = memsim::slice_span(a);
    probe.read(pa, la);
    let (pb, lb) = memsim::slice_span(b);
    probe.read(pb, lb);
    probe.instr((a.len() + b.len()) as u64 * 3);
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    stats.elements_out += out.len() as u64;
    if !out.is_empty() {
        let (po, lo) = memsim::slice_span(out.as_slice());
        probe.write(po, lo);
    }
    out
}

/// Level 1 of dEclat: members hold tidsets; children get diffsets
/// `d(xy) = t(x) − t(y)` with `sup(xy) = sup(x) − |d(xy)|`.
fn recurse_level1_diff<P: Probe, S: PatternSink>(
    class: &[Member],
    prefix: &mut Vec<u32>,
    minsup: u64,
    probe: &mut P,
    sink: &mut S,
    stats: &mut SparseStats,
) {
    for (i, c) in class.iter().enumerate() {
        prefix.push(c.item);
        sink.emit(prefix, c.support);
        let mut next = Vec::new();
        for d in &class[i + 1..] {
            let diff = difference(&c.set, &d.set, probe, stats);
            let support = c.support - diff.len() as u64;
            if support >= minsup {
                next.push(Member {
                    item: d.item,
                    support,
                    set: diff,
                });
            }
        }
        if !next.is_empty() {
            recurse_diff(&next, prefix, minsup, probe, sink, stats);
        }
        prefix.pop();
    }
}

/// Deeper dEclat levels: members hold diffsets relative to the class
/// prefix; `d(PXY) = d(PY) − d(PX)` and `sup(PXY) = sup(PX) − |d(PXY)|`.
fn recurse_diff<P: Probe, S: PatternSink>(
    class: &[Member],
    prefix: &mut Vec<u32>,
    minsup: u64,
    probe: &mut P,
    sink: &mut S,
    stats: &mut SparseStats,
) {
    for (i, c) in class.iter().enumerate() {
        prefix.push(c.item);
        sink.emit(prefix, c.support);
        let mut next = Vec::new();
        for d in &class[i + 1..] {
            let diff = difference(&d.set, &c.set, probe, stats);
            let support = c.support - diff.len() as u64;
            if support >= minsup {
                next.push(Member {
                    item: d.item,
                    support,
                    set: diff,
                });
            }
        }
        if !next.is_empty() {
            recurse_diff(&next, prefix, minsup, probe, sink, stats);
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::types::canonicalize;
    use fpm::CollectSink;

    fn toy() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 2, 5],
            vec![1, 2, 5],
            vec![0, 2, 5],
            vec![3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ])
    }

    fn run(db: &TransactionDb, minsup: u64, repr: SparseRepr) -> Vec<fpm::ItemsetCount> {
        let mut s = CollectSink::default();
        mine(db, minsup, repr, &mut s);
        canonicalize(s.patterns)
    }

    #[test]
    fn hybrid_and_diffsets_match_naive() {
        for minsup in 1..=5u64 {
            let expect = canonicalize(fpm::naive::mine(&toy(), minsup));
            assert_eq!(run(&toy(), minsup, SparseRepr::Diffsets), expect, "diff {minsup}");
            assert_eq!(run(&toy(), minsup, SparseRepr::Hybrid), expect, "hybrid {minsup}");
        }
    }

    #[test]
    fn sparse_matches_bits_on_pseudorandom() {
        let mut s = 17u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..250)
                .map(|_| (0..18u32).filter(|_| rnd() % 3 == 0).collect::<Vec<_>>())
                .collect(),
        );
        let mut bits = CollectSink::default();
        crate::mine(&db, 6, &EclatConfig::all(), &mut bits);
        let expect = canonicalize(bits.patterns);
        assert!(!expect.is_empty());
        assert_eq!(run(&db, 6, SparseRepr::Diffsets), expect);
        assert_eq!(run(&db, 6, SparseRepr::Hybrid), expect);
    }

    #[test]
    fn hybrid_matches_bits_and_walks_the_same_classes() {
        // Sparse scattered shape: long tid universe, low per-item density —
        // the profile the containers target.
        let mut s = 41u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..4000)
                .map(|_| (0..14u32).filter(|_| rnd() % 5 == 0).collect::<Vec<_>>())
                .collect(),
        );
        let mut bits_sink = CollectSink::default();
        let bits = crate::mine(&db, 40, &EclatConfig::all(), &mut bits_sink);
        let mut hyb_sink = CollectSink::default();
        let hyb = mine(&db, 40, SparseRepr::Hybrid, &mut hyb_sink);
        assert_eq!(
            canonicalize(bits_sink.patterns),
            canonicalize(hyb_sink.patterns)
        );
        // Same class walk → one set operation per bit-matrix intersection
        // (short-circuited ones included); the containers change the
        // bytes per element, not the search.
        assert_eq!(hyb.set_ops, bits.intersections);
    }

    #[test]
    fn diffsets_shrink_on_dense_data() {
        // Dense database: diffsets must move far fewer elements than
        // tidsets — dEclat's raison d'être. The hybrid miner writes whole
        // tidsets (every intersection's cardinality) on the same class
        // walk.
        let db = TransactionDb::from_transactions(
            (0..400u32)
                .map(|k| (0..12u32).filter(|&i| (k + i) % 13 != 0).collect::<Vec<_>>())
                .collect(),
        );
        let mut s1 = CollectSink::default();
        let tids = mine(&db, 40, SparseRepr::Hybrid, &mut s1);
        let mut s2 = CollectSink::default();
        let diff = mine(&db, 40, SparseRepr::Diffsets, &mut s2);
        assert_eq!(canonicalize(s1.patterns), canonicalize(s2.patterns));
        assert!(
            diff.elements_out * 3 < tids.elements_out,
            "diffsets must carry far less: {} vs {}",
            diff.elements_out,
            tids.elements_out
        );
    }

    #[test]
    fn auto_routes_by_density() {
        // dense toy → bit matrix
        assert_eq!(
            mine_auto(&toy(), 1, &mut CollectSink::default()),
            also::adapt::Repr::VerticalBits
        );
        // very sparse synthetic → hybrid containers, same results as bits
        let sparse = TransactionDb::from_transactions(
            (0..500u32).map(|k| vec![k % 97, 97 + k % 89]).collect(),
        );
        let mut auto_sink = CollectSink::default();
        let repr = mine_auto(&sparse, 3, &mut auto_sink);
        assert_ne!(repr, also::adapt::Repr::VerticalBits);
        let mut bits_sink = CollectSink::default();
        crate::mine(&sparse, 3, &EclatConfig::all(), &mut bits_sink);
        assert_eq!(
            canonicalize(auto_sink.patterns),
            canonicalize(bits_sink.patterns)
        );
    }

    #[test]
    fn set_algebra_edge_cases() {
        let mut st = SparseStats::default();
        let mut p = NullProbe;
        assert_eq!(difference(&[1, 2, 3], &[], &mut p, &mut st), vec![1, 2, 3]);
        assert_eq!(difference(&[1, 2, 3], &[2], &mut p, &mut st), vec![1, 3]);
        assert_eq!(difference(&[], &[1], &mut p, &mut st), Vec::<u32>::new());
        assert_eq!(st.set_ops, 3);
    }
}
