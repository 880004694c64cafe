//! Sparse vertical representations: **hybrid containers** and
//! **diffsets** — the other side of the paper's Feature 2 design space
//! (§3.3, P2 data structure adaptation), and the dEclat algorithm of
//! Zaki & Gouda (KDD'03, the paper's reference \[33\]).
//!
//! A dense bit matrix spends one bit per (item, transaction) *cell*; a
//! 32-bit tid-list spends 32 bits per *occurrence*, so below 1/32
//! density the list takes less memory. Speed crosses over far lower:
//! the bit matrix's word-wise AND+popcount mines as fast down to about
//! 1/192, the [`also::adapt::DENSE_THRESHOLD`] below which the served
//! [`EclatSpine`] switches to the hybrid miner (DESIGN.md §7). Its
//! columns are tid-sets whose 2^16-tid chunks each pick their own array
//! (16 bits per occurrence), bitmap or run container by the one rule in
//! [`also::adapt::choose_container`], applied by
//! [`also::containers::TidSet::optimize`] (DESIGN.md §16). [`mine`] with
//! [`SparseRepr::Hybrid`] mines them at any density.
//!
//! Diffsets go further for dense data: within a prefix equivalence
//! class, each member stores only the transactions *lost* relative to
//! the class prefix (`d(PX) = t(P) − t(PX)`), so deep recursion carries
//! tiny sets even when tidsets are huge.

use crate::spine::{ColumnKind, EclatPrepared};
use crate::{EclatConfig, EclatSpine};
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
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

/// [`mine`] with memory instrumentation. The hybrid miner is the
/// [`EclatSpine`] on hybrid columns, whatever the density: prepare them
/// without P1, then one `mine_tasks` call over every root task.
pub fn mine_probed<P: Probe, S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    repr: SparseRepr,
    probe: &mut P,
    sink: &mut S,
) -> SparseStats {
    match repr {
        SparseRepr::Hybrid => {
            let cfg = EclatConfig::baseline();
            let prepared = EclatPrepared::build(db, minsup, &cfg, Some(ColumnKind::Hybrid), probe);
            let tasks = EclatSpine::root_tasks(&prepared);
            let control = MineControl::unlimited();
            EclatSpine::mine_tasks(&prepared, &tasks, probe, &control, sink)
                .0
                .hybrid
        }
        SparseRepr::Diffsets => {
            // Level 1 members carry tidsets, built in one scan of the
            // transactions; recursion converts to diffsets:
            // d(xy) = t(x) − t(y).
            let ranked = remap(db, minsup);
            let mut translate = TranslateSink::new(&ranked.map, sink);
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
            recurse_level1_diff(
                &class,
                &mut prefix,
                minsup.max(1),
                probe,
                &mut translate,
                &mut stats,
            );
            stats
        }
    }
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

    /// Root pairs (pairs of frequent items) whose support, counted
    /// row by row, falls below `minsup`.
    fn infrequent_root_pairs(db: &TransactionDb, minsup: u64) -> u64 {
        let mut item_sup = std::collections::BTreeMap::<u32, u64>::new();
        let mut pair_sup = std::collections::BTreeMap::<(u32, u32), u64>::new();
        for t in db.transactions() {
            for (k, &a) in t.iter().enumerate() {
                *item_sup.entry(a).or_default() += 1;
                for &b in &t[k + 1..] {
                    *pair_sup.entry((a.min(b), a.max(b))).or_default() += 1;
                }
            }
        }
        let frequent: Vec<u32> = item_sup
            .into_iter()
            .filter(|&(_, s)| s >= minsup)
            .map(|(i, _)| i)
            .collect();
        let mut infrequent = 0;
        for (k, &a) in frequent.iter().enumerate() {
            for &b in &frequent[k + 1..] {
                if pair_sup.get(&(a, b)).copied().unwrap_or(0) < minsup {
                    infrequent += 1;
                }
            }
        }
        infrequent
    }

    /// Mines `db` with the bit matrix and the hybrid containers, asserts
    /// identical bytes, and returns `(hybrid set_ops, bit-matrix
    /// intersections, hybrid patterns)`.
    fn hybrid_against_bits(db: &TransactionDb, minsup: u64) -> (u64, u64, Vec<fpm::ItemsetCount>) {
        let mut bits_sink = fpm::RecordSink::default();
        let bits = crate::mine(db, minsup, &EclatConfig::all(), &mut bits_sink);
        let mut hyb_sink = fpm::RecordSink::default();
        let hyb = mine(db, minsup, SparseRepr::Hybrid, &mut hyb_sink);
        assert_eq!(
            hyb_sink.bytes, bits_sink.bytes,
            "hybrid bytes differ at minsup {minsup}"
        );
        (
            hyb.set_ops,
            bits.intersections,
            run(db, minsup, SparseRepr::Hybrid),
        )
    }

    #[test]
    fn hybrid_matches_bits_and_walks_the_same_classes() {
        // Sparse scattered shape: long tid universe, low per-item density —
        // the profile the containers target. Items 10..14 are rare, so
        // most of their root pairs fall below minsup.
        let mut s = 41u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..4000)
                .map(|_| {
                    (0..14u32)
                        .filter(|&i| rnd() % if i < 10 { 5 } else { 40 } == 0)
                        .collect::<Vec<_>>()
                })
                .collect(),
        );
        let infrequent = infrequent_root_pairs(&db, 40);
        assert!(infrequent > 0, "the input must have infrequent root pairs");
        let (set_ops, intersections, patterns) = hybrid_against_bits(&db, 40);
        assert!(patterns.iter().any(|p| p.items.len() == 2));
        // Same class walk below the root; at the root the pair count
        // skips exactly the pairs that cannot be frequent. The containers
        // change the bytes per element, not the search.
        assert_eq!(set_ops + infrequent, intersections);
    }

    #[test]
    fn root_pair_at_minsup_is_kept_and_one_below_is_not() {
        // Supports: item 0 → 10, item 2 → 9, item 1 → 7; pair {0, 1} → 5
        // (exactly minsup), {0, 2} → 4 (minsup − 1), {1, 2} → 2.
        let mut rows = vec![vec![0, 1]; 5];
        rows.extend(vec![vec![0, 2]; 4]);
        rows.extend(vec![vec![1, 2]; 2]);
        rows.extend(vec![vec![2]; 3]);
        rows.push(vec![0]);
        let db = TransactionDb::from_transactions(rows);
        let (set_ops, intersections, patterns) = hybrid_against_bits(&db, 5);
        assert_eq!(infrequent_root_pairs(&db, 5), 2);
        assert_eq!((set_ops, intersections), (1, 3));
        let pair = |items: &[u32]| {
            patterns
                .iter()
                .find(|p| p.items == items)
                .map(|p| p.support)
        };
        assert_eq!(pair(&[0, 1]), Some(5));
        assert_eq!(pair(&[0, 2]), None);
        assert_eq!(pair(&[1, 2]), None);
        assert_eq!(patterns.len(), 4);
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
    fn set_algebra_edge_cases() {
        let mut st = SparseStats::default();
        let mut p = NullProbe;
        assert_eq!(difference(&[1, 2, 3], &[], &mut p, &mut st), vec![1, 2, 3]);
        assert_eq!(difference(&[1, 2, 3], &[2], &mut p, &mut st), vec![1, 3]);
        assert_eq!(difference(&[], &[1], &mut p, &mut st), Vec::<u32>::new());
        assert_eq!(st.set_ops, 3);
    }
}
