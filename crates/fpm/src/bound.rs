//! Closed-form upper bound on the number of frequent patterns — the
//! admission-control oracle of the service layer.
//!
//! Before a server commits a worker to a mining query it wants a cheap,
//! *sound* estimate of how large the output (and hence the search) can
//! possibly get. Geerts, Goethals & Van den Bussche ("A Tight Upper
//! Bound on the Number of Candidate Patterns") derive exactly such bounds
//! from information that is available *before* the expensive levels run:
//! the number of frequent items and simple shape facts of the database.
//! This module implements a bound in that spirit using two O(db) facts:
//!
//! * `m` — the number of frequent items (every frequent itemset draws
//!   from these, so level `k` holds at most `C(m, k)` itemsets);
//! * `L` — the length of the `minsup`-th longest *ranked* transaction
//!   (a frequent itemset is contained in at least `minsup` transactions,
//!   so its size cannot exceed the `minsup`-th largest transaction
//!   length after infrequent items are removed).
//!
//! The bound is `Σ_{k=1..min(m,L)} C(m, k)`, computed in saturating
//! floating point: anything that overflows an `f64` is far beyond any
//! admission threshold anyway.
//!
//! Both facts are read off the database's cached frequency ranking (see
//! [`mod@crate::remap`]): `m` is the length of the ranking's prefix that
//! reaches `minsup`, and each ranked transaction's length is that of its
//! ranked row's prefix below `m`. The bound remaps nothing itself.

use crate::db::TransactionDb;

/// Upper bound on the number of frequent itemsets of `db` at `minsup`,
/// from frequent-item count and transaction-length shape alone (no
/// mining). Sound: the true count never exceeds it. `f64::INFINITY`
/// signals an astronomically large search space.
pub fn candidate_bound(db: &TransactionDb, minsup: u64) -> f64 {
    let ranking = db.ranking();
    let m = ranking.frequent(minsup);
    let mut lens = Vec::with_capacity(db.len());
    lens.extend(ranking.kept_rows(db, m).map(<[u32]>::len));
    lens.sort_unstable_by(|a, b| b.cmp(a));
    bound_from_shape(m, &lens, minsup)
}

/// [`candidate_bound`] from precomputed shape facts: `m` frequent items
/// and the ranked transaction lengths `lens_desc` sorted descending,
/// one entry per non-empty ranked transaction (the form
/// [`crate::remap()`] produces — duplicates are *not* merged at this
/// stage, so each length carries multiplicity one and the
/// `minsup`-th-longest cutoff is sound).
pub fn bound_from_shape(m: usize, lens_desc: &[usize], minsup: u64) -> f64 {
    if m == 0 || lens_desc.is_empty() {
        return 0.0;
    }
    // A frequent itemset is a subset of >= minsup transactions, so its
    // size is at most the minsup-th largest transaction length.
    let idx = (minsup.max(1) as usize - 1).min(lens_desc.len() - 1);
    let max_k = lens_desc[idx].min(m);
    let mut total = 0.0f64;
    let mut binom = 1.0f64; // C(m, 0)
    for k in 1..=max_k {
        binom *= (m - k + 1) as f64 / k as f64;
        total += binom;
        if !total.is_finite() {
            return f64::INFINITY;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::CountSink;
    use crate::PatternSink as _;

    fn actual_count(db: &TransactionDb, minsup: u64) -> u64 {
        let mut sink = CountSink::default();
        for p in naive::mine(db, minsup) {
            sink.emit(&p.items, p.support);
        }
        sink.count
    }

    #[test]
    fn bound_dominates_actual_count_on_small_dbs() {
        let dbs = vec![
            vec![vec![0u32, 1, 2], vec![0, 1], vec![1, 2], vec![0, 2]],
            vec![vec![0u32, 1, 2, 3, 4], vec![0, 1, 2, 3, 4]],
            vec![vec![5u32], vec![5], vec![5, 6], vec![7]],
        ];
        for raw in dbs {
            let db = TransactionDb::from_transactions(raw);
            for minsup in 1..=4u64 {
                let b = candidate_bound(&db, minsup);
                let actual = actual_count(&db, minsup) as f64;
                assert!(
                    b >= actual,
                    "bound {b} < actual {actual} at minsup {minsup}"
                );
            }
        }
    }

    #[test]
    fn single_full_transaction_bound_is_exact() {
        // One transaction of n items at minsup 1: exactly 2^n - 1
        // frequent itemsets, and the bound collapses to the same value.
        let db = TransactionDb::from_transactions(vec![vec![0, 1, 2, 3]]);
        assert_eq!(candidate_bound(&db, 1), 15.0);
    }

    #[test]
    fn higher_minsup_never_raises_the_bound() {
        let db = TransactionDb::from_transactions(
            (0..40u32)
                .map(|k| (0..(3 + k % 7)).map(|i| (k + i) % 13).collect())
                .collect(),
        );
        let mut prev = f64::INFINITY;
        for minsup in 1..=8u64 {
            let b = candidate_bound(&db, minsup);
            assert!(b <= prev, "minsup {minsup}: {b} > {prev}");
            prev = b;
        }
    }

    #[test]
    fn empty_and_infrequent_inputs_bound_to_zero() {
        assert_eq!(candidate_bound(&TransactionDb::default(), 1), 0.0);
        let db = TransactionDb::from_transactions(vec![vec![0], vec![1]]);
        assert_eq!(candidate_bound(&db, 5), 0.0);
    }

    #[test]
    fn huge_spaces_saturate_to_infinity() {
        // 4000 frequent items in 4000-item transactions: C(4000, k) sums
        // overflow f64 — the signal an admission controller rejects on.
        let lens = vec![4000usize; 10];
        assert_eq!(bound_from_shape(4000, &lens, 1), f64::INFINITY);
    }

    #[test]
    fn shape_bound_respects_minsup_th_longest_cutoff() {
        // One long transaction among short ones: at minsup 2 the cutoff
        // is the 2nd-longest length, not the longest.
        let lens = vec![10usize, 2, 2, 2];
        let m = 10;
        let at_1 = bound_from_shape(m, &lens, 1);
        let at_2 = bound_from_shape(m, &lens, 2);
        assert_eq!(at_1, 1023.0); // sum C(10,k), k=1..10
        assert_eq!(at_2, 55.0); // C(10,1) + C(10,2)
    }
}
