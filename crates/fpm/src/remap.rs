//! Frequency-rank remapping: the preprocessing step every miner shares.
//!
//! Items below the support threshold can never appear in a frequent
//! itemset (the Apriori property), so they are dropped up front; the
//! surviving items are renumbered by **decreasing frequency** — rank 0 is
//! the most frequent item. Under this encoding the paper's P1 alphabet
//! ("items in decreasing frequency order") is the natural integer order,
//! transactions sorted ascending are already frequency-ordered, and the
//! FP-tree's "parent rank < child rank" invariant that the differential
//! byte encoding (P2) exploits holds by construction.

use crate::db::TransactionDb;
use crate::types::Item;
use memsim::Probe;

/// The item-id translation produced by [`remap`].
#[derive(Debug, Clone)]
pub struct RankMap {
    to_orig: Vec<Item>,
    supports: Vec<u64>,
}

impl RankMap {
    /// Number of frequent items (the ranked alphabet size).
    pub fn n_ranks(&self) -> usize {
        self.to_orig.len()
    }

    /// Translates a rank back to the original item id.
    pub fn original(&self, rank: u32) -> Item {
        self.to_orig[rank as usize]
    }

    /// The support of the item at `rank` (non-increasing in rank).
    pub fn support(&self, rank: u32) -> u64 {
        self.supports[rank as usize]
    }

    /// Translates a rank-space itemset into original ids, sorted.
    pub fn translate(&self, ranks: &[u32]) -> Vec<Item> {
        let mut v: Vec<Item> = ranks.iter().map(|&r| self.original(r)).collect();
        v.sort_unstable();
        v
    }
}

/// A database after remapping: transactions over rank ids, each sorted
/// ascending (= decreasing frequency), with infrequent items and empty
/// transactions removed.
#[derive(Debug, Clone)]
pub struct RankedDb {
    /// Transactions over rank ids, each sorted ascending.
    pub transactions: Vec<Vec<u32>>,
    /// The rank ↔ original translation and per-rank supports.
    pub map: RankMap,
    /// Number of transactions in the *original* database (empty and
    /// all-infrequent transactions still count toward supports' domain).
    pub original_len: usize,
}

impl RankedDb {
    /// The ranked alphabet size.
    pub fn n_ranks(&self) -> usize {
        self.map.n_ranks()
    }
}

/// Item-id arrays (`freq`, `to_rank`) are sized by the largest id only
/// while that stays within this many ids per item occurrence; past it
/// the ids are sparse (say one transaction holding item `u32::MAX`) and
/// a sorted table of the occurring ids takes their place.
const DENSE_IDS_PER_OCCURRENCE: u64 = 4;

/// Counts item frequencies, drops items with support < `minsup`, and
/// renumbers the survivors by decreasing frequency (ties broken by
/// original id, ascending, for determinism).
///
/// Memory is bounded by the database, not by its largest item id:
/// sparse ids are counted through a sorted table, with the same output
/// as the dense arrays.
pub fn remap(db: &TransactionDb, minsup: u64) -> RankedDb {
    let minsup = minsup.max(1);
    if db.n_items() as u64 <= DENSE_IDS_PER_OCCURRENCE * db.nnz() {
        let mut freq = vec![0u64; db.n_items()];
        for t in db.transactions() {
            for &i in t {
                freq[i as usize] += 1;
            }
        }
        let frequent = by_rank(
            (0..db.n_items())
                .filter(|&i| freq[i] >= minsup)
                .map(|i| (i as Item, freq[i]))
                .collect(),
        );
        let mut to_rank = vec![u32::MAX; db.n_items()];
        for (rank, &(orig, _)) in frequent.iter().enumerate() {
            to_rank[orig as usize] = rank as u32;
        }
        ranked(db, frequent, move |i| to_rank[i as usize])
    } else {
        let mut ids: Vec<Item> = db.transactions().iter().flatten().copied().collect();
        ids.sort_unstable();
        let mut counted: Vec<(Item, u64)> = Vec::new();
        for id in ids {
            match counted.last_mut() {
                Some((last, support)) if *last == id => *support += 1,
                _ => counted.push((id, 1)),
            }
        }
        counted.retain(|&(_, s)| s >= minsup);
        let frequent = by_rank(counted);
        let mut to_rank: Vec<(Item, u32)> = frequent
            .iter()
            .enumerate()
            .map(|(rank, &(orig, _))| (orig, rank as u32))
            .collect();
        to_rank.sort_unstable();
        ranked(db, frequent, move |i| {
            to_rank
                .binary_search_by_key(&i, |&(orig, _)| orig)
                .map_or(u32::MAX, |at| to_rank[at].1)
        })
    }
}

/// [`remap`], then, when `lex` is set, the paper's P1 pass: the ranked
/// transactions are reordered lexicographically
/// ([`also::lexorder::lex_order`]) and the reorder is charged to
/// `probe`. It is a real cost the paper weighs against the benefit
/// ("lexicographic ordering is very time consuming" on very large
/// inputs, §4.4): one streamed read+write pass plus sort work per item.
pub fn remap_lex<P: Probe>(db: &TransactionDb, minsup: u64, lex: bool, probe: &mut P) -> RankedDb {
    let mut ranked = remap(db, minsup);
    if lex {
        also::lexorder::lex_order(&mut ranked.transactions);
        for t in &ranked.transactions {
            let (a, l) = memsim::slice_span(t);
            probe.read(a, l);
            probe.write(a, l);
            probe.instr(10 * t.len() as u64);
        }
    }
    ranked
}

/// Sorts `(item, support)` pairs into rank order: decreasing support,
/// ties by ascending id.
fn by_rank(mut frequent: Vec<(Item, u64)>) -> Vec<(Item, u64)> {
    frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    frequent
}

/// Builds the ranked database from the rank-ordered frequent items and
/// an id → rank lookup (`u32::MAX` for an infrequent id).
fn ranked(
    db: &TransactionDb,
    frequent: Vec<(Item, u64)>,
    to_rank: impl Fn(Item) -> u32,
) -> RankedDb {
    let (to_orig, supports): (Vec<Item>, Vec<u64>) = frequent.into_iter().unzip();
    let transactions: Vec<Vec<u32>> = db
        .transactions()
        .iter()
        .filter_map(|t| {
            let mut mapped: Vec<u32> = t
                .iter()
                .filter_map(|&i| {
                    let r = to_rank(i);
                    (r != u32::MAX).then_some(r)
                })
                .collect();
            if mapped.is_empty() {
                None
            } else {
                mapped.sort_unstable();
                Some(mapped)
            }
        })
        .collect();
    RankedDb {
        transactions,
        map: RankMap { to_orig, supports },
        original_len: db.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TransactionDb {
        // Table 1 of the paper: items a=0 b=1 c=2 d=3 e=4 f=5
        TransactionDb::from_transactions(vec![
            vec![0, 2, 5],
            vec![1, 2, 5],
            vec![0, 2, 5],
            vec![3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ])
    }

    #[test]
    fn ranks_are_frequency_descending() {
        let r = remap(&toy(), 1);
        // freqs: a=3 b=2 c=4 d=2 e=2 f=4 → ranks c(2),f(5),a(0),b(1),d(3),e(4)
        assert_eq!(r.map.n_ranks(), 6);
        assert_eq!(r.map.original(0), 2); // c
        assert_eq!(r.map.original(1), 5); // f
        assert_eq!(r.map.original(2), 0); // a
        assert_eq!(r.map.original(3), 1); // b (tie with d,e broken by id)
        assert_eq!(r.map.original(4), 3);
        assert_eq!(r.map.original(5), 4);
        assert_eq!(r.map.support(0), 4);
        assert_eq!(r.map.support(5), 2);
        // supports are non-increasing
        for w in r.map.supports.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn transactions_become_rank_sorted() {
        let r = remap(&toy(), 1);
        assert_eq!(r.transactions[0], vec![0, 1, 2]); // {c,f,a}
        assert_eq!(r.transactions[4], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn infrequent_items_dropped() {
        let r = remap(&toy(), 3);
        // only c(4), f(4), a(3) survive
        assert_eq!(r.map.n_ranks(), 3);
        // transaction {d,e} vanishes entirely
        assert_eq!(r.transactions.len(), 4);
        assert_eq!(r.original_len, 5);
        for t in &r.transactions {
            assert!(t.iter().all(|&x| x < 3));
        }
    }

    #[test]
    fn minsup_zero_treated_as_one() {
        let db = TransactionDb::from_transactions(vec![vec![7]]);
        let r = remap(&db, 0);
        // item ids 0..6 never occur: only item 7 is ranked
        assert_eq!(r.map.n_ranks(), 1);
        assert_eq!(r.map.original(0), 7);
    }

    #[test]
    fn ids_near_u32_max_rank_like_the_unshifted_db() {
        // Shifted to the top of the id space the database is sparse
        // (n_items = 2^32 for 17 occurrences): counted through the
        // sorted table, it must rank exactly like the dense original.
        let shift = u32::MAX - 5;
        let shifted = TransactionDb::from_transactions(
            toy()
                .transactions()
                .iter()
                .map(|t| t.iter().map(|&i| i + shift).collect())
                .collect(),
        );
        assert_eq!(shifted.n_items(), 1 << 32);
        for minsup in 1..=4 {
            let (a, b) = (remap(&toy(), minsup), remap(&shifted, minsup));
            assert_eq!(a.transactions, b.transactions, "minsup={minsup}");
            assert_eq!(a.map.supports, b.map.supports, "minsup={minsup}");
            let shifted_ids: Vec<Item> = a.map.to_orig.iter().map(|&i| i + shift).collect();
            assert_eq!(shifted_ids, b.map.to_orig, "minsup={minsup}");
            assert_eq!(a.original_len, b.original_len);
        }
    }

    #[test]
    fn translate_restores_original_ids() {
        let r = remap(&toy(), 1);
        let orig = r.map.translate(&[2, 0, 1]);
        assert_eq!(orig, vec![0, 2, 5]); // {a, c, f}
    }

    #[test]
    fn empty_db_remaps_to_empty() {
        let r = remap(&TransactionDb::default(), 1);
        assert_eq!(r.map.n_ranks(), 0);
        assert!(r.transactions.is_empty());
    }
}
