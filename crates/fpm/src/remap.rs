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
//!
//! A database is ranked once. The first [`remap`] or
//! [`crate::bound::candidate_bound`] on a [`TransactionDb`] counts every
//! item and ranks them all (the minsup-1 order), and the database caches
//! that ranking. The first call whose minsup keeps an item also lays
//! every row out in ascending rank, in one flat buffer. Ranks run by
//! decreasing support, so the items that reach any minsup are a prefix of
//! the ranking and each row's frequent items are a prefix of its ranked
//! row: every remap is a cut of the cached ranking, with the same output
//! as counting, filtering and sorting afresh.
//!
//! The ranking also caches each rank's two **pair ceilings**, counted
//! in one pass over the pairs of the ranks asked for so far:
//!
//! * the earlier ceiling, the largest support a more frequent item
//!   shares with rank `r`, `max_{j<r} sup({r, j})` ([`pair_ceilings`]).
//!   That is the largest count an item reaches in rank `r`'s FP-Growth
//!   root conditional base, and it does not depend on minsup. FP-Growth
//!   asks for it;
//! * the later ceiling, the largest support `r` shares with a counted
//!   less frequent rank, read as one flag per kept rank: whether `r`
//!   has a later partner at minsup ([`frequent_later_pairs`]), which is
//!   whether Eclat's root class of `r` is non-empty. Eclat asks for it
//!   when it mines the bit matrix.
//!
//! A call counts the ranks it keeps that no earlier call counted, so
//! later mines at any minsup extend the cache and never count a rank
//! twice. LCM, [`remap`] and the bound never ask.

use crate::db::TransactionDb;
use crate::types::{Item, Tid};
use memsim::Probe;
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// Counts item frequencies, drops items with support < `minsup`, and
/// renumbers the survivors by decreasing frequency (ties broken by
/// original id, ascending, for determinism).
///
/// A cut of `db`'s cached ranking (see the module docs): after the
/// first call on a database, a remap allocates only its output.
pub fn remap(db: &TransactionDb, minsup: u64) -> RankedDb {
    cut(db, minsup, false)
}

/// [`remap`], with the paper's P1 pass when `lex` is set: the ranked
/// transactions come out in lexicographic order (the stable order of
/// [`also::lexorder::lex_order`]), each allocated in that order, so
/// transactions read one after another sit in consecutive memory. The
/// reorder is charged to `probe`. It is a real cost the paper weighs
/// against the benefit ("lexicographic ordering is very time consuming"
/// on very large inputs, §4.4): one streamed read+write pass plus sort
/// work per item.
pub fn remap_lex<P: Probe>(db: &TransactionDb, minsup: u64, lex: bool, probe: &mut P) -> RankedDb {
    let ranked = cut(db, minsup, lex);
    if lex {
        for t in &ranked.transactions {
            let (a, l) = memsim::slice_span(t);
            probe.read(a, l);
            probe.write(a, l);
            probe.instr(10 * t.len() as u64);
        }
    }
    ranked
}

/// The pair ceilings of the ranks that reach `minsup`: entry `r` is
/// `max_{j<r} sup({r, j})`, the largest support that any more frequent
/// item shares with rank `r` (0 for rank 0). Ranks are [`remap`]'s at
/// every minsup.
///
/// In FP-Growth's root tree, item `j` counts exactly `sup({r, j})` in
/// the conditional base of root item `r`. So that base holds an item
/// reaching `minsup` if and only if `r`'s ceiling reaches `minsup`.
///
/// Cached on `db` next to its ranking (see the module docs). A call
/// counts only the kept ranks that no earlier call counted: it scatters
/// each such rank's rows into a column, then counts the items each of
/// those rows holds below the rank. The cost is the number of item
/// pairs the new ranks' rows hold, paid once per dataset; the column
/// buffer is freed before the call returns.
pub fn pair_ceilings(db: &TransactionDb, minsup: u64) -> Vec<u64> {
    let ranking = db.ranking();
    let m = ranking.frequent(minsup);
    ranking.ceilings(db, m).earlier[..m].to_vec()
}

/// One flag per rank that reaches `minsup` (0 counts as 1): whether
/// some later rank shares at least `minsup` rows with it, that is
/// whether `max_{j>r} sup({r, j})` reaches `minsup`. Ranks are
/// [`remap`]'s at every minsup.
///
/// In Eclat, rank `r`'s root class holds each later rank `j` with
/// `sup({r, j}) >= minsup`, so a clear flag says that class is empty.
///
/// Counted with [`pair_ceilings`], in the same pass and cache: each
/// rank's later ceiling is raised by every counted rank past it. The
/// cache may have counted ranks past the ones `minsup` keeps, but a
/// rank that shares `minsup` rows with `r` reaches `minsup` itself, so
/// it is kept and counted, and the flag is exact.
pub fn frequent_later_pairs(db: &TransactionDb, minsup: u64) -> Vec<bool> {
    let minsup = minsup.max(1);
    let ranking = db.ranking();
    let m = ranking.frequent(minsup);
    let ceilings = ranking.ceilings(db, m);
    ceilings.later[..m].iter().map(|&c| c >= minsup).collect()
}

/// Cuts `db`'s cached ranking at `minsup` and builds each kept row once:
/// in row order, or with `lex` in lexicographic order, radix-sorting the
/// borrowed cuts first so that no row is built and then moved or copied.
fn cut(db: &TransactionDb, minsup: u64, lex: bool) -> RankedDb {
    let ranking = db.ranking();
    let m = ranking.frequent(minsup);
    let kept = ranking.kept_rows(db, m);
    let transactions = if lex {
        let rows: Vec<&[u32]> = kept.collect();
        let order = also::radix::lex_permutation_radix(&rows);
        order.iter().map(|&t| rows[t as usize].to_vec()).collect()
    } else {
        let mut transactions = Vec::with_capacity(kept.clone().count());
        transactions.extend(kept.map(<[u32]>::to_vec));
        transactions
    };
    RankedDb {
        transactions,
        map: RankMap {
            to_orig: ranking.to_orig[..m].to_vec(),
            supports: ranking.supports[..m].to_vec(),
        },
        original_len: db.len(),
    }
}

/// Item-id arrays are sized by the largest id only while that stays
/// within this many ids per item occurrence; past it the ids are sparse
/// (say one transaction holding item `u32::MAX`) and a sorted table of
/// the occurring ids takes their place. Memory stays bounded by the
/// database, not by its largest item id.
const DENSE_IDS_PER_OCCURRENCE: u64 = 4;

fn dense_ids(db: &TransactionDb) -> bool {
    db.n_items() as u64 <= DENSE_IDS_PER_OCCURRENCE * db.nnz()
}

/// A database's frequency ranking: every occurring item, ranked by
/// decreasing support with ties by ascending id, and — built by the
/// first cut that keeps an item — every row in ascending rank, plus the
/// pair ceilings of the ranks asked for so far. Cached on the
/// [`TransactionDb`]; see the module docs.
#[derive(Clone)]
pub(crate) struct Ranking {
    to_orig: Vec<Item>,
    /// Non-increasing, all at least 1.
    supports: Vec<u64>,
    rows: OnceLock<RankedRows>,
    ceilings: Ceilings,
}

/// Both pair ceilings of the counted ranks `0..earlier.len()`, a prefix
/// that only grows.
#[derive(Clone, Default)]
struct PairCeilings {
    /// `max_{j<r} sup({r, j})` per counted rank.
    earlier: Vec<u64>,
    /// `max sup({r, j})` over the counted ranks `j > r`; at least as
    /// long as `earlier`.
    later: Vec<u64>,
}

/// The cached [`PairCeilings`]. Locked while a call extends them, so
/// concurrent mines of one dataset count each rank once.
#[derive(Default)]
struct Ceilings(Mutex<PairCeilings>);

impl Clone for Ceilings {
    fn clone(&self) -> Self {
        Ceilings(Mutex::new(self.lock().clone()))
    }
}

impl Ceilings {
    /// Every push to `earlier` appends one finished rank, and every
    /// value `later` holds is a count of some pair's rows, raised by
    /// `max`; so both stay exact even if a computation panicked while
    /// holding the lock: the unfinished rank is counted again.
    fn lock(&self) -> std::sync::MutexGuard<'_, PairCeilings> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Every row of a database over ranks, ascending, back to back.
#[derive(Clone)]
struct RankedRows {
    ranks: Vec<u32>,
    /// Row `t` is `ranks[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
}

impl Ranking {
    /// Counts and ranks every item of `db`: a dense count array, or a
    /// sorted id table when the ids are sparse.
    pub(crate) fn count(db: &TransactionDb) -> Ranking {
        let mut counted: Vec<(Item, u64)> = if dense_ids(db) {
            let mut freq = vec![0u64; db.n_items()];
            for t in db.transactions() {
                for &i in t {
                    freq[i as usize] += 1;
                }
            }
            (0..db.n_items())
                .filter(|&i| freq[i] > 0)
                .map(|i| (i as Item, freq[i]))
                .collect()
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
            counted
        };
        counted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let (to_orig, supports) = counted.into_iter().unzip();
        Ranking {
            to_orig,
            supports,
            rows: OnceLock::new(),
            ceilings: Ceilings::default(),
        }
    }

    /// How many items reach `minsup` (0 counts as 1): a rank prefix.
    pub(crate) fn frequent(&self, minsup: u64) -> usize {
        let minsup = minsup.max(1);
        self.supports.partition_point(|&s| s >= minsup)
    }

    /// Each row of `db` (whose ranking this is) cut to its ranks below
    /// `m`, in row order, empty cuts skipped. The ranked rows are built
    /// on the first call with `m > 0`.
    pub(crate) fn kept_rows<'a>(
        &'a self,
        db: &TransactionDb,
        m: usize,
    ) -> impl Iterator<Item = &'a [u32]> + Clone {
        let rows = (m > 0).then(|| self.rows.get_or_init(|| self.rank_rows(db)));
        rows.into_iter()
            .flat_map(|rows| rows.offsets.windows(2).map(|w| &rows.ranks[w[0]..w[1]]))
            .map(move |row| &row[..row.partition_point(|&r| (r as usize) < m)])
            .filter(|row| !row.is_empty())
    }

    /// The cached pair ceilings, extended to count ranks `0..m` (see
    /// [`pair_ceilings`] and [`frequent_later_pairs`]).
    fn ceilings(&self, db: &TransactionDb, m: usize) -> std::sync::MutexGuard<'_, PairCeilings> {
        let mut ceilings = self.ceilings.lock();
        if ceilings.earlier.len() < m {
            let rows = self.rows.get_or_init(|| self.rank_rows(db));
            rows.extend_ceilings(&self.supports, &mut ceilings, m);
        }
        ceilings
    }

    /// Lays every row of `db` out in ascending rank by a counting
    /// transpose, O(nnz): scatter each occurrence's tid into its rank's
    /// column (the columns' sizes are the supports), then walk the
    /// columns in rank order appending each rank to its rows.
    fn rank_rows(&self, db: &TransactionDb) -> RankedRows {
        // Column `r`'s fill cursor; after the scatter, its end.
        let mut column_end = Vec::with_capacity(self.supports.len());
        let mut nnz = 0;
        for &s in &self.supports {
            column_end.push(nnz);
            nnz += s as usize;
        }
        let mut tids: Vec<Tid> = vec![0; nnz];
        if dense_ids(db) {
            let mut to_rank = vec![0u32; db.n_items()];
            for (rank, &orig) in self.to_orig.iter().enumerate() {
                to_rank[orig as usize] = rank as u32;
            }
            scatter(db, |i| to_rank[i as usize], &mut column_end, &mut tids);
        } else {
            let mut to_rank: Vec<(Item, u32)> = self
                .to_orig
                .iter()
                .enumerate()
                .map(|(rank, &orig)| (orig, rank as u32))
                .collect();
            to_rank.sort_unstable();
            let rank_of = |i| to_rank[to_rank.partition_point(|&(orig, _)| orig < i)].1;
            scatter(db, rank_of, &mut column_end, &mut tids);
        }
        let mut offsets = Vec::with_capacity(db.len() + 1);
        offsets.push(0);
        for t in db.transactions() {
            offsets.push(offsets[offsets.len() - 1] + t.len());
        }
        let mut row_end = offsets.clone();
        let mut ranks = vec![0u32; nnz];
        let mut start = 0;
        for (rank, &end) in column_end.iter().enumerate() {
            for &tid in &tids[start..end] {
                let at = &mut row_end[tid as usize];
                ranks[*at] = rank as u32;
                *at += 1;
            }
            start = end;
        }
        RankedRows { ranks, offsets }
    }
}

impl RankedRows {
    /// Counts the pair ceilings of ranks `ceilings.earlier.len()..m`,
    /// whose column sizes are `supports`: scatters the tids of each new
    /// rank's rows into its column, then for each new rank `r` counts,
    /// per item `j`, the prefixes below `r` of its rows. The largest
    /// count is `r`'s earlier ceiling, and each count `sup({j, r})`
    /// raises `j`'s later ceiling. The counts are stamped with their
    /// rank, so none is zeroed.
    fn extend_ceilings(&self, supports: &[u64], ceilings: &mut PairCeilings, m: usize) {
        let first = ceilings.earlier.len();
        if ceilings.later.len() < m {
            ceilings.later.resize(m, 0);
        }
        // Column `r - first`'s fill cursor; after the scatter, its end.
        let mut column_end = Vec::with_capacity(m - first);
        let mut n = 0;
        for &s in &supports[first..m] {
            column_end.push(n);
            n += s as usize;
        }
        let mut tids: Vec<Tid> = vec![0; n];
        for (tid, w) in self.offsets.windows(2).enumerate() {
            let tid = Tid::try_from(tid).expect("row ids fit a Tid");
            let row = &self.ranks[w[0]..w[1]];
            let new = &row[row.partition_point(|&r| (r as usize) < first)..];
            for &r in new.iter().take_while(|&&r| (r as usize) < m) {
                let end = &mut column_end[r as usize - first];
                tids[*end] = tid;
                *end += 1;
            }
        }
        // `(rank + 1, count)` per item: a count stamped with another
        // rank reads as zero.
        let mut counts = vec![(0usize, 0u64); m];
        let later = &mut ceilings.later;
        let mut start = 0;
        for (r, &end) in (first..m).zip(&column_end) {
            let mut ceiling = 0;
            for &tid in &tids[start..end] {
                let row = &self.ranks[self.offsets[tid as usize]..];
                for &j in row.iter().take_while(|&&j| (j as usize) < r) {
                    let (stamp, count) = &mut counts[j as usize];
                    if *stamp != r + 1 {
                        *stamp = r + 1;
                        *count = 0;
                    }
                    *count += 1;
                    ceiling = ceiling.max(*count);
                    later[j as usize] = later[j as usize].max(*count);
                }
            }
            ceilings.earlier.push(ceiling);
            start = end;
        }
    }
}

/// Appends each row's tid to the column of each of its items.
fn scatter(
    db: &TransactionDb,
    rank_of: impl Fn(Item) -> u32,
    column_end: &mut [usize],
    tids: &mut [Tid],
) {
    for (tid, t) in db.transactions().iter().enumerate() {
        let tid = Tid::try_from(tid).expect("row ids fit a Tid");
        for &i in t {
            let end = &mut column_end[rank_of(i) as usize];
            tids[*end] = tid;
            *end += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_guard::{count_allocs, guard_active};
    use crate::bound::{bound_from_shape, candidate_bound};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// A remap's output, field by field.
    type Parts = (Vec<Vec<u32>>, Vec<Item>, Vec<u64>, usize);

    fn parts(r: RankedDb) -> Parts {
        (
            r.transactions,
            r.map.to_orig,
            r.map.supports,
            r.original_len,
        )
    }

    /// The definition, naively: count, keep the items reaching `minsup`,
    /// rank them by support descending then id ascending, map every row
    /// and sort it, drop the empty rows.
    fn reference(db: &TransactionDb, minsup: u64) -> Parts {
        let mut counts: BTreeMap<Item, u64> = BTreeMap::new();
        for &i in db.transactions().iter().flatten() {
            *counts.entry(i).or_default() += 1;
        }
        let mut frequent: Vec<(Item, u64)> = counts
            .into_iter()
            .filter(|&(_, s)| s >= minsup.max(1))
            .collect();
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rank = |i: Item| frequent.iter().position(|&(id, _)| id == i);
        let rows = db
            .transactions()
            .iter()
            .map(|t| {
                let mut row: Vec<u32> = t
                    .iter()
                    .filter_map(|&i| rank(i))
                    .map(|r| r as u32)
                    .collect();
                row.sort_unstable();
                row
            })
            .filter(|row| !row.is_empty())
            .collect();
        let (ids, supports) = frequent.into_iter().unzip();
        (rows, ids, supports, db.len())
    }

    /// Raw rows over a small universe (so supports tie), with empty rows
    /// and a duplicated run of rows.
    fn arb_rows() -> impl Strategy<Value = Vec<Vec<Item>>> {
        (
            prop::collection::vec(
                prop::collection::btree_set(0u32..12, 0..7)
                    .prop_map(|s| s.into_iter().collect::<Vec<Item>>()),
                0..40,
            ),
            0usize..12,
        )
            .prop_map(|(mut rows, dup)| {
                let dup = dup.min(rows.len());
                rows.extend_from_within(..dup);
                rows
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_cut_matches_the_naive_reference(raw in arb_rows()) {
            let shift = u32::MAX - 15;
            let shifted: Vec<Vec<Item>> = raw
                .iter()
                .map(|t| t.iter().map(|&i| i + shift).collect())
                .collect();
            for raw in [raw, shifted] {
                let max = reference(&TransactionDb::from_transactions(raw.clone()), 1)
                    .2
                    .first()
                    .copied()
                    .unwrap_or(0);
                // Ascending builds the rows at the first call; descending
                // first cuts nothing (rows not built), then builds them.
                let ascending: Vec<u64> = (0..=max + 1).collect();
                let descending: Vec<u64> = ascending.iter().rev().copied().collect();
                for minsups in [ascending, descending] {
                    let db = TransactionDb::from_transactions(raw.clone());
                    for s in minsups {
                        let expect = reference(&db, s);
                        let mut lens: Vec<usize> = expect.0.iter().map(Vec::len).collect();
                        lens.sort_unstable_by(|a, b| b.cmp(a));
                        let bound = bound_from_shape(expect.1.len(), &lens, s);
                        prop_assert_eq!(candidate_bound(&db, s), bound, "minsup {}", s);
                        let mut lexed = expect.0.clone();
                        also::lexorder::lex_order(&mut lexed);
                        let ranked = remap_lex(&db, s, true, &mut memsim::NullProbe);
                        prop_assert_eq!(ranked.transactions, lexed, "lex, minsup {}", s);
                        prop_assert_eq!(parts(remap(&db, s)), expect, "minsup {}", s);
                    }
                }
            }
        }
    }

    /// The pair ceilings by definition, off the reference's ranked rows:
    /// for each kept rank, the most rows it shares with a lower rank.
    fn brute_ceilings(rows: &[Vec<u32>], m: usize) -> Vec<u64> {
        (0..m as u32)
            .map(|r| {
                (0..r)
                    .map(|j| {
                        rows.iter()
                            .filter(|t| t.contains(&r) && t.contains(&j))
                            .count() as u64
                    })
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pair_ceilings_match_a_brute_force_count(raw in arb_rows()) {
            let shift = u32::MAX - 15;
            let shifted: Vec<Vec<Item>> = raw
                .iter()
                .map(|t| t.iter().map(|&i| i + shift).collect())
                .collect();
            for raw in [raw, shifted] {
                let all = reference(&TransactionDb::from_transactions(raw.clone()), 1);
                let max = all.2.first().copied().unwrap_or(0);
                let want = brute_ceilings(&all.0, all.1.len());
                // Descending minsups keep more ranks at each call, so the
                // cache is built short and then extended; ascending ones
                // build it whole and then only read it. A remap between
                // calls must neither need nor disturb it.
                let ascending: Vec<u64> = (0..=max + 1).collect();
                let descending: Vec<u64> = ascending.iter().rev().copied().collect();
                for minsups in [ascending, descending] {
                    let db = TransactionDb::from_transactions(raw.clone());
                    for s in minsups {
                        let m = reference(&db, s).1.len();
                        prop_assert_eq!(pair_ceilings(&db, s), &want[..m], "minsup {}", s);
                        prop_assert_eq!(parts(remap(&db, s)), reference(&db, s), "minsup {}", s);
                    }
                }
            }
        }
    }

    /// The later-pair flags by definition, off the reference's rows cut
    /// at `minsup`: whether a kept rank shares at least `minsup` rows
    /// with a later kept rank.
    fn brute_later_flags(rows: &[Vec<u32>], m: usize, minsup: u64) -> Vec<bool> {
        (0..m as u32)
            .map(|r| {
                (r + 1..m as u32).any(|j| {
                    let shared = rows
                        .iter()
                        .filter(|t| t.contains(&r) && t.contains(&j))
                        .count() as u64;
                    shared >= minsup.max(1)
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn later_pair_flags_match_a_brute_force_count(raw in arb_rows()) {
            let shift = u32::MAX - 15;
            let shifted: Vec<Vec<Item>> = raw
                .iter()
                .map(|t| t.iter().map(|&i| i + shift).collect())
                .collect();
            for raw in [raw, shifted] {
                let max = reference(&TransactionDb::from_transactions(raw.clone()), 1)
                    .2
                    .first()
                    .copied()
                    .unwrap_or(0);
                // Descending minsups count a few ranks and then extend
                // the cache, so new ranks raise the later ceilings of
                // ranks counted before them; ascending ones count every
                // rank first and then read ceilings past the kept ranks.
                let ascending: Vec<u64> = (0..=max + 1).collect();
                let descending: Vec<u64> = ascending.iter().rev().copied().collect();
                for minsups in [ascending, descending] {
                    let db = TransactionDb::from_transactions(raw.clone());
                    for s in minsups {
                        let (rows, ids, ..) = reference(&db, s);
                        let want = brute_later_flags(&rows, ids.len(), s);
                        prop_assert_eq!(frequent_later_pairs(&db, s), want, "minsup {}", s);
                        prop_assert_eq!(parts(remap(&db, s)), reference(&db, s), "minsup {}", s);
                    }
                }
            }
        }
    }

    #[test]
    fn equality_and_clone_ignore_the_ranking() {
        let (fresh, ranked) = (toy(), toy());
        let cloned_fresh = ranked.clone();
        let _ = remap(&ranked, 2);
        let ceilings = pair_ceilings(&ranked, 3);
        let flags = frequent_later_pairs(&ranked, 3);
        let cloned_ranked = ranked.clone();
        assert_eq!(ranked, fresh);
        assert_eq!(cloned_ranked, cloned_fresh);
        assert_eq!(format!("{ranked:?}"), format!("{fresh:?}"));
        // c, f and a: {c, f} in 4 rows, {c, a} and {f, a} in 3, so c and
        // f have a later partner at minsup 3 and a has none. Clones,
        // taken with the ceilings cached or not, read and extend both
        // sides as a fresh count would.
        assert_eq!(ceilings, [0, 4, 3]);
        assert_eq!(flags, [true, true, false]);
        for minsup in 0..=5 {
            let expect = parts(remap(&toy(), minsup));
            assert_eq!(
                parts(remap(&cloned_ranked, minsup)),
                expect,
                "minsup={minsup}"
            );
            assert_eq!(
                parts(remap(&cloned_fresh, minsup)),
                expect,
                "minsup={minsup}"
            );
            let expect = pair_ceilings(&toy(), minsup);
            assert_eq!(
                pair_ceilings(&cloned_ranked, minsup),
                expect,
                "minsup={minsup}"
            );
            assert_eq!(
                pair_ceilings(&cloned_fresh, minsup),
                expect,
                "minsup={minsup}"
            );
            let expect = frequent_later_pairs(&toy(), minsup);
            assert_eq!(
                frequent_later_pairs(&cloned_ranked, minsup),
                expect,
                "minsup={minsup}"
            );
            assert_eq!(
                frequent_later_pairs(&cloned_fresh, minsup),
                expect,
                "minsup={minsup}"
            );
        }
        // At minsup 2 every item is kept (c f a b d e): d shares 2 rows
        // with e, while a and b share one row at most with a later item.
        let flags = frequent_later_pairs(&cloned_fresh, 2);
        assert_eq!(flags, [true, true, false, false, true, false]);
    }

    /// After the first remap of a database, a remap at another minsup
    /// allocates only its output — one vector per kept row plus its own
    /// three — and the bound only its lengths vector: neither counts nor
    /// sorts again.
    #[test]
    fn cuts_of_a_ranked_db_allocate_only_their_output() {
        let db = TransactionDb::from_transactions(
            (0..300u32)
                .map(|k| (0..(2 + k % 9)).map(|i| (k * 7 + i * 13) % 40).collect())
                .collect(),
        );
        let _ = remap(&db, 1);
        for minsup in [3, 20, 60, 1, 1 << 40] {
            let (r, count) = count_allocs(|| remap(&db, minsup));
            let own = if r.n_ranks() > 0 { 3 } else { 0 };
            if guard_active() {
                let expect = r.transactions.len() as u64 + own;
                assert_eq!(count.allocations, expect, "remap at minsup {minsup}");
            }
            let (_, count) = count_allocs(|| candidate_bound(&db, minsup));
            if guard_active() {
                assert_eq!(count.allocations, 1, "bound at minsup {minsup}");
            }
        }
    }
}
