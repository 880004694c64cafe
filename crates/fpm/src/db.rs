//! The raw transactional database: what comes off disk or out of a
//! generator, before any mining-oriented restructuring.

use crate::remap::Ranking;
use crate::types::Item;
use std::fmt;
use std::sync::OnceLock;

/// A raw transaction database: a bag of item-set transactions over
/// external item identifiers.
///
/// Invariants maintained by the constructors: each transaction's items are
/// sorted ascending with duplicates removed; `n_items` is one past the
/// largest item id (0 when empty).
///
/// The database is immutable once built, so it caches its frequency
/// ranking: the first [`crate::remap()`] or
/// [`crate::bound::candidate_bound`] counts it, and every later one cuts
/// it (see [`mod@crate::remap`]). The ranking also keeps the pair
/// ceilings that [`crate::pair_ceilings`] and
/// [`crate::frequent_later_pairs`] have counted. Equality and `Debug`
/// ignore the cache; `Clone` copies it.
#[derive(Clone, Default)]
pub struct TransactionDb {
    transactions: Vec<Vec<Item>>,
    n_items: usize,
    ranking: OnceLock<Ranking>,
}

impl PartialEq for TransactionDb {
    fn eq(&self, other: &Self) -> bool {
        self.n_items == other.n_items && self.transactions == other.transactions
    }
}

impl Eq for TransactionDb {}

impl fmt::Debug for TransactionDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactionDb")
            .field("transactions", &self.transactions)
            .field("n_items", &self.n_items)
            .finish()
    }
}

impl TransactionDb {
    /// Builds a database from raw transactions, sorting and deduplicating
    /// the items of each. Empty transactions are kept (they carry no
    /// items but still count toward `len`, matching FIMI file semantics
    /// where blank lines are dropped by the reader instead).
    pub fn from_transactions(raw: Vec<Vec<Item>>) -> Self {
        let mut n_items = 0usize;
        let transactions: Vec<Vec<Item>> = raw
            .into_iter()
            .map(|mut t| {
                t.sort_unstable();
                t.dedup();
                if let Some(&max) = t.last() {
                    n_items = n_items.max(max as usize + 1);
                }
                t
            })
            .collect();
        TransactionDb {
            transactions,
            n_items,
            ranking: OnceLock::new(),
        }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` when the database has no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// One past the largest item identifier.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The transactions (each sorted ascending, deduplicated).
    pub fn transactions(&self) -> &[Vec<Item>] {
        &self.transactions
    }

    /// Total item occurrences across all transactions.
    pub fn nnz(&self) -> u64 {
        self.transactions.iter().map(|t| t.len() as u64).sum()
    }

    /// Mean transaction length.
    pub fn mean_len(&self) -> f64 {
        if self.transactions.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.transactions.len() as f64
        }
    }

    /// The support of a single item, by scan (used by tests; miners use
    /// the counted supports from [`crate::remap()`]).
    pub fn item_support(&self, item: Item) -> u64 {
        self.transactions
            .iter()
            .filter(|t| t.binary_search(&item).is_ok())
            .count() as u64
    }

    /// The frequency ranking, counted by the first call.
    pub(crate) fn ranking(&self) -> &Ranking {
        self.ranking.get_or_init(|| Ranking::count(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        let db = TransactionDb::from_transactions(vec![vec![3, 1, 3], vec![], vec![0, 2]]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.n_items(), 4);
        assert_eq!(db.transactions()[0], vec![1, 3]);
        assert_eq!(db.nnz(), 4);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::default();
        assert!(db.is_empty());
        assert_eq!(db.n_items(), 0);
        assert_eq!(db.mean_len(), 0.0);
    }

    #[test]
    fn item_support_by_scan() {
        let db = TransactionDb::from_transactions(vec![vec![0, 1], vec![1], vec![2, 1], vec![0]]);
        assert_eq!(db.item_support(1), 3);
        assert_eq!(db.item_support(0), 2);
        assert_eq!(db.item_support(9), 0);
    }
}
