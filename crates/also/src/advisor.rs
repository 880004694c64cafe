//! Input-driven pattern selection — the paper's stated future work
//! ("selecting an optimal set of transformations, given the input and
//! machine parameters", §6), built from the predictive observations its
//! evaluation section makes:
//!
//! * software prefetch and aggregation pay off on *long* linked
//!   structures (deep FP-trees ⇐ long transactions);
//! * lexicographic ordering pays when the input order is *random*
//!   (poorly clustered), and its preprocessing cost can outweigh the win
//!   on databases with very many transactions (the DS4 / FP-Growth case);
//! * tiling pays when transactions are *clustered* (reuse inside a tile)
//!   and adds nothing on very sparse scattered data (the DS4 / LCM case);
//! * SIMDization pays for computation-bound, dense, vertical kernels.
//!
//! [`InputProfile`] captures exactly the metrics those rules need;
//! [`advise`] turns a profile + kernel into a recommended pattern set.
//! Integration tests validate the advice against measured best variants.

use crate::catalog::{Kernel, Pattern};
use crate::lexorder::clustering_cost;

/// Summary statistics of a transactional database, as used by the
/// advisor's rules. Built by [`InputProfile::measure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputProfile {
    /// Number of transactions `n`.
    pub n_transactions: usize,
    /// Number of distinct items `m`.
    pub n_items: usize,
    /// Total item occurrences (`nnz` of the n×m table).
    pub nnz: u64,
    /// Mean transaction length.
    pub mean_len: f64,
    /// Fill ratio of the n×m occurrence table, in `0..=1`.
    pub density: f64,
    /// How badly the *current* transaction order scatters the frequent
    /// items, in `0..=1`: measured discontinuities of the top items
    /// divided by their worst case. 0 = perfectly clustered (already
    /// lexicographic-like), 1 = maximally scattered.
    pub scatter: f64,
}

impl InputProfile {
    /// Measures a database of rank-mapped transactions (item ids are
    /// frequency ranks, as produced by `fpm-core`'s remapper).
    pub fn measure<T: AsRef<[u32]>>(transactions: &[T], n_items: usize) -> Self {
        let n = transactions.len();
        let nnz: u64 = transactions.iter().map(|t| t.as_ref().len() as u64).sum();
        let mean_len = if n == 0 { 0.0 } else { nnz as f64 / n as f64 };
        let cells = n as u64 * n_items as u64;
        let density = if cells == 0 { 0.0 } else { nnz as f64 / cells as f64 };
        // Scatter over the top-k most frequent items. Worst case per item
        // is ~min(freq, n - freq) discontinuities; we use a cheap bound of
        // n/2 per item which is enough for a 0..1 normalization.
        let top_k = (n_items as u32).min(8);
        let scatter = if n < 2 || top_k == 0 {
            0.0
        } else {
            let cost = clustering_cost(transactions, top_k) as f64;
            (cost / (top_k as f64 * (n as f64 / 2.0))).min(1.0)
        };
        InputProfile {
            n_transactions: n,
            n_items,
            nnz,
            mean_len,
            density,
            scatter,
        }
    }
}

/// Thresholds for the advisor rules, separated out so benches can sweep
/// them and tests can pin them.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Transactions above this make lexicographic preprocessing suspect
    /// (the paper's DS4/FP-Growth observation). Expressed as a multiple of
    /// items: very many transactions over few items reorder slowly.
    pub lex_max_transactions: usize,
    /// Scatter below this means the input is already clustered, so lex
    /// ordering adds little.
    pub lex_min_scatter: f64,
    /// Mean transaction length above which linked structures are deep
    /// enough for prefetch/aggregation to pay.
    pub deep_structure_len: f64,
    /// Post-threshold density below which tiling finds no reuse (the
    /// DS4/LCM case): with fewer than ~2% of transactions sharing an
    /// item, a transaction-range tile holds almost no cross-column
    /// overlap to exploit.
    pub tiling_min_density: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            lex_max_transactions: 1_000_000,
            lex_min_scatter: 0.02,
            deep_structure_len: 8.0,
            tiling_min_density: 0.02,
        }
    }
}

/// Recommends the set of patterns to enable for `kernel` on an input with
/// the given profile. Only patterns the paper marks as applied to that
/// kernel (Table 4) are ever recommended.
pub fn advise(profile: &InputProfile, kernel: Kernel, cfg: &AdvisorConfig) -> Vec<Pattern> {
    use Pattern::*;
    let mut out = Vec::new();
    let lex_ok = profile.scatter >= cfg.lex_min_scatter
        && profile.n_transactions <= cfg.lex_max_transactions;
    let deep = profile.mean_len >= cfg.deep_structure_len;
    match kernel {
        Kernel::Lcm => {
            if lex_ok {
                out.push(LexicographicOrdering);
            }
            out.push(Aggregation);
            out.push(Compaction);
            if deep {
                out.push(SoftwarePrefetch);
            }
            if profile.density >= cfg.tiling_min_density {
                out.push(Tiling);
            }
        }
        Kernel::Eclat => {
            if lex_ok {
                out.push(LexicographicOrdering); // enables 0-escaping
            }
            out.push(Simdization);
        }
        Kernel::FpGrowth => {
            if lex_ok {
                out.push(LexicographicOrdering);
            }
            out.push(DataStructureAdaptation);
            if deep {
                out.push(Aggregation);
                out.push(SoftwarePrefetch);
                out.push(PrefetchPointers);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_clustered() -> InputProfile {
        InputProfile {
            n_transactions: 30_000,
            n_items: 1000,
            nnz: 30_000 * 60,
            mean_len: 60.0,
            density: 0.06,
            scatter: 0.01,
        }
    }

    fn sparse_scattered_huge() -> InputProfile {
        // The AP-like profile: 1.8M short scattered transactions.
        InputProfile {
            n_transactions: 1_800_000,
            n_items: 200_000,
            nnz: 1_800_000 * 9,
            mean_len: 9.0,
            density: 0.000045,
            scatter: 0.6,
        }
    }

    #[test]
    fn measure_on_toy_db() {
        let db = vec![vec![0u32, 1], vec![0], vec![2]];
        let p = InputProfile::measure(&db, 3);
        assert_eq!(p.n_transactions, 3);
        assert_eq!(p.nnz, 4);
        assert!((p.mean_len - 4.0 / 3.0).abs() < 1e-9);
        assert!((p.density - 4.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn measure_empty_db() {
        let db: Vec<Vec<u32>> = vec![];
        let p = InputProfile::measure(&db, 0);
        assert_eq!(p.nnz, 0);
        assert_eq!(p.density, 0.0);
        assert_eq!(p.scatter, 0.0);
    }

    #[test]
    fn tiling_skipped_on_sparse_scattered_input() {
        // The paper: "In DS4, tiling produces almost no speedup … very
        // sparse data set".
        let advice = advise(&sparse_scattered_huge(), Kernel::Lcm, &AdvisorConfig::default());
        assert!(!advice.contains(&Pattern::Tiling));
        let advice = advise(&dense_clustered(), Kernel::Lcm, &AdvisorConfig::default());
        assert!(advice.contains(&Pattern::Tiling));
    }

    #[test]
    fn lex_skipped_on_huge_transaction_counts() {
        // The paper: lex ordering "is not performing well in FP-Growth for
        // DS4, because the data set contains too many transactions".
        let advice = advise(
            &sparse_scattered_huge(),
            Kernel::FpGrowth,
            &AdvisorConfig::default(),
        );
        assert!(!advice.contains(&Pattern::LexicographicOrdering));
    }

    #[test]
    fn lex_skipped_on_already_clustered_input() {
        let mut p = dense_clustered();
        p.scatter = 0.0;
        let advice = advise(&p, Kernel::Eclat, &AdvisorConfig::default());
        assert!(!advice.contains(&Pattern::LexicographicOrdering));
        assert!(advice.contains(&Pattern::Simdization));
    }

    #[test]
    fn prefetch_only_for_deep_structures() {
        let mut shallow = dense_clustered();
        shallow.mean_len = 3.0;
        let advice = advise(&shallow, Kernel::FpGrowth, &AdvisorConfig::default());
        assert!(!advice.contains(&Pattern::SoftwarePrefetch));
        assert!(!advice.contains(&Pattern::Aggregation));
        let advice = advise(&dense_clustered(), Kernel::FpGrowth, &AdvisorConfig::default());
        assert!(advice.contains(&Pattern::SoftwarePrefetch));
        assert!(advice.contains(&Pattern::PrefetchPointers));
    }

    #[test]
    fn advice_respects_table4_applicability() {
        use crate::catalog::Applicability;
        for k in Kernel::ALL {
            for profile in [dense_clustered(), sparse_scattered_huge()] {
                for p in advise(&profile, k, &AdvisorConfig::default()) {
                    assert_eq!(
                        p.applicability(k),
                        Applicability::Applied,
                        "{} advised for {} but paper never applied it",
                        p.name(),
                        k.name()
                    );
                }
            }
        }
    }
}
