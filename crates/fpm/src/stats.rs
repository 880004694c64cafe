//! Dataset shape statistics: the distributional fingerprints the
//! evaluation reasons about (transaction-length distribution, item
//! frequency skew, co-occurrence clustering). Used to validate that the
//! WebDocs/AP stand-in generators have the shapes their documentation
//! promises, and printed by the CLI's `--profile` pipeline.

use crate::db::TransactionDb;

/// Shape summary of a transaction database.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeStats {
    /// Number of transactions.
    pub n_transactions: usize,
    /// Distinct items present.
    pub n_items_present: usize,
    /// Mean transaction length.
    pub mean_len: f64,
    /// Transaction-length standard deviation.
    pub std_len: f64,
    /// Maximum transaction length.
    pub max_len: usize,
    /// Length percentiles `[p50, p90, p99]`.
    pub len_percentiles: [usize; 3],
    /// Gini coefficient of the item-frequency distribution (0 = uniform,
    /// → 1 = maximally skewed; Zipfian data sits high).
    pub item_gini: f64,
    /// Ratio of the most frequent item's support to the median item's
    /// support (head dominance; large under Zipf).
    pub head_to_median: f64,
}

/// Computes the shape statistics of `db`.
pub fn shape(db: &TransactionDb) -> ShapeStats {
    let n = db.len();
    let mut lens: Vec<usize> = db.transactions().iter().map(|t| t.len()).collect();
    lens.sort_unstable();
    let mean = if n == 0 {
        0.0
    } else {
        lens.iter().sum::<usize>() as f64 / n as f64
    };
    let var = if n == 0 {
        0.0
    } else {
        lens.iter().map(|&l| (l as f64 - mean).powi(2)).sum::<f64>() / n as f64
    };
    let pct = |p: f64| -> usize {
        if lens.is_empty() {
            0
        } else {
            lens[((lens.len() - 1) as f64 * p) as usize]
        }
    };

    let mut freq = vec![0u64; db.n_items()];
    for t in db.transactions() {
        for &i in t {
            freq[i as usize] += 1;
        }
    }
    let mut present: Vec<u64> = freq.iter().copied().filter(|&f| f > 0).collect();
    present.sort_unstable();
    let gini = gini(&present);
    let head_to_median = if present.is_empty() {
        0.0
    } else {
        let head = *present.last().expect("non-empty") as f64;
        let median = present[present.len() / 2] as f64;
        head / median.max(1.0)
    };
    ShapeStats {
        n_transactions: n,
        n_items_present: present.len(),
        mean_len: mean,
        std_len: var.sqrt(),
        max_len: lens.last().copied().unwrap_or(0),
        len_percentiles: [pct(0.50), pct(0.90), pct(0.99)],
        item_gini: gini,
        head_to_median,
    }
}

/// Gini coefficient of a sorted-ascending positive vector.
fn gini(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // G = (2 Σ i·x_i) / (n Σ x_i) − (n+1)/n, i 1-based over ascending x
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Renders the statistics as an aligned block for CLI/report output.
pub fn render(s: &ShapeStats) -> String {
    format!(
        "transactions {:>10}\nitems        {:>10}\nmean length  {:>10.2} (σ {:.2}, max {})\nlength p50/p90/p99  {} / {} / {}\nitem Gini    {:>10.3}\nhead/median  {:>10.1}\n",
        s.n_transactions,
        s.n_items_present,
        s.mean_len,
        s.std_len,
        s.max_len,
        s.len_percentiles[0],
        s.len_percentiles[1],
        s.len_percentiles[2],
        s.item_gini,
        s.head_to_median,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_items_have_low_gini() {
        let db = TransactionDb::from_transactions(
            (0..100u32).map(|k| vec![k % 10]).collect(),
        );
        let s = shape(&db);
        assert!(s.item_gini < 0.05, "gini {}", s.item_gini);
        assert!((s.head_to_median - 1.0).abs() < 0.2);
        assert_eq!(s.n_items_present, 10);
    }

    #[test]
    fn skewed_items_have_high_gini() {
        // item 0 in every transaction, items 1..50 once each
        let mut ts: Vec<Vec<u32>> = (1..=50u32).map(|k| vec![0, k]).collect();
        ts.extend((0..50).map(|_| vec![0u32]));
        let s = shape(&TransactionDb::from_transactions(ts));
        assert!(s.item_gini > 0.4, "gini {}", s.item_gini);
        assert!(s.head_to_median > 10.0);
    }

    #[test]
    fn length_statistics() {
        let db = TransactionDb::from_transactions(vec![
            vec![0],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
        ]);
        let s = shape(&db);
        assert_eq!(s.max_len, 4);
        assert!((s.mean_len - 2.5).abs() < 1e-9);
        assert_eq!(s.len_percentiles[0], 2);
    }

    #[test]
    fn empty_db() {
        let s = shape(&TransactionDb::default());
        assert_eq!(s.n_transactions, 0);
        assert_eq!(s.item_gini, 0.0);
        assert_eq!(s.max_len, 0);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-9);
        // one holder of everything among many
        let mut v = vec![0u64; 99];
        v.push(1000);
        assert!(gini(&v) > 0.95);
    }

    #[test]
    fn render_contains_fields() {
        let s = shape(&TransactionDb::from_transactions(vec![vec![1, 2]]));
        let r = render(&s);
        assert!(r.contains("transactions"));
        assert!(r.contains("Gini"));
    }
}
