//! The paper's evaluation datasets (Table 6) at selectable scale.

use crate::ap::{self, ApParams};
use crate::quest::{generate as quest_generate, QuestParams};
use crate::webdocs::{self, WebDocsParams};
use fpm::TransactionDb;

/// Reproduction scale. The paper's full sizes (300 K – 1.8 M
/// transactions) are available, but the default reproduction runs 10×
/// smaller — the locality effects under study are cache-line-granular and
/// the scaled working sets still exceed the simulated L2, so speedup
/// *shape* is preserved (DESIGN.md §4.4). Supports scale with the
/// transaction count so relative frequency thresholds match the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scale {
    /// ~100× down — seconds-fast; unit/integration tests.
    Smoke,
    /// ~10× down — the default for benches and the `repro` harness.
    Ci,
    /// Paper-sized.
    Full,
}

impl Scale {
    /// Division factor applied to transaction counts and supports.
    pub fn factor(&self) -> usize {
        match self {
            Scale::Smoke => 100,
            Scale::Ci => 10,
            Scale::Full => 1,
        }
    }

    /// Parses `smoke` / `ci` / `full`.
    pub fn by_label(label: &str) -> Option<Scale> {
        match label.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "ci" => Some(Scale::Ci),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The wire label ([`by_label`](Scale::by_label)'s inverse); the
    /// store layer keys persisted artifacts by it.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Ci => "ci",
            Scale::Full => "full",
        }
    }
}

/// One of the paper's four evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dataset {
    /// T60I10D300K (IBM Quest synthetic).
    Ds1,
    /// T70I10D300K (IBM Quest synthetic).
    Ds2,
    /// WebDocs slice, 500 K transactions (stand-in generator).
    Ds3,
    /// AP / TIPSTER, 1.8 M transactions (stand-in generator).
    Ds4,
}

impl Dataset {
    /// All four, in Table 6 order.
    pub const ALL: [Dataset; 4] = [Dataset::Ds1, Dataset::Ds2, Dataset::Ds3, Dataset::Ds4];

    /// The Table 6 name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Ds1 => "T60I10D300K",
            Dataset::Ds2 => "T70I10D300K",
            Dataset::Ds3 => "WebDocs",
            Dataset::Ds4 => "AP",
        }
    }

    /// The Table 6 label (DS1..DS4).
    pub fn label(&self) -> &'static str {
        match self {
            Dataset::Ds1 => "DS1",
            Dataset::Ds2 => "DS2",
            Dataset::Ds3 => "DS3",
            Dataset::Ds4 => "DS4",
        }
    }

    /// Parses a `ds1..ds4` label.
    pub fn by_label(label: &str) -> Option<Dataset> {
        match label.to_ascii_lowercase().as_str() {
            "ds1" => Some(Dataset::Ds1),
            "ds2" => Some(Dataset::Ds2),
            "ds3" => Some(Dataset::Ds3),
            "ds4" => Some(Dataset::Ds4),
            _ => None,
        }
    }

    /// Paper transaction count (Table 6).
    pub fn paper_transactions(&self) -> usize {
        match self {
            Dataset::Ds1 | Dataset::Ds2 => 300_000,
            Dataset::Ds3 => 500_000,
            Dataset::Ds4 => 1_800_000,
        }
    }

    /// Paper support threshold (Table 6).
    pub fn paper_support(&self) -> u64 {
        match self {
            Dataset::Ds1 | Dataset::Ds2 => 3000,
            Dataset::Ds3 => 50_000,
            Dataset::Ds4 => 2000,
        }
    }

    /// The support threshold at `scale` (proportional to the transaction
    /// count, minimum 2).
    pub fn support(&self, scale: Scale) -> u64 {
        (self.paper_support() / scale.factor() as u64).max(2)
    }

    /// Number of transactions at `scale`.
    pub fn transactions(&self, scale: Scale) -> usize {
        self.paper_transactions() / scale.factor()
    }

    /// Generates the dataset at `scale` (deterministic).
    pub fn generate(&self, scale: Scale) -> TransactionDb {
        let n = self.transactions(scale);
        match self {
            Dataset::Ds1 => quest_generate(&QuestParams {
                n_transactions: n,
                avg_transaction_len: 60.0,
                avg_pattern_len: 10.0,
                n_items: 1000,
                n_patterns: 2000,
                seed: 61,
                ..QuestParams::default()
            }),
            Dataset::Ds2 => quest_generate(&QuestParams {
                n_transactions: n,
                avg_transaction_len: 70.0,
                avg_pattern_len: 10.0,
                n_items: 1000,
                n_patterns: 2000,
                seed: 71,
                ..QuestParams::default()
            }),
            Dataset::Ds3 => webdocs::generate(&WebDocsParams {
                n_transactions: n,
                ..WebDocsParams::default()
            }),
            Dataset::Ds4 => ap::generate(&ApParams {
                n_transactions: n,
                ..ApParams::default()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_numbers() {
        assert_eq!(Dataset::Ds1.paper_transactions(), 300_000);
        assert_eq!(Dataset::Ds3.paper_support(), 50_000);
        assert_eq!(Dataset::Ds4.paper_transactions(), 1_800_000);
        assert_eq!(Dataset::Ds1.name(), "T60I10D300K");
    }

    #[test]
    fn scale_labels_roundtrip() {
        for scale in [Scale::Smoke, Scale::Ci, Scale::Full] {
            assert_eq!(Scale::by_label(scale.label()), Some(scale));
        }
        assert_eq!(Scale::by_label("nope"), None);
    }

    #[test]
    fn scaled_supports_track_scale() {
        assert_eq!(Dataset::Ds1.support(Scale::Full), 3000);
        assert_eq!(Dataset::Ds1.support(Scale::Ci), 300);
        assert_eq!(Dataset::Ds1.support(Scale::Smoke), 30);
        assert_eq!(Dataset::Ds3.transactions(Scale::Ci), 50_000);
    }

    #[test]
    fn smoke_generation_all_datasets() {
        for ds in Dataset::ALL {
            let db = ds.generate(Scale::Smoke);
            assert_eq!(db.len(), ds.transactions(Scale::Smoke), "{}", ds.label());
            assert!(!db.is_empty());
            // the scaled support must keep a meaningful number of
            // frequent items alive
            let ranked = fpm::remap(&db, ds.support(Scale::Smoke));
            assert!(
                ranked.n_ranks() >= 10,
                "{}: only {} frequent items at smoke scale",
                ds.label(),
                ranked.n_ranks()
            );
        }
    }

    #[test]
    fn labels_roundtrip() {
        for ds in Dataset::ALL {
            assert_eq!(Dataset::by_label(ds.label()), Some(ds));
        }
        assert_eq!(Scale::by_label("CI"), Some(Scale::Ci));
        assert_eq!(Scale::by_label("nope"), None);
    }

    #[test]
    fn ds1_ds2_differ_in_length() {
        let a = Dataset::Ds1.generate(Scale::Smoke);
        let b = Dataset::Ds2.generate(Scale::Smoke);
        assert!(b.mean_len() > a.mean_len(), "T70 must be longer than T60");
    }
}
