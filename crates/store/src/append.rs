//! Offline append: grow a persisted dataset.
//!
//! Appending extends the raw section with the normalized new rows,
//! re-fingerprints it, bumps the artifact **generation** and drops the
//! persisted results. The generation is the invalidation mechanism:
//! cached entries record the generation they were mined at, and
//! [`crate::Artifact::live_results`] only yields entries whose
//! generation matches — so a warm-starting service can never serve
//! pre-append patterns for a post-append database.
//!
//! The result equals a from-scratch [`crate::Artifact::build`] of the
//! grown rows at the new generation — tested below and property-tested
//! in `tests/roundtrip.rs`.

use crate::artifact::{fingerprint, Artifact};
use fpm::{Item, TransactionDb};

/// What an [`append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// Transactions appended (after normalization; empties count).
    pub appended_rows: usize,
    /// The artifact's new generation.
    pub generation: u64,
    /// Result-cache entries invalidated by the generation bump.
    pub invalidated_results: usize,
}

/// Appends `new_rows` to the artifact's dataset and invalidates its
/// results. See the module docs for the contract.
pub fn append(a: &mut Artifact, new_rows: &[Vec<Item>]) -> AppendReport {
    let invalidated_results = a.live_results().count();
    a.generation += 1;
    a.results.clear();

    // Normalized like the rows already there: items sorted ascending,
    // duplicates dropped, empty rows kept.
    let new_rows = TransactionDb::from_transactions(new_rows.to_vec());
    a.raw.extend_from_slice(new_rows.transactions());
    a.fingerprint = fingerprint(&TransactionDb::from_transactions(a.raw.clone()));

    AppendReport {
        appended_rows: new_rows.len(),
        generation: a.generation,
        invalidated_results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::SpecMeta;
    use fpm::ItemsetCount;

    fn base_rows() -> Vec<Vec<Item>> {
        vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 2, 5],
            vec![4],
        ]
    }

    fn built(rows: Vec<Vec<Item>>) -> Artifact {
        let db = TransactionDb::from_transactions(rows);
        Artifact::build(SpecMeta::named("ds1", "smoke"), &db)
    }

    /// Appending must land on exactly the state a from-scratch build of
    /// the full dataset produces, at the appended generation.
    fn assert_matches_scratch(appended: &Artifact, all_rows: Vec<Vec<Item>>) {
        let mut scratch = built(all_rows);
        scratch.generation = appended.generation;
        assert_eq!(appended, &scratch);
        assert!(appended.verify_deep().is_ok());
    }

    #[test]
    fn append_matches_a_scratch_build_whatever_the_item_order() {
        let deltas: [Vec<Vec<Item>>; 2] = [
            // [1,2] reinforces the existing order (2 most frequent, then 1).
            vec![vec![2, 1], vec![2]],
            // Flood item 7 (previously absent) to the top of the ranking.
            (0..10).map(|_| vec![7]).collect(),
        ];
        for delta in deltas {
            let mut a = built(base_rows());
            let report = append(&mut a, &delta);
            assert_eq!(report.appended_rows, delta.len());
            assert_eq!(report.generation, 1);
            let mut all = base_rows();
            all.extend(delta);
            assert_matches_scratch(&a, all);
        }
    }

    #[test]
    fn append_bumps_generation_and_invalidates_results() {
        let mut a = built(base_rows());
        a.push_result(
            0,
            2,
            fpm::QueryKey::default(),
            vec![ItemsetCount { items: vec![1], support: 3 }],
        );
        assert_eq!(a.live_results().count(), 1);
        let report = append(&mut a, &[vec![1, 2]]);
        assert_eq!(report.invalidated_results, 1);
        assert_eq!(a.generation, 1);
        assert_eq!(a.live_results().count(), 0);
        assert!(a.results.is_empty(), "stale entries are dropped, not kept as dead bytes");
    }

    #[test]
    fn appended_artifact_roundtrips_on_disk() {
        let mut a = built(base_rows());
        append(&mut a, &[vec![1, 3], vec![]]);
        let bytes = a.encode();
        assert_eq!(Artifact::decode(&bytes).expect("clean decode"), a);
    }

    #[test]
    fn unnormalized_and_empty_rows_are_handled() {
        let mut a = built(base_rows());
        let delta = vec![vec![2, 2, 1], vec![]];
        let report = append(&mut a, &delta);
        assert_eq!(report.appended_rows, 2);
        let mut all = base_rows();
        all.extend(delta);
        assert_matches_scratch(&a, all);
    }

    #[test]
    fn the_largest_item_id_costs_only_its_row_bytes() {
        let mut a = built(base_rows());
        let before = a.encode().len();
        append(&mut a, &[vec![u32::MAX]]);
        // One row: a u32 length and one u32 item.
        assert_eq!(a.encode().len(), before + 8);
        assert!(a.verify_deep().is_ok());
    }
}
