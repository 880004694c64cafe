//! Property tests: every LCM variant is a pure optimization — identical
//! output to the baseline on arbitrary inputs — and the output satisfies
//! the frequent-itemset contract.

use fpm_lcm as lcm;
use fpm::types::canonicalize;
use fpm::{CollectSink, TransactionDb};
use proptest::prelude::*;

fn run(db: &TransactionDb, minsup: u64, cfg: &lcm::LcmConfig) -> Vec<fpm::ItemsetCount> {
    let mut s = CollectSink::default();
    lcm::mine(db, minsup, cfg, &mut s);
    canonicalize(s.patterns)
}

/// Rows with a duplicated run, so `rm_dup_trans` leaves weights above 1.
fn arb_db() -> impl Strategy<Value = TransactionDb> {
    (
        prop::collection::vec(
            prop::collection::btree_set(0u32..20, 0..10)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            0..60,
        ),
        0usize..20,
    )
        .prop_map(|(mut rows, dup)| {
            let dup = dup.min(rows.len());
            rows.extend_from_within(..dup);
            TransactionDb::from_transactions(rows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn variants_agree(db in arb_db(), minsup in 1u64..8, tile in any::<usize>()) {
        let expect = run(&db, minsup, &lcm::LcmConfig::baseline());
        for (name, cfg) in lcm::variants() {
            prop_assert_eq!(run(&db, minsup, &cfg), expect.clone(), "{}", name);
        }
        // An auto tile holds more rows than `arb_db` draws, so only
        // explicit tiles run the tiled walk here, reusing its count block
        // across siblings and depths.
        for t in [1, 2, 1 + tile % (db.len() + 1)] {
            let cfg = lcm::LcmConfig {
                tile_rows: Some(t),
                ..lcm::LcmConfig::all()
            };
            prop_assert_eq!(run(&db, minsup, &cfg), expect.clone(), "tile={}", t);
        }
    }

    #[test]
    fn output_contract(db in arb_db(), minsup in 1u64..8) {
        let out = run(&db, minsup, &lcm::LcmConfig::all());
        // supports respect the threshold and items are sorted sets
        for p in &out {
            prop_assert!(p.support >= minsup);
            prop_assert!(p.items.windows(2).all(|w| w[0] < w[1]));
            // support equals a direct scan count
            let scan = db
                .transactions()
                .iter()
                .filter(|t| p.items.iter().all(|i| t.binary_search(i).is_ok()))
                .count() as u64;
            prop_assert_eq!(p.support, scan);
        }
        // no duplicate itemsets
        let mut keys: Vec<&Vec<u32>> = out.iter().map(|p| &p.items).collect();
        keys.dedup();
        prop_assert_eq!(keys.len(), out.len());
    }
}

// Parallel-vs-serial agreement lives in `tests/exec_conformance.rs` at
// the workspace root: the parallel driver is `fpm-exec`'s `MinePlan`,
// which this crate cannot depend on without a cycle.
