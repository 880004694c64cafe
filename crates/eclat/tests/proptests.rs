//! Property tests: every Eclat variant — bit-matrix ladder, hybrid
//! containers, diffsets — mines the same patterns on arbitrary inputs.

use fpm_eclat as eclat;
use eclat::tidlist::SparseRepr;
use fpm::types::canonicalize;
use fpm::{CollectSink, TransactionDb};
use proptest::prelude::*;

fn run_bits(db: &TransactionDb, minsup: u64, cfg: &eclat::EclatConfig) -> Vec<fpm::ItemsetCount> {
    let mut s = CollectSink::default();
    eclat::mine(db, minsup, cfg, &mut s);
    canonicalize(s.patterns)
}

fn run_sparse(db: &TransactionDb, minsup: u64, repr: SparseRepr) -> Vec<fpm::ItemsetCount> {
    let mut s = CollectSink::default();
    eclat::tidlist::mine(db, minsup, repr, &mut s);
    canonicalize(s.patterns)
}

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(
        prop::collection::btree_set(0u32..18, 0..9)
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
        0..70,
    )
    .prop_map(TransactionDb::from_transactions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_representations_agree(db in arb_db(), minsup in 1u64..8) {
        let expect = run_bits(&db, minsup, &eclat::EclatConfig::baseline());
        for (name, cfg) in eclat::variants() {
            prop_assert_eq!(run_bits(&db, minsup, &cfg), expect.clone(), "{}", name);
        }
        prop_assert_eq!(run_sparse(&db, minsup, SparseRepr::Diffsets), expect.clone());
        prop_assert_eq!(run_sparse(&db, minsup, SparseRepr::Hybrid), expect);
    }

    #[test]
    fn zero_escaping_never_loses_patterns(db in arb_db(), minsup in 1u64..8) {
        // escape-only config (without lex) must still be exact
        let cfg = eclat::EclatConfig {
            lex: false,
            zero_escape: true,
            popcount: also::simd::Popcount::Scalar64,
        };
        prop_assert_eq!(
            run_bits(&db, minsup, &cfg),
            run_bits(&db, minsup, &eclat::EclatConfig::baseline())
        );
    }
}
