//! Parallel-vs-serial conformance: for every kernel × ALSO variant ×
//! thread count, executing a [`MinePlan`] (serially at one thread, on the
//! `fpm-par` work-stealing runtime above) must produce *exactly* the
//! serial kernel's output — same
//! itemsets, same supports — and the merged emission stream must be
//! byte-identical across runs (the determinism guarantee of the
//! rank-ordered merge).
//!
//! Thread count 7 is included deliberately: a prime, larger-than-core
//! count exercises the remainder of the round-robin deal and forces
//! steals from partially drained deques.

use exec::MinePlan;
use fpm::types::canonicalize;
use fpm::{CollectSink, ItemsetCount, RecordSink, TransactionDb};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The kernel × named-variant matrix under test.
fn variant_matrix() -> Vec<(&'static str, &'static str)> {
    let mut m = Vec::new();
    for (name, _) in lcm::variants() {
        m.push(("lcm", name));
    }
    for (name, _) in eclat::variants() {
        m.push(("eclat", name));
    }
    for (name, _) in fpgrowth::variants() {
        m.push(("fpgrowth", name));
    }
    m
}

/// The serial reference: the kernel's own `mine` entry point.
fn serial(kernel: &str, variant: &str, db: &TransactionDb, minsup: u64) -> Vec<ItemsetCount> {
    let mut s = CollectSink::default();
    match kernel {
        "lcm" => {
            let cfg = lcm::variants().into_iter().find(|(n, _)| *n == variant).unwrap().1;
            lcm::mine(db, minsup, &cfg, &mut s);
        }
        "eclat" => {
            let cfg = eclat::variants().into_iter().find(|(n, _)| *n == variant).unwrap().1;
            eclat::mine(db, minsup, &cfg, &mut s);
        }
        "fpgrowth" => {
            let cfg = fpgrowth::variants().into_iter().find(|(n, _)| *n == variant).unwrap().1;
            fpgrowth::mine(db, minsup, &cfg, &mut s);
        }
        other => panic!("unknown kernel {other}"),
    }
    canonicalize(s.patterns)
}

/// A plan for one kernel variant at `threads` workers.
fn plan(kernel: &str, variant: &str, minsup: u64, threads: usize) -> MinePlan {
    MinePlan::by_label(kernel, minsup)
        .unwrap()
        .variant(variant)
        .unwrap()
        .threads(threads)
}

fn parallel(
    kernel: &str,
    variant: &str,
    db: &TransactionDb,
    minsup: u64,
    threads: usize,
) -> Vec<ItemsetCount> {
    let mut s = CollectSink::default();
    let summary = plan(kernel, variant, minsup, threads).execute(db, &mut s);
    assert!(summary.complete, "{kernel}/{variant}: untripped run must complete");
    canonicalize(s.patterns)
}

/// Asserts parallel == serial for every kernel, every named variant and
/// every thread count in [`THREAD_COUNTS`]. Returns how many kernel ×
/// variant × thread combinations were checked.
fn assert_conformance(db: &TransactionDb, minsup: u64) -> usize {
    let mut checked = 0;
    for &threads in &THREAD_COUNTS {
        for (kernel, variant) in variant_matrix() {
            assert_eq!(
                parallel(kernel, variant, db, minsup, threads),
                serial(kernel, variant, db, minsup),
                "{kernel}/{variant} threads={threads}"
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn paper_toy_database_conforms() {
    let db = TransactionDb::from_transactions(vec![
        vec![0, 2, 5],
        vec![1, 2, 5],
        vec![0, 2, 5],
        vec![3, 4],
        vec![0, 1, 2, 3, 4, 5],
    ]);
    for minsup in 1..=3 {
        let checked = assert_conformance(&db, minsup);
        assert_eq!(checked, (6 + 4 + 5) * THREAD_COUNTS.len());
    }
}

#[test]
fn pathological_shapes_conform() {
    // More subtrees than threads, fewer subtrees than threads, empty.
    assert_conformance(&TransactionDb::from_transactions(vec![vec![1, 2, 3]; 20]), 5);
    assert_conformance(
        &TransactionDb::from_transactions((0..10).map(|k| vec![2 * k, 2 * k + 1]).collect()),
        1,
    );
    assert_conformance(&TransactionDb::from_transactions(vec![vec![7]]), 1);
    assert_conformance(&TransactionDb::default(), 1);
}

#[test]
fn quest_database_conforms() {
    let db = quest::quest_generate(&quest::QuestParams {
        n_transactions: 300,
        avg_transaction_len: 8.0,
        avg_pattern_len: 3.0,
        n_items: 30,
        n_patterns: 20,
        ..quest::QuestParams::default()
    });
    // Only the tuned variants at full thread spread: the full variant
    // matrix on a generated database is covered by the proptest below at
    // smaller sizes.
    let expect = serial("lcm", "all", &db, 15);
    assert!(expect.len() > 20, "workload must be non-trivial");
    for &threads in &THREAD_COUNTS {
        for kernel in ["lcm", "eclat", "fpgrowth"] {
            assert_eq!(
                parallel(kernel, "all", &db, 15, threads),
                serial(kernel, "all", &db, 15),
                "{kernel} threads={threads}"
            );
        }
    }
}

/// Two runs with identical inputs must produce byte-identical merged
/// emission streams — the regression guard for the rank-ordered merge:
/// any nondeterministic interleaving of worker outputs would diverge
/// here long before it corrupted a canonicalized comparison.
#[test]
fn determinism_regression_at_4_threads() {
    let db = TransactionDb::from_transactions(
        (0..80u32)
            .map(|k| (0..14).filter(|i| (k ^ i) % 3 != 0).collect())
            .collect(),
    );
    let record = |run: &dyn Fn(&mut RecordSink)| {
        let mut sink = RecordSink::default();
        run(&mut sink);
        assert!(!sink.bytes.is_empty(), "run must emit patterns");
        sink.bytes
    };
    for (kernel, variant) in variant_matrix() {
        let planned = plan(kernel, variant, 3, 4);
        let a = record(&|s| {
            planned.execute(&db, s);
        });
        let b = record(&|s| {
            planned.execute(&db, s);
        });
        assert_eq!(a, b, "{kernel}/{variant}: merged output must be deterministic");
        // and equal to the serial emission stream, not merely to itself
        let serial_bytes = record(&|s| match kernel {
            "lcm" => {
                let cfg = lcm::variants().into_iter().find(|(n, _)| *n == variant).unwrap().1;
                lcm::mine(&db, 3, &cfg, s);
            }
            "eclat" => {
                let cfg = eclat::variants().into_iter().find(|(n, _)| *n == variant).unwrap().1;
                eclat::mine(&db, 3, &cfg, s);
            }
            "fpgrowth" => {
                let cfg =
                    fpgrowth::variants().into_iter().find(|(n, _)| *n == variant).unwrap().1;
                fpgrowth::mine(&db, 3, &cfg, s);
            }
            other => panic!("unknown kernel {other}"),
        });
        assert_eq!(
            a, serial_bytes,
            "{kernel}/{variant}: merge must reproduce serial order"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random databases: the full kernel × variant × thread-count matrix
    /// conforms. Databases are kept small because each case runs
    /// (6+4+5) × 4 = 60 parallel mines.
    #[test]
    fn random_databases_conform(
        db in prop::collection::vec(
            prop::collection::btree_set(0u32..12, 0..7)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            0..40),
        minsup in 1u64..6,
    ) {
        let db = TransactionDb::from_transactions(db);
        for &threads in &THREAD_COUNTS {
            for (kernel, variant) in variant_matrix() {
                prop_assert_eq!(
                    parallel(kernel, variant, &db, minsup, threads),
                    serial(kernel, variant, &db, minsup),
                    "{}/{} threads={}", kernel, variant, threads
                );
            }
        }
    }
}
