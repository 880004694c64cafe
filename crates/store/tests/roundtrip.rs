//! Store round-trip properties (DESIGN.md §14):
//!
//! * build → persist → load → mine is **byte-identical** to mining the
//!   original database cold, for every kernel, on arbitrary inputs;
//! * persisted result entries survive the disk round trip exactly;
//! * append over a persisted artifact equals a from-scratch build of
//!   the grown database;
//! * damaging any individual section is detected and named; arbitrary
//!   garbage never panics the decoder.

use fpm::types::{canonicalize, MineKind};
use fpm::{CollectSink, Kernel, PatternQuery, QueryKey, RuleSpec, TransactionDb};
use fpm_store as store;
use proptest::prelude::*;
use store::{Artifact, LoadError, SpecMeta};

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(
        prop::collection::btree_set(0u32..24, 0..10)
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
        0..60,
    )
    .prop_map(TransactionDb::from_transactions)
}

fn mine(db: &TransactionDb, kernel: Kernel, minsup: u64) -> Vec<fpm::ItemsetCount> {
    let mut sink = CollectSink::default();
    exec::MinePlan::kernel(kernel, minsup).execute(db, &mut sink);
    canonicalize(sink.patterns)
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fpm-store-roundtrip-{}-{}.fpa",
        std::process::id(),
        tag
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: a warm start from disk mines exactly what
    /// a cold start would, and persisted results return verbatim.
    #[test]
    fn persisted_artifact_mines_byte_identical_to_cold(
        db in arb_db(),
        minsup in 1u64..6,
    ) {
        let mut artifact = Artifact::build(SpecMeta::named("ds1", "smoke"), &db);
        for kernel in Kernel::ALL {
            artifact.push_result(
                kernel.code(),
                minsup,
                QueryKey::default(),
                mine(&db, kernel, minsup),
            );
        }

        // In-memory encode/decode is exact.
        let decoded = Artifact::decode(&artifact.encode()).expect("clean decode");
        prop_assert_eq!(&decoded, &artifact);

        // Through the filesystem (atomic tmp+rename write path).
        let path = tmp_path("prop");
        artifact.store(&path).expect("store");
        let loaded = Artifact::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&loaded, &artifact);
        loaded.verify_deep().expect("deep verify");

        // Mining the database rebuilt from the loaded raw section is
        // byte-identical to mining the original, for every kernel —
        // and matches the persisted result entries.
        let rebuilt = TransactionDb::from_transactions(loaded.raw.clone());
        prop_assert_eq!(store::fingerprint(&rebuilt), loaded.fingerprint);
        for kernel in Kernel::ALL {
            let cold = mine(&db, kernel, minsup);
            prop_assert_eq!(&mine(&rebuilt, kernel, minsup), &cold, "{}", kernel.label());
            let entry = loaded
                .live_results()
                .find(|e| e.kernel == kernel.code() && e.min_support == minsup)
                .expect("persisted entry");
            prop_assert_eq!(&entry.patterns, &cold, "{}", kernel.label());
        }
    }

    /// Append over a persisted artifact equals building the grown
    /// database from scratch — same sections, and the same mined bytes
    /// afterwards.
    #[test]
    fn append_after_reload_matches_scratch(
        db in arb_db(),
        extra in prop::collection::vec(
            prop::collection::vec(0u32..24, 0..8), 1..8),
        minsup in 1u64..6,
    ) {
        let artifact = Artifact::build(SpecMeta::named("ds2", "smoke"), &db);
        let path = tmp_path("append");
        artifact.store(&path).expect("store");
        let mut grown = Artifact::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);

        let report = store::append(&mut grown, &extra);
        prop_assert_eq!(report.appended_rows, extra.len());
        prop_assert_eq!(report.generation, 1);

        // From-scratch reference: the original rows plus the appended
        // ones, rebuilt as one database.
        let mut all_rows = db.transactions().to_vec();
        all_rows.extend(extra.iter().cloned());
        let reference = TransactionDb::from_transactions(all_rows);
        let mut scratch = Artifact::build(SpecMeta::named("ds2", "smoke"), &reference);
        scratch.generation = grown.generation;
        prop_assert_eq!(&grown, &scratch);

        // And the mined bytes over the grown artifact's raw section are
        // what a from-scratch mine of the grown database emits.
        let rebuilt = TransactionDb::from_transactions(grown.raw.clone());
        for kernel in Kernel::ALL {
            prop_assert_eq!(
                mine(&rebuilt, kernel, minsup),
                mine(&reference, kernel, minsup),
                "{}", kernel.label()
            );
        }
    }

    /// The decoder is total: arbitrary garbage is rejected or decoded,
    /// never a panic, never an out-of-bounds read.
    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = Artifact::decode(&bytes);
    }

    /// Query-tagged result entries survive the disk round trip exactly,
    /// each query occupying its own slot, and the persisted answer
    /// equals applying the query to the full mine.
    #[test]
    fn query_tagged_results_roundtrip(
        db in arb_db(),
        minsup in 1u64..6,
        k in 1u64..8,
    ) {
        let queries = [
            PatternQuery::all(),
            PatternQuery::class(MineKind::Closed),
            PatternQuery::class(MineKind::Maximal),
            PatternQuery::all().top_k(k),
            PatternQuery::class(MineKind::Closed)
                .top_k(k)
                .rules(RuleSpec { min_confidence: 0.5, min_lift: 1.0 }),
        ];
        let full = mine(&db, Kernel::Lcm, minsup);
        let mut artifact = Artifact::build(SpecMeta::named("ds1", "smoke"), &db);
        for q in &queries {
            let answer = q.apply(&full, db.len() as u64);
            artifact.push_result(Kernel::Lcm.code(), minsup, q.key(), answer);
        }
        prop_assert_eq!(artifact.results.len(), queries.len());

        let path = tmp_path("query");
        artifact.store(&path).expect("store");
        let loaded = Artifact::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&loaded, &artifact);
        for q in &queries {
            let entry = loaded
                .live_results()
                .find(|e| e.query == q.key())
                .expect("per-query slot persisted");
            prop_assert_eq!(
                &entry.patterns,
                &q.apply(&full, db.len() as u64),
                "{}", q.label()
            );
        }
    }
}

/// Deterministic per-section sweep: damage inside each section's
/// payload is not just detected but *attributed* — the typed error
/// names the damaged section, which is what the serve-side fallback
/// logs hinge on.
#[test]
fn damage_names_the_section_it_landed_in() {
    let db = TransactionDb::from_transactions(vec![
        vec![0, 1, 2, 3],
        vec![0, 1, 2],
        vec![1, 2, 4],
        vec![0, 4],
        vec![2, 3, 4],
    ]);
    let mut artifact = Artifact::build(SpecMeta::named("ds1", "smoke"), &db);
    artifact.push_result(0, 2, QueryKey::default(), mine(&db, Kernel::Lcm, 2));
    let clean = artifact.encode();

    // The section count, so the sweep covers every section of the
    // current format.
    let count = u32::from_le_bytes(clean[12..16].try_into().unwrap()) as usize;
    for i in 0..count {
        let base = 16 + i * 24;
        let id = u32::from_le_bytes(clean[base..base + 4].try_into().unwrap());
        let off = u64::from_le_bytes(clean[base + 4..base + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(clean[base + 12..base + 20].try_into().unwrap()) as usize;
        assert!(len > 0, "fixture must populate section {i}");

        // A bit-flip anywhere in the payload is attributed to exactly
        // this section by its CRC.
        let mut flipped = clean.clone();
        flipped[off + len / 2] ^= 0x80;
        match Artifact::decode(&flipped) {
            Err(LoadError::Corrupt { section }) => {
                assert_eq!(section, store::section_name(id), "flip in section {i}")
            }
            other => panic!("flip in section {i}: expected Corrupt, got {other:?}"),
        }

        // Truncation that cuts this section off is detected (the exact
        // attribution may be the file-length check, but it must fail).
        let truncated = &clean[..off + len / 2];
        assert!(
            Artifact::decode(truncated).is_err(),
            "truncation into section {i} must not decode"
        );
    }
}

/// The atomic write contract: a failed/interrupted store never leaves a
/// half-written artifact at the final path, and a rewrite replaces the
/// bytes in one step.
#[test]
fn store_is_atomic_rename_and_rewrites_whole() {
    let db = TransactionDb::from_transactions(vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
    let mut artifact = Artifact::build(SpecMeta::named("ds3", "smoke"), &db);
    let path = tmp_path("atomic");
    artifact.store(&path).expect("first store");
    let first = std::fs::read(&path).expect("read");

    artifact.push_result(0, 1, QueryKey::default(), mine(&db, Kernel::Lcm, 1));
    artifact.store(&path).expect("rewrite");
    let second = std::fs::read(&path).expect("read");
    let _ = std::fs::remove_file(&path);

    assert_ne!(first, second, "the rewrite must replace the bytes");
    assert_eq!(Artifact::decode(&second).expect("decode"), artifact);
    // No stray temp file left beside the artifact.
    let mut tmp = path.into_os_string();
    tmp.push(".tmp");
    assert!(!std::path::Path::new(&tmp).exists(), "temp file must be renamed away");
}
