//! Warm-start acceptance tests for the persistent artifact store
//! (DESIGN.md §14), measured end to end across a simulated restart:
//!
//! * a service shut down against a `store_dir` flushes its cached
//!   results; a **new** service against the same directory answers the
//!   same request as a cache hit with a **zero `mined_runs` delta**,
//!   byte-identical to the cold run;
//! * damaging any one of the artifact's sections (or its header)
//!   is detected at load — `store_integrity_failures` — and the service
//!   degrades to a correct cold rebuild, never serving poison;
//! * an artifact appended *while the service was down* warm-starts the
//!   dataset but refuses the stale results: the generation bump
//!   invalidates them.

use fpm_serve::{DatasetSpec, Kernel, MineRequest, MineService, Outcome, ServeConfig};
use std::path::{Path, PathBuf};

fn spec() -> DatasetSpec {
    DatasetSpec::Named {
        dataset: quest::Dataset::Ds1,
        scale: quest::Scale::Smoke,
    }
}

const MINSUP: u64 = 150;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fpm-serve-store-{}-{}",
        std::process::id(),
        tag
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_cfg(dir: &Path) -> ServeConfig {
    ServeConfig {
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

#[test]
fn restart_answers_from_store_without_remining() {
    let dir = unique_dir("restart");

    let first = MineService::start(store_cfg(&dir));
    let cold = first.mine(MineRequest::new(spec(), Kernel::Lcm, MINSUP));
    assert_eq!(cold.outcome, Outcome::Complete);
    assert!(!cold.stats.cache_hit);
    assert_eq!(first.metrics().get("mined_runs"), 1);
    first.shutdown();
    assert!(
        first.metrics().get("store_flushed_entries") >= 1,
        "shutdown must persist the cached result"
    );

    // "Restart": a brand-new service over the same directory.
    let second = MineService::start(store_cfg(&dir));
    let m = second.metrics();
    assert_eq!(m.get("store_artifacts_loaded"), 1);
    assert!(m.get("store_warm_entries") >= 1);
    assert_eq!(m.get("store_integrity_failures"), 0);
    let warm = second.mine(MineRequest::new(spec(), Kernel::Lcm, MINSUP));
    assert_eq!(warm.outcome, Outcome::Complete);
    assert!(warm.stats.cache_hit, "restart must answer from the store");
    assert_eq!(second.metrics().get("mined_runs"), 0, "zero mined_runs delta across restart");
    assert_eq!(
        warm.patterns, cold.patterns,
        "warm answer is byte-identical to the cold mine"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damage_in_any_section_degrades_to_cold_rebuild() {
    // Populate a store once, then sweep damage across the header and
    // every section payload; each damaged copy must be detected and the
    // service must still serve the correct (re-mined) answer.
    let seed_dir = unique_dir("sweep-seed");
    let first = MineService::start(store_cfg(&seed_dir));
    let cold = first.mine(MineRequest::new(spec(), Kernel::Lcm, MINSUP));
    assert_eq!(cold.outcome, Outcome::Complete);
    first.shutdown();
    let artifact_path = store::scan(&seed_dir).unwrap().pop().expect("one artifact flushed");
    let clean = std::fs::read(&artifact_path).unwrap();
    let name = artifact_path.file_name().unwrap().to_owned();

    // Section payload offsets from the table: the section count sits at
    // bytes 12..16, entries start at byte 16, 24 bytes each (id u32,
    // offset u64, len u64, crc u32).
    let count = u32::from_le_bytes(clean[12..16].try_into().unwrap()) as usize;
    let entry = |i: usize| {
        let base = 16 + i * 24;
        let off = u64::from_le_bytes(clean[base + 4..base + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(clean[base + 12..base + 20].try_into().unwrap()) as usize;
        (off, len)
    };
    // Damage targets: one byte inside the table itself, then the middle
    // byte of every payload, then a truncation.
    let mut variants: Vec<(String, Vec<u8>)> = vec![("header".into(), {
        let mut b = clean.clone();
        b[20] ^= 0x10;
        b
    })];
    for i in 0..count {
        let (off, len) = entry(i);
        let mut b = clean.clone();
        if len == 0 {
            continue;
        }
        b[off + len / 2] ^= 0x01;
        variants.push((format!("section-{i}"), b));
    }
    variants.push(("truncated".into(), clean[..clean.len() / 2].to_vec()));

    for (label, damaged) in variants {
        let dir = unique_dir(&format!("sweep-{label}"));
        std::fs::write(dir.join(&name), &damaged).unwrap();
        let svc = MineService::start(store_cfg(&dir));
        let m = svc.metrics();
        assert_eq!(
            m.get("store_integrity_failures"),
            1,
            "{label}: damage must be detected at load"
        );
        assert_eq!(m.get("store_artifacts_loaded"), 0, "{label}");
        assert_eq!(m.get("store_warm_entries"), 0, "{label}");
        let resp = svc.mine(MineRequest::new(spec(), Kernel::Lcm, MINSUP));
        assert_eq!(resp.outcome, Outcome::Complete, "{label}");
        assert!(!resp.stats.cache_hit, "{label}: no poison served as a hit");
        assert_eq!(svc.metrics().get("mined_runs"), 1, "{label}: cold rebuild really mined");
        assert_eq!(
            resp.patterns, cold.patterns,
            "{label}: the fallback answer is byte-identical to the truth"
        );
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&seed_dir);
}

#[test]
fn offline_append_invalidates_persisted_results() {
    let dir = unique_dir("offline-append");
    let first = MineService::start(store_cfg(&dir));
    let cold = first.mine(MineRequest::new(spec(), Kernel::Lcm, MINSUP));
    assert_eq!(cold.outcome, Outcome::Complete);
    first.shutdown();

    // Append two transactions while no service is running, one of them
    // holding the largest item id: generation bumps, persisted results
    // become stale.
    let path = store::scan(&dir).unwrap().pop().unwrap();
    let mut artifact = store::Artifact::load(&path).unwrap();
    let report = store::append(&mut artifact, &[vec![1, 2, 3], vec![u32::MAX]]);
    assert_eq!(report.generation, 1);
    artifact.store(&path).unwrap();

    let second = MineService::start(store_cfg(&dir));
    let m = second.metrics();
    assert_eq!(m.get("store_artifacts_loaded"), 1, "appended artifact loads fine");
    assert_eq!(
        m.get("store_warm_entries"),
        0,
        "stale-generation results must not seed the cache"
    );
    let resp = second.mine(MineRequest::new(spec(), Kernel::Lcm, MINSUP));
    assert_eq!(resp.outcome, Outcome::Complete);
    assert_eq!(second.metrics().get("mined_runs"), 1, "the appended dataset re-mines");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
