//! Directed shard-stall drills (beyond the seeded campaign sweep): a
//! stalled shard's requests must resolve honestly — late, or failed
//! with the true cause named — while requests routed to other shards
//! drain unaffected, and every counter invariant holds afterwards.
#![cfg(feature = "chaos")]

use chaos::campaign::{self, golden, render, SCALE};
use fpm::faults::{install, FaultPlan, FaultSite};
use fpm::Kernel;
use quest::Dataset;
use serve::{DatasetSpec, MineRequest, MineService, Outcome, ServeConfig};

const SHARDS: usize = 4;

/// Which shard index `seed`'s plan fires on, discovered behaviorally on
/// a throwaway install (plans are pure functions of the seed, so the
/// real run re-derives an identical, unconsumed plan).
fn fire_shard_of(seed: u64) -> Option<usize> {
    let guard = install(FaultPlan::for_site(FaultSite::ShardStall, seed));
    for k in 0..SHARDS {
        let before = guard.plan().fired();
        let _ = fpm::faults::shard_stall(k);
        if guard.plan().fired() > before {
            return Some(k);
        }
    }
    None
}

/// The first seed whose plan targets `shard` with the wanted flavor.
fn seed_targeting(shard: usize, panics: bool) -> u64 {
    (0..10_000u64)
        .find(|&seed| {
            FaultPlan::for_site(FaultSite::ShardStall, seed).shard_stall_panics() == panics
                && fire_shard_of(seed) == Some(shard)
        })
        .expect("a few thousand seeds cover every (shard, flavor) cell")
}

fn smoke_spec() -> DatasetSpec {
    DatasetSpec::Named {
        dataset: campaign::DATASET,
        scale: SCALE,
    }
}

/// Inline specs routed to shards other than `avoid`, one per other
/// shard where the hash happens to land.
fn other_shard_specs(svc: &MineService, avoid: usize) -> Vec<(usize, DatasetSpec)> {
    let mut found: Vec<(usize, DatasetSpec)> = Vec::new();
    for i in 0..64u32 {
        let spec = DatasetSpec::Inline(vec![vec![i, i + 1, i + 2], vec![i, i + 1], vec![i]]);
        let shard = svc.shard_of(&spec);
        if shard != avoid && !found.iter().any(|(s, _)| *s == shard) {
            found.push((shard, spec));
        }
    }
    assert!(
        !found.is_empty(),
        "64 distinct inline datasets must reach at least one other shard"
    );
    found
}

fn check_books(svc: &MineService) {
    let m = svc.metrics();
    let by_outcome = m.get("requests_completed")
        + m.get("requests_cancelled")
        + m.get("requests_deadline_exceeded")
        + m.get("requests_rejected")
        + m.get("requests_failed");
    assert_eq!(m.get("requests_submitted"), by_outcome, "every job has one outcome");
    assert_eq!(m.get("cache_probes"), m.get("cache_hits") + m.get("cache_misses"));
}

#[test]
fn stalled_shard_resolves_late_while_others_drain() {
    let _serialize = campaign::lock().lock().unwrap_or_else(|e| e.into_inner());
    let svc = MineService::start(ServeConfig {
        shards: SHARDS,
        workers: 1,
        ..ServeConfig::default()
    });
    let target = svc.shard_of(&smoke_spec());
    let seed = seed_targeting(target, false);

    let guard = install(FaultPlan::for_site(FaultSite::ShardStall, seed));
    // The stalled shard's request and one request per other reachable
    // shard, all in flight together.
    let stalled = svc.submit(MineRequest::new(
        smoke_spec(),
        Kernel::Lcm,
        chaos::goldens::SMOKE_MINSUP,
    ));
    let others: Vec<_> = other_shard_specs(&svc, target)
        .into_iter()
        .map(|(_, spec)| svc.submit(MineRequest::new(spec, Kernel::Lcm, 1)))
        .collect();
    for t in others {
        let resp = t.wait();
        assert_eq!(
            resp.outcome,
            Outcome::Complete,
            "other shards drain while one shard is stalled"
        );
    }
    let resp = stalled.wait();
    assert!(guard.plan().fired() > 0, "the stall must actually have fired");
    drop(guard);

    // Late, but honest: the complete serial result, byte for byte.
    assert_eq!(resp.outcome, Outcome::Complete, "a delayed pickup still completes");
    assert!(!resp.stats.truncated);
    let rendered = render(resp.patterns.as_ref().expect("patterns included"));
    assert_eq!(
        rendered,
        golden(Kernel::Lcm),
        "the stalled shard's answer is the full serial golden"
    );
    check_books(&svc);
    svc.shutdown();
}

#[test]
fn failed_pickup_names_the_stall_and_the_shard_recovers() {
    let _serialize = campaign::lock().lock().unwrap_or_else(|e| e.into_inner());
    let svc = MineService::start(ServeConfig {
        shards: SHARDS,
        workers: 1,
        ..ServeConfig::default()
    });
    let target = svc.shard_of(&smoke_spec());
    let seed = seed_targeting(target, true);

    let guard = install(FaultPlan::for_site(FaultSite::ShardStall, seed));
    let failed = svc.mine(MineRequest::new(
        smoke_spec(),
        Kernel::Lcm,
        chaos::goldens::SMOKE_MINSUP,
    ));
    assert_eq!(failed.outcome, Outcome::Failed, "the failed pickup is not papered over");
    assert!(
        failed.reason.as_deref().is_some_and(|r| r.contains("stall")),
        "the Failed reason names the stall, got {:?}",
        failed.reason
    );
    assert_eq!(failed.count, 0, "a job failed at pickup emitted nothing");

    // The panic flavor fires exactly once: the shard takes the next
    // request and serves the full result.
    let retry = svc.mine(MineRequest::new(
        smoke_spec(),
        Kernel::Lcm,
        chaos::goldens::SMOKE_MINSUP,
    ));
    drop(guard);
    assert_eq!(retry.outcome, Outcome::Complete, "the shard recovers after the failure");
    let rendered = render(retry.patterns.as_ref().expect("patterns included"));
    assert_eq!(rendered, golden(Kernel::Lcm));
    assert_eq!(
        svc.metrics().get("requests_failed"),
        1,
        "exactly the one injected failure is on the books"
    );
    check_books(&svc);
    svc.shutdown();
}
