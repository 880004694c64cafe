//! The differential-oracle campaign: seeded fault plans swept through
//! the executor and the service, every injected failure checked against
//! the prefix-consistency contract.
//!
//! One campaign **case** is a pure function of its seed: the seed picks
//! a `(fault site, kernel, thread count)` combination (the first 63
//! seeds enumerate the full 7 × 3 × 3 matrix; later seeds re-mix) and
//! the [`FaultPlan`] derived from the same seed schedules *when* the
//! site fires. [`run_case`] then drives two phases on the DS1-smoke
//! workload —
//!
//! 1. **exec**: a [`MinePlan`] at the case's thread count (serial at
//!    one thread, the work-stealing runtime above; both cross the
//!    worker-panic site);
//! 2. **serve**: a cold + warm request pair against a fresh two-shard
//!    [`MineService`], exercising the cache-corruption,
//!    admission-flap, and shard-stall sites — and, for the
//!    artifact-corruption site, warm-started from a pre-built store
//!    whose bytes the plan damages at load;
//!
//! — and asserts the three invariants after each (DESIGN.md §12):
//!
//! * (a) every emitted byte sequence is a line-aligned prefix of the
//!   *committed* serial golden (cross-checked against `tests/goldens/`
//!   once per process, so a stale corpus fails loudly);
//! * (b) the outcome taxonomy names the true first cause — an injected
//!   panic surfaces as `TaskPanicked`/`Failed`, an injected trip as
//!   `Cancelled`, a flapped admission as `Rejected`, and a plan that
//!   never fired must leave a clean, complete run;
//! * (c) the service's counters stay arithmetically consistent
//!   (jobs in = out by outcome; cache probes = hits + misses;
//!   integrity failures never exceed misses).
//!
//! Plans fire against a **global** slot ([`fpm::faults::install`]), so
//! anything driving a case must hold [`lock`] for the duration.

use crate::goldens::{self, GoldenCase};
use exec::MinePlan;
use fpm::control::{MineControl, StopCause};
use fpm::faults::{install, mix, FaultPlan, FaultSite};
use fpm::types::MineKind;
use fpm::{ItemsetCount, Kernel, PatternQuery, PatternSink, RecordSink, TransactionDb};
use quest::{Dataset, Scale};
use serve::{DatasetSpec, MineRequest, MineResponse, MineService, Outcome, ServeConfig};
use std::sync::{Mutex, OnceLock};

/// Seeds the checked-in campaign sweeps (`tests/campaign.rs`).
pub const CAMPAIGN_SEEDS: u64 = 96;

/// Thread counts the matrix covers.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Query variants the extended matrix covers. Index 0 is the identity
/// query: the base 63-seed `site × kernel × threads` sweep pins it, so
/// those cases are exactly the pre-query campaign; remix seeds (≥ 63)
/// draw from the full query-extended matrix and so also drive the
/// postfilter path (closed class) and the top-k path under every fault
/// site.
pub fn campaign_queries() -> [PatternQuery; 3] {
    [
        PatternQuery::all(),
        PatternQuery::class(MineKind::Closed),
        PatternQuery::all().top_k(16),
    ]
}

/// The campaign workload: DS1 at smoke scale.
pub const DATASET: Dataset = Dataset::Ds1;
/// The campaign workload scale.
pub const SCALE: Scale = Scale::Smoke;

/// One campaign case, fully derived from its seed.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// The driving seed (`FPM_CHAOS_SEED` reproduces exactly this case).
    pub seed: u64,
    /// Which injection site the seed arms.
    pub site: FaultSite,
    /// Which kernel mines.
    pub kernel: Kernel,
    /// Worker threads for the run.
    pub threads: usize,
    /// The pattern query both phases run under (identity for the base
    /// matrix; remix seeds sweep [`campaign_queries`]).
    pub query: PatternQuery,
}

impl Case {
    /// Derives the case for `seed`. Seeds `0..63` enumerate the full
    /// `site × kernel × threads` matrix in order; higher seeds remix
    /// through [`mix`] so every `u64` is a valid case.
    pub fn from_seed(seed: u64) -> Case {
        let queries = campaign_queries();
        let nsites = FaultSite::ALL.len() as u64;
        let nkernels = Kernel::ALL.len() as u64;
        let nthreads = THREAD_COUNTS.len() as u64;
        let combos = nsites * nkernels * nthreads;
        let (combo, query) = if seed < combos {
            (seed, queries[0])
        } else {
            let m = mix(seed);
            (m % combos, queries[((m / combos) % queries.len() as u64) as usize])
        };
        Case {
            seed,
            site: FaultSite::ALL[(combo % nsites) as usize],
            kernel: Kernel::ALL[((combo / nsites) % nkernels) as usize],
            threads: THREAD_COUNTS[((combo / (nsites * nkernels)) % nthreads) as usize],
            query,
        }
    }

    /// The case in one line, leading with the reproduction command.
    pub fn label(&self) -> String {
        format!(
            "FPM_CHAOS_SEED={} [site={} kernel={} threads={} query={}]",
            self.seed,
            self.site.label(),
            self.kernel.label(),
            self.threads,
            self.query.label()
        )
    }
}

/// The campaign serialization lock: the fault-plan slot is process
/// global, so every test that installs plans must hold this for the
/// whole case.
pub fn lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

/// The campaign workload, generated once per process.
pub fn dataset() -> &'static TransactionDb {
    static DB: OnceLock<TransactionDb> = OnceLock::new();
    DB.get_or_init(|| DATASET.generate(SCALE))
}

/// The serial golden for `kernel` on the campaign workload — computed
/// in-process once, and cross-checked against the *committed* corpus
/// digest and prefix file so invariant (a) is anchored to
/// `tests/goldens/`, not to whatever the current build happens to emit.
pub fn golden(kernel: Kernel) -> &'static [u8] {
    static GOLDENS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    let all = GOLDENS.get_or_init(|| {
        let digests = goldens::load_digests();
        Kernel::ALL.map(|kernel| {
            let case = GoldenCase::smoke(kernel);
            let bytes = case.serial_bytes();
            let want = digests.get(&case.stem()).unwrap_or_else(|| {
                panic!(
                    "{} missing from digests.txt — run `cargo xtask regen-goldens`",
                    case.stem()
                )
            });
            assert_eq!(
                want.hash,
                goldens::fnv(&bytes),
                "{}: serial output diverges from the committed golden \
                 (regen the corpus if the change is intentional)",
                case.stem()
            );
            assert!(
                bytes.starts_with(&goldens::load_prefix(&case.stem())),
                "{}: committed prefix file is not a prefix of the serial output",
                case.stem()
            );
            bytes
        })
    });
    let idx = Kernel::ALL.iter().position(|k| *k == kernel).expect("known kernel");
    &all[idx]
}

/// The query-adjusted golden: the committed serial golden's pattern
/// list with `query` applied (the pure reference semantics of
/// `PatternQuery::apply`), rendered. For the identity query this is
/// byte-identical to [`golden`] — asserted once per process, which
/// anchors the query references to the committed corpus too.
pub fn query_golden(kernel: Kernel, query: &PatternQuery) -> Vec<u8> {
    static PATTERNS: OnceLock<[Vec<ItemsetCount>; 3]> = OnceLock::new();
    let all = PATTERNS.get_or_init(|| {
        Kernel::ALL.map(|kernel| {
            let mut sink = fpm::CollectSink::default();
            MinePlan::kernel(kernel, goldens::SMOKE_MINSUP).execute(dataset(), &mut sink);
            assert_eq!(
                render(&sink.patterns),
                golden(kernel),
                "{}: collected serial patterns must render the committed golden",
                kernel.label()
            );
            sink.patterns
        })
    });
    let idx = Kernel::ALL.iter().position(|k| *k == kernel).expect("known kernel");
    render(&query.apply(all[idx].clone(), dataset().len() as u64))
}

/// Renders patterns exactly as [`RecordSink`] would, so service
/// responses can be prefix-compared against the byte goldens.
pub fn render(patterns: &[ItemsetCount]) -> Vec<u8> {
    let mut sink = RecordSink::default();
    for p in patterns {
        sink.emit(&p.items, p.support);
    }
    sink.bytes
}

/// Invariant (a): `got` is a line-aligned byte prefix of `want`.
pub fn assert_line_prefix(got: &[u8], want: &[u8], context: &str) {
    assert!(
        want.starts_with(got),
        "{context}: emitted bytes are not a prefix of the serial golden \
         ({} emitted vs {} golden bytes)",
        got.len(),
        want.len()
    );
    assert!(
        got.is_empty() || got.ends_with(b"\n"),
        "{context}: emitted prefix is not line-aligned (ends mid-record)"
    );
}

/// Runs the full case for `seed`: the exec phase, then the serve phase.
/// Callers must hold [`lock`]. Panics (with the reproduction command in
/// the message) on any invariant violation.
pub fn run_case(seed: u64) {
    let case = Case::from_seed(seed);
    exec_phase(&case);
    serve_phase(&case);
}

/// Phase 1: the fault plan against `MinePlan::execute_controlled` at
/// the case's thread count.
fn exec_phase(case: &Case) {
    // For a non-identity query, invariant (a)'s reference is the query
    // answer over the committed golden: the executor's query path emits
    // the applied result in serial order (or an empty prefix when the
    // collection tripped), so prefix-of-the-query-golden is exactly the
    // contract.
    let want = query_golden(case.kernel, &case.query);
    let minsup = goldens::SMOKE_MINSUP;
    let label = format!("{} exec", case.label());

    // A fresh plan per phase, so `fired()` reflects this phase alone.
    let guard = install(FaultPlan::for_site(case.site, case.seed));
    let control = MineControl::unlimited();
    let mut sink = RecordSink::default();
    // Serial and runtime scheduling both cross the worker-panic site
    // inside their per-task catch, so it is armed at every count.
    let summary = MinePlan::kernel(case.kernel, minsup)
        .threads(case.threads)
        .query(case.query)
        .execute_controlled(dataset(), &control, &mut sink);
    let fired = guard.plan().fired();
    drop(guard);

    // Invariant (a) holds unconditionally.
    assert_line_prefix(&sink.bytes, &want, &label);

    // Invariant (b): the summary names the true first cause.
    match (case.site, fired > 0) {
        (FaultSite::WorkerPanic, true) => {
            assert_eq!(
                summary.stop_cause,
                Some(StopCause::TaskPanicked),
                "{label}: an injected task panic must surface as TaskPanicked"
            );
            assert!(!summary.complete, "{label}: a panicked run cannot be complete");
        }
        (FaultSite::SpuriousTrip, true) => {
            assert_eq!(
                summary.stop_cause,
                Some(StopCause::Cancelled),
                "{label}: an injected trip is recorded as the cancellation it is"
            );
            assert!(!summary.complete, "{label}: a tripped run cannot be complete");
        }
        // Latency must never change behavior, and a plan that never
        // fired (or whose site the executor never crosses) must leave a
        // clean, complete, byte-identical run.
        (FaultSite::StealLatency, _) | (_, false) => {
            assert_eq!(summary.stop_cause, None, "{label}: clean run must not trip");
            assert!(summary.complete, "{label}: clean run must complete");
            assert_eq!(
                sink.bytes, want,
                "{label}: clean run must emit the full serial golden"
            );
        }
        (
            FaultSite::CacheCorrupt
            | FaultSite::AdmissionFlap
            | FaultSite::ShardStall
            | FaultSite::ArtifactCorrupt,
            true,
        ) => {
            panic!("{label}: the executor never crosses the {} site", case.site.label())
        }
    }
}

/// Phase 2: the fault plan against a fresh [`MineService`] — a cold
/// request (mines and caches) followed by a warm one (cache probe).
/// For the artifact-corruption site the service boots against a
/// pre-built single-artifact store whose bytes the armed plan damages
/// at load time.
fn serve_phase(case: &Case) {
    let want = query_golden(case.kernel, &case.query);
    let minsup = goldens::SMOKE_MINSUP;
    let label = format!("{} serve", case.label());
    let spec = DatasetSpec::Named {
        dataset: DATASET,
        scale: SCALE,
    };

    // Pre-build the store *outside* the armed window: the case under
    // test is the loader, not the producer.
    let store_dir = (case.site == FaultSite::ArtifactCorrupt).then(|| {
        let dir = std::env::temp_dir().join(format!(
            "fpm-chaos-store-{}-{}",
            std::process::id(),
            case.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create chaos store dir");
        let meta = store::SpecMeta::named(
            &DATASET.label().to_ascii_lowercase(),
            SCALE.label(),
        );
        let mut artifact = store::Artifact::build(meta, dataset());
        let mut sink = fpm::CollectSink::default();
        MinePlan::kernel(case.kernel, minsup)
            .query(case.query)
            .execute(dataset(), &mut sink);
        artifact.push_result(case.kernel.code(), minsup, case.query.key(), sink.patterns);
        artifact.store(&artifact.path_in(&dir)).expect("write chaos artifact");
        dir
    });

    // The guard is installed before `start`: the artifact-corruption
    // site fires inside the warm-start load. No other site is crossed
    // during boot, so the early install is harmless for them.
    let guard = install(FaultPlan::for_site(case.site, case.seed));
    let svc = MineService::start(ServeConfig {
        shards: 2,
        workers: 1,
        mine_threads: case.threads,
        store_dir: store_dir.clone(),
        ..ServeConfig::default()
    });
    let cold = svc.mine(MineRequest::new(spec.clone(), case.kernel, minsup).with_query(case.query));
    let warm = svc.mine(MineRequest::new(spec, case.kernel, minsup).with_query(case.query));
    let fired = guard.plan().fired();
    drop(guard);
    svc.shutdown();
    let metrics = svc.metrics();
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Invariant (a) holds for every response that carries patterns: the
    // service never hands out anything but a serial prefix.
    for (resp, phase) in [(&cold, "cold"), (&warm, "warm")] {
        let rendered = resp.patterns.as_ref().map_or_else(Vec::new, |p| render(p));
        assert_line_prefix(&rendered, &want, &format!("{label} {phase}"));
        if resp.outcome == Outcome::Complete && !resp.stats.truncated {
            assert_eq!(
                rendered, want,
                "{label} {phase}: an untruncated Complete answer must be the full golden"
            );
        }
    }

    // Invariant (b): the response taxonomy names the injected cause.
    let outcomes = [cold.outcome, warm.outcome];
    match (case.site, fired > 0) {
        (FaultSite::WorkerPanic, true) => {
            assert!(
                outcomes.contains(&Outcome::Failed),
                "{label}: an injected task panic must answer Failed (got {outcomes:?})"
            );
            let failed: &MineResponse = if cold.outcome == Outcome::Failed { &cold } else { &warm };
            assert!(
                failed.reason.as_deref().is_some_and(|r| r.contains("panicked")),
                "{label}: the Failed reason must name the panic"
            );
        }
        (FaultSite::SpuriousTrip, true) => {
            assert!(
                outcomes.contains(&Outcome::Cancelled),
                "{label}: an injected trip must answer Cancelled (got {outcomes:?})"
            );
        }
        (FaultSite::CacheCorrupt, true) => {
            // The corruption lands on the warm request's probe of its
            // own slot; the service must never serve the poisoned
            // entry. An identity request re-mines; any other query
            // re-derives its answer from the verified All slot, which
            // invariant (a) above has already checked byte for byte.
            assert_eq!(outcomes, [Outcome::Complete; 2], "{label}: both answers complete");
            assert_eq!(
                metrics.get("cache_integrity_failures"),
                fired,
                "{label}: every fired corruption is counted"
            );
            if case.query.is_all() {
                assert!(
                    !warm.stats.cache_hit,
                    "{label}: a corrupted entry must not serve as a hit"
                );
                assert_eq!(metrics.get("mined_runs"), 2, "{label}: the warm request re-mined");
            } else {
                assert!(
                    warm.stats.cache_hit,
                    "{label}: the warm request re-derives from the verified All slot"
                );
                assert_eq!(
                    metrics.get("mined_runs"),
                    1,
                    "{label}: re-deriving from the All slot mines nothing"
                );
            }
        }
        (FaultSite::AdmissionFlap, true) => {
            assert!(
                outcomes.contains(&Outcome::Rejected),
                "{label}: a flapped admission must answer Rejected (got {outcomes:?})"
            );
            let rejected: &MineResponse =
                if cold.outcome == Outcome::Rejected { &cold } else { &warm };
            assert!(
                rejected.reason.as_deref().is_some_and(|r| r.contains("admission flap")),
                "{label}: the rejection reason must name the flap"
            );
        }
        (FaultSite::ShardStall, true) => {
            // fire_at names a shard index; with the plan re-derived
            // here the flavor tells which failure mode fired.
            if FaultPlan::for_site(case.site, case.seed).shard_stall_panics() {
                // The stalled worker failed the first pickup: the cold
                // request is answered Failed without mining, honestly
                // named; the warm one mines from scratch (nothing was
                // cached) and completes.
                assert_eq!(
                    cold.outcome,
                    Outcome::Failed,
                    "{label}: a failed pickup must answer Failed"
                );
                assert!(
                    cold.reason.as_deref().is_some_and(|r| r.contains("stall")),
                    "{label}: the Failed reason must name the stall"
                );
                assert_eq!(
                    warm.outcome,
                    Outcome::Complete,
                    "{label}: the shard recovers after the injected failure"
                );
                assert!(
                    !warm.stats.cache_hit,
                    "{label}: the failed cold request cached nothing"
                );
                assert_eq!(metrics.get("mined_runs"), 1, "{label}: only the warm request mined");
            } else {
                // The stall only delays pickups: both requests resolve
                // honestly, late but complete, and the warm one still
                // hits the cache.
                assert_eq!(
                    outcomes,
                    [Outcome::Complete; 2],
                    "{label}: a stalled (not failed) shard resolves honestly"
                );
                assert!(warm.stats.cache_hit, "{label}: the warm request must hit the cache");
            }
        }
        (FaultSite::ArtifactCorrupt, true) => {
            // The damaged artifact must be detected at load and the
            // boot degrade to a cold start: nothing loaded, nothing
            // warmed, the cold request honestly re-mines the golden.
            assert_eq!(
                metrics.get("store_integrity_failures"),
                fired,
                "{label}: every fired corruption is detected and counted"
            );
            assert_eq!(
                metrics.get("store_artifacts_loaded"),
                0,
                "{label}: a damaged artifact must not load"
            );
            assert_eq!(
                metrics.get("store_warm_entries"),
                0,
                "{label}: a damaged artifact must warm nothing"
            );
            assert_eq!(outcomes, [Outcome::Complete; 2], "{label}: the cold rebuild succeeds");
            assert!(
                !cold.stats.cache_hit,
                "{label}: the cold request must re-mine, not hit poison"
            );
            assert!(warm.stats.cache_hit, "{label}: the re-mined entry serves the warm probe");
            assert_eq!(metrics.get("mined_runs"), 1, "{label}: exactly the cold rebuild mined");
        }
        (FaultSite::ArtifactCorrupt, false) => {
            // The plan never fired: the warm start must fully take and
            // both requests answer from the store without mining.
            assert_eq!(metrics.get("store_integrity_failures"), 0, "{label}");
            assert_eq!(
                metrics.get("store_artifacts_loaded"),
                1,
                "{label}: the clean artifact must load"
            );
            assert!(
                metrics.get("store_warm_entries") >= 1,
                "{label}: the persisted result must seed the cache"
            );
            assert_eq!(outcomes, [Outcome::Complete; 2], "{label}: warm answers complete");
            assert!(
                cold.stats.cache_hit && warm.stats.cache_hit,
                "{label}: both requests answer from the warm-started cache"
            );
            assert_eq!(
                metrics.get("mined_runs"),
                0,
                "{label}: a warm start means zero mined runs"
            );
        }
        (FaultSite::StealLatency, _) | (_, false) => {
            assert_eq!(
                outcomes,
                [Outcome::Complete; 2],
                "{label}: a clean pair must complete twice"
            );
            assert!(warm.stats.cache_hit, "{label}: the warm request must hit the cache");
        }
    }

    // Invariant (c): no counter regressed — the books balance.
    let by_outcome = metrics.get("requests_completed")
        + metrics.get("requests_cancelled")
        + metrics.get("requests_deadline_exceeded")
        + metrics.get("requests_rejected")
        + metrics.get("requests_failed");
    assert_eq!(
        metrics.get("requests_submitted"),
        by_outcome,
        "{label}: every submitted job must be accounted for by exactly one outcome"
    );
    assert_eq!(
        metrics.get("cache_probes"),
        metrics.get("cache_hits") + metrics.get("cache_misses"),
        "{label}: every cache probe is a hit or a miss"
    );
    assert!(
        metrics.get("cache_integrity_failures") <= metrics.get("cache_misses"),
        "{label}: an integrity failure always reads as a miss"
    );
    assert!(
        metrics.get("cache_expired") <= metrics.get("cache_misses"),
        "{label}: an expired entry always reads as a miss"
    );
}
