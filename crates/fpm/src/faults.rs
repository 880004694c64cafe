//! Deterministic fault injection: the seam between the runtime crates
//! and the `chaos` harness.
//!
//! Production code never branches on chaos state directly. Instead, the
//! seven **injection sites** — a root-task panic in the executor's
//! serial loop or the parallel runtime, artificial latency before a
//! steal, a spurious
//! [`MineControl`](crate::control::MineControl) trip, corruption of a
//! cached serve result, an admission-control flap, a stalled (or
//! failed) shard worker in the serve layer, and damage to a persisted
//! store artifact between disk read and decode — each call one hook in
//! this module. Without the `chaos` cargo feature every hook is
//! a constant (`false` / no-op) that the optimizer erases, so tier-1
//! binaries carry no chaos code paths; with the feature on, the hooks
//! consult the installed [`FaultPlan`].
//!
//! A plan is derived from a single `u64` seed: the seed picks the site
//! and, through a SplitMix64 stream, *when* the site fires (a task
//! index for the worker panic, a traversal ordinal for the others) and
//! *how* (the corruption flavor, the steal-delay length). Everything a
//! failing campaign case did is therefore reproducible from
//! `FPM_CHAOS_SEED=<n>` alone — no RNG state, no timing capture.
//!
//! The hooks are free functions rather than methods so call sites read
//! as `fpm::faults::<site>(..)`; the also-lint rule R7 `chaos-sites`
//! holds the workspace to exactly that shape outside `crates/chaos`.

use std::sync::atomic::{AtomicU64, Ordering};

/// The seven named injection sites of the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A root task panics inside its unwind catch: in `fpm-exec`'s
    /// serial task loop or a `par::run` worker, so the site is armed at
    /// every thread count.
    WorkerPanic,
    /// An idle worker sleeps before scanning victims to steal.
    StealLatency,
    /// `MineControl::should_stop` trips as if cancelled, with no caller
    /// having asked for it.
    SpuriousTrip,
    /// Bytes of a cached serve result flip between insert and probe.
    CacheCorrupt,
    /// The serve admission decision rejects a request its bound would
    /// have admitted.
    AdmissionFlap,
    /// A serve shard worker stalls at job pickup — delayed for the
    /// plan's burst of pickups (delay flavor), or failing the picked
    /// job outright (panic flavor). The targeted *shard index* is the
    /// plan's `fire_at`.
    ShardStall,
    /// Bytes of a persisted store artifact are damaged — truncated or
    /// bit-flipped, by flavor — between the disk read and the sectioned
    /// decode. The loader must detect the damage (every byte is CRC- or
    /// table-covered) and fall back to a cold rebuild.
    ArtifactCorrupt,
}

impl FaultSite {
    /// Every site, in registry order (the order seeds enumerate).
    pub const ALL: [FaultSite; 7] = [
        FaultSite::WorkerPanic,
        FaultSite::StealLatency,
        FaultSite::SpuriousTrip,
        FaultSite::CacheCorrupt,
        FaultSite::AdmissionFlap,
        FaultSite::ShardStall,
        FaultSite::ArtifactCorrupt,
    ];

    /// Stable name, used in campaign labels and failure reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::StealLatency => "steal-latency",
            FaultSite::SpuriousTrip => "spurious-trip",
            FaultSite::CacheCorrupt => "cache-corrupt",
            FaultSite::AdmissionFlap => "admission-flap",
            FaultSite::ShardStall => "shard-stall",
            FaultSite::ArtifactCorrupt => "artifact-corruption",
        }
    }

    /// Parses a [`label`](FaultSite::label).
    pub fn by_label(label: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// The SplitMix64 finalizer: one well-mixed `u64` per input. All seed
/// derivation — here and in the `chaos` campaign — goes through this,
/// so a plan's behavior is a pure function of its seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One armed fault: a site plus the seed-derived schedule for firing it.
///
/// `fire_at` is a **task index** for [`FaultSite::WorkerPanic`] (so the
/// target is independent of steal timing), a **shard index** for
/// [`FaultSite::ShardStall`] (the stalled pool is picked up front, not
/// by traversal timing), and a **traversal ordinal** (the N-th time the
/// site is crossed) for every other site. A plan whose `fire_at`
/// exceeds the run's traversal count (or shard count) simply never
/// fires — campaigns treat those seeds as clean-run cases and assert
/// full output.
// Without the `chaos` feature the hooks never consult a plan, so parts
// of this machinery are only reachable from tests; silence dead-code
// noise for that configuration rather than cfg-ing the type away (the
// plan API itself is feature-independent so directed tests can build
// plans either way).
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    site: FaultSite,
    fire_at: u64,
    /// Consecutive steal scans delayed once `fire_at` is reached
    /// (StealLatency only).
    burst: u64,
    /// Sleep per delayed steal scan, microseconds. Read only by the
    /// feature-gated body of [`steal_delay`].
    delay_us: u64,
    /// Selects the CacheCorrupt mutation (support bump, item flip,
    /// truncation, clear).
    flavor: u64,
    hits: AtomicU64,
    fired: AtomicU64,
}

#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
impl FaultPlan {
    /// Derives the full plan — site included — from one seed.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let site = FaultSite::ALL[(mix(seed) % FaultSite::ALL.len() as u64) as usize];
        Self::for_site(site, seed)
    }

    /// Derives a plan for a fixed site; the seed still schedules it.
    pub fn for_site(site: FaultSite, seed: u64) -> FaultPlan {
        let draw = |salt: u64| mix(seed ^ mix(salt));
        let fire_at = match site {
            FaultSite::WorkerPanic => draw(1) % 24,
            FaultSite::StealLatency => draw(1) % 16,
            FaultSite::SpuriousTrip => draw(1) % 4096,
            FaultSite::CacheCorrupt => draw(1) % 3,
            FaultSite::AdmissionFlap => draw(1) % 3,
            FaultSite::ShardStall => draw(1) % 4,
            // A warm start loads one artifact per registered dataset;
            // ordinal 0 damages the first load, ordinal 1 usually never
            // fires — the campaign's clean warm-start cases.
            FaultSite::ArtifactCorrupt => draw(1) % 2,
        };
        FaultPlan {
            seed,
            site,
            fire_at,
            burst: 1 + draw(2) % 4,
            delay_us: 50 + draw(3) % 450,
            flavor: draw(4),
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// A directed plan: fire `site` at exactly `fire_at`, nothing
    /// seed-random. Regression tests use this to sweep, e.g., a panic
    /// across every task index.
    pub fn at(site: FaultSite, fire_at: u64) -> FaultPlan {
        FaultPlan {
            fire_at,
            ..Self::for_site(site, fire_at)
        }
    }

    /// The seed this plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed site.
    pub fn site(&self) -> FaultSite {
        self.site
    }

    /// When the site fires (task index or traversal ordinal).
    pub fn fire_at(&self) -> u64 {
        self.fire_at
    }

    /// How many times the plan has fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Ordinal-scheduled sites: counts the traversal and decides.
    fn fire_ordinal(&self, site: FaultSite) -> bool {
        if self.site != site {
            return false;
        }
        let n = self.hits.fetch_add(1, Ordering::Relaxed);
        let fire = match site {
            FaultSite::StealLatency => n >= self.fire_at && n < self.fire_at + self.burst,
            _ => n == self.fire_at,
        };
        if fire {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Index-scheduled site (the worker panic): fires when the task
    /// index matches, independent of execution order.
    fn fire_index(&self, site: FaultSite, index: u64) -> bool {
        if self.site != site || index != self.fire_at {
            return false;
        }
        self.fired.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// `true` when a [`FaultSite::ShardStall`] plan fails the picked
    /// job (the "panicked worker" flavor) instead of merely delaying
    /// the shard. Campaigns branch their taxonomy assertions on this.
    pub fn shard_stall_panics(&self) -> bool {
        self.site == FaultSite::ShardStall && self.flavor % 2 == 1
    }

    /// The shard-stall site: fires only for the worker of shard
    /// `fire_at`. The delay flavor fires on that shard's first `burst`
    /// pickups; the panic flavor fires exactly once (the first pickup).
    fn fire_shard(&self, shard: u64) -> bool {
        if self.site != FaultSite::ShardStall || shard != self.fire_at {
            return false;
        }
        let n = self.hits.fetch_add(1, Ordering::Relaxed);
        let fire = if self.shard_stall_panics() { n == 0 } else { n < self.burst };
        if fire {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

#[cfg(feature = "chaos")]
mod active {
    use super::FaultPlan;
    use std::sync::{Arc, RwLock};

    static ACTIVE: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

    /// Clears the installed plan when dropped.
    pub struct PlanGuard {
        plan: Arc<FaultPlan>,
    }

    impl PlanGuard {
        /// The installed plan (for `fired()` checks after a run).
        pub fn plan(&self) -> &Arc<FaultPlan> {
            &self.plan
        }
    }

    impl Drop for PlanGuard {
        fn drop(&mut self) {
            *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    /// Arms `plan` process-wide until the returned guard drops.
    ///
    /// There is one global slot: concurrent installs overwrite each
    /// other, so campaign tests serialize on a shared mutex.
    pub fn install(plan: FaultPlan) -> PlanGuard {
        let plan = Arc::new(plan);
        *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&plan));
        PlanGuard { plan }
    }

    pub(super) fn current() -> Option<Arc<FaultPlan>> {
        ACTIVE.read().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(feature = "chaos")]
pub use active::{install, PlanGuard};

/// Injection site: should the task at `task_index` panic?
///
/// Called inside each root task's unwind catch — by `fpm-exec`'s
/// serial task loop and by the `par::run` workers — with the task's
/// index in serial order; the panic itself is raised at the call site
/// so the payload names the task.
#[inline]
pub fn worker_panic(task_index: usize) -> bool {
    #[cfg(feature = "chaos")]
    {
        active::current()
            .is_some_and(|p| p.fire_index(FaultSite::WorkerPanic, task_index as u64))
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = task_index;
        false
    }
}

/// Injection site: an idle worker is about to scan victims; sleep here
/// to perturb steal timing. (Latency must never change output — the
/// campaign asserts byte-identical results when only this site fires.)
#[inline]
pub fn steal_delay() {
    #[cfg(feature = "chaos")]
    if let Some(p) = active::current() {
        if p.fire_ordinal(FaultSite::StealLatency) {
            std::thread::sleep(std::time::Duration::from_micros(p.delay_us));
        }
    }
}

/// Injection site: should this `should_stop` poll trip spuriously?
/// The control records the trip as a cancellation — an injected cancel
/// *is* the true first cause.
#[inline]
pub fn spurious_trip() -> bool {
    #[cfg(feature = "chaos")]
    {
        active::current().is_some_and(|p| p.fire_ordinal(FaultSite::SpuriousTrip))
    }
    #[cfg(not(feature = "chaos"))]
    {
        false
    }
}

/// Injection site: flip bytes of a cached pattern list before the cache
/// verifies its checksum. Returns `true` when a mutation was applied.
#[inline]
pub fn corrupt_patterns(patterns: &mut Vec<crate::types::ItemsetCount>) -> bool {
    #[cfg(feature = "chaos")]
    {
        let Some(p) = active::current() else {
            return false;
        };
        if !p.fire_ordinal(FaultSite::CacheCorrupt) {
            return false;
        }
        if patterns.is_empty() {
            patterns.push(crate::types::ItemsetCount {
                items: vec![u32::MAX],
                support: p.flavor,
            });
            return true;
        }
        let idx = (p.flavor >> 8) as usize % patterns.len();
        match p.flavor % 4 {
            0 => patterns[idx].support = patterns[idx].support.wrapping_add(1),
            1 => match patterns[idx].items.first_mut() {
                Some(item) => *item ^= 1,
                None => patterns[idx].items.push(0),
            },
            2 => {
                let half = patterns.len() / 2;
                patterns.truncate(half);
            }
            _ => patterns.clear(),
        }
        true
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = patterns;
        false
    }
}

/// Injection site: should the admission decision flap to a rejection?
#[inline]
pub fn admission_flap() -> bool {
    #[cfg(feature = "chaos")]
    {
        active::current().is_some_and(|p| p.fire_ordinal(FaultSite::AdmissionFlap))
    }
    #[cfg(not(feature = "chaos"))]
    {
        false
    }
}

/// Injection site: a shard worker has just picked a job from shard
/// `shard`'s queue. The delay flavor sleeps here — other shards keep
/// draining, which the campaign asserts — and returns `false`; the
/// panic flavor returns `true` exactly once, telling the worker to fail
/// the picked job as a simulated worker loss.
#[inline]
pub fn shard_stall(shard: usize) -> bool {
    #[cfg(feature = "chaos")]
    {
        let Some(p) = active::current() else {
            return false;
        };
        if !p.fire_shard(shard as u64) {
            return false;
        }
        if p.shard_stall_panics() {
            return true;
        }
        // Stall, don't fail: scale the steal-delay budget up to
        // milliseconds so the stall is observable next to real mining.
        std::thread::sleep(std::time::Duration::from_micros(p.delay_us * 100));
        false
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = shard;
        false
    }
}

/// Injection site: damage a serialized store artifact's bytes between
/// the disk read and the sectioned decode. Returns `true` when a
/// mutation was applied. The truncation flavor cuts the buffer to a
/// strictly shorter seed-chosen length; the bit-flip flavor flips one
/// seed-chosen bit. Either way the artifact format's full checksum
/// coverage must turn the damage into a detected load failure.
#[inline]
pub fn corrupt_artifact(bytes: &mut Vec<u8>) -> bool {
    #[cfg(feature = "chaos")]
    {
        let Some(p) = active::current() else {
            return false;
        };
        if !p.fire_ordinal(FaultSite::ArtifactCorrupt) {
            return false;
        }
        if bytes.is_empty() {
            bytes.push(0xFF);
            return true;
        }
        let at = (p.flavor >> 8) as usize % bytes.len();
        if p.flavor % 2 == 0 {
            bytes.truncate(at);
        } else {
            bytes[at] ^= 1 << ((p.flavor >> 4) % 8);
        }
        true
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = bytes;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_labels_roundtrip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::by_label(site.label()), Some(site));
        }
        assert_eq!(FaultSite::by_label("nope"), None);
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for seed in 0..512u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a.site(), b.site(), "seed={seed}");
            assert_eq!(a.fire_at(), b.fire_at(), "seed={seed}");
            assert_eq!(a.flavor, b.flavor, "seed={seed}");
            assert_eq!(a.burst, b.burst, "seed={seed}");
        }
    }

    #[test]
    fn seeds_cover_every_site() {
        let mut seen = [false; 7];
        for seed in 0..64u64 {
            let p = FaultPlan::from_seed(seed);
            seen[FaultSite::ALL.iter().position(|s| *s == p.site()).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 seeds must hit all sites: {seen:?}");
    }

    #[test]
    fn directed_plan_fires_exactly_once_at_its_ordinal() {
        let p = FaultPlan::at(FaultSite::SpuriousTrip, 3);
        let fired: Vec<bool> = (0..8).map(|_| p.fire_ordinal(FaultSite::SpuriousTrip)).collect();
        assert_eq!(
            fired,
            vec![false, false, false, true, false, false, false, false]
        );
        assert_eq!(p.fired(), 1);
        // Other sites never consume this plan's schedule.
        assert!(!p.fire_ordinal(FaultSite::CacheCorrupt));
        assert!(!p.fire_index(FaultSite::WorkerPanic, 3));
        assert!(!p.fire_shard(3));
    }

    #[test]
    fn shard_stall_plan_targets_one_shard_only() {
        let p = FaultPlan::at(FaultSite::ShardStall, 2);
        assert!(!p.fire_shard(0));
        assert!(!p.fire_shard(3));
        if p.shard_stall_panics() {
            assert!(p.fire_shard(2));
            assert!(!p.fire_shard(2), "panic flavor fires once");
        } else {
            for _ in 0..p.burst {
                assert!(p.fire_shard(2));
            }
            assert!(!p.fire_shard(2), "delay flavor stops after its burst");
        }
    }

    #[test]
    fn index_scheduled_site_is_order_independent() {
        let p = FaultPlan::at(FaultSite::WorkerPanic, 5);
        assert!(!p.fire_index(FaultSite::WorkerPanic, 4));
        assert!(!p.fire_index(FaultSite::WorkerPanic, 6));
        assert!(p.fire_index(FaultSite::WorkerPanic, 5));
        assert_eq!(p.fired(), 1);
    }

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn hooks_are_inert_without_the_feature() {
        assert!(!worker_panic(0));
        assert!(!spurious_trip());
        assert!(!admission_flap());
        assert!(!shard_stall(0));
        steal_delay();
        let mut patterns = vec![crate::types::ItemsetCount {
            items: vec![1, 2],
            support: 3,
        }];
        let before = patterns.clone();
        assert!(!corrupt_patterns(&mut patterns));
        assert_eq!(patterns, before);
        let mut bytes = vec![1u8, 2, 3];
        assert!(!corrupt_artifact(&mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn installed_plan_drives_hooks_and_guard_clears() {
        // Single test touching the global slot in this crate's test
        // binary, so no cross-test serialization is needed here.
        let guard = install(FaultPlan::at(FaultSite::WorkerPanic, 2));
        assert!(!worker_panic(0));
        assert!(worker_panic(2));
        assert_eq!(guard.plan().fired(), 1);
        assert!(!spurious_trip(), "other sites stay quiet");
        drop(guard);
        assert!(!worker_panic(2), "guard drop disarms the plan");
    }
}
