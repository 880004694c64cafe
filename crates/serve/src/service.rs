//! The mining service: dataset-sharded worker pools, single-flight
//! request coalescing, admission control, result caches, and
//! per-request metrics.
//!
//! ## Request lifecycle
//!
//! 1. **Route + submit** ([`MineService::submit`]): the request's
//!    dataset spec hashes to a **shard** — every request for the same
//!    dataset lands on the same shard's queue, cache partition, and
//!    metrics. The request's [`MineControl`] is created — arming the
//!    deadline *now*, so queue wait counts against it — and the job
//!    enters that shard's bounded queue. A full queue rejects
//!    synchronously (the caller learns immediately, the pool's latency
//!    stays bounded).
//! 2. **Pickup**: a shard worker pops the job in FIFO order. A control
//!    that tripped while queued (deadline passed, caller cancelled) is
//!    answered without mining — with an *empty* pattern list, which is
//!    the correct zero-length prefix of the serial order.
//! 3. **Cache probe**: answers are cached per shard by
//!    `(dataset fingerprint, kernel, min_support, query)`. The identity
//!    slot `(fingerprint, kernel, min_support, QueryKey::default())`
//!    holds the complete All set; every other pattern query (class,
//!    top-k, rules — DESIGN.md §15) is **derived** from it with
//!    [`PatternQuery::apply`](fpm::PatternQuery::apply) and cached
//!    under its own slot. The request's own slot is probed first; a
//!    non-identity query that misses there probes the All slot next
//!    and, on a hit, derives its answer without mining. A hit answers
//!    from memory (budget-limited callers get a prefix of the answer).
//!    Every probe is counted and every entry checksum-verified — a
//!    corrupted entry is dropped and counted
//!    (`cache_integrity_failures`), an entry past its TTL is dropped
//!    and counted (`cache_expired`); **both count as misses**, never
//!    hits, and a request whose probes all miss falls through to mining.
//! 4. **Admission**: on a miss, the Geerts-style
//!    [`candidate_bound`](fpm::bound::candidate_bound) is computed from
//!    shape facts alone, read off the dataset's cached frequency ranking
//!    (the one the kernel's remap then cuts, so neither ranks the
//!    dataset again); a bound above the configured ceiling rejects the
//!    request before any mining work is spent.
//! 5. **Single-flight**: an admitted miss checks the shard's in-flight
//!    table, keyed by the **mine key** (the identity slot). If the
//!    key's All set is already mining, the job *attaches* to it as a
//!    follower — whatever its query — and is answered at fan-out.
//!    Otherwise the job registers as the **leader** and mines.
//! 6. **Mine + fan out**: the leader mines the All set under its
//!    control — serial, or on the work-stealing runtime when
//!    [`ServeConfig::mine_threads`] > 1. A *shareable* result (complete,
//!    untruncated — [`exec::ExecSummary::shareable`]) is cached, and
//!    the leader and every follower get their own query's answer,
//!    derived once per distinct query and cached, under their own
//!    budget/include flags. An unshareable result (cancelled,
//!    deadline-cut, failed) is honest only for the leader whose control
//!    tripped; followers are requeued at the front of the shard queue
//!    and run on their own.
//!
//! Every step increments the owning shard's counters
//! ([`MineService::shard_metrics`]) and nothing else; the service-wide
//! [`MineService::metrics`] is their sum, taken when it is read.
//!
//! ## Warm start (DESIGN.md §14)
//!
//! With [`ServeConfig::store_dir`] set, startup scans the directory for
//! persisted artifacts (`fpm-store`): each one that loads cleanly —
//! every section checksum-verified, fingerprint cross-checked against
//! the database rebuilt from its raw section — registers its named
//! dataset with that fingerprint (so no request for it generates or
//! hashes the dataset) and seeds the owning shard's cache partition
//! with the artifact's generation-live results.
//! A damaged artifact is counted (`store_integrity_failures`) and
//! skipped — the service falls back to the ordinary cold path, which
//! chaos site #7 (`artifact-corruption`) exercises seed by seed.
//! Shutdown flushes each registered dataset's cached results back to
//! the store atomically, so a restart answers previously-cached
//! requests without re-mining.

use crate::cache::{fingerprint, CacheConfig, CacheKey, Lookup, ResultCache};
use crate::request::{DatasetSpec, Kernel, MineRequest, MineResponse, MineStats, Outcome};
use exec::MinePlan;
use fpm::control::{MineControl, StopCause};
use fpm::metrics::MetricSet;
use fpm::{fnv1a, CollectSink, ItemsetCount, PatternQuery, QueryKey, TransactionDb, FNV_OFFSET};
use quest::{Dataset, Scale};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Tuning knobs of one [`MineService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dataset shards (min 1). Requests hash-route by dataset spec;
    /// each shard owns a queue, a cache partition, a worker pool, and
    /// its own metrics.
    pub shards: usize,
    /// Worker threads draining each shard's queue (min 1 per shard).
    pub workers: usize,
    /// Maximum queued (not yet picked up) jobs per shard; submissions
    /// beyond it are rejected synchronously.
    pub queue_depth: usize,
    /// Result-cache capacity in entries, per shard (0 disables caching).
    pub cache_capacity: usize,
    /// Byte budget per shard cache over the approximate heap footprint
    /// of cached results (0 = no byte budget).
    pub cache_max_bytes: usize,
    /// Result time-to-live: cached entries older than this read as
    /// expired (a miss) and re-mine. `None` never expires.
    pub cache_ttl: Option<Duration>,
    /// Admission ceiling: requests whose candidate bound exceeds this
    /// are rejected without mining. `f64::INFINITY` admits everything.
    pub max_candidate_bound: f64,
    /// Threads for one mining run: 0 or 1 = serial in the worker;
    /// n > 1 = the shared work-stealing runtime with n threads.
    pub mine_threads: usize,
    /// Persistent artifact store directory (`fpm-store`). `Some`: boot
    /// warm-starts shard caches from `*.fpa` artifacts found there, and
    /// shutdown flushes each registered named dataset's cached results
    /// back, atomically. `None` (the default): fully in-memory.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            workers: 2,
            queue_depth: 64,
            cache_capacity: 32,
            cache_max_bytes: 0,
            cache_ttl: None,
            max_candidate_bound: f64::INFINITY,
            mine_threads: 0,
            store_dir: None,
        }
    }
}

/// Counter names kept per shard ([`MineService::shard_metrics`]) and
/// summed over the shards by [`MineService::metrics`]. Invariants held
/// at every quiescent point (no request in flight):
///
/// - `requests_submitted` = sum of the five `requests_*` outcome
///   counters;
/// - `cache_probes` = `cache_hits` + `cache_misses`;
/// - `cache_integrity_failures` ≤ `cache_misses`, `cache_expired` ≤
///   `cache_misses` (both are miss subspecies);
/// - `requests_coalesced` = `coalesced_served` + `coalesced_requeued`;
/// - `store_warm_entries` counts cache entries restored at warm start,
///   `store_artifacts_loaded` the artifacts they came from,
///   `store_integrity_failures` the artifacts rejected at load (damage
///   or fingerprint mismatch), and `store_flushed_entries` the cache
///   entries persisted at shutdown.
pub const METRIC_NAMES: &[&str] = &[
    "requests_submitted",
    "requests_completed",
    "requests_cancelled",
    "requests_deadline_exceeded",
    "requests_rejected",
    "requests_failed",
    "rejected_queue_full",
    "rejected_admission",
    "rejected_bad_dataset",
    "cache_probes",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_integrity_failures",
    "cache_expired",
    "mined_runs",
    "patterns_emitted",
    "singleflight_leaders",
    "requests_coalesced",
    "coalesced_served",
    "coalesced_requeued",
    "store_artifacts_loaded",
    "store_integrity_failures",
    "store_warm_entries",
    "store_flushed_entries",
];

struct Job {
    request: MineRequest,
    control: Arc<MineControl>,
    submitted: Instant,
    tx: mpsc::Sender<MineResponse>,
    /// The submitting thread, unparked once the response is sent.
    waker: Thread,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// An in-flight All-set mine that requests for the same mine key
/// attach to, whatever their query.
struct Flight {
    followers: Vec<Job>,
}

/// One dataset shard: queue, workers' condvar, cache partition,
/// single-flight table, and counters.
struct Shard {
    index: usize,
    queue: Mutex<QueueState>,
    ready: Condvar,
    cache: Mutex<ResultCache>,
    inflight: Mutex<BTreeMap<CacheKey, Flight>>,
    metrics: Arc<MetricSet>,
}

struct Inner {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    /// Named datasets, each generated (or rebuilt by warm start) and
    /// fingerprinted once per process, then shared across shards: the
    /// transactions are immutable. The shutdown flush persists each
    /// entry's cached results.
    datasets: Mutex<BTreeMap<(Dataset, Scale), Registered>>,
    /// Test gate: while `true`, leaders park right before mining —
    /// giving deterministic tests a window in which followers attach.
    hold: AtomicBool,
}

/// One named dataset in the service's registry.
#[derive(Clone)]
struct Registered {
    db: Arc<TransactionDb>,
    /// `fingerprint(&db)`, computed once: at first resolution, or taken
    /// from the artifact that warm start checked it against.
    fingerprint: u64,
    /// The store generation the dataset was loaded at (0 when first
    /// generated in this process); the shutdown flush writes it back.
    generation: u64,
}

/// A handle to one in-flight request: cancel it, then (or instead)
/// wait for its response.
pub struct Ticket {
    rx: mpsc::Receiver<MineResponse>,
    control: Arc<MineControl>,
}

impl Ticket {
    /// The request's control — shared with the mining run, so
    /// [`MineControl::cancel`] takes effect at the next recursion
    /// checkpoint.
    pub fn control(&self) -> &Arc<MineControl> {
        &self.control
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&self) {
        self.control.cancel();
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> MineResponse {
        self.rx.recv().unwrap_or_else(|_| {
            MineResponse::rejected("service shut down", MineStats::default())
        })
    }

    /// Non-blocking poll: `Some` once the response has arrived. The
    /// event-driven frontend drives every pending ticket through this.
    pub fn try_wait(&self) -> Option<MineResponse> {
        match self.rx.try_recv() {
            Ok(resp) => Some(resp),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                Some(MineResponse::rejected("service shut down", MineStats::default()))
            }
        }
    }
}

/// The multi-threaded mining service. Cheap to clone (an `Arc` handle);
/// all clones share the shards, caches, and metrics.
#[derive(Clone)]
pub struct MineService {
    inner: Arc<Inner>,
    /// Worker handles, joined by [`MineService::shutdown`].
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl MineService {
    /// Starts the per-shard worker pools.
    pub fn start(cfg: ServeConfig) -> Self {
        let cache_cfg = CacheConfig {
            capacity: cfg.cache_capacity,
            max_bytes: cfg.cache_max_bytes,
            ttl: cfg.cache_ttl,
        };
        let shards: Vec<Shard> = (0..cfg.shards.max(1))
            .map(|index| Shard {
                index,
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                ready: Condvar::new(),
                cache: Mutex::new(ResultCache::with_config(cache_cfg)),
                inflight: Mutex::new(BTreeMap::new()),
                metrics: Arc::new(MetricSet::new(METRIC_NAMES)),
            })
            .collect();
        let inner = Arc::new(Inner {
            cfg,
            shards,
            datasets: Mutex::new(BTreeMap::new()),
            hold: AtomicBool::new(false),
        });
        // Warm-start before any worker exists: the caches and dataset
        // registry are seeded while the service is still quiescent, so
        // the very first request can hit.
        if let Some(dir) = inner.cfg.store_dir.clone() {
            warm_start(&inner, &dir);
        }
        let mut workers = Vec::new();
        for shard_idx in 0..inner.shards.len() {
            for _ in 0..inner.cfg.workers.max(1) {
                let inner = Arc::clone(&inner);
                workers.push(std::thread::spawn(move || worker_loop(&inner, shard_idx)));
            }
        }
        MineService {
            inner,
            workers: Arc::new(Mutex::new(workers)),
        }
    }

    /// The service's operational counters (see [`METRIC_NAMES`]): a fresh
    /// set holding every shard's counters summed at the time of the call.
    /// It is a snapshot, so read it again to see later requests.
    pub fn metrics(&self) -> MetricSet {
        let total = MetricSet::new(METRIC_NAMES);
        for shard in &self.inner.shards {
            for (name, v) in shard.metrics.snapshot() {
                total.add(name, v);
            }
        }
        total
    }

    /// One shard's live counters, the addends of
    /// [`metrics`](MineService::metrics). An out-of-range index
    /// reads as an unshared all-zero set — the honest answer for a
    /// shard that does not exist — rather than panicking.
    pub fn shard_metrics(&self, shard: usize) -> Arc<MetricSet> {
        match self.inner.shards.get(shard) {
            Some(s) => Arc::clone(&s.metrics),
            None => Arc::new(MetricSet::new(METRIC_NAMES)),
        }
    }

    /// Number of shards actually running (`max(1, cfg.shards)`).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard a request for `spec` routes to — a pure function of
    /// the dataset spec, stable across runs and processes.
    pub fn shard_of(&self, spec: &DatasetSpec) -> usize {
        shard_of(spec, self.inner.shards.len())
    }

    /// Enqueues a request on its dataset's shard. Always returns a
    /// [`Ticket`]; queue-full and post-shutdown rejections are delivered
    /// through it so callers have one uniform wait path.
    ///
    /// A response sent from a worker also unparks the calling thread
    /// ([`Thread::unpark`]), so a caller that polls
    /// [`Ticket::try_wait`] between [`std::thread::park_timeout`]s
    /// wakes as soon as its answer lands. To any other caller it is a
    /// spurious wakeup, which std's blocking waits already tolerate.
    pub fn submit(&self, request: MineRequest) -> Ticket {
        // Only an identity request's budget is charged by the mine
        // itself; any other query mines the complete All set and
        // `serve_full` cuts its derived answer instead.
        let budget = request.max_patterns.filter(|_| request.query.is_all());
        let control = Arc::new(MineControl::new(request.deadline, budget));
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket {
            rx,
            control: Arc::clone(&control),
        };
        let submitted = Instant::now();
        let idx = shard_of(&request.dataset, self.inner.shards.len());
        let Some(shard) = self.inner.shards.get(idx) else {
            // Unreachable by construction (`shard_of` reduces modulo the
            // shard count); reject instead of panicking if routing ever
            // regresses — this is a panic-free path.
            let _ = tx.send(MineResponse::rejected(
                "internal: shard routing out of range",
                MineStats::default(),
            ));
            return ticket;
        };
        let m = &shard.metrics;
        m.incr("requests_submitted");
        let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
        let reject = if q.shutdown {
            Some("service shut down")
        } else if q.jobs.len() >= self.inner.cfg.queue_depth {
            Some("queue full")
        } else {
            None
        };
        if let Some(reason) = reject {
            drop(q);
            m.incr("requests_rejected");
            if reason == "queue full" {
                m.incr("rejected_queue_full");
            }
            let stats = MineStats {
                service_us: submitted.elapsed().as_micros() as u64,
                ..MineStats::default()
            };
            let _ = tx.send(MineResponse::rejected(reason, stats));
            return ticket;
        }
        q.jobs.push_back(Job {
            request,
            control,
            submitted,
            tx,
            waker: std::thread::current(),
        });
        drop(q);
        shard.ready.notify_one();
        ticket
    }

    /// Submit + wait: the blocking in-process entry point.
    pub fn mine(&self, request: MineRequest) -> MineResponse {
        self.submit(request).wait()
    }

    /// Test support: while held, leaders park right before mining, so a
    /// test can deterministically pile identical requests onto one
    /// in-flight run (observable via the `requests_coalesced` counter)
    /// before releasing the gate. Never hold this on a service whose
    /// requests carry deadlines.
    #[doc(hidden)]
    pub fn hold_mining(&self, hold: bool) {
        // ORDERING: Relaxed — a test-only spin gate. No data is
        // published through this flag: workers re-check it in a sleep
        // loop and everything a held leader later reads is synchronized
        // by the queue/inflight mutexes, so visibility latency only
        // stretches the gate by a poll interval.
        self.inner.hold.store(hold, Ordering::Relaxed);
    }

    /// Test support: corrupts the cached All set of `(spec, kernel,
    /// min_support)` — the identity slot every query derives from — in
    /// place without refreshing its checksum: the chaos harness's
    /// stand-in for rot between insert and probe. Returns `false` when
    /// nothing is cached there.
    #[doc(hidden)]
    pub fn tamper_cached(
        &self,
        spec: &DatasetSpec,
        kernel: Kernel,
        min_support: u64,
        f: impl FnOnce(&mut Vec<ItemsetCount>),
    ) -> bool {
        self.with_all_slot(spec, kernel, min_support, |cache, key| cache.tamper(key, f))
    }

    /// Test support: backdates the cached All set of `(spec, kernel,
    /// min_support)` — the identity slot every query derives from — by
    /// `by`, simulating TTL passage without sleeping. Returns `false`
    /// when nothing is cached there.
    #[doc(hidden)]
    pub fn age_cached(
        &self,
        spec: &DatasetSpec,
        kernel: Kernel,
        min_support: u64,
        by: Duration,
    ) -> bool {
        self.with_all_slot(spec, kernel, min_support, |cache, key| cache.age(key, by))
    }

    /// Runs `f` on the owning shard's cache and the identity-slot key of
    /// `(spec, kernel, min_support)`; `false` when the dataset does not
    /// resolve.
    fn with_all_slot(
        &self,
        spec: &DatasetSpec,
        kernel: Kernel,
        min_support: u64,
        f: impl FnOnce(&mut ResultCache, &CacheKey) -> bool,
    ) -> bool {
        let Ok((_, fp)) = resolve_dataset(&self.inner, spec) else {
            return false;
        };
        let key: CacheKey = (fp, kernel.code(), min_support, QueryKey::default());
        let Some(shard) = self.inner.shards.get(shard_of(spec, self.inner.shards.len())) else {
            return false;
        };
        f(&mut shard.cache.lock().unwrap_or_else(|e| e.into_inner()), &key)
    }

    /// Stops accepting work, drains the queues, and joins the workers.
    /// Jobs already queued are still answered. With a store directory
    /// configured, the quiesced caches are then flushed to disk so the
    /// next process warm-starts from them.
    pub fn shutdown(&self) {
        for shard in &self.inner.shards {
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
            drop(q);
            shard.ready.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut w = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            w.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        // After the join the service is quiescent: no worker mutates a
        // cache, so the flush sees a consistent snapshot.
        flush_store(&self.inner);
    }
}

/// FNV-1a over the dataset spec's identity — cheap (no dataset
/// resolution) and deterministic, so the same spec always routes to the
/// same shard in every process.
fn spec_hash(spec: &DatasetSpec) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat_bytes = |bytes: &[u8]| h = fnv1a(h, bytes);
    match spec {
        DatasetSpec::Inline(rows) => {
            eat_bytes(b"inline");
            for row in rows {
                eat_bytes(&(row.len() as u64).to_le_bytes());
                for &item in row {
                    eat_bytes(&item.to_le_bytes());
                }
            }
        }
        DatasetSpec::Named { dataset, scale } => {
            eat_bytes(b"named");
            eat_bytes(dataset.label().as_bytes());
            eat_bytes(&(scale.factor() as u64).to_le_bytes());
        }
        DatasetSpec::Path(path) => {
            eat_bytes(b"path");
            eat_bytes(path.as_bytes());
        }
    }
    h
}

/// The shard `spec` routes to, for a pool of `shards` shards.
fn shard_of(spec: &DatasetSpec, shards: usize) -> usize {
    (fpm::faults::mix(spec_hash(spec)) % shards as u64) as usize
}

/// Stamps the caller-experienced latency, delivers the response and
/// wakes the submitting thread.
fn respond(job: Job, mut resp: MineResponse) {
    resp.stats.service_us = job.submitted.elapsed().as_micros() as u64;
    let _ = job.tx.send(resp);
    job.waker.unpark();
}

fn worker_loop(inner: &Inner, shard_idx: usize) {
    // Spawned with an in-range index; bail (don't panic) if not.
    let Some(shard) = inner.shards.get(shard_idx) else {
        return;
    };
    loop {
        let job = {
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shard
                    .ready
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // Chaos injection site: a stalled shard worker. The delay
        // flavor sleeps inside the hook (other shards keep draining and
        // this shard's queue resolves late but honestly); the panic
        // flavor returns `true` and the picked job is failed outright,
        // as if the worker died holding it.
        if fpm::faults::shard_stall(shard.index) {
            shard.metrics.incr("requests_failed");
            let queue_ms = job.submitted.elapsed().as_millis() as u64;
            respond(
                job,
                MineResponse {
                    outcome: Outcome::Failed,
                    patterns: None,
                    count: 0,
                    reason: Some(
                        "shard worker stalled (chaos): job failed at pickup".to_string(),
                    ),
                    stats: MineStats {
                        queue_ms,
                        ..MineStats::default()
                    },
                },
            );
            continue;
        }
        handle_job(inner, shard, job);
    }
}

/// Serves `full` (a complete answer to the request's query: cached,
/// derived, or freshly mined) under one request's budget and include
/// flags. The budget is a prefix cut of the answer — for a non-identity
/// query, the same bytes the executor's per-result charging delivers.
fn serve_full(
    req: &MineRequest,
    full: Arc<Vec<ItemsetCount>>,
    stats: &mut MineStats,
) -> MineResponse {
    // Budget cut via the non-panicking slice accessor: a budget at or
    // past the end serves the whole list untruncated.
    let cut = req
        .max_patterns
        .and_then(|b| full.get(..b as usize))
        .filter(|prefix| prefix.len() < full.len())
        .map(|prefix| prefix.to_vec());
    let (patterns, truncated) = match cut {
        Some(prefix) => (Arc::new(prefix), true),
        None => (full, false),
    };
    stats.truncated = truncated;
    stats.emitted = patterns.len() as u64;
    MineResponse {
        outcome: Outcome::Complete,
        count: patterns.len() as u64,
        patterns: req.include_patterns.then_some(patterns),
        reason: None,
        stats: *stats,
    }
}

/// An answer for a control that tripped without mining: the empty
/// pattern list, the zero-length prefix of the serial emission order.
fn tripped_response(req: &MineRequest, cause: Option<StopCause>, stats: MineStats) -> MineResponse {
    MineResponse {
        outcome: outcome_of(cause),
        patterns: req.include_patterns.then(|| Arc::new(Vec::new())),
        count: 0,
        reason: None,
        stats,
    }
}

/// The leader's answer when its All-set mine did not run to the end
/// (deadline, cancellation, task panic, or an identity request's own
/// budget): an identity request gets the serial prefix the mine
/// emitted; any other query gets the empty list, because a prefix of
/// the All set is not a prefix of the query's answer.
fn cut_response(
    req: &MineRequest,
    emitted: Arc<Vec<ItemsetCount>>,
    cause: Option<StopCause>,
    stats: &mut MineStats,
) -> MineResponse {
    let outcome = outcome_of(cause);
    let patterns = if req.query.is_all() { emitted } else { Arc::new(Vec::new()) };
    stats.truncated = cause == Some(StopCause::BudgetExhausted);
    stats.emitted = patterns.len() as u64;
    let reason = (outcome == Outcome::Failed).then(|| {
        "mining task panicked; patterns are the prefix emitted before the failure".to_string()
    });
    MineResponse {
        outcome,
        count: patterns.len() as u64,
        patterns: req.include_patterns.then_some(patterns),
        reason,
        stats: *stats,
    }
}

/// One request-level cache probe, counted: `cache_probes`, then
/// `cache_hits` or `cache_misses` — corrupt and expired entries, which
/// the probe has dropped, are miss subspecies. So `probes = hits +
/// misses` holds however many slots one request probes.
fn probe_counted(shard: &Shard, key: &CacheKey) -> Option<Arc<Vec<ItemsetCount>>> {
    let m = &shard.metrics;
    m.incr("cache_probes");
    let looked = shard.cache.lock().unwrap_or_else(|e| e.into_inner()).probe(key);
    match looked {
        Lookup::Hit(found) => {
            m.incr("cache_hits");
            return Some(found);
        }
        Lookup::Corrupt => m.incr("cache_integrity_failures"),
        Lookup::Expired => m.incr("cache_expired"),
        Lookup::Miss => {}
    }
    m.incr("cache_misses");
    None
}

/// A complete All set and the query answers derived from it: each
/// distinct query is derived at most once and cached under its own key.
struct Derived<'s> {
    shard: &'s Shard,
    all: Arc<Vec<ItemsetCount>>,
    /// The All set's identity-slot key.
    mine_key: CacheKey,
    n_transactions: u64,
    answers: BTreeMap<QueryKey, Arc<Vec<ItemsetCount>>>,
}

impl<'s> Derived<'s> {
    fn new(
        shard: &'s Shard,
        all: Arc<Vec<ItemsetCount>>,
        mine_key: CacheKey,
        n_transactions: u64,
    ) -> Self {
        Derived {
            shard,
            all,
            mine_key,
            n_transactions,
            answers: BTreeMap::new(),
        }
    }

    /// `query`'s complete answer: the All set itself for the identity
    /// query, otherwise [`PatternQuery::apply`] over it — run outside
    /// every lock, then cached under one short lock.
    fn answer(&mut self, query: &PatternQuery) -> Arc<Vec<ItemsetCount>> {
        if query.is_all() {
            return Arc::clone(&self.all);
        }
        let qk = query.key();
        if let Some(answer) = self.answers.get(&qk) {
            return Arc::clone(answer);
        }
        let answer = Arc::new(query.apply(self.all.as_slice(), self.n_transactions));
        let (fp, kernel, minsup, _) = self.mine_key;
        let evicted = self
            .shard
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((fp, kernel, minsup, qk), Arc::clone(&answer));
        self.shard.metrics.add("cache_evictions", evicted);
        self.answers.insert(qk, Arc::clone(&answer));
        answer
    }
}

/// Removes the flight for `mine_key`, returning its followers.
fn close_flight(shard: &Shard, mine_key: &CacheKey) -> Vec<Job> {
    shard
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(mine_key)
        .map(|f| f.followers)
        .unwrap_or_default()
}

fn handle_job(inner: &Inner, shard: &Shard, job: Job) {
    let m = &shard.metrics;
    let queue_ms = job.submitted.elapsed().as_millis() as u64;
    let picked_up = Instant::now();
    let mut stats = MineStats {
        queue_ms,
        ..MineStats::default()
    };

    // Tripped while queued: answer without mining.
    if job.control.should_stop() {
        let cause = job.control.stop_cause();
        count_outcome(m, outcome_of(cause));
        let resp = tripped_response(&job.request, cause, stats);
        respond(job, resp);
        return;
    }

    let (db, fp) = match resolve_dataset(inner, &job.request.dataset) {
        Ok(resolved) => resolved,
        Err(reason) => {
            m.incr("requests_rejected");
            m.incr("rejected_bad_dataset");
            respond(job, MineResponse::rejected(reason, stats));
            return;
        }
    };
    let query = job.request.query;
    let (kernel, minsup) = (job.request.kernel.code(), job.request.min_support);
    // The identity slot holds the complete All set: the unit of mining,
    // caching and single-flight. Every other query's answer is derived
    // from it and cached under the request's own key.
    let mine_key: CacheKey = (fp, kernel, minsup, QueryKey::default());
    let key: CacheKey = (fp, kernel, minsup, query.key());
    let n_transactions = db.len() as u64;

    // Cache probe before admission: a cached answer is free to serve no
    // matter how large the search space was. The request's own slot
    // first; a non-identity query that misses there derives its answer
    // from the All slot when that hits. Each probe is counted, and a
    // request whose probes all miss falls through to mining.
    let cached = match probe_counted(shard, &key) {
        Some(answer) => Some(answer),
        None if key != mine_key => probe_counted(shard, &mine_key)
            .map(|all| Derived::new(shard, all, mine_key, n_transactions).answer(&query)),
        None => None,
    };
    if let Some(answer) = cached {
        stats.cache_hit = true;
        stats.mine_ms = picked_up.elapsed().as_millis() as u64;
        let resp = serve_full(&job.request, answer, &mut stats);
        m.add("patterns_emitted", stats.emitted);
        m.incr("requests_completed");
        respond(job, resp);
        return;
    }

    // Admission control: the Geerts-style bound from shape facts alone,
    // read off the dataset's cached ranking (`fpm::remap`).
    // The chaos admission-flap site can force the rejection branch for
    // an otherwise admissible request (constant `false` without the
    // `chaos` feature), exercising the same accounting path.
    let bound = fpm::bound::candidate_bound(&db, job.request.min_support);
    stats.candidate_bound = bound;
    let flap = fpm::faults::admission_flap();
    if flap || bound > inner.cfg.max_candidate_bound {
        m.incr("requests_rejected");
        m.incr("rejected_admission");
        let reason = if flap {
            format!("admission flap (chaos): candidate bound {bound:.3e} spuriously rejected")
        } else {
            format!(
                "candidate bound {bound:.3e} exceeds admission ceiling {:.3e}",
                inner.cfg.max_candidate_bound
            )
        };
        respond(job, MineResponse::rejected(reason, stats));
        return;
    }

    // Single-flight on the mine key: attach to the in-flight All-set
    // mine whatever the query, or register as its leader. Check-and-
    // register is atomic under the inflight lock, so a key has at most
    // one leader at a time.
    {
        let mut inflight = shard.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(flight) = inflight.get_mut(&mine_key) {
            m.incr("requests_coalesced");
            flight.followers.push(job);
            return;
        }
        inflight.insert(mine_key, Flight { followers: Vec::new() });
        m.incr("singleflight_leaders");
    }

    // Double-check after taking leadership: the previous flight for
    // this key may have finished — inserting its All set and closing —
    // between this request's probe-miss and its registration. Serving
    // from the fresh entry keeps "one mine per key" exact instead of
    // best-effort. The access is an internal dedup check, not a
    // request-level probe, so it stays out of the cache_probes
    // arithmetic (the request already counted its probes as misses).
    let rechecked = shard.cache.lock().unwrap_or_else(|e| e.into_inner()).probe(&mine_key);
    if let Lookup::Hit(all) = rechecked {
        let mut derived = Derived::new(shard, all, mine_key, n_transactions);
        fan_out(shard, Some(&mut derived), close_flight(shard, &mine_key));
        stats.cache_hit = true;
        stats.mine_ms = picked_up.elapsed().as_millis() as u64;
        let resp = serve_full(&job.request, derived.answer(&query), &mut stats);
        m.add("patterns_emitted", stats.emitted);
        m.incr("requests_completed");
        respond(job, resp);
        return;
    }

    // Test gate: park here (leader registered, not yet mining) so
    // deterministic tests can attach followers before releasing.
    // ORDERING: Relaxed — pure control-flow gate, re-polled every
    // millisecond; no payload rides on the flag (see `hold_mining`).
    while inner.hold.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(1));
    }

    m.incr("mined_runs");
    let mut sink = CollectSink::default();
    // `mine_threads` 0 means "serial in the worker" here (the pool is
    // the parallelism), so it does NOT fall through to the runtime's
    // auto-detection the way `MinePlan::threads(0)` would.
    let summary = MinePlan::kernel(job.request.kernel, job.request.min_support)
        .threads(inner.cfg.mine_threads.max(1))
        .execute_controlled(&db, &job.control, &mut sink);
    stats.mine_ms = picked_up.elapsed().as_millis() as u64;

    let all = Arc::new(sink.patterns);
    let shareable = summary.shareable();
    if shareable {
        let evicted = shard
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(mine_key, Arc::clone(&all));
        m.add("cache_evictions", evicted);
    }
    // Close the flight only after the cache insert: a request probing
    // in between either hits the fresh entry or still finds the flight
    // to attach to — never a gap that would double-mine.
    let followers = close_flight(shard, &mine_key);
    let mut derived =
        shareable.then(|| Derived::new(shard, Arc::clone(&all), mine_key, n_transactions));
    fan_out(shard, derived.as_mut(), followers);

    let resp = match derived.as_mut() {
        Some(derived) => serve_full(&job.request, derived.answer(&query), &mut stats),
        None => cut_response(&job.request, all, job.control.stop_cause(), &mut stats),
    };
    m.add("patterns_emitted", stats.emitted);
    count_outcome(m, resp.outcome);
    respond(job, resp);
}

/// Answers every follower of a finished flight. With a complete All set
/// each follower is served its own query's answer under its own flags;
/// without one the followers are requeued at the *front* of the shard
/// queue (they were submitted before anything now waiting behind them)
/// to mine on their own controls.
fn fan_out(shard: &Shard, derived: Option<&mut Derived<'_>>, followers: Vec<Job>) {
    let m = &shard.metrics;
    let Some(derived) = derived else {
        let n = followers.len() as u64;
        if n > 0 {
            m.add("coalesced_requeued", n);
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            // Keep relative submit order: push_front in reverse.
            for job in followers.into_iter().rev() {
                q.jobs.push_front(job);
            }
            drop(q);
            shard.ready.notify_all();
        }
        return;
    };
    for job in followers {
        m.incr("coalesced_served");
        let mut stats = MineStats {
            queue_ms: job.submitted.elapsed().as_millis() as u64,
            coalesced: true,
            ..MineStats::default()
        };
        // A follower whose own control tripped while attached gets the
        // honest tripped answer, not a result its limits disclaimed.
        if job.control.should_stop() {
            let cause = job.control.stop_cause();
            count_outcome(m, outcome_of(cause));
            let resp = tripped_response(&job.request, cause, stats);
            respond(job, resp);
            continue;
        }
        let resp = serve_full(&job.request, derived.answer(&job.request.query), &mut stats);
        m.add("patterns_emitted", stats.emitted);
        m.incr("requests_completed");
        respond(job, resp);
    }
}

/// Maps a control's stop cause to the response outcome. A budget trip
/// is still `Complete`: the caller asked for at most N patterns and got
/// the first N of the serial order ([`MineStats::truncated`] flags it).
fn outcome_of(cause: Option<StopCause>) -> Outcome {
    match cause {
        None | Some(StopCause::BudgetExhausted) => Outcome::Complete,
        Some(StopCause::Cancelled) => Outcome::Cancelled,
        Some(StopCause::DeadlineExceeded) => Outcome::DeadlineExceeded,
        Some(StopCause::TaskPanicked) => Outcome::Failed,
    }
}

fn count_outcome(m: &MetricSet, outcome: Outcome) {
    m.incr(match outcome {
        Outcome::Complete => "requests_completed",
        Outcome::Cancelled => "requests_cancelled",
        Outcome::DeadlineExceeded => "requests_deadline_exceeded",
        Outcome::Rejected => "requests_rejected",
        Outcome::Failed => "requests_failed",
    });
}

/// Deterministic shard attribution for an artifact that failed to load
/// (its spec — and therefore its routing shard — is unreadable): hash
/// the file stem the same FNV-then-mix way specs are routed.
fn stem_shard(path: &Path, shards: usize) -> usize {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    (fpm::faults::mix(fnv1a(FNV_OFFSET, stem.as_bytes())) % shards.max(1) as u64) as usize
}

/// Boot-time warm start: scan `dir`, and for every artifact that loads
/// cleanly register its dataset and seed the owning shard's cache with
/// the artifact's generation-live results. Damage of any kind — bad
/// magic, failed CRC, truncation, or a fingerprint that does not match
/// the database rebuilt from the raw section — counts one
/// `store_integrity_failures` and falls back to the cold path.
fn warm_start(inner: &Inner, dir: &Path) {
    let Ok(paths) = store::scan(dir) else {
        // Missing or unreadable directory: nothing to warm from. The
        // first shutdown flush will create it.
        return;
    };
    for path in paths {
        let artifact = match store::Artifact::load(&path) {
            Ok(a) => a,
            Err(_) => {
                let idx = stem_shard(&path, inner.shards.len());
                if let Some(shard) = inner.shards.get(idx) {
                    shard.metrics.incr("store_integrity_failures");
                }
                continue;
            }
        };
        // Only named specs are warm-startable: inline/path artifacts
        // carry no identity the service could route a request by.
        let (Some(dataset), Some(scale)) = (
            Dataset::by_label(&artifact.spec.dataset),
            Scale::by_label(&artifact.spec.scale),
        ) else {
            continue;
        };
        let spec = DatasetSpec::Named { dataset, scale };
        let idx = shard_of(&spec, inner.shards.len());
        let Some(shard) = inner.shards.get(idx) else {
            continue;
        };
        let m = &shard.metrics;
        // Cross-check the recorded fingerprint against the database the
        // raw section actually rebuilds — the serve-side half of the
        // integrity contract (CRCs alone cannot catch a stale raw
        // section written by a buggy producer).
        let db = Arc::new(TransactionDb::from_transactions(artifact.raw.clone()));
        if fingerprint(&db) != artifact.fingerprint {
            m.incr("store_integrity_failures");
            continue;
        }
        // Register the dataset under the fingerprint just checked: no
        // request for it generates or hashes the dataset.
        inner.datasets.lock().unwrap_or_else(|e| e.into_inner()).insert(
            (dataset, scale),
            Registered {
                db,
                fingerprint: artifact.fingerprint,
                generation: artifact.generation,
            },
        );
        m.incr("store_artifacts_loaded");
        let mut evicted = 0;
        let mut warmed = 0;
        {
            let mut cache = shard.cache.lock().unwrap_or_else(|e| e.into_inner());
            for entry in artifact.live_results() {
                // An unknown (future) query class code cannot appear
                // here — the store decoder validates the tag — so the
                // key can carry the entry's query verbatim.
                let key: CacheKey =
                    (artifact.fingerprint, entry.kernel, entry.min_support, entry.query);
                evicted += cache.insert(key, Arc::new(entry.patterns.clone()));
                warmed += 1;
            }
        }
        m.add("store_warm_entries", warmed);
        m.add("cache_evictions", evicted);
    }
}

/// Shutdown flush: persist each registered dataset's cached complete
/// results back to the store, atomically, one artifact per dataset.
/// Datasets with nothing cached are skipped — `store build` covers the
/// results-free case.
fn flush_store(inner: &Inner) {
    let Some(dir) = inner.cfg.store_dir.as_deref() else {
        return;
    };
    let reg: Vec<((Dataset, Scale), Registered)> = inner
        .datasets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(key, r)| (*key, r.clone()))
        .collect();
    if reg.is_empty() {
        return;
    }
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    for ((dataset, scale), r) in reg {
        let idx = shard_of(&DatasetSpec::Named { dataset, scale }, inner.shards.len());
        let Some(shard) = inner.shards.get(idx) else {
            continue;
        };
        let entries: Vec<(CacheKey, Arc<Vec<ItemsetCount>>)> = {
            let cache = shard.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache
                .entries()
                .filter(|(k, _)| k.0 == r.fingerprint)
                .map(|(k, p)| (*k, Arc::clone(p)))
                .collect()
        };
        if entries.is_empty() {
            continue;
        }
        // Lowercase to match the wire labels (`ds1`).
        let label = dataset.label().to_ascii_lowercase();
        let spec_meta = store::SpecMeta::named(&label, scale.label());
        let mut artifact = store::Artifact::build(spec_meta, &r.db);
        artifact.generation = r.generation;
        let flushed = entries.len() as u64;
        for (key, patterns) in entries {
            artifact.push_result(key.1, key.2, key.3, (*patterns).clone());
        }
        if artifact.store(&artifact.path_in(dir)).is_ok() {
            shard.metrics.add("store_flushed_entries", flushed);
        }
    }
}

/// The transactions `spec` names and their fingerprint. A named dataset
/// is generated and fingerprinted once, at its first resolution, unless
/// warm start registered it; inline rows and files are read and hashed
/// per request, a cost proportional to the request's own rows or file.
fn resolve_dataset(inner: &Inner, spec: &DatasetSpec) -> Result<(Arc<TransactionDb>, u64), String> {
    let DatasetSpec::Named { dataset, scale } = spec else {
        let db = spec.resolve()?;
        let fp = fingerprint(&db);
        return Ok((Arc::new(db), fp));
    };
    let key = (*dataset, *scale);
    if let Some(r) = inner.datasets.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return Ok((Arc::clone(&r.db), r.fingerprint));
    }
    // Generate and hash outside the lock: they are the slow part. The
    // generators are deterministic, so a racing duplicate is identical
    // and the first insert is kept.
    let db = Arc::new(dataset.generate(*scale));
    let fp = fingerprint(&db);
    let mut datasets = inner.datasets.lock().unwrap_or_else(|e| e.into_inner());
    let r = datasets.entry(key).or_insert(Registered {
        db,
        fingerprint: fp,
        generation: 0,
    });
    Ok((Arc::clone(&r.db), r.fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::types::MineKind;
    use fpm::{PatternQuery, RuleSpec};

    fn toy_spec() -> DatasetSpec {
        DatasetSpec::Inline(vec![
            vec![0, 2, 5],
            vec![1, 2, 5],
            vec![0, 2, 5],
            vec![3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ])
    }

    #[test]
    fn completes_and_matches_serial() {
        let svc = MineService::start(ServeConfig::default());
        for kernel in Kernel::ALL {
            let resp = svc.mine(MineRequest::new(toy_spec(), kernel, 2));
            assert_eq!(resp.outcome, Outcome::Complete, "{}", kernel.label());
            let got = resp.patterns.expect("patterns included by default");
            let db = toy_spec().resolve().unwrap();
            let mut sink = CollectSink::default();
            let summary = MinePlan::kernel(kernel, 2).execute(&db, &mut sink);
            assert!(summary.complete);
            assert_eq!(*got, sink.patterns, "{}", kernel.label());
        }
        svc.shutdown();
    }

    #[test]
    fn budget_truncates_but_stays_complete() {
        let svc = MineService::start(ServeConfig::default());
        let full = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        let mut limited = MineRequest::new(toy_spec(), Kernel::Lcm, 2);
        limited.max_patterns = Some(3);
        let resp = svc.mine(limited);
        assert_eq!(resp.outcome, Outcome::Complete);
        assert!(resp.stats.truncated);
        assert_eq!(resp.count, 3);
        let full = full.patterns.unwrap();
        let got = resp.patterns.unwrap();
        assert_eq!(*got, full[..3], "budget output is a prefix of the full run");
        svc.shutdown();
    }

    #[test]
    fn count_only_omits_patterns() {
        let svc = MineService::start(ServeConfig::default());
        let mut req = MineRequest::new(toy_spec(), Kernel::Eclat, 2);
        req.include_patterns = false;
        let resp = svc.mine(req);
        assert_eq!(resp.outcome, Outcome::Complete);
        assert!(resp.patterns.is_none());
        assert!(resp.count > 0);
        svc.shutdown();
    }

    #[test]
    fn admission_bound_rejects_wide_requests() {
        let svc = MineService::start(ServeConfig {
            max_candidate_bound: 2.0,
            ..ServeConfig::default()
        });
        let resp = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(resp.outcome, Outcome::Rejected);
        assert!(resp.reason.unwrap().contains("admission ceiling"));
        assert_eq!(svc.metrics().get("rejected_admission"), 1);
        assert_eq!(svc.metrics().get("mined_runs"), 0, "no mining was spent");
        svc.shutdown();
    }

    #[test]
    fn bad_dataset_rejects() {
        let svc = MineService::start(ServeConfig::default());
        let resp = svc.mine(MineRequest::new(
            DatasetSpec::Path("/nonexistent/file.dat".into()),
            Kernel::Lcm,
            2,
        ));
        assert_eq!(resp.outcome, Outcome::Rejected);
        assert_eq!(svc.metrics().get("rejected_bad_dataset"), 1);
        svc.shutdown();
    }

    #[test]
    fn cache_hit_skips_mining() {
        let svc = MineService::start(ServeConfig::default());
        let cold = svc.mine(MineRequest::new(toy_spec(), Kernel::FpGrowth, 2));
        assert!(!cold.stats.cache_hit);
        assert_eq!(svc.metrics().get("mined_runs"), 1);
        let warm = svc.mine(MineRequest::new(toy_spec(), Kernel::FpGrowth, 2));
        assert!(warm.stats.cache_hit);
        assert_eq!(svc.metrics().get("mined_runs"), 1, "second run never mined");
        assert_eq!(svc.metrics().get("cache_hits"), 1);
        assert_eq!(warm.patterns, cold.patterns, "hit is byte-identical");
        svc.shutdown();
    }

    #[test]
    fn cache_hit_serves_budget_prefix() {
        let svc = MineService::start(ServeConfig::default());
        let cold = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        let mut req = MineRequest::new(toy_spec(), Kernel::Lcm, 2);
        req.max_patterns = Some(2);
        let warm = svc.mine(req);
        assert!(warm.stats.cache_hit);
        assert!(warm.stats.truncated);
        assert_eq!(*warm.patterns.unwrap(), cold.patterns.unwrap()[..2]);
        svc.shutdown();
    }

    #[test]
    fn poisoned_cache_entry_triggers_a_remine() {
        // Satellite: service-level cache poisoning. A tampered entry is
        // detected on probe, dropped, and the request re-mines — the
        // poison is never served, and the counters say exactly what
        // happened.
        let svc = MineService::start(ServeConfig::default());
        let cold = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(cold.outcome, Outcome::Complete);
        assert!(svc.tamper_cached(&toy_spec(), Kernel::Lcm, 2, |p| p[0].support ^= 1));
        let warm = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(warm.outcome, Outcome::Complete);
        assert!(!warm.stats.cache_hit, "corrupt entry must not serve as a hit");
        assert_eq!(warm.patterns, cold.patterns, "the re-mine restores the truth");
        let m = svc.metrics();
        assert_eq!(m.get("cache_probes"), 2);
        assert_eq!(m.get("cache_hits"), 0);
        assert_eq!(m.get("cache_misses"), 2, "the corrupt probe counts as a miss");
        assert_eq!(m.get("cache_integrity_failures"), 1);
        assert_eq!(m.get("mined_runs"), 2, "the poisoned request really re-mined");
        // The re-mine healed the slot: a third request is a clean hit.
        let third = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert!(third.stats.cache_hit);
        assert_eq!(svc.metrics().get("cache_integrity_failures"), 1, "no new failure");
        svc.shutdown();
    }

    #[test]
    fn ttl_expired_entry_counts_as_miss_and_remines() {
        // Satellite fix: an entry past its TTL must read as a *miss* in
        // the probe arithmetic (probes = hits + misses), never a hit —
        // and the request must re-mine, exactly like the poisoned-entry
        // path above.
        let svc = MineService::start(ServeConfig {
            cache_ttl: Some(Duration::from_secs(3600)),
            ..ServeConfig::default()
        });
        let cold = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(cold.outcome, Outcome::Complete);
        assert!(svc.age_cached(&toy_spec(), Kernel::Lcm, 2, Duration::from_secs(3601)));
        let warm = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(warm.outcome, Outcome::Complete);
        assert!(!warm.stats.cache_hit, "expired entry must not serve as a hit");
        assert_eq!(warm.patterns, cold.patterns, "the re-mine restores the result");
        let m = svc.metrics();
        assert_eq!(m.get("cache_probes"), 2);
        assert_eq!(m.get("cache_hits"), 0, "expiry is never a hit");
        assert_eq!(m.get("cache_misses"), 2, "the expired probe counts as a miss");
        assert_eq!(m.get("cache_expired"), 1);
        assert_eq!(
            m.get("cache_probes"),
            m.get("cache_hits") + m.get("cache_misses"),
            "probe arithmetic must absorb expiry as a miss"
        );
        assert_eq!(m.get("mined_runs"), 2, "the expired request really re-mined");
        // The re-mine refreshed the entry: a third request hits.
        let third = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert!(third.stats.cache_hit);
        assert_eq!(svc.metrics().get("cache_expired"), 1, "no new expiry");
        svc.shutdown();
    }

    #[test]
    fn fresh_ttl_entry_still_hits() {
        let svc = MineService::start(ServeConfig {
            cache_ttl: Some(Duration::from_secs(3600)),
            ..ServeConfig::default()
        });
        let _ = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert!(svc.age_cached(&toy_spec(), Kernel::Lcm, 2, Duration::from_secs(60)));
        let warm = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert!(warm.stats.cache_hit, "a fresh entry serves normally");
        assert_eq!(svc.metrics().get("cache_expired"), 0);
        svc.shutdown();
    }

    #[test]
    fn queue_full_rejects_synchronously() {
        // Depth 0 makes rejection deterministic regardless of how fast
        // the worker drains.
        let svc = MineService::start(ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        });
        let resp = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(resp.outcome, Outcome::Rejected);
        assert_eq!(resp.reason.as_deref(), Some("queue full"));
        assert_eq!(svc.metrics().get("rejected_queue_full"), 1);
        svc.shutdown();
    }

    #[test]
    fn pre_expired_deadline_answers_without_mining() {
        let svc = MineService::start(ServeConfig::default());
        let mut req = MineRequest::new(toy_spec(), Kernel::Lcm, 2);
        req.deadline = Some(Duration::from_millis(0));
        let resp = svc.mine(req);
        assert_eq!(resp.outcome, Outcome::DeadlineExceeded);
        assert_eq!(resp.count, 0);
        assert_eq!(svc.metrics().get("mined_runs"), 0);
        svc.shutdown();
    }

    #[test]
    fn cancel_before_pickup_yields_cancelled() {
        // Depth 2, one worker: stuff a slow-ish job first so the second
        // is still queued when we cancel it.
        let svc = MineService::start(ServeConfig {
            shards: 1,
            workers: 1,
            queue_depth: 8,
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let first = svc.submit(MineRequest::new(
            DatasetSpec::Named {
                dataset: quest::Dataset::Ds1,
                scale: quest::Scale::Smoke,
            },
            Kernel::Lcm,
            30,
        ));
        let second = svc.submit(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        second.cancel();
        let resp = second.wait();
        assert_eq!(resp.outcome, Outcome::Cancelled);
        assert!(resp.count <= 7, "cancelled output is a (possibly empty) prefix");
        let _ = first.wait();
        svc.shutdown();
    }

    #[test]
    fn submit_after_shutdown_rejects() {
        let svc = MineService::start(ServeConfig::default());
        svc.shutdown();
        let resp = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(resp.outcome, Outcome::Rejected);
        assert_eq!(resp.reason.as_deref(), Some("service shut down"));
    }

    #[test]
    fn named_dataset_generated_once() {
        let svc = MineService::start(ServeConfig::default());
        let spec = DatasetSpec::Named {
            dataset: quest::Dataset::Ds1,
            scale: quest::Scale::Smoke,
        };
        let a = svc.mine(MineRequest::new(spec.clone(), Kernel::Lcm, 60));
        let b = svc.mine(MineRequest::new(spec, Kernel::Lcm, 60));
        assert_eq!(a.outcome, Outcome::Complete);
        assert!(b.stats.cache_hit, "same named dataset: result cache hit");
        svc.shutdown();
    }

    #[test]
    fn parallel_mining_matches_serial_service() {
        let serial = MineService::start(ServeConfig::default());
        let parallel = MineService::start(ServeConfig {
            mine_threads: 3,
            ..ServeConfig::default()
        });
        for kernel in Kernel::ALL {
            let a = serial.mine(MineRequest::new(toy_spec(), kernel, 2));
            let b = parallel.mine(MineRequest::new(toy_spec(), kernel, 2));
            assert_eq!(a.patterns, b.patterns, "{}", kernel.label());
        }
        serial.shutdown();
        parallel.shutdown();
    }

    #[test]
    fn routing_is_stable_and_spreads_datasets() {
        let svc = MineService::start(ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        });
        assert_eq!(svc.shard_count(), 4);
        let specs: Vec<DatasetSpec> = (0..32u32)
            .map(|i| DatasetSpec::Inline(vec![vec![i, i + 1], vec![i]]))
            .collect();
        let first: Vec<usize> = specs.iter().map(|s| svc.shard_of(s)).collect();
        let second: Vec<usize> = specs.iter().map(|s| svc.shard_of(s)).collect();
        assert_eq!(first, second, "routing is a pure function of the spec");
        let mut seen = [false; 4];
        for &s in &first {
            seen[s] = true;
        }
        assert!(
            seen.iter().filter(|&&s| s).count() >= 2,
            "32 distinct datasets must spread over more than one shard: {first:?}"
        );
        svc.shutdown();
    }

    #[test]
    fn routing_hashes_are_pinned() {
        // Routing must be bit-identical across releases: a warm start
        // seeds the shard a spec routes to, and a failed load is charged
        // to the shard its file stem hashes to.
        let named = |dataset, scale| DatasetSpec::Named { dataset, scale };
        let specs = [
            named(quest::Dataset::Ds1, quest::Scale::Smoke),
            named(quest::Dataset::Ds3, quest::Scale::Ci),
            named(quest::Dataset::Ds4, quest::Scale::Full),
            DatasetSpec::Inline(vec![vec![1, 2, 3], vec![u32::MAX]]),
            DatasetSpec::Path("data/retail.dat".into()),
        ];
        let hashes: Vec<u64> = specs.iter().map(spec_hash).collect();
        assert_eq!(
            hashes,
            [
                0x2ae1_fde3_de09_e8be,
                0x1fe3_59fa_dcb3_ecfe,
                0x37b2_7739_cfd0_c780,
                0x9875_ac50_2b3a_46c2,
                0x0fd9_4aa2_a0f8_c413,
            ]
        );
        let shards: Vec<[usize; 2]> =
            specs.iter().map(|s| [shard_of(s, 2), shard_of(s, 4)]).collect();
        assert_eq!(shards, [[0, 2], [1, 1], [0, 2], [0, 2], [0, 0]]);
        let stems = ["store/named-ds1-smoke.fpa", "named-ds4-ci.fpa"];
        let shards: Vec<[usize; 2]> = stems
            .iter()
            .map(|s| [stem_shard(Path::new(s), 2), stem_shard(Path::new(s), 4)])
            .collect();
        assert_eq!(shards, [[0, 2], [1, 3]]);
        let smoke: Vec<usize> = [
            quest::Dataset::Ds1,
            quest::Dataset::Ds2,
            quest::Dataset::Ds3,
            quest::Dataset::Ds4,
        ]
        .into_iter()
        .map(|d| shard_of(&named(d, quest::Scale::Smoke), 2))
        .collect();
        assert_eq!(smoke, [0, 1, 0, 0]);
    }

    #[test]
    fn per_shard_counters_sum_to_global() {
        let svc = MineService::start(ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        });
        for i in 0..12u32 {
            let spec = DatasetSpec::Inline(vec![vec![i, i + 1, i + 2], vec![i, i + 1]]);
            let resp = svc.mine(MineRequest::new(spec, Kernel::Lcm, 1));
            assert_eq!(resp.outcome, Outcome::Complete);
        }
        let busy = (0..svc.shard_count())
            .filter(|&s| svc.shard_metrics(s).get("requests_submitted") > 0)
            .count();
        assert!(busy >= 2, "12 datasets must spread over more than one shard");
        let total = svc.metrics();
        assert_eq!(total.get("requests_submitted"), 12, "the sum reads every shard");
        assert_eq!(total.get("mined_runs"), 12);
        svc.shutdown();
    }

    #[test]
    fn identical_cold_requests_coalesce_into_one_mine() {
        // The deterministic stampede: hold the mining gate, let the
        // leader register, pile followers onto the flight, release.
        let svc = MineService::start(ServeConfig {
            shards: 1,
            workers: 2,
            ..ServeConfig::default()
        });
        svc.hold_mining(true);
        let leader = svc.submit(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        wait_for(&svc, "singleflight_leaders", 1);
        const FOLLOWERS: usize = 4;
        let tickets: Vec<Ticket> = (0..FOLLOWERS)
            .map(|_| svc.submit(MineRequest::new(toy_spec(), Kernel::Lcm, 2)))
            .collect();
        wait_for(&svc, "requests_coalesced", FOLLOWERS as u64);
        svc.hold_mining(false);
        let lead_resp = leader.wait();
        assert_eq!(lead_resp.outcome, Outcome::Complete);
        assert!(!lead_resp.stats.coalesced);
        for t in tickets {
            let resp = t.wait();
            assert_eq!(resp.outcome, Outcome::Complete);
            assert!(resp.stats.coalesced, "followers are answered by the leader");
            assert_eq!(resp.patterns, lead_resp.patterns, "fan-out is byte-identical");
        }
        let m = svc.metrics();
        assert_eq!(m.get("mined_runs"), 1, "the stampede mined exactly once");
        assert_eq!(m.get("coalesced_served"), FOLLOWERS as u64);
        assert_eq!(m.get("coalesced_requeued"), 0);
        svc.shutdown();
    }

    #[test]
    fn coalesced_followers_respect_their_own_budgets() {
        let svc = MineService::start(ServeConfig {
            shards: 1,
            workers: 2,
            ..ServeConfig::default()
        });
        svc.hold_mining(true);
        let leader = svc.submit(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        wait_for(&svc, "singleflight_leaders", 1);
        let mut limited = MineRequest::new(toy_spec(), Kernel::Lcm, 2);
        limited.max_patterns = Some(2);
        let follower = svc.submit(limited);
        wait_for(&svc, "requests_coalesced", 1);
        svc.hold_mining(false);
        let full = leader.wait().patterns.unwrap();
        let resp = follower.wait();
        assert!(resp.stats.coalesced);
        assert!(resp.stats.truncated);
        assert_eq!(*resp.patterns.unwrap(), full[..2], "fan-out applies the budget cut");
        svc.shutdown();
    }

    /// The plan's answer to `query`, the reference every served answer
    /// must equal.
    fn plan_answer(query: PatternQuery) -> Vec<ItemsetCount> {
        let mut sink = CollectSink::default();
        let summary = MinePlan::kernel(Kernel::Lcm, 2)
            .query(query)
            .execute(&toy_spec().resolve().unwrap(), &mut sink);
        assert!(summary.complete);
        sink.patterns
    }

    #[test]
    fn query_requests_answer_like_the_plan_and_cache_separately() {
        let svc = MineService::start(ServeConfig::default());
        let queries = [
            PatternQuery::all(),
            PatternQuery::class(MineKind::Closed),
            PatternQuery::class(MineKind::Maximal),
            PatternQuery::all().top_k(3),
            PatternQuery::class(MineKind::Closed)
                .rules(RuleSpec { min_confidence: 0.6, min_lift: 0.0 }),
        ];
        for q in queries {
            let req = MineRequest::new(toy_spec(), Kernel::Lcm, 2).with_query(q);
            let resp = svc.mine(req);
            assert_eq!(resp.outcome, Outcome::Complete, "{}", q.label());
            assert_eq!(
                *resp.patterns.expect("patterns included"),
                plan_answer(q),
                "{}",
                q.label()
            );
        }
        // Five distinct queries at one (dataset, kernel, minsup): one
        // mine for the identity query's All set; the other four answers
        // are derived from it, each a hit on the All slot.
        let m = svc.metrics();
        assert_eq!(m.get("mined_runs"), 1);
        assert_eq!(m.get("cache_hits"), queries.len() as u64 - 1);
        // Re-asking each query now hits its own slot: one probe each.
        let (probes, hits) = (m.get("cache_probes"), m.get("cache_hits"));
        for q in queries {
            let resp = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2).with_query(q));
            assert!(resp.stats.cache_hit, "{}", q.label());
        }
        let m = svc.metrics();
        assert_eq!(m.get("cache_probes"), probes + queries.len() as u64);
        assert_eq!(m.get("cache_hits"), hits + queries.len() as u64);
        assert_eq!(m.get("mined_runs"), 1, "no re-mining");
        svc.shutdown();
    }

    #[test]
    fn coalescing_is_mine_keyed() {
        // Identical (dataset, kernel, minsup) but a different query
        // attaches to the in-flight identity run: one All set answers
        // both, each with its own query's answer.
        let svc = MineService::start(ServeConfig {
            shards: 1,
            workers: 3,
            ..ServeConfig::default()
        });
        svc.hold_mining(true);
        let leader = svc.submit(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        wait_for(&svc, "singleflight_leaders", 1);
        let closed_query = PatternQuery::class(MineKind::Closed);
        let closed =
            svc.submit(MineRequest::new(toy_spec(), Kernel::Lcm, 2).with_query(closed_query));
        wait_for(&svc, "requests_coalesced", 1);
        svc.hold_mining(false);
        let lead_resp = leader.wait();
        let closed_resp = closed.wait();
        assert!(closed_resp.stats.coalesced, "the closed request attached to the flight");
        assert_eq!(*closed_resp.patterns.clone().unwrap(), plan_answer(closed_query));
        assert_ne!(closed_resp.patterns, lead_resp.patterns);
        let m = svc.metrics();
        assert_eq!(m.get("mined_runs"), 1);
        assert_eq!(m.get("singleflight_leaders"), 1);
        svc.shutdown();
    }

    #[test]
    fn poisoned_all_slot_is_never_derived_from() {
        let svc = MineService::start(ServeConfig::default());
        let all = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        assert_eq!(all.outcome, Outcome::Complete);
        assert!(svc.tamper_cached(&toy_spec(), Kernel::Lcm, 2, |p| p[0].support ^= 1));
        let closed_query = PatternQuery::class(MineKind::Closed);
        let closed =
            svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2).with_query(closed_query));
        assert_eq!(closed.outcome, Outcome::Complete);
        assert!(!closed.stats.cache_hit, "a poisoned All set must not serve a derivation");
        assert_eq!(*closed.patterns.unwrap(), plan_answer(closed_query));
        let m = svc.metrics();
        // Probes: the identity request's own slot, then the closed
        // request's own slot and the (poisoned) All slot.
        assert_eq!(m.get("cache_probes"), 3);
        assert_eq!(m.get("cache_hits"), 0);
        assert_eq!(m.get("cache_misses"), 3);
        assert_eq!(m.get("cache_integrity_failures"), 1);
        assert_eq!(m.get("mined_runs"), 2, "the closed request re-mined the All set");
        svc.shutdown();
    }

    #[test]
    fn both_slots_expiring_count_as_two_misses() {
        let svc = MineService::start(ServeConfig {
            cache_ttl: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        });
        let closed_query = PatternQuery::class(MineKind::Closed);
        let req = || MineRequest::new(toy_spec(), Kernel::Lcm, 2).with_query(closed_query);
        assert_eq!(svc.mine(req()).outcome, Outcome::Complete);
        std::thread::sleep(Duration::from_millis(350));
        let again = svc.mine(req());
        assert!(!again.stats.cache_hit);
        assert_eq!(*again.patterns.unwrap(), plan_answer(closed_query));
        let m = svc.metrics();
        assert_eq!(m.get("cache_expired"), 2, "the closed slot and the All slot expired");
        assert_eq!(m.get("cache_probes"), 4);
        assert_eq!(m.get("cache_hits"), 0);
        assert_eq!(m.get("cache_misses"), 4);
        assert_eq!(m.get("mined_runs"), 2);
        svc.shutdown();
    }

    #[test]
    fn non_identity_budget_cuts_the_derived_answer() {
        let svc = MineService::start(ServeConfig::default());
        let closed_query = PatternQuery::class(MineKind::Closed);
        let closed = plan_answer(closed_query);
        assert!(closed.len() > 2);
        let mut limited = MineRequest::new(toy_spec(), Kernel::Lcm, 2).with_query(closed_query);
        limited.max_patterns = Some(2);
        let resp = svc.mine(limited);
        assert_eq!(resp.outcome, Outcome::Complete);
        assert!(resp.stats.truncated);
        assert_eq!(resp.count, 2);
        assert_eq!(*resp.patterns.unwrap(), closed[..2]);
        // The full answer was cached, not dropped as unshareable.
        let full = svc.mine(MineRequest::new(toy_spec(), Kernel::Lcm, 2).with_query(closed_query));
        assert!(full.stats.cache_hit);
        assert!(!full.stats.truncated);
        assert_eq!(*full.patterns.unwrap(), closed);
        assert_eq!(svc.metrics().get("mined_runs"), 1);
        svc.shutdown();
    }

    #[test]
    fn the_largest_item_id_is_mined_not_allocated_for() {
        let svc = MineService::start(ServeConfig::default());
        let line = r#"{"dataset":{"inline":[[4294967295]]},"kernel":"lcm","min_support":1}"#;
        let mut out = Vec::new();
        crate::serve_lines(&svc, format!("{line}\n").as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains(r#""outcome":"complete""#), "{text}");
        assert!(
            text.contains(r#""patterns":[{"items":[4294967295],"support":1}]"#),
            "{text}"
        );
        svc.shutdown();
    }

    #[test]
    fn warm_start_round_trips_query_tagged_results() {
        let dir = std::env::temp_dir().join(format!(
            "fpm-serve-query-store-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = DatasetSpec::Named {
            dataset: quest::Dataset::Ds1,
            scale: quest::Scale::Smoke,
        };
        let queries = [
            PatternQuery::all(),
            PatternQuery::class(MineKind::Maximal),
            PatternQuery::all().top_k(5),
        ];
        let cfg = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let first = MineService::start(cfg.clone());
        let cold: Vec<_> = queries
            .iter()
            .map(|&q| {
                let resp = first.mine(MineRequest::new(spec.clone(), Kernel::Lcm, 60).with_query(q));
                assert_eq!(resp.outcome, Outcome::Complete, "{}", q.label());
                resp.patterns.expect("patterns")
            })
            .collect();
        first.shutdown();
        assert_eq!(first.metrics().get("store_flushed_entries"), queries.len() as u64);

        // A new process warm-starts every query's slot: zero mining.
        let second = MineService::start(cfg);
        assert_eq!(second.metrics().get("store_warm_entries"), queries.len() as u64);
        for (q, cold) in queries.iter().zip(&cold) {
            let resp = second.mine(MineRequest::new(spec.clone(), Kernel::Lcm, 60).with_query(*q));
            assert!(resp.stats.cache_hit, "{}: warm slot must hit", q.label());
            assert_eq!(resp.patterns.as_ref(), Some(cold), "{}", q.label());
        }
        assert_eq!(second.metrics().get("mined_runs"), 0, "warm start re-mined nothing");
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_registry_fingerprints_each_named_dataset_once() {
        let svc = MineService::start(ServeConfig::default());
        for dataset in Dataset::ALL {
            let spec = DatasetSpec::Named { dataset, scale: Scale::Smoke };
            let (db, fp) = resolve_dataset(&svc.inner, &spec).expect("named specs resolve");
            assert_eq!(fp, fingerprint(&dataset.generate(Scale::Smoke)), "{}", dataset.label());
            let (again, fp_again) = resolve_dataset(&svc.inner, &spec).expect("registered");
            assert!(Arc::ptr_eq(&db, &again), "{}: generated once", dataset.label());
            assert_eq!(fp_again, fp);
        }
        svc.shutdown();
    }

    #[test]
    fn warm_start_registers_the_artifact_fingerprint() {
        let dir = std::env::temp_dir().join(format!(
            "fpm-serve-registry-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = Dataset::Ds2.generate(Scale::Smoke);
        let mut artifact = store::Artifact::build(store::SpecMeta::named("ds2", "smoke"), &db);
        artifact.generation = 3;
        artifact.store(&artifact.path_in(&dir)).unwrap();

        let svc = MineService::start(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        assert_eq!(svc.metrics().get("store_artifacts_loaded"), 1);
        let entry = svc
            .inner
            .datasets
            .lock()
            .unwrap()
            .get(&(Dataset::Ds2, Scale::Smoke))
            .cloned()
            .expect("warm start registers the dataset");
        assert_eq!(entry.fingerprint, artifact.fingerprint);
        assert_eq!(entry.generation, 3);
        let spec = DatasetSpec::Named { dataset: Dataset::Ds2, scale: Scale::Smoke };
        let (db, fp) = resolve_dataset(&svc.inner, &spec).unwrap();
        assert!(Arc::ptr_eq(&db, &entry.db), "requests read the warm-started entry");
        assert_eq!(fp, artifact.fingerprint);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finished_ticket_unparks_its_submitter() {
        // Poll the way the TCP frontend does. `wait()` would not show the
        // wakeup: the channel's own park can consume the unpark.
        let svc = MineService::start(ServeConfig::default());
        let started = Instant::now();
        let ticket = svc.submit(MineRequest::new(toy_spec(), Kernel::Lcm, 2));
        let resp = loop {
            if let Some(resp) = ticket.try_wait() {
                break resp;
            }
            std::thread::park_timeout(Duration::from_secs(30));
        };
        assert_eq!(resp.outcome, Outcome::Complete);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(10), "the answer waited {took:?} for a wakeup");
        svc.shutdown();
    }

    /// Spins until the global counter reaches `want` (bounded).
    fn wait_for(svc: &MineService, name: &str, want: u64) {
        for _ in 0..2000 {
            if svc.metrics().get(name) >= want {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("counter {name} never reached {want} (at {})", svc.metrics().get(name));
    }
}
