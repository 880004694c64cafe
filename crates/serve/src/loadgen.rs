//! Deterministic load generator for the mining service.
//!
//! The generator separates **what** is offered from **when** it lands:
//!
//! * the *schedule* — arrival times and request keys — is a pure
//!   function of `(seed, rps, duration, keys, skew)`, derived from the
//!   workspace's SplitMix64 finalizer ([`fpm::faults::mix`]): Poisson
//!   arrivals (exponential inter-arrival gaps at the target rate) over
//!   a Zipf-skewed key population, the classic shape of a read-heavy
//!   query front. Same seed, same config ⇒ bit-identical schedule, on
//!   every host ([`schedule`], [`schedule_digest`]).
//! * the *run* replays that schedule open-loop against a
//!   [`MineService`] — requests are submitted at their scheduled
//!   offsets whether or not earlier ones have finished, so the service
//!   feels real pressure — and folds the responses into a
//!   [`LoadReport`]: outcome counts, cache/coalescing behaviour, and
//!   the p50/p95/p99 service-latency percentiles.
//!
//! Offered keys map onto the four QUEST datasets at smoke scale with
//! stepped support thresholds, so a multi-shard service sees traffic on
//! every shard and a skewed key distribution produces honest cache-hit
//! and single-flight behaviour.
//!
//! The counts in the report are deterministic for a schedule the
//! service can absorb (no deadlines, queue deep enough); the latency
//! percentiles are honest wall-clock measurements and are **not**
//! expected to reproduce across runs. `BENCH_serve.json` commits one
//! such report; the conformance suite pins the deterministic half.

use crate::json::Json;
use crate::request::{DatasetSpec, Kernel, MineRequest, Outcome};
use crate::service::{MineService, Ticket};
use fpm::faults::mix;
use fpm::types::MineKind;
use fpm::PatternQuery;
use quest::{Dataset, Scale};
use std::time::{Duration, Instant};

/// Shape of the offered load. The schedule is a pure function of this
/// struct, so two runs with equal configs offer identical traffic.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Seed for arrivals and key draws.
    pub seed: u64,
    /// Target offered rate, requests per second.
    pub rps: f64,
    /// Schedule length (arrivals stop here; responses may land later).
    pub duration: Duration,
    /// Distinct request keys (each a `(dataset, min_support)` pair).
    pub keys: usize,
    /// Zipf exponent for key popularity: `0.0` is uniform, `~1.0` a
    /// typical hot-key skew.
    pub skew: f64,
    /// Kernel every request asks for.
    pub kernel: Kernel,
    /// Per-request deadline, if any.
    pub deadline: Option<Duration>,
    /// How many entries of [`query_palette`] the schedule draws from
    /// (clamped to `1..=4`). `1` — the default — offers only the
    /// identity query, the pre-query traffic shape; `4` mixes closed,
    /// maximal and top-k requests in, each key × query pair its own
    /// cache entry, all derived from the key's one mined All set.
    pub query_mix: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 0x5eed_f00d,
            rps: 200.0,
            duration: Duration::from_millis(500),
            keys: 16,
            skew: 1.0,
            kernel: Kernel::Lcm,
            deadline: None,
            query_mix: 1,
        }
    }
}

/// The pattern queries `--query-mix` rotates over: identity first (so a
/// mix of 1 is exactly the pre-query traffic), then the closed and
/// maximal postfilters and a top-k selection.
pub fn query_palette() -> [PatternQuery; 4] {
    [
        PatternQuery::all(),
        PatternQuery::class(MineKind::Closed),
        PatternQuery::class(MineKind::Maximal),
        PatternQuery::all().top_k(32),
    ]
}

/// One scheduled arrival: a key lands at `at_us` microseconds after the
/// run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the run, in microseconds.
    pub at_us: u64,
    /// Request-key index in `0..cfg.keys`.
    pub key: usize,
    /// [`query_palette`] index in `0..cfg.query_mix` (always `0` when
    /// the mix is 1 — the identity query).
    pub query: usize,
}

/// A uniform draw in `[0, 1)` from one mixed 64-bit word.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The request a key index stands for: keys rotate over the four QUEST
/// datasets (so shard routing spreads them) and step the support
/// threshold upward every full rotation (so each key is a distinct
/// cache entry with its own result size). The base threshold is twice
/// each dataset's Table 6 smoke support — a cold mine costs tens of
/// milliseconds, not seconds, keeping the generator about the *service*
/// (queueing, caching, coalescing), not kernel throughput.
pub fn key_request(cfg: &LoadConfig, key: usize, query: usize) -> MineRequest {
    let dataset = Dataset::ALL[key % Dataset::ALL.len()];
    let step = (key / Dataset::ALL.len()) as u64;
    let spec = DatasetSpec::Named {
        dataset,
        scale: Scale::Smoke,
    };
    let palette = query_palette();
    let mut req = MineRequest::new(spec, cfg.kernel, dataset.support(Scale::Smoke) * 2 + step * 7)
        .with_query(palette[query % palette.len()]);
    req.include_patterns = false;
    req.deadline = cfg.deadline;
    req
}

/// Derives the arrival schedule: exponential inter-arrival gaps at
/// `cfg.rps` with Zipf(`cfg.skew`) key draws, both from the seed alone.
pub fn schedule(cfg: &LoadConfig) -> Vec<Arrival> {
    let keys = cfg.keys.max(1);
    // Cumulative Zipf weights, normalised on the fly during the draw.
    let weights: Vec<f64> = (0..keys)
        .scan(0.0f64, |acc, i| {
            *acc += 1.0 / ((i + 1) as f64).powf(cfg.skew);
            Some(*acc)
        })
        .collect();
    let total = *weights.last().expect("at least one key");

    let n_queries = cfg.query_mix.clamp(1, query_palette().len()) as u64;
    let mut arrivals = Vec::new();
    let horizon_us = cfg.duration.as_micros() as u64;
    let rps = cfg.rps.max(1e-6);
    let mut t_us = 0.0f64;
    for i in 0u64.. {
        let gap_draw = unit(mix(cfg.seed ^ mix(2 * i + 1)));
        // Inverse-CDF exponential; clamp the draw away from 1.0 so the
        // log never sees zero.
        let gap_s = -(1.0 - gap_draw.min(1.0 - 1e-12)).ln() / rps;
        t_us += gap_s * 1e6;
        if t_us as u64 >= horizon_us {
            break;
        }
        let v = unit(mix(cfg.seed ^ mix(2 * i + 2))) * total;
        let key = weights.partition_point(|&w| w <= v).min(keys - 1);
        // The query draw is its own salted stream, so raising the mix
        // never perturbs arrival times or key draws — the identity-mix
        // prefix of the traffic is unchanged, only the query annotation
        // widens.
        let query = (mix(cfg.seed ^ 0x9e37_79b9_7f4a_7c15 ^ mix(i + 1)) % n_queries) as usize;
        arrivals.push(Arrival {
            at_us: t_us as u64,
            key,
            query,
        });
    }
    arrivals
}

/// FNV-1a digest of a schedule — the conformance suite's witness that
/// two runs offered bit-identical traffic.
pub fn schedule_digest(arrivals: &[Arrival]) -> u64 {
    let mut h = fpm::FNV_OFFSET;
    let mut eat = |x: u64| h = fpm::fnv1a(h, &x.to_le_bytes());
    for a in arrivals {
        eat(a.at_us);
        eat(a.key as u64);
        eat(a.query as u64);
    }
    h
}

/// What one load run did. The *count* fields are deterministic for a
/// schedule the service absorbs without deadline or queue pressure; the
/// latency fields are wall-clock observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadReport {
    /// FNV digest of the offered schedule (pure function of the config).
    pub schedule_digest: u64,
    /// Requests offered (and submitted — the generator never drops).
    pub requests: u64,
    /// Responses with [`Outcome::Complete`].
    pub completed: u64,
    /// Responses with [`Outcome::Rejected`] (queue, quota, admission).
    pub rejected: u64,
    /// Responses with [`Outcome::Cancelled`].
    pub cancelled: u64,
    /// Responses with [`Outcome::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Responses with [`Outcome::Failed`].
    pub failed: u64,
    /// Responses served from a shard's result cache.
    pub cache_hits: u64,
    /// Responses served by single-flight fan-out.
    pub coalesced: u64,
    /// Actual kernel executions the run cost the service. With caching
    /// and single-flight absorbing a gentle schedule this equals the
    /// number of *distinct* keys offered, whatever the query mix: every
    /// query of a key derives from the key's one All-set mine.
    pub mined_runs: u64,
    /// Median submit-to-response latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// Responses per wall-clock second over the whole run.
    pub throughput_rps: f64,
    /// `cache_hits / requests`.
    pub hit_rate: f64,
    /// `rejected / requests` — the admission tiers' shed fraction.
    pub shed_rate: f64,
    /// Wall-clock from first submission to last response, milliseconds.
    pub wall_ms: u64,
}

impl LoadReport {
    /// The deterministic half of the report: everything a re-run with
    /// the same seed and config must reproduce exactly (all counts; no
    /// timing). Latency percentiles and throughput are excluded on
    /// purpose, and so is the *split* between cache hits and coalesced
    /// fan-outs — whether a repeat lands during or after the first
    /// run's flight is a race — but their **sum** (requests answered
    /// without mining) is pinned, as is the mined-run count itself.
    pub fn deterministic_summary(&self) -> (u64, [u64; 8]) {
        (
            self.schedule_digest,
            [
                self.requests,
                self.completed,
                self.rejected,
                self.cancelled,
                self.deadline_exceeded,
                self.failed,
                self.cache_hits + self.coalesced,
                self.mined_runs,
            ],
        )
    }

    /// Renders the report (with its config) as the committed
    /// `BENCH_serve.json` shape.
    pub fn render(&self, cfg: &LoadConfig, service_cfg_note: &str) -> String {
        let num = |x: u64| Json::Num(x as f64);
        let json = Json::Obj(vec![
            (
                "config".into(),
                Json::Obj(vec![
                    ("seed".into(), num(cfg.seed)),
                    ("rps".into(), Json::Num(cfg.rps)),
                    ("duration_ms".into(), num(cfg.duration.as_millis() as u64)),
                    ("keys".into(), num(cfg.keys as u64)),
                    ("skew".into(), Json::Num(cfg.skew)),
                    ("kernel".into(), Json::Str(cfg.kernel.label().into())),
                    ("query_mix".into(), num(cfg.query_mix as u64)),
                    (
                        "deadline_ms".into(),
                        cfg.deadline
                            .map(|d| num(d.as_millis() as u64))
                            .unwrap_or(Json::Null),
                    ),
                    ("service".into(), Json::Str(service_cfg_note.into())),
                ]),
            ),
            ("schedule_digest".into(), Json::Str(format!("{:016x}", self.schedule_digest))),
            (
                "outcomes".into(),
                Json::Obj(vec![
                    ("requests".into(), num(self.requests)),
                    ("completed".into(), num(self.completed)),
                    ("rejected".into(), num(self.rejected)),
                    ("cancelled".into(), num(self.cancelled)),
                    ("deadline_exceeded".into(), num(self.deadline_exceeded)),
                    ("failed".into(), num(self.failed)),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), num(self.cache_hits)),
                    ("coalesced".into(), num(self.coalesced)),
                    ("mined_runs".into(), num(self.mined_runs)),
                    ("hit_rate".into(), Json::Num(self.hit_rate)),
                ]),
            ),
            (
                "latency_us".into(),
                Json::Obj(vec![
                    ("p50".into(), num(self.p50_us)),
                    ("p95".into(), num(self.p95_us)),
                    ("p99".into(), num(self.p99_us)),
                    ("max".into(), num(self.max_us)),
                ]),
            ),
            ("throughput_rps".into(), Json::Num(self.throughput_rps)),
            ("shed_rate".into(), Json::Num(self.shed_rate)),
            ("wall_ms".into(), num(self.wall_ms)),
        ]);
        json.render()
    }
}

/// Latency percentile by nearest-rank over a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays the schedule open-loop against `service` and folds the
/// responses into a [`LoadReport`]. Blocks until every response lands.
pub fn run(service: &MineService, cfg: &LoadConfig) -> LoadReport {
    let arrivals = schedule(cfg);
    let mut report = LoadReport {
        schedule_digest: schedule_digest(&arrivals),
        requests: arrivals.len() as u64,
        ..LoadReport::default()
    };
    let mined_before = service.metrics().get("mined_runs");
    let start = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(arrivals.len());
    for a in &arrivals {
        let due = Duration::from_micros(a.at_us);
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        tickets.push(service.submit(key_request(cfg, a.key, a.query)));
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        let resp = ticket.wait();
        match resp.outcome {
            Outcome::Complete => report.completed += 1,
            Outcome::Rejected => report.rejected += 1,
            Outcome::Cancelled => report.cancelled += 1,
            Outcome::DeadlineExceeded => report.deadline_exceeded += 1,
            Outcome::Failed => report.failed += 1,
        }
        if resp.stats.cache_hit {
            report.cache_hits += 1;
        }
        if resp.stats.coalesced {
            report.coalesced += 1;
        }
        latencies.push(resp.stats.service_us);
    }
    let wall = start.elapsed();
    report.mined_runs = service.metrics().get("mined_runs") - mined_before;
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 50.0);
    report.p95_us = percentile(&latencies, 95.0);
    report.p99_us = percentile(&latencies, 99.0);
    report.max_us = latencies.last().copied().unwrap_or(0);
    report.wall_ms = wall.as_millis() as u64;
    let secs = wall.as_secs_f64().max(1e-9);
    report.throughput_rps = report.requests as f64 / secs;
    if report.requests > 0 {
        report.hit_rate = report.cache_hits as f64 / report.requests as f64;
        report.shed_rate = report.rejected as f64 / report.requests as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    fn quick() -> LoadConfig {
        LoadConfig {
            rps: 400.0,
            duration: Duration::from_millis(100),
            keys: 8,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_config() {
        let cfg = quick();
        let a = schedule(&cfg);
        let b = schedule(&cfg);
        assert!(!a.is_empty(), "100ms at 400rps offers ~40 arrivals");
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        let other = schedule(&LoadConfig {
            seed: cfg.seed + 1,
            ..cfg
        });
        assert_ne!(
            schedule_digest(&a),
            schedule_digest(&other),
            "a different seed must offer different traffic"
        );
    }

    #[test]
    fn schedule_digest_is_pinned() {
        // The CI determinism smoke compares digests across runs; a
        // change of the hash would also change every recorded digest.
        assert_eq!(schedule_digest(&schedule(&quick())), 0xb2e5_5fb2_4f8f_6d96);
    }

    #[test]
    fn arrivals_are_ordered_and_inside_the_horizon() {
        let cfg = quick();
        let arrivals = schedule(&cfg);
        let horizon = cfg.duration.as_micros() as u64;
        let mut last = 0;
        for a in &arrivals {
            assert!(a.at_us >= last, "arrival times are monotone");
            assert!(a.at_us < horizon);
            assert!(a.key < cfg.keys);
            last = a.at_us;
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_low_keys() {
        let cfg = LoadConfig {
            skew: 1.2,
            rps: 2000.0,
            duration: Duration::from_millis(500),
            keys: 16,
            ..LoadConfig::default()
        };
        let arrivals = schedule(&cfg);
        let on_key0 = arrivals.iter().filter(|a| a.key == 0).count();
        assert!(
            on_key0 * 4 > arrivals.len(),
            "with skew 1.2 the hottest key draws well over a quarter of \
             the traffic (got {on_key0} of {})",
            arrivals.len()
        );
        let uniform = schedule(&LoadConfig { skew: 0.0, ..cfg });
        let uniform_key0 = uniform.iter().filter(|a| a.key == 0).count();
        assert!(
            uniform_key0 * 4 < uniform.len(),
            "skew 0 is uniform-ish (got {uniform_key0} of {})",
            uniform.len()
        );
    }

    #[test]
    fn query_mix_widens_the_schedule_deterministically() {
        let base = quick();
        let mixed = LoadConfig {
            query_mix: 4,
            ..base
        };
        let a = schedule(&mixed);
        let b = schedule(&mixed);
        assert_eq!(a, b, "same seed + mix, same annotated schedule");
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        assert_ne!(
            schedule_digest(&a),
            schedule_digest(&schedule(&base)),
            "the query annotation is part of the offered-traffic witness"
        );
        // Raising the mix only widens the query annotation: arrival
        // times and key draws are untouched.
        let plain = schedule(&base);
        assert_eq!(a.len(), plain.len());
        for (m, p) in a.iter().zip(&plain) {
            assert_eq!((m.at_us, m.key), (p.at_us, p.key));
            assert!(m.query < 4);
            assert_eq!(p.query, 0, "mix 1 is identity-only");
        }
        let used: std::collections::BTreeSet<usize> = a.iter().map(|x| x.query).collect();
        assert!(used.len() > 1, "a mix of 4 must actually draw several queries");
    }

    #[test]
    fn mixed_query_run_mines_once_per_distinct_key() {
        let svc = MineService::start(ServeConfig {
            shards: 2,
            workers: 2,
            queue_depth: 4096,
            ..ServeConfig::default()
        });
        let cfg = LoadConfig {
            query_mix: 4,
            ..quick()
        };
        let report = run(&svc, &cfg);
        svc.shutdown();
        assert_eq!(report.requests, schedule(&cfg).len() as u64);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.failed, 0);
        let distinct: std::collections::BTreeSet<usize> =
            schedule(&cfg).iter().map(|a| a.key).collect();
        assert_eq!(
            report.mined_runs,
            distinct.len() as u64,
            "every query of a key derives from the key's one All-set mine"
        );
        assert_eq!(
            report.requests,
            report.mined_runs + report.cache_hits + report.coalesced,
            "every request either mined its key's All set once or reused it"
        );
    }

    #[test]
    fn run_accounts_for_every_offered_request() {
        let svc = MineService::start(ServeConfig {
            shards: 2,
            workers: 2,
            queue_depth: 4096,
            ..ServeConfig::default()
        });
        let cfg = quick();
        let report = run(&svc, &cfg);
        svc.shutdown();
        assert_eq!(report.requests, schedule(&cfg).len() as u64);
        assert_eq!(
            report.requests,
            report.completed
                + report.rejected
                + report.cancelled
                + report.deadline_exceeded
                + report.failed,
            "every response has exactly one outcome"
        );
        assert_eq!(report.rejected, 0, "the deep queue absorbs the schedule");
        assert_eq!(report.failed, 0);
        assert!(
            report.cache_hits + report.coalesced > 0,
            "a Zipf-skewed schedule must reuse results"
        );
        let distinct: std::collections::BTreeSet<usize> =
            schedule(&cfg).iter().map(|a| a.key).collect();
        assert_eq!(
            report.mined_runs,
            distinct.len() as u64,
            "cache + single-flight bound mining to one run per distinct key"
        );
        assert_eq!(
            report.requests,
            report.mined_runs + report.cache_hits + report.coalesced,
            "every completed request either mined once or reused a result"
        );
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
        assert!(report.p99_us <= report.max_us);
    }

    #[test]
    fn report_renders_committed_json_shape() {
        let report = LoadReport {
            schedule_digest: 0xdead_beef,
            requests: 10,
            completed: 10,
            p50_us: 100,
            p95_us: 200,
            p99_us: 300,
            max_us: 400,
            throughput_rps: 123.4,
            hit_rate: 0.5,
            ..LoadReport::default()
        };
        let text = report.render(&LoadConfig::default(), "shards=2 workers=2");
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("outcomes").unwrap().get("requests").unwrap().as_u64(), Some(10));
        assert_eq!(v.get("latency_us").unwrap().get("p99").unwrap().as_u64(), Some(300));
        assert_eq!(
            v.get("schedule_digest").unwrap().as_str(),
            Some("00000000deadbeef")
        );
        assert_eq!(v.get("config").unwrap().get("kernel").unwrap().as_str(), Some("lcm"));
    }
}
