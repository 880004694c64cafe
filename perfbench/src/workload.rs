//! The three workloads: what each sends, to which deployment, and the
//! answers it must get back. Every request list is a pure function of
//! the seed and the run length.

use fpm::faults::mix;
use fpm::{CollectSink, CountSink, ItemsetCount, Kernel, PatternQuery, RuleSpec};
use quest::{Dataset, Scale};
use serve::loadgen::{query_palette, schedule, LoadConfig};
use serve::{FrontendConfig, ServeConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Cores the deployments are sized for; fixed so that runs on a larger
/// host stay comparable with the recorded ones.
pub const NPROC: usize = 2;

/// The frontend's per-connection in-flight quota; the benchmark's
/// frontend runs with `FrontendConfig::default()`.
pub fn quota() -> usize {
    FrontendConfig::default().max_inflight_per_conn
}

/// Which traffic mix a run offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Zipf reads of results persisted in the store.
    HotRead,
    /// One analyst mining distinct keys, on the parallel runtime.
    ColdMine,
    /// Two sessions asking five query variants per key.
    QuerySessions,
}

impl Workload {
    /// Parses a workload name.
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "hot-read" => Some(Workload::HotRead),
            "cold-mine" => Some(Workload::ColdMine),
            "query-sessions" => Some(Workload::QuerySessions),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ColdMine => "cold-mine",
            Workload::QuerySessions => "query-sessions",
        }
    }

    /// The service this workload runs against. `store_dir` is set for
    /// hot-read only.
    pub fn service(self, store_dir: Option<PathBuf>) -> ServeConfig {
        let base = ServeConfig {
            queue_depth: 256,
            store_dir,
            ..ServeConfig::default()
        };
        match self {
            Workload::HotRead => ServeConfig {
                shards: 2,
                workers: NPROC,
                cache_capacity: 64,
                mine_threads: 1,
                ..base
            },
            Workload::ColdMine => ServeConfig {
                shards: 1,
                workers: 1,
                cache_capacity: 64,
                mine_threads: NPROC,
                ..base
            },
            Workload::QuerySessions => ServeConfig {
                shards: 1,
                workers: NPROC,
                cache_capacity: 4096,
                mine_threads: 1,
                ..base
            },
        }
    }

    /// Client connections: one per closed-loop session, one for the
    /// open loop.
    pub fn connections(self) -> usize {
        match self {
            Workload::QuerySessions => 2,
            Workload::HotRead | Workload::ColdMine => 1,
        }
    }

    /// Threads one mine runs on in this deployment.
    pub fn mine_threads(self) -> usize {
        self.service(None).mine_threads.max(1)
    }

    /// Requests the traced replay walks: enough for stable per-call
    /// means, few enough to keep a traced run under a minute.
    pub fn replayed(self) -> usize {
        match self {
            Workload::HotRead => 600,
            Workload::ColdMine => 40,
            Workload::QuerySessions => 60,
        }
    }

    /// Latency limit on the tail percentile and for goodput.
    pub fn limit(self) -> Duration {
        Duration::from_millis(match self {
            Workload::HotRead => 50,
            Workload::ColdMine => 1000,
            Workload::QuerySessions => 2000,
        })
    }
}

/// Hot-read's nominal open-loop rate, requests per second.
pub const HOT_RATE: f64 = 200.0;
/// Requests hot-read keeps in flight while it measures `max_rate_rps`:
/// half the frontend's quota, deep enough to keep both cores busy, and a
/// closed loop cannot grow a backlog.
pub fn capacity_depth() -> usize {
    quota() / 2
}
/// Requests in hot-read's capacity phase, per second of the run.
pub const CAPACITY_PER_SECOND: usize = 150;

/// The [`PatternQuery`] for a query index: 0–3 the loadgen palette
/// (identity, closed, maximal, top-32), 4 rules at confidence 0.9.
/// Hot-read draws from the palette; query-sessions asks all five.
pub fn query(q: u8) -> PatternQuery {
    query_palette()
        .get(usize::from(q))
        .copied()
        .unwrap_or_else(|| PatternQuery::all().rules(RuleSpec::confidence(0.9)))
}

/// The top-k entry of [`query`]'s indices.
pub const TOP_K: u8 = 3;

/// One request the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Req {
    /// Index into [`Dataset::ALL`].
    pub ds: u8,
    /// [`Kernel::code`].
    pub kernel: u8,
    /// Minimum support.
    pub minsup: u64,
    /// Query index (see [`query`]).
    pub query: u8,
    /// Whether the answer lists its patterns.
    pub patterns: bool,
}

impl Req {
    /// The generated dataset the request names.
    pub fn dataset(&self) -> Dataset {
        Dataset::ALL[self.ds as usize]
    }

    /// The kernel the request names.
    pub fn kernel(&self) -> Kernel {
        Kernel::ALL
            .into_iter()
            .find(|k| k.code() == self.kernel)
            .expect("requests carry a valid kernel code")
    }

    /// The mined key `(dataset, kernel, minsup)`.
    pub fn mine_key(&self) -> (u8, u8, u64) {
        (self.ds, self.kernel, self.minsup)
    }

    /// The request as one line of the wire protocol (no newline).
    pub fn line(&self) -> String {
        let q = match self.query {
            0 => "",
            1 => r#","class":"closed""#,
            2 => r#","class":"maximal""#,
            3 => r#","top_k":32"#,
            _ => r#","rules":{"min_confidence":0.9}"#,
        };
        format!(
            r#"{{"dataset":{{"name":"{}","scale":"smoke"}},"kernel":"{}","min_support":{},"include_patterns":{}{q}}}"#,
            self.dataset().label().to_ascii_lowercase(),
            self.kernel().label(),
            self.minsup,
            self.patterns,
        )
    }
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, microseconds after the phase starts.
    pub due_us: u64,
    /// What is sent.
    pub req: Req,
}

/// SplitMix64 (the workspace's [`mix`] over a Weyl sequence): a seeded
/// stream of uniform 64-bit words.
pub struct Rng(u64);

/// SplitMix64's increment, the golden ratio in 64 bits.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(GOLDEN))
    }

    /// The next word.
    pub fn next(&mut self) -> u64 {
        let word = mix(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        word
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct values from `lo` up, shuffled: eight of every nine
    /// consecutive values, the ninth left out at random. Every draw
    /// covers the same range at the same density, so where a value's
    /// cost depends on where it lies, every seed draws nearly the same
    /// total.
    pub fn sample(&mut self, lo: u64, k: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(k);
        let mut block = lo;
        while out.len() < k {
            let skip = self.below(9) as u64;
            let left = k - out.len();
            out.extend((0..9).filter(|&i| i != skip).map(|i| block + i).take(left));
            block += 9;
        }
        self.shuffle(&mut out);
        out
    }
}

/// Hot-read's 16 `(dataset, minsup)` keys, hottest first: they rotate
/// over DS1–DS4 and step the support up each rotation, so answers run
/// from tens (DS3) to a few thousand patterns (DS2, DS4).
const HOT_MINSUP: [[u64; 4]; 4] = [
    [81, 99, 120, 150],
    [81, 99, 120, 150],
    [850, 1000, 1150, 1350],
    [54, 66, 80, 100],
];

fn hot_req(key: usize, q: u8) -> Req {
    Req {
        ds: (key % 4) as u8,
        kernel: Kernel::Lcm.code(),
        minsup: HOT_MINSUP[key % 4][key / 4],
        query: q,
        patterns: true,
    }
}

/// `n` arrivals of `serve::loadgen::schedule` at `rate`: Poisson
/// arrival times, Zipf(1.0) over the 16 hot keys and a draw from the
/// four-query palette, from a seed derived from `seed` and `salt`.
pub fn hot_arrivals(seed: u64, salt: u64, rate: f64, n: usize) -> Vec<Arrival> {
    let cfg = LoadConfig {
        seed: Rng::new(seed, salt).next(),
        rps: rate,
        // Twice the expected span, so the schedule holds `n` arrivals.
        duration: Duration::from_secs_f64(2.0 * n as f64 / rate + 1.0),
        keys: 16,
        skew: 1.0,
        kernel: Kernel::Lcm,
        deadline: None,
        query_mix: query_palette().len(),
    };
    schedule(&cfg)
        .into_iter()
        .take(n)
        .map(|a| Arrival {
            due_us: a.at_us,
            req: hot_req(a.key, a.query as u8),
        })
        .collect()
}

/// Hot-read's nominal window: `HOT_RATE × seconds` arrivals.
pub fn hot_nominal(seed: u64, seconds: u64) -> Vec<Arrival> {
    hot_arrivals(seed, 1, HOT_RATE, (HOT_RATE * seconds as f64) as usize)
}

/// Hot-read's capacity phase: the same key and query mix, sent at a
/// fixed in-flight depth instead of on a schedule.
pub fn hot_capacity(seed: u64, seconds: u64) -> Vec<Req> {
    let n = CAPACITY_PER_SECOND * seconds as usize;
    hot_arrivals(seed, 100, HOT_RATE, n)
        .iter()
        .map(|a| a.req)
        .collect()
}

/// Every request hot-read can send in a run.
pub fn hot_all(seed: u64, seconds: u64) -> Vec<Req> {
    let mut out: Vec<Req> = hot_nominal(seed, seconds).iter().map(|a| a.req).collect();
    out.extend(hot_capacity(seed, seconds));
    out
}

/// Cold-mine's minsup bands: `(dataset index, kernel, lowest minsup,
/// requests per second of the run)`: 18 per second, about what the
/// closed loop completes on two cores. Eclat's vertical mines on DS1/DS2
/// cost tens of LCM mines, so it gets fewer draws at higher supports,
/// keeping each kernel's share of the wall time below a half.
const COLD_BANDS: [(u8, Kernel, u64, usize); 9] = [
    (0, Kernel::Lcm, 81, 3),
    (1, Kernel::Lcm, 81, 3),
    (3, Kernel::Lcm, 54, 3),
    (0, Kernel::FpGrowth, 81, 2),
    (1, Kernel::FpGrowth, 81, 2),
    (3, Kernel::FpGrowth, 54, 2),
    (0, Kernel::Eclat, 210, 1),
    (1, Kernel::Eclat, 240, 1),
    (3, Kernel::Eclat, 80, 1),
];

/// Cold-mine's request list: every key a distinct `(dataset, kernel,
/// minsup)`, identity query, counts only. Each band draws its minsups
/// with [`Rng::sample`], then the whole list is shuffled: every seed
/// offers nearly the same work, over different keys in a different
/// order.
pub fn cold_requests(seed: u64, seconds: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed, 2);
    let units = seconds as usize;
    let mut out = Vec::new();
    for (ds, kernel, lo, per_unit) in COLD_BANDS {
        let k = per_unit * units;
        for minsup in rng.sample(lo, k) {
            out.push(Req {
                ds,
                kernel: kernel.code(),
                minsup,
                query: 0,
                patterns: false,
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Query-sessions' low-support bands per dataset: `(dataset index,
/// lowest minsup)`, drawn with [`Rng::sample`], since costs climb
/// steeply toward a band's low end.
const SESSION_BANDS: [(u8, u64); 3] = [(0, 64), (1, 70), (3, 36)];

/// Query-sessions' two request lists. Keys are distinct across both
/// sessions, rotate over DS1/DS2/DS4 on LCM, and each key is asked as
/// all (count only), closed, maximal, top-32 and rules, in that order.
pub fn session_requests(seed: u64, seconds: u64) -> [Vec<Req>; 2] {
    let mut rng = Rng::new(seed, 3);
    let per_session = (seconds as usize * 14).div_ceil(5);
    let per_band = (2 * per_session).div_ceil(SESSION_BANDS.len());
    let mut keys: Vec<Vec<(u8, u64)>> = SESSION_BANDS
        .iter()
        .map(|&(ds, lo)| {
            rng.sample(lo, per_band)
                .into_iter()
                .map(|m| (ds, m))
                .collect()
        })
        .collect();
    let mut sessions: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    for j in 0..2 * per_session {
        let Some((ds, minsup)) = keys[j % SESSION_BANDS.len()].pop() else {
            continue;
        };
        for q in 0..5u8 {
            sessions[j % 2].push(Req {
                ds,
                kernel: Kernel::Lcm.code(),
                minsup,
                query: q,
                patterns: q > 0,
            });
        }
    }
    sessions
}

/// What a correct answer looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Pattern count.
    pub count: u64,
    /// Digest of the pattern list, for answers that list patterns.
    pub digest: Option<u64>,
}

/// References keyed by [`Req`].
pub type Refs = BTreeMap<Req, Expect>;

/// Builds the reference for every distinct request in `reqs` with the
/// serial plan plus [`PatternQuery::apply`], on `workers` threads. A
/// count-only identity answer is kernel-independent, so it is checked
/// against the LCM count.
pub fn references(reqs: &[Req], workers: usize) -> Refs {
    let mut groups: BTreeMap<(u8, u8, u64), Vec<Req>> = BTreeMap::new();
    for r in reqs {
        let kernel = if r.patterns {
            r.kernel
        } else {
            Kernel::Lcm.code()
        };
        let group = groups.entry((r.ds, kernel, r.minsup)).or_default();
        if !group.contains(r) {
            group.push(*r);
        }
    }
    let groups: Vec<((u8, u8, u64), Vec<Req>)> = groups.into_iter().collect();
    let dbs: Vec<fpm::TransactionDb> = Dataset::ALL
        .iter()
        .map(|d| d.generate(Scale::Smoke))
        .collect();
    let workers = workers.max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let (dbs, groups) = (&dbs, &groups);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for ((ds, kernel, minsup), reqs) in groups.iter().skip(t).step_by(workers) {
                        let db = &dbs[*ds as usize];
                        let kernel = Req {
                            kernel: *kernel,
                            ..reqs[0]
                        }
                        .kernel();
                        expect_group(db, kernel, *minsup, reqs, &mut out);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}

fn expect_group(
    db: &fpm::TransactionDb,
    kernel: Kernel,
    minsup: u64,
    reqs: &[Req],
    out: &mut Vec<(Req, Expect)>,
) {
    let plan = exec::MinePlan::kernel(kernel, minsup).threads(1);
    if reqs.iter().all(|r| !r.patterns && r.query == 0) {
        let mut sink = CountSink::default();
        plan.execute(db, &mut sink);
        out.extend(reqs.iter().map(|r| {
            (
                *r,
                Expect {
                    count: sink.count,
                    digest: None,
                },
            )
        }));
        return;
    }
    let mut sink = CollectSink::default();
    plan.execute(db, &mut sink);
    for r in reqs {
        let answer: Vec<ItemsetCount> =
            query(r.query).apply(sink.patterns.clone(), db.len() as u64);
        let digest = r.patterns.then(|| crate::scan::digest(&answer));
        out.push((
            *r,
            Expect {
                count: answer.len() as u64,
                digest,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        assert_eq!(hot_nominal(5, 10), hot_nominal(5, 10));
        assert_ne!(hot_nominal(5, 10), hot_nominal(6, 10));
        assert_eq!(hot_capacity(5, 10), hot_capacity(5, 10));
        assert_ne!(hot_capacity(5, 10), hot_capacity(6, 10));
        assert_eq!(cold_requests(5, 10), cold_requests(5, 10));
        assert_ne!(cold_requests(5, 10), cold_requests(6, 10));
        assert_eq!(session_requests(5, 10), session_requests(5, 10));
        assert_ne!(session_requests(5, 10), session_requests(6, 10));
    }

    #[test]
    fn samples_take_eight_of_every_nine_supports() {
        let drawn = Rng::new(7, 0).sample(100, 40);
        let set: BTreeSet<u64> = drawn.iter().copied().collect();
        assert_eq!(set.len(), 40);
        for b in 0..5 {
            let block = 100 + 9 * b..100 + 9 * b + 9;
            assert_eq!(set.iter().filter(|&&v| block.contains(&v)).count(), 8);
        }
        assert_ne!(drawn, Rng::new(8, 0).sample(100, 40));
    }

    #[test]
    fn hot_read_is_open_loop_zipf_over_sixteen_keys() {
        let a = hot_nominal(1, 10);
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        let span_s = a.last().unwrap().due_us as f64 / 1e6;
        assert!((8.0..12.0).contains(&span_s), "{span_s}");
        let keys: BTreeSet<(u8, u64)> = a.iter().map(|x| (x.req.ds, x.req.minsup)).collect();
        assert_eq!(keys.len(), 16);
        let hottest = a
            .iter()
            .filter(|x| x.req == hot_req(0, x.req.query))
            .count();
        assert!(
            hottest * 6 > a.len(),
            "key 0 draws about 30% under Zipf(1.0)"
        );
        assert!(a.iter().all(|x| x.req.query < 4 && x.req.patterns));
    }

    #[test]
    fn cold_mine_keys_are_distinct_and_mixed_the_same_way_for_every_seed() {
        for seed in [1, 2, 3] {
            let reqs = cold_requests(seed, 10);
            assert_eq!(reqs.len(), 10 * 18);
            let keys: BTreeSet<_> = reqs.iter().map(Req::mine_key).collect();
            assert_eq!(keys.len(), reqs.len(), "every request mines a fresh key");
            for kernel in Kernel::ALL {
                let n = reqs.iter().filter(|r| r.kernel == kernel.code()).count();
                let want = match kernel {
                    Kernel::Lcm => 90,
                    Kernel::FpGrowth => 60,
                    Kernel::Eclat => 30,
                };
                assert_eq!(n, want, "{}", kernel.label());
            }
            assert!(reqs.iter().all(|r| r.query == 0 && !r.patterns));
        }
    }

    #[test]
    fn sessions_walk_distinct_keys_through_five_queries() {
        let [a, b] = session_requests(9, 10);
        assert_eq!(a.len(), 28 * 5);
        assert_eq!(b.len(), 28 * 5);
        let ka: BTreeSet<_> = a.iter().map(Req::mine_key).collect();
        let kb: BTreeSet<_> = b.iter().map(Req::mine_key).collect();
        assert_eq!(ka.len() + kb.len(), 56);
        assert!(ka.is_disjoint(&kb));
        for chunk in a.chunks(5) {
            let qs: Vec<u8> = chunk.iter().map(|r| r.query).collect();
            assert_eq!(qs, vec![0, 1, 2, 3, 4]);
            assert!(chunk.iter().all(|r| r.mine_key() == chunk[0].mine_key()));
            assert!(!chunk[0].patterns && chunk[1..].iter().all(|r| r.patterns));
        }
    }

    #[test]
    fn request_lines_parse_back_to_the_request() {
        for q in 0..5u8 {
            let r = Req {
                ds: 3,
                kernel: Kernel::FpGrowth.code(),
                minsup: 66,
                query: q,
                patterns: q > 0,
            };
            let parsed = serve::parse_request(&r.line()).expect("parses");
            assert_eq!(parsed.kernel, Kernel::FpGrowth);
            assert_eq!(parsed.min_support, 66);
            assert_eq!(parsed.query, query(q));
            assert_eq!(parsed.include_patterns, q > 0);
            assert_eq!(
                parsed.dataset,
                serve::DatasetSpec::Named {
                    dataset: Dataset::Ds4,
                    scale: Scale::Smoke
                }
            );
        }
    }
}
