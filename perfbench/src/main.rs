//! # perfbench — the served stack's benchmark
//!
//! ```text
//! perfbench --workload <hot-read|cold-mine|query-sessions> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Starts an in-process `MineService` behind `serve_poll` on a loopback
//! port, drives one seeded workload over real sockets, checks every
//! answer against a reference built with the serial `MinePlan` plus
//! `PatternQuery::apply`, and prints one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! same wire run supplies the service's counters and a traced replay of
//! the workload's requests through each layer's public calls supplies
//! the per-layer ones (see `BENCHMARK.json` and `perfbench/METRICS.md`).
//! The exit code is 0 only when every answer was correct and complete.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod replay;
mod scan;
mod stats;
mod trace;
mod wire;
mod workload;

use stats::{median, percentile, segmented_tail, tail};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use wire::{Shot, Stack};
use workload::{Expect, Refs, Req, Workload, NPROC};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("max_rate_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in output order. A metric
/// whose layer a workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("frontend.parse_ms", "ms"),
    ("frontend.encode_ms", "ms"),
    ("frontend.response_kb", "KB"),
    ("frontend.overhead_ms", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_tail", "ms"),
    ("service.time_ms_p50", "ms"),
    ("service.admission_ms", "ms"),
    ("service.rejected", "count"),
    ("cache.fingerprint_ms", "ms"),
    ("cache.probe_ms", "ms"),
    ("cache.insert_ms", "ms"),
    ("cache.hit_ratio", "fraction"),
    ("cache.evictions", "count"),
    ("store.load_ms", "ms"),
    ("store.artifact_mb", "MB"),
    ("store.warm_entries", "count"),
    ("quest.generate_ms", "ms"),
    ("exec.mine_ms", "ms"),
    ("exec.remap_ms", "ms"),
    ("exec.mined_runs", "count"),
    ("exec.mines_per_key", "count"),
    ("exec.collected_patterns", "count"),
    ("par.speedup", "x"),
    ("par.serial_ms", "ms"),
    ("par.parallel_ms", "ms"),
    ("lcm.mine_ms", "ms"),
    ("fpgrowth.mine_ms", "ms"),
    ("eclat.mine_ms", "ms"),
    ("lcm.nodes", "count"),
    ("lcm.occ_entries", "count"),
    ("fpgrowth.nodes_built", "count"),
    ("fpgrowth.chain_nodes", "count"),
    ("eclat.set_ops", "count"),
    ("eclat.elements_in", "count"),
    ("query.apply_ms.closed", "ms"),
    ("query.apply_ms.maximal", "ms"),
    ("query.apply_ms.topk", "ms"),
    ("query.apply_ms.rules", "ms"),
    ("query.answer_ratio", "fraction"),
    ("generator.late_ms_max", "ms"),
    ("generator.requests", "count"),
    ("latency.tail_percentile", "pct"),
    ("failed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("trace.spans", "count"),
    ("trace.replayed_requests", "count"),
];

const USAGE: &str = "usage: perfbench --workload <hot-read|cold-mine|query-sessions> \
                     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

enum Cmd {
    Run(Args),
    /// Fills hot-read's store and writes its references (run in a child
    /// process, so its memory stays out of the measured peak).
    PrepareStore {
        seed: u64,
        seconds: u64,
        dir: PathBuf,
        refs: PathBuf,
    },
}

fn parse_args() -> Result<Cmd, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let prepare = raw.first().is_some_and(|a| a == "prepare-store");
    if prepare {
        raw.remove(0);
    }
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    let num = |k: &str| -> Result<u64, String> {
        kv.get(k)
            .ok_or(format!("missing --{k}"))?
            .parse()
            .map_err(|_| format!("--{k} must be a non-negative integer"))
    };
    let seed = num("seed")?;
    let seconds = num("seconds")?.max(1);
    if prepare {
        let path = |k: &str| kv.get(k).map(PathBuf::from).ok_or(format!("missing --{k}"));
        return Ok(Cmd::PrepareStore {
            seed,
            seconds,
            dir: path("dir")?,
            refs: path("refs")?,
        });
    }
    let name = kv.get("workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let work_dir = kv
        .get("work-dir")
        .map_or(PathBuf::from(".bench_work"), PathBuf::from);
    Ok(Cmd::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cmd::PrepareStore {
            seed,
            seconds,
            dir,
            refs,
        }) => match prepare_store(seed, seconds, &dir, &refs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench prepare-store: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Cmd::Run(a)) => match run(&a) {
            Ok(report) => {
                println!("{}", report.json());
                if report.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// The result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Counters read from the service's global `MetricSet`; absent names
/// read 0.
fn counters(svc: &serve::MineService) -> BTreeMap<&'static str, u64> {
    svc.metrics().snapshot().into_iter().collect()
}

fn delta(after: &BTreeMap<&str, u64>, before: &BTreeMap<&str, u64>, name: &str) -> u64 {
    after
        .get(name)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(name).copied().unwrap_or(0))
}

/// Resets the process's peak resident set (VmHWM) to its current size.
fn reset_peak_rss() {
    if fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("perfbench: cannot reset VmHWM; peak_rss_mb includes preparation");
    }
}

/// Peak resident set since the last reset, MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Boots the stack [`SETUPS`] times, keeping the last, and returns it
/// with the median setup time.
fn boot(cfg: &serve::ServeConfig, conns: usize, warm: &[String]) -> io::Result<(Stack, f64)> {
    let mut times = Vec::new();
    loop {
        let (stack, took) = Stack::boot(cfg.clone(), conns, warm)?;
        times.push(took.as_secs_f64());
        if times.len() == SETUPS {
            return Ok((stack, median(&times)));
        }
        stack.stop()?;
    }
}

/// Warm-up lines that make the service generate each dataset the
/// workload mines, at a support no measured request uses.
fn warm_lines(datasets: &[u8]) -> Vec<String> {
    datasets
        .iter()
        .map(|&ds| {
            Req {
                ds,
                kernel: fpm::Kernel::Lcm.code(),
                minsup: 1 << 40,
                query: 0,
                patterns: false,
            }
            .line()
        })
        .collect()
}

fn with_newlines(reqs: &[Req]) -> Vec<Vec<u8>> {
    reqs.iter()
        .map(|r| format!("{}\n", r.line()).into_bytes())
        .collect()
}

/// The scored answers of one phase.
#[derive(Default)]
struct Eval {
    attempted: usize,
    failed: usize,
    wrong: usize,
    unanswered: usize,
    good_in_limit: usize,
    complete: usize,
    lat: Vec<f64>,
    /// [`segmented_tail`] of `lat` in request order.
    lat_tail: (u32, f64),
    service_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    bytes: usize,
}

impl Eval {
    fn new(reqs: &[Req], shots: &[Option<Shot>], refs: &Refs, limit: Duration) -> Eval {
        let limit_ms = limit.as_secs_f64() * 1e3;
        let mut e = Eval {
            attempted: reqs.len(),
            ..Eval::default()
        };
        for (r, shot) in reqs.iter().zip(shots) {
            let Some(s) = shot else {
                e.unanswered += 1;
                e.failed += 1;
                continue;
            };
            e.bytes += s.bytes;
            let Ok(sc) = &s.scanned else {
                e.wrong += 1;
                e.failed += 1;
                continue;
            };
            let lat = s.latency_ms();
            e.lat.push(lat);
            e.service_ms.push(sc.service_us as f64 / 1e3);
            e.queue_ms.push(sc.queue_ms as f64);
            let wire_ms = (s.recv_ns - s.sent_ns) as f64 / 1e6;
            e.overhead_ms.push(wire_ms - sc.service_us as f64 / 1e3);
            if sc.outcome != "complete" {
                e.failed += 1;
                continue;
            }
            let want = refs.get(r).copied();
            let got = Expect {
                count: sc.count,
                digest: sc.patterns.map(|(_, d)| d),
            };
            let listed_ok = sc.patterns.is_none_or(|(n, _)| n == sc.count);
            if want != Some(got) || !listed_ok {
                e.wrong += 1;
                e.failed += 1;
                continue;
            }
            e.complete += 1;
            if lat <= limit_ms {
                e.good_in_limit += 1;
            }
        }
        e.lat_tail = segmented_tail(&e.lat);
        for v in [
            &mut e.lat,
            &mut e.service_ms,
            &mut e.queue_ms,
            &mut e.overhead_ms,
        ] {
            v.sort_by(f64::total_cmp);
        }
        e
    }

    fn tail(&self) -> (u32, f64) {
        self.lat_tail
    }
}

/// Everything a workload's wire run measured.
#[derive(Default)]
struct Wire {
    reqs: Vec<Req>,
    refs: Refs,
    eval: Eval,
    window: Duration,
    setup_s: f64,
    peak_rss_mb: f64,
    late_max_ms: f64,
    max_rate_rps: f64,
    /// `(attempted, failed)` outside the measured window: hot-read's
    /// capacity phase.
    extra: (usize, usize),
    /// The service's counters when the measured requests start, and
    /// when they end (for hot-read, after its capacity phase).
    before: BTreeMap<&'static str, u64>,
    after: BTreeMap<&'static str, u64>,
    store_dir: Option<PathBuf>,
}

/// A counter that pins a workload's shape: it must lie in `lo..=hi`
/// on every run, or the run is not correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    name: &'static str,
    value: u64,
    lo: u64,
    hi: u64,
}

impl Pin {
    fn holds(&self) -> bool {
        (self.lo..=self.hi).contains(&self.value)
    }
}

/// The shape pins of a wire run, from counters taken since the service
/// started (`total`, warm start included) or over the measured requests
/// (`d`). Hot-read's warm entries and query-sessions' mines are bounded
/// rather than fixed: sharing one mine across a key's queries lowers
/// them from one per `(key, query)` pair to one per key, and the
/// workload stays the same.
fn pins(a: &Args, wire: &Wire) -> Vec<Pin> {
    let d = |name: &str| delta(&wire.after, &wire.before, name);
    let total = |name: &str| wire.after.get(name).copied().unwrap_or(0);
    let pin = |name, value, lo, hi| Pin {
        name,
        value,
        lo,
        hi,
    };
    let distinct_keys = |reqs: &[Req]| {
        reqs.iter()
            .map(Req::mine_key)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64
    };
    match a.workload {
        Workload::HotRead => {
            let sent = workload::hot_all(a.seed, a.seconds);
            let n = sent.len() as u64;
            let keys = distinct_keys(&sent);
            let pairs = sent.iter().collect::<std::collections::BTreeSet<_>>().len() as u64;
            vec![
                pin("exec.mined_runs", total("mined_runs"), 0, 0),
                pin("cache.probes", d("cache_probes"), n, n),
                pin("cache.hits", d("cache_hits"), n, n),
                pin("cache.evictions", total("cache_evictions"), 0, 0),
                pin(
                    "store.warm_entries",
                    total("store_warm_entries"),
                    keys,
                    pairs,
                ),
            ]
        }
        Workload::ColdMine => {
            let n = wire.reqs.len() as u64;
            vec![
                pin("cache.hits", d("cache_hits"), 0, 0),
                pin("exec.mined_runs", d("mined_runs"), n, n),
            ]
        }
        Workload::QuerySessions => {
            let keys = distinct_keys(&wire.reqs);
            vec![pin("exec.mined_runs", d("mined_runs"), keys, 5 * keys)]
        }
    }
}

fn run(a: &Args) -> io::Result<Report> {
    let wd = a.work_dir.join(format!(
        "{}-{}-{}",
        a.workload.name(),
        a.seed,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&wd);
    fs::create_dir_all(&wd)?;
    let result = measure(a, &wd);
    let _ = fs::remove_dir_all(&wd);
    result
}

fn measure(a: &Args, wd: &Path) -> io::Result<Report> {
    let w = a.workload;
    let wire = match w {
        Workload::HotRead => hot_read(a, wd)?,
        Workload::ColdMine | Workload::QuerySessions => closed(a)?,
    };
    let e = &wire.eval;
    let (tail_pct, tail_ms) = e.tail();
    let window_s = wire.window.as_secs_f64();
    eprintln!(
        "perfbench: {} seed={} requests={} answered={} failed={} wrong={} p50={:.3}ms \
         service_p50={:.3}ms p{tail_pct}={tail_ms:.3}ms window={window_s:.2}s setup={:.4}s nproc={}",
        w.name(),
        a.seed,
        e.attempted,
        e.lat.len(),
        e.failed,
        e.wrong,
        percentile(&e.lat, 50.0),
        percentile(&e.service_ms, 50.0),
        wire.setup_s,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let attempted = e.attempted + wire.extra.0;
    let failed = e.failed + wire.extra.1;
    let pins = pins(a, &wire);
    let shape_holds = pins.iter().all(Pin::holds);
    eprintln!(
        "perfbench: shape pins {}: {}",
        if shape_holds { "hold" } else { "FAIL" },
        pins.iter()
            .map(|p| {
                let want = if p.lo == p.hi {
                    p.lo.to_string()
                } else {
                    format!("{}..={}", p.lo, p.hi)
                };
                format!("{}={} (want {want})", p.name, p.value)
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut correct = failed == 0 && shape_holds;
    let metrics = if a.trace {
        let (layers, replay_wrong) = per_layer(a, &wire, wd)?;
        correct &= replay_wrong == 0;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = [
            percentile(&e.lat, 50.0),
            tail_ms,
            e.good_in_limit as f64 / window_s,
            wire.max_rate_rps,
            wire.setup_s,
            wire.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn hot_read(a: &Args, wd: &Path) -> io::Result<Wire> {
    let w = Workload::HotRead;
    let store_dir = wd.join("store");
    let refs_path = wd.join("refs.txt");
    let status = Command::new(std::env::current_exe()?)
        .arg("prepare-store")
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .arg("--dir")
        .arg(&store_dir)
        .arg("--refs")
        .arg(&refs_path)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "store preparation failed: {status}"
        )));
    }
    let refs = read_refs(&refs_path)?;
    reset_peak_rss();
    let (stack, setup_s) = boot(&w.service(Some(store_dir.clone())), w.connections(), &[])?;
    let nominal = workload::hot_nominal(a.seed, a.seconds);
    let reqs: Vec<Req> = nominal.iter().map(|x| x.req).collect();
    let before = counters(&stack.svc);
    let run = wire::open_loop(
        &stack.conns[0],
        &nominal,
        &with_newlines(&reqs),
        Duration::from_secs(10),
    )?;
    let peak_rss_mb = peak_rss_mb();
    let eval = Eval::new(&reqs, &run.shots, &refs, w.limit());

    if eval.unanswered > 0 {
        // Answers still owed would land in the next phase; stop here.
        stack.stop()?;
        return Err(io::Error::other(format!(
            "{} requests unanswered",
            eval.unanswered
        )));
    }

    // Capacity: the same mix at a fixed in-flight depth below the quota;
    // the rate of complete, correct answers within the limit.
    let creqs = workload::hot_capacity(a.seed, a.seconds);
    let start = Instant::now();
    let shots = wire::closed_loop(
        &stack.conns[0],
        &with_newlines(&creqs),
        workload::capacity_depth(),
        start,
    )?;
    let elapsed = start.elapsed();
    let after = counters(&stack.svc);
    let shots: Vec<Option<Shot>> = shots.into_iter().map(Some).collect();
    let ce = Eval::new(&creqs, &shots, &refs, w.limit());
    let max_rate_rps = ce.good_in_limit as f64 / elapsed.as_secs_f64();
    eprintln!(
        "perfbench: capacity at depth {}: {} requests in {:.2}s, {max_rate_rps:.1}/s within the limit, \
         p50={:.2}ms p{}={:.2}ms failed={}",
        workload::capacity_depth(),
        creqs.len(),
        elapsed.as_secs_f64(),
        percentile(&ce.lat, 50.0),
        ce.tail().0,
        ce.tail().1,
        ce.failed,
    );
    stack.stop()?;
    Ok(Wire {
        reqs,
        refs,
        eval,
        window: run.elapsed,
        setup_s,
        peak_rss_mb,
        late_max_ms: run.late_max_ms,
        max_rate_rps,
        extra: (ce.attempted, ce.failed),
        before,
        after,
        store_dir: Some(store_dir),
    })
}

/// Cold-mine (one session) and query-sessions (two), closed loop.
fn closed(a: &Args) -> io::Result<Wire> {
    let w = a.workload;
    let sessions: Vec<Vec<Req>> = match w {
        Workload::ColdMine => vec![workload::cold_requests(a.seed, a.seconds)],
        _ => workload::session_requests(a.seed, a.seconds).into(),
    };
    reset_peak_rss();
    let (stack, setup_s) = boot(&w.service(None), w.connections(), &warm_lines(&[0, 1, 3]))?;
    let before = counters(&stack.svc);
    let start = Instant::now();
    let shots: io::Result<Vec<Vec<Shot>>> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .zip(&stack.conns)
            .map(|(reqs, conn)| {
                s.spawn(move || wire::closed_loop(conn, &with_newlines(reqs), 1, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("session thread panicked"))?
            })
            .collect::<io::Result<_>>()
    });
    let window = start.elapsed();
    let after = counters(&stack.svc);
    let peak_rss_mb = peak_rss_mb();
    stack.stop()?;
    let shots = shots?;
    let late_max_ms = shots
        .iter()
        .flat_map(|s| {
            s.windows(2)
                .map(|p| (p[1].sent_ns - p[0].recv_ns) as f64 / 1e6)
        })
        .fold(0.0, f64::max);
    let reqs: Vec<Req> = sessions.concat();
    let shots: Vec<Option<Shot>> = shots.into_iter().flatten().map(Some).collect();
    let refs = workload::references(&reqs, NPROC);
    if w == Workload::ColdMine {
        eprintln!(
            "perfbench: share of service time by kernel: {}",
            kernel_shares(&reqs, &shots)
        );
    }
    let eval = Eval::new(&reqs, &shots, &refs, w.limit());
    // A closed loop never builds a backlog, so its completion rate is its
    // goodput. Its max rate is the deployment's instead: by the
    // utilisation law, workers ÷ mean service time, the rate the workers
    // would complete this mix at if they were never idle.
    let mean_service_s =
        eval.service_ms.iter().sum::<f64>() / eval.service_ms.len().max(1) as f64 / 1e3;
    let max_rate_rps = w.service(None).workers as f64 / mean_service_s;
    Ok(Wire {
        reqs,
        refs,
        eval,
        window,
        setup_s,
        peak_rss_mb,
        late_max_ms,
        max_rate_rps,
        extra: (0, 0),
        before,
        after,
        store_dir: None,
    })
}

/// Each kernel's share of the summed `stats.service_us` of `reqs`, as
/// `lcm=0.412 fpgrowth=0.327 eclat=0.261`.
fn kernel_shares(reqs: &[Req], shots: &[Option<Shot>]) -> String {
    let mut us: BTreeMap<u8, u64> = BTreeMap::new();
    for (r, shot) in reqs.iter().zip(shots) {
        if let Some(Ok(sc)) = shot.as_ref().map(|s| &s.scanned) {
            *us.entry(r.kernel).or_default() += sc.service_us;
        }
    }
    let sum = us.values().sum::<u64>().max(1) as f64;
    fpm::Kernel::ALL
        .iter()
        .map(|k| {
            let share = us.get(&k.code()).copied().unwrap_or(0) as f64 / sum;
            format!("{}={share:.3}", k.label())
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The per-layer metrics: counters and response stats from the wire
/// run, span self times from the traced replay. Returns the metrics and
/// the replay's wrong answers.
fn per_layer(a: &Args, wire: &Wire, wd: &Path) -> io::Result<(BTreeMap<&'static str, f64>, usize)> {
    let w = a.workload;
    let e = &wire.eval;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let d = |name: &str| delta(&wire.after, &wire.before, name) as f64;
    let total = |name: &str| wire.after.get(name).copied().unwrap_or(0) as f64;

    m.insert(
        "frontend.response_kb",
        e.bytes as f64 / 1024.0 / e.attempted.max(1) as f64,
    );
    m.insert("frontend.overhead_ms", percentile(&e.overhead_ms, 50.0));
    m.insert("service.queue_wait_ms_p50", percentile(&e.queue_ms, 50.0));
    m.insert("service.queue_wait_ms_tail", tail(&e.queue_ms).1);
    m.insert("service.time_ms_p50", percentile(&e.service_ms, 50.0));
    m.insert(
        "service.rejected",
        d("rejected_queue_full") + d("rejected_admission") + d("rejected_bad_dataset"),
    );
    m.insert(
        "cache.hit_ratio",
        d("cache_hits") / d("cache_probes").max(1.0),
    );
    m.insert("cache.evictions", total("cache_evictions"));
    m.insert("store.warm_entries", total("store_warm_entries"));
    m.insert("exec.mined_runs", d("mined_runs"));
    let keys: std::collections::BTreeSet<_> = wire.reqs.iter().map(Req::mine_key).collect();
    m.insert(
        "exec.mines_per_key",
        d("mined_runs") / keys.len().max(1) as f64,
    );
    m.insert("generator.late_ms_max", wire.late_max_ms);
    m.insert("generator.requests", e.attempted as f64);
    m.insert("latency.tail_percentile", f64::from(e.tail().0));
    m.insert("failed_share", e.failed as f64 / e.attempted.max(1) as f64);

    // The replay: the first requests of the run, in send order (query
    // sessions interleaved key by key, as the two sessions send them).
    let reqs: Vec<Req> = match w {
        Workload::QuerySessions => {
            let half = wire.reqs.len() / 2;
            let (s0, s1) = wire.reqs.split_at(half);
            s0.chunks(5)
                .zip(s1.chunks(5))
                .flat_map(|(x, y)| x.iter().chain(y))
                .copied()
                .collect()
        }
        _ => wire.reqs.clone(),
    };
    let reqs = &reqs[..w.replayed().min(reqs.len())];
    let store = wire.store_dir.as_deref();
    let (off, on, mut tr) = replay::replay(w, reqs, &wire.refs, store)?;
    let overhead = on.wall.as_secs_f64() / off.wall.as_secs_f64() - 1.0;
    if w == Workload::ColdMine {
        replay::serial_base(&on.mined, &mut tr);
    }
    let counts = replay::kernel_counts(&on.mined);

    let agg = trace::by_name(tr.spans());
    let mean_ms = |names: &[&str]| {
        let (calls, ns) = names
            .iter()
            .filter_map(|n| agg.get(n))
            .fold((0u64, 0u64), |acc, &(c, t)| (acc.0 + c, acc.1 + t));
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e6
        }
    };
    let mines = ["exec.mine.lcm", "exec.mine.fpgrowth", "exec.mine.eclat"];
    for (metric, spans) in [
        ("frontend.parse_ms", &["frontend.parse"][..]),
        ("frontend.encode_ms", &["frontend.encode"]),
        ("service.admission_ms", &["service.admission"]),
        ("cache.fingerprint_ms", &["cache.fingerprint"]),
        ("cache.probe_ms", &["cache.probe"]),
        ("cache.insert_ms", &["cache.insert"]),
        ("store.load_ms", &["store.load"]),
        ("quest.generate_ms", &["quest.generate"]),
        ("exec.mine_ms", &mines),
        ("exec.remap_ms", &["exec.remap"]),
        ("lcm.mine_ms", &["exec.mine.lcm"]),
        ("fpgrowth.mine_ms", &["exec.mine.fpgrowth"]),
        ("eclat.mine_ms", &["exec.mine.eclat"]),
        ("query.apply_ms.closed", &["query.apply.closed"]),
        ("query.apply_ms.maximal", &["query.apply.maximal"]),
        ("query.apply_ms.topk", &["query.apply.topk"]),
        ("query.apply_ms.rules", &["query.apply.rules"]),
    ] {
        m.insert(metric, mean_ms(spans));
    }
    if w == Workload::ColdMine {
        let (serial, parallel) = (mean_ms(&["par.serial"]), mean_ms(&mines));
        m.insert("par.serial_ms", serial);
        m.insert("par.parallel_ms", parallel);
        m.insert(
            "par.speedup",
            if parallel > 0.0 {
                serial / parallel
            } else {
                0.0
            },
        );
    }
    for (metric, v) in counts {
        m.insert(metric, v as f64);
    }
    m.insert(
        "store.artifact_mb",
        on.artifact_bytes as f64 / (1024.0 * 1024.0),
    );
    if !on.collected.is_empty() {
        let c = on.collected.len() as f64;
        m.insert(
            "exec.collected_patterns",
            on.collected.iter().map(|x| x.0 as f64).sum::<f64>() / c,
        );
        m.insert(
            "query.answer_ratio",
            on.collected
                .iter()
                .map(|&(all, ans)| ans as f64 / all.max(1) as f64)
                .sum::<f64>()
                / c,
        );
    }
    m.insert("trace.overhead_share", overhead);
    m.insert("trace.spans", tr.spans().len() as f64);
    m.insert("trace.replayed_requests", reqs.len() as f64);

    let spans_path = wd
        .parent()
        .unwrap_or(wd)
        .join(format!("spans-{}-{}.jsonl", w.name(), a.seed));
    trace::write_jsonl(tr.spans(), &spans_path)?;
    eprintln!(
        "perfbench: traced replay of {} requests: {} spans in {}, overhead {:.2}%",
        reqs.len(),
        tr.spans().len(),
        spans_path.display(),
        overhead * 100.0
    );
    Ok((m, off.wrong + on.wrong))
}

/// Hot-read's untimed preparation: a service mines every distinct
/// request the run can send and flushes the results to `dir` at
/// shutdown; the references go to `refs_path`.
fn prepare_store(seed: u64, seconds: u64, dir: &Path, refs_path: &Path) -> io::Result<()> {
    let w = Workload::HotRead;
    let distinct: std::collections::BTreeSet<Req> =
        workload::hot_all(seed, seconds).into_iter().collect();
    let svc = serve::MineService::start(w.service(Some(dir.to_path_buf())));
    for r in &distinct {
        let req = serve::parse_request(&r.line()).map_err(io::Error::other)?;
        let resp = svc.mine(req);
        if resp.outcome != serve::Outcome::Complete {
            return Err(io::Error::other(format!(
                "filling the store: {:?}",
                resp.reason
            )));
        }
    }
    svc.shutdown();
    let reqs: Vec<Req> = distinct.into_iter().collect();
    let refs = workload::references(&reqs, NPROC);
    let mut out = io::BufWriter::new(fs::File::create(refs_path)?);
    for (r, x) in &refs {
        let digest = x.digest.map_or("-".to_string(), |d| d.to_string());
        writeln!(
            out,
            "{} {} {} {} {} {} {digest}",
            r.ds,
            r.kernel,
            r.minsup,
            r.query,
            u8::from(r.patterns),
            x.count
        )?;
    }
    out.flush()
}

fn read_refs(path: &Path) -> io::Result<Refs> {
    let bad = || io::Error::other(format!("malformed reference file {}", path.display()));
    let mut refs = Refs::new();
    for line in io::BufReader::new(fs::File::open(path)?).lines() {
        let line = line?;
        let f: Vec<&str> = line.split(' ').collect();
        let [ds, kernel, minsup, query, patterns, count, digest] = f[..] else {
            return Err(bad());
        };
        let n = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let r = Req {
            ds: n(ds)? as u8,
            kernel: n(kernel)? as u8,
            minsup: n(minsup)?,
            query: n(query)? as u8,
            patterns: patterns == "1",
        };
        let digest = if digest == "-" {
            None
        } else {
            Some(n(digest)?)
        };
        refs.insert(
            r,
            Expect {
                count: n(count)?,
                digest,
            },
        );
    }
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::json::Json;

    fn listed(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runs_print() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v =
            serve::json::parse(&fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&v, "per_layer"), own(&PER_LAYER));
        for w in v
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
        {
            let name = w.get("name").and_then(Json::as_str).expect("name");
            assert!(Workload::by_name(name).is_some(), "{name}");
        }
    }

    fn args(workload: Workload) -> Args {
        Args {
            workload,
            seed: 4,
            seconds: 20,
            trace: false,
            work_dir: PathBuf::new(),
        }
    }

    /// Whether the pins hold for a run that sent `reqs` and ended with
    /// the counters `after` (all of them 0 before).
    fn pins_hold(a: &Args, reqs: &[Req], after: &[(&'static str, u64)]) -> bool {
        let wire = Wire {
            reqs: reqs.to_vec(),
            after: after.iter().copied().collect(),
            ..Wire::default()
        };
        pins(a, &wire).iter().all(Pin::holds)
    }

    #[test]
    fn hot_read_pins_every_read_to_the_warm_cache() {
        let a = args(Workload::HotRead);
        let sent = workload::hot_all(a.seed, a.seconds);
        let n = sent.len() as u64;
        let pairs = sent.iter().collect::<std::collections::BTreeSet<_>>().len() as u64;
        let warm = [
            ("cache_probes", n),
            ("cache_hits", n),
            ("store_warm_entries", pairs),
        ];
        assert!(pins_hold(&a, &[], &warm));
        // One entry per key, as a cache of whole All sets would hold.
        assert!(pins_hold(
            &a,
            &[],
            &[warm[0], warm[1], ("store_warm_entries", 16)]
        ));
        // A warm start that restored too little: reads mine instead.
        assert!(!pins_hold(
            &a,
            &[],
            &[warm[0], ("cache_hits", n - 3), ("mined_runs", 3), warm[2]]
        ));
        assert!(!pins_hold(
            &a,
            &[],
            &[warm[0], warm[1], ("store_warm_entries", 15)]
        ));
        assert!(!pins_hold(
            &a,
            &[],
            &[warm[0], warm[1], warm[2], ("cache_evictions", 1)]
        ));
    }

    #[test]
    fn cold_mine_pins_one_fresh_mine_per_request() {
        let a = args(Workload::ColdMine);
        let reqs = workload::cold_requests(a.seed, a.seconds);
        let n = reqs.len() as u64;
        assert!(pins_hold(&a, &reqs, &[("mined_runs", n)]));
        assert!(!pins_hold(
            &a,
            &reqs,
            &[("mined_runs", n), ("cache_hits", 1)]
        ));
        assert!(!pins_hold(&a, &reqs, &[("mined_runs", n - 1)]));
    }

    #[test]
    fn query_sessions_mine_each_key_once_to_five_times() {
        let a = args(Workload::QuerySessions);
        let reqs = workload::session_requests(a.seed, a.seconds).concat();
        let keys = reqs.len() as u64 / 5;
        for (mined, holds) in [
            (0, false),
            (keys, true),
            (5 * keys, true),
            (5 * keys + 1, false),
        ] {
            assert_eq!(
                pins_hold(&a, &reqs, &[("mined_runs", mined)]),
                holds,
                "{mined}"
            );
        }
    }

    #[test]
    fn report_prints_every_value_as_a_json_number() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("a", 1.25, "ms"), ("b", f64::NAN, "count")],
        };
        let v = serve::json::parse(&r.json()).expect("JSON");
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("a")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.get("b")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
    }
}
