//! `fpm-mine` — command-line frequent itemset miner.
//!
//! ```text
//! fpm-mine --input db.dat --minsup 100 --kernel lcm --variant all
//! fpm-mine --dataset ds1 --scale smoke --kernel eclat --variant simd --out patterns.txt
//! fpm-mine --dataset ds3 --scale ci --kernel fpgrowth --variant base --count-only
//! fpm-mine --input db.dat --minsup 50 --kernel lcm --advise
//! fpm-mine --dataset ds1 --scale smoke --class closed --top-k 10
//! fpm-mine rules --dataset ds1 --scale smoke --min-confidence 0.8
//! fpm-mine serve --stdio
//! fpm-mine serve --addr 127.0.0.1:7878 --workers 4 --mine-threads 4
//! fpm-mine store build --dir artifacts --dataset ds1 --scale smoke
//! fpm-mine store inspect --dir artifacts --format json
//! fpm-mine serve --stdio --store-dir artifacts
//! ```
//!
//! The `serve` subcommand runs the `fpm-serve` mining service: one JSON
//! request per input line, one JSON response per output line (see the
//! README's `serve` quickstart for the request shape). With
//! `--store-dir` the service warm-starts from persisted artifacts and
//! flushes its result cache back on shutdown; the `store` subcommand
//! builds, inspects, verifies and appends to those artifacts offline.
//!
//! Kernels: `lcm` (default), `eclat`, `fpgrowth`, `apriori`, `hmine`.
//! Variants: each kernel's Figure 8 columns (`base`, `lex`, …, `all`);
//! `--advise` lets the input-profile advisor pick the pattern set.
//! `--threads N` mines on the shared work-stealing runtime (`fpm-par`);
//! `0` auto-detects the host parallelism. Parallel output is identical
//! to serial for every kernel × variant.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use fpm::{CollectSink, CountSink, PatternSink, TransactionDb};
use quest::{Dataset, Scale};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    input: Option<String>,
    dataset: Option<Dataset>,
    scale: Scale,
    minsup: Option<u64>,
    kernel: String,
    variant: String,
    out: Option<String>,
    count_only: bool,
    advise: bool,
    profile: bool,
    kind: fpm::MineKind,
    top_k: Option<u64>,
    threads: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fpm-mine (--input FILE.dat | --dataset ds1..ds4 [--scale smoke|ci|full])
                [--minsup N] [--kernel lcm|eclat|fpgrowth|apriori|hmine]
                [--variant base|lex|reorg|pref|tile|simd|all] [--advise]
                [--class all|closed|maximal] [--top-k N]
                [--out FILE] [--count-only] [--profile] [--threads N]
       fpm-mine rules ... (association rules; `fpm-mine rules --help`)

  --minsup defaults to the dataset's Table 6 support (required for --input)
  --advise lets the input profile choose the pattern set (overrides --variant)
  --class  mines a pattern query (--kind is an accepted alias); --top-k keeps
           the k best by (support desc, serial rank asc), in that order
  --profile prints the input profile and the advisor's recommendation
  --threads mines on the work-stealing runtime (0 = auto; lcm/eclat/fpgrowth)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        input: None,
        dataset: None,
        scale: Scale::Ci,
        minsup: None,
        kernel: "lcm".into(),
        variant: "all".into(),
        out: None,
        count_only: false,
        advise: false,
        profile: false,
        kind: fpm::MineKind::All,
        top_k: None,
        threads: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--input" => a.input = Some(value(&mut i)),
            "--dataset" => {
                a.dataset = Some(Dataset::by_label(&value(&mut i)).unwrap_or_else(|| usage()))
            }
            "--scale" => a.scale = Scale::by_label(&value(&mut i)).unwrap_or_else(|| usage()),
            "--minsup" => a.minsup = value(&mut i).parse().ok().or_else(|| usage()),
            "--kernel" => a.kernel = value(&mut i),
            "--variant" => a.variant = value(&mut i),
            "--out" => a.out = Some(value(&mut i)),
            "--count-only" => a.count_only = true,
            "--class" | "--kind" => {
                a.kind = fpm::MineKind::by_label(&value(&mut i)).unwrap_or_else(|| usage())
            }
            "--top-k" => a.top_k = value(&mut i).parse().ok().or_else(|| usage()),
            "--threads" => a.threads = value(&mut i).parse().ok().or_else(|| usage()),
            "--advise" => a.advise = true,
            "--profile" => a.profile = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
        i += 1;
    }
    if a.input.is_none() && a.dataset.is_none() {
        usage();
    }
    a
}

fn load(a: &Args) -> (TransactionDb, u64) {
    if let Some(path) = &a.input {
        let db = fpm::io::read_dat_file(path).unwrap_or_else(|e| {
            eprintln!("error reading {path}: {e}");
            std::process::exit(1);
        });
        let minsup = a.minsup.unwrap_or_else(|| {
            eprintln!("--minsup is required with --input");
            std::process::exit(2);
        });
        (db, minsup)
    } else {
        let ds = a.dataset.expect("checked in parse_args");
        let db = ds.generate(a.scale);
        (db, a.minsup.unwrap_or_else(|| ds.support(a.scale)))
    }
}

fn advised_variant(db: &TransactionDb, minsup: u64, kernel: &str) -> String {
    use also::catalog::Kernel;
    let k = match kernel {
        "lcm" => Kernel::Lcm,
        "eclat" => Kernel::Eclat,
        "fpgrowth" => Kernel::FpGrowth,
        _ => return "all".into(),
    };
    let profile = fpm::metrics::profile(db, minsup);
    let picks = also::advisor::advise(&profile, k, &also::advisor::AdvisorConfig::default());
    // map the advised pattern set onto the closest named variant
    use also::catalog::Pattern::*;
    let has = |p| picks.contains(&p);
    match k {
        Kernel::Lcm => {
            if has(LexicographicOrdering) && has(Tiling) {
                "all".into()
            } else if has(Tiling) {
                "tile".into()
            } else if has(LexicographicOrdering) {
                "lex".into()
            } else {
                "reorg".into()
            }
        }
        Kernel::Eclat => {
            if has(LexicographicOrdering) {
                "all".into()
            } else {
                "simd".into()
            }
        }
        Kernel::FpGrowth => {
            if has(LexicographicOrdering) && has(SoftwarePrefetch) {
                "all".into()
            } else if has(SoftwarePrefetch) {
                "pref".into()
            } else {
                "reorg".into()
            }
        }
    }
}

fn mine_with<S: PatternSink>(
    kernel: &str,
    variant: &str,
    db: &TransactionDb,
    minsup: u64,
    threads: Option<usize>,
    query: fpm::PatternQuery,
    sink: &mut S,
) -> Result<(), String> {
    // The reference miners run outside the executor: serial, without
    // variants, the query applied to their complete output.
    let kernel = kernel.to_ascii_lowercase();
    let reference: Option<fn(&TransactionDb, u64, &mut CollectSink)> = match kernel.as_str() {
        "apriori" => Some(apriori::mine),
        "hmine" => Some(fpm::hmine::mine),
        _ => None,
    };
    if let Some(mine) = reference {
        if threads.is_some() {
            return Err(format!("--threads is not supported for {kernel}"));
        }
        let mut all = CollectSink::default();
        mine(db, minsup, &mut all);
        for p in query.apply(&all.patterns, db.len() as u64) {
            sink.emit(&p.items, p.support);
        }
        return Ok(());
    }
    let mut plan = exec::MinePlan::by_label(&kernel, minsup)?
        .variant(variant)?
        .query(query);
    if let Some(n) = threads {
        plan = plan.threads(n);
    }
    plan.execute(db, sink);
    Ok(())
}

fn rules_usage() -> ! {
    eprintln!(
        "usage: fpm-mine rules (--input FILE.dat | --dataset ds1..ds4 [--scale smoke|ci|full])
                      [--minsup N] [--kernel lcm|eclat|fpgrowth|apriori|hmine]
                      --min-confidence X [--min-lift X] [--limit N]

  mines the complete frequent set, generates every single-consequent
  association rule `antecedent => consequent` that clears the thresholds,
  and prints one rule per line (support, confidence, lift) in
  deterministic order: serial rank of the source itemset, then consequent.

  --min-confidence  required, in [0, 1]
  --min-lift        default 0 (1.0 = no better than independence)
  --limit           print at most N rules (all are still counted)"
    );
    std::process::exit(2);
}

fn run_rules(argv: &[String]) -> ExitCode {
    let mut input: Option<String> = None;
    let mut dataset: Option<Dataset> = None;
    let mut scale = Scale::Ci;
    let mut minsup: Option<u64> = None;
    let mut kernel = "lcm".to_string();
    let mut spec: Option<fpm::RuleSpec> = None;
    let mut min_lift = 0.0f64;
    let mut limit: Option<usize> = None;
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| rules_usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--input" => input = Some(value(&mut i)),
            "--dataset" => {
                dataset = Some(Dataset::by_label(&value(&mut i)).unwrap_or_else(|| rules_usage()))
            }
            "--scale" => scale = Scale::by_label(&value(&mut i)).unwrap_or_else(|| rules_usage()),
            "--minsup" => minsup = value(&mut i).parse().ok().or_else(|| rules_usage()),
            "--kernel" => kernel = value(&mut i),
            "--min-confidence" => {
                let c: f64 = value(&mut i).parse().unwrap_or_else(|_| rules_usage());
                if !(0.0..=1.0).contains(&c) {
                    eprintln!("--min-confidence must be in [0, 1]");
                    return ExitCode::from(2);
                }
                spec = Some(fpm::RuleSpec::confidence(c));
            }
            "--min-lift" => {
                min_lift = value(&mut i).parse().unwrap_or_else(|_| rules_usage());
                if !min_lift.is_finite() || min_lift < 0.0 {
                    eprintln!("--min-lift must be finite and non-negative");
                    return ExitCode::from(2);
                }
            }
            "--limit" => limit = value(&mut i).parse().ok().or_else(|| rules_usage()),
            "--help" | "-h" => rules_usage(),
            other => {
                eprintln!("unknown rules argument {other}");
                rules_usage()
            }
        }
        i += 1;
    }
    let Some(mut spec) = spec else {
        eprintln!("rules needs --min-confidence");
        rules_usage()
    };
    spec.min_lift = min_lift;
    let args = Args {
        input,
        dataset,
        scale,
        minsup,
        kernel: kernel.clone(),
        variant: "all".into(),
        out: None,
        count_only: false,
        advise: false,
        profile: false,
        kind: fpm::MineKind::All,
        top_k: None,
        threads: None,
    };
    if args.input.is_none() && args.dataset.is_none() {
        rules_usage();
    }
    let (db, minsup) = load(&args);
    let mut sink = CollectSink::default();
    if let Err(e) = mine_with(
        &kernel,
        "all",
        &db,
        minsup,
        None,
        fpm::PatternQuery::all(),
        &mut sink,
    ) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let rules = fpm::query::rules(&sink.patterns, db.len() as u64, &spec);
    eprintln!(
        "{} rule(s) from {} frequent itemsets at minsup {} (min_confidence {}, min_lift {})",
        rules.len(),
        sink.patterns.len(),
        minsup,
        spec.min_confidence,
        spec.min_lift
    );
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for rule in rules.iter().take(limit.unwrap_or(usize::MAX)) {
        let antecedent = rule
            .antecedent
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        if writeln!(
            lock,
            "{antecedent} => {} ({}, {:.4}, {:.4})",
            rule.consequent, rule.support, rule.confidence, rule.lift
        )
        .is_err()
        {
            break;
        }
    }
    lock.flush().ok();
    ExitCode::SUCCESS
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: fpm-mine serve (--stdio | --addr HOST:PORT)
                [--shards N] [--workers N] [--queue-depth N]
                [--cache N] [--cache-bytes N] [--cache-ttl-ms N]
                [--mine-threads N] [--max-bound X]
                [--store-dir DIR] [--max-conns N]

  one JSON request per line in, one JSON response per line out, e.g.
  {{\"dataset\":{{\"name\":\"ds1\",\"scale\":\"smoke\"}},\"kernel\":\"lcm\",
    \"min_support\":30,\"deadline_ms\":5000,\"max_patterns\":1000}}

  --shards        dataset shards, each with its own queue+cache (default 1)
  --workers       worker threads draining each shard's queue (default 2)
  --queue-depth   queued jobs beyond which submissions reject (default 64)
  --cache         result-cache entries per shard, 0 disables (default 32)
  --cache-bytes   byte budget per shard cache, 0 = none (default 0)
  --cache-ttl-ms  cached results older than this re-mine (default: never)
  --mine-threads  threads per mining run, >1 uses the par runtime (default serial)
  --max-bound     admission ceiling on the candidate bound (default unlimited)
  --store-dir     persistent artifact store: warm-start cached results on
                  boot, flush the result cache there on shutdown
  --max-conns     with --addr: exit after N connections (default: serve forever)"
    );
    std::process::exit(2);
}

/// Applies one of the service flags `serve` and `loadgen` share
/// (`--shards` … `--store-dir`) to `cfg`, reading its value through
/// `value`. Returns `false` for any other flag; a bad value calls
/// `usage`, which exits 2.
fn service_flag(
    cfg: &mut serve::ServeConfig,
    flag: &str,
    value: impl FnOnce() -> String,
    usage: fn() -> !,
) -> bool {
    fn parse<T: std::str::FromStr>(v: String, usage: fn() -> !) -> T {
        v.parse().unwrap_or_else(|_| usage())
    }
    match flag {
        "--shards" => cfg.shards = parse(value(), usage),
        "--workers" => cfg.workers = parse(value(), usage),
        "--queue-depth" => cfg.queue_depth = parse(value(), usage),
        "--cache" => cfg.cache_capacity = parse(value(), usage),
        "--cache-bytes" => cfg.cache_max_bytes = parse(value(), usage),
        "--cache-ttl-ms" => {
            cfg.cache_ttl = Some(std::time::Duration::from_millis(parse(value(), usage)))
        }
        "--mine-threads" => cfg.mine_threads = parse(value(), usage),
        "--store-dir" => cfg.store_dir = Some(std::path::PathBuf::from(value())),
        _ => return false,
    }
    true
}

fn run_serve(argv: &[String]) -> ExitCode {
    let mut cfg = serve::ServeConfig::default();
    let mut addr: Option<String> = None;
    let mut stdio = false;
    let mut max_conns: Option<usize> = None;
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| serve_usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--stdio" => stdio = true,
            "--addr" => addr = Some(value(&mut i)),
            "--max-bound" => {
                cfg.max_candidate_bound = value(&mut i).parse().unwrap_or_else(|_| serve_usage())
            }
            "--max-conns" => {
                max_conns = Some(value(&mut i).parse().unwrap_or_else(|_| serve_usage()))
            }
            "--help" | "-h" => serve_usage(),
            other => {
                if !service_flag(&mut cfg, other, || value(&mut i), serve_usage) {
                    eprintln!("unknown serve argument {other}");
                    serve_usage()
                }
            }
        }
        i += 1;
    }
    if stdio == addr.is_some() {
        eprintln!("serve needs exactly one of --stdio or --addr");
        serve_usage();
    }
    let service = serve::MineService::start(cfg);
    let result = if stdio {
        serve::serve_stdio(&service)
    } else {
        let addr = addr.expect("checked above");
        match std::net::TcpListener::bind(&addr) {
            Ok(listener) => {
                eprintln!(
                    "serving on {}",
                    listener.local_addr().map(|a| a.to_string()).unwrap_or(addr)
                );
                serve::serve_poll(&service, listener, serve::FrontendConfig::default(), max_conns)
                    .map(|stats| {
                        eprintln!(
                            "poll frontend: {} served, {} refused, {} quota rejections",
                            stats.connections_served,
                            stats.connections_refused,
                            stats.quota_rejections
                        );
                    })
            }
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    service.shutdown();
    eprint!("{}", service.metrics().render());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn loadgen_usage() -> ! {
    eprintln!(
        "usage: fpm-mine loadgen [--seed N] [--rps X] [--duration-ms N]
                [--keys N] [--skew X] [--kernel lcm|eclat|fpgrowth]
                [--query-mix N] [--deadline-ms N]
                [--shards N] [--workers N] [--queue-depth N]
                [--cache N] [--cache-bytes N] [--cache-ttl-ms N]
                [--mine-threads N] [--store-dir DIR] [--out FILE]

  replays a seeded Poisson/Zipf request schedule against an in-process
  mining service and prints a JSON report (p50/p95/p99 latency,
  throughput, hit rate, shed rate). The schedule is a pure function of
  (seed, rps, duration, keys, skew): same seed, same offered traffic.

  --seed          schedule seed (default 0x5eedf00d)
  --rps           offered requests per second (default 200)
  --duration-ms   schedule length (default 500)
  --keys          distinct request keys (default 16)
  --skew          Zipf exponent over keys, 0 = uniform (default 1.0)
  --kernel        kernel every request asks for (default lcm)
  --query-mix     pattern-query variants in the mix, 1..=4: identity,
                  closed, maximal, top-k (default 1 = identity only)
  --deadline-ms   per-request deadline (default: none)
  --out           write the JSON report here instead of stdout
  (service flags as for `fpm-mine serve`; loadgen defaults: 2 shards,
   2 workers, queue-depth 4096)"
    );
    std::process::exit(2);
}

fn run_loadgen(argv: &[String]) -> ExitCode {
    let mut cfg = serve::LoadConfig::default();
    let mut svc_cfg = serve::ServeConfig {
        shards: 2,
        queue_depth: 4096,
        ..serve::ServeConfig::default()
    };
    let mut out: Option<String> = None;
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| loadgen_usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seed" => cfg.seed = value(&mut i).parse().unwrap_or_else(|_| loadgen_usage()),
            "--rps" => cfg.rps = value(&mut i).parse().unwrap_or_else(|_| loadgen_usage()),
            "--duration-ms" => {
                let ms: u64 = value(&mut i).parse().unwrap_or_else(|_| loadgen_usage());
                cfg.duration = std::time::Duration::from_millis(ms);
            }
            "--keys" => cfg.keys = value(&mut i).parse().unwrap_or_else(|_| loadgen_usage()),
            "--skew" => cfg.skew = value(&mut i).parse().unwrap_or_else(|_| loadgen_usage()),
            "--kernel" => {
                cfg.kernel =
                    serve::Kernel::by_label(&value(&mut i)).unwrap_or_else(|| loadgen_usage())
            }
            "--deadline-ms" => {
                let ms: u64 = value(&mut i).parse().unwrap_or_else(|_| loadgen_usage());
                cfg.deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--query-mix" => {
                cfg.query_mix = value(&mut i).parse().unwrap_or_else(|_| loadgen_usage())
            }
            "--out" => out = Some(value(&mut i)),
            "--help" | "-h" => loadgen_usage(),
            other => {
                if !service_flag(&mut svc_cfg, other, || value(&mut i), loadgen_usage) {
                    eprintln!("unknown loadgen argument {other}");
                    loadgen_usage()
                }
            }
        }
        i += 1;
    }
    let service = serve::MineService::start(svc_cfg.clone());
    let report = serve::loadgen::run(&service, &cfg);
    service.shutdown();
    let note = format!(
        "shards={} workers={} queue_depth={} cache={} mine_threads={}",
        svc_cfg.shards,
        svc_cfg.workers,
        svc_cfg.queue_depth,
        svc_cfg.cache_capacity,
        svc_cfg.mine_threads
    );
    let text = report.render(&cfg, &note);
    eprintln!(
        "{} requests: {} completed, {} rejected; p50 {}us p99 {}us, {:.1} rps",
        report.requests,
        report.completed,
        report.rejected,
        report.p50_us,
        report.p99_us,
        report.throughput_rps
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => println!("{text}"),
    }
    ExitCode::SUCCESS
}

fn store_usage() -> ! {
    eprintln!(
        "usage: fpm-mine store build   --dir DIR --dataset ds1..ds4 [--scale smoke|ci|full]
                              [--minsup N] [--kernels lcm,eclat,fpgrowth]
       fpm-mine store inspect --dir DIR [--format text|json]
       fpm-mine store verify  --dir DIR
       fpm-mine store append  --dir DIR --name STEM (--tx \"1 2 3\")... [--file FILE.dat]

  build    generates the dataset, mines each kernel in --kernels (default
           lcm) at --minsup (default: the scaled Table 6 support) and writes
           the raw transactions and results atomically as
           DIR/named-<ds>-<scale>.fpa — `serve --store-dir DIR` then answers
           those requests from the store without re-mining
  inspect  prints each artifact's identity, generation and cached results,
           each result entry tagged with its pattern query and generation;
           --format json emits one JSON object per artifact for scripting
  verify   decodes and deep-verifies every artifact; exits 1 on any damage
  append   appends transactions (space-separated u32 items, from --tx
           and/or a FIMI --file), bumps the generation — invalidating the
           cached results — and rewrites the artifact atomically"
    );
    std::process::exit(2);
}

/// Flag parser shared by the `store` subcommands.
struct StoreArgs {
    dir: Option<String>,
    name: Option<String>,
    dataset: Option<Dataset>,
    scale: Scale,
    minsup: Option<u64>,
    kernels: Vec<String>,
    txs: Vec<Vec<fpm::Item>>,
    file: Option<String>,
    format: String,
}

fn parse_store_args(argv: &[String]) -> StoreArgs {
    let mut a = StoreArgs {
        dir: None,
        name: None,
        dataset: None,
        scale: Scale::Smoke,
        minsup: None,
        kernels: vec!["lcm".into()],
        txs: Vec::new(),
        file: None,
        format: "text".into(),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| store_usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--dir" => a.dir = Some(value(&mut i)),
            "--name" => a.name = Some(value(&mut i)),
            "--dataset" => {
                a.dataset = Some(Dataset::by_label(&value(&mut i)).unwrap_or_else(|| store_usage()))
            }
            "--scale" => a.scale = Scale::by_label(&value(&mut i)).unwrap_or_else(|| store_usage()),
            "--minsup" => a.minsup = value(&mut i).parse().ok().or_else(|| store_usage()),
            "--kernels" => {
                a.kernels = value(&mut i).split(',').map(str::to_string).collect()
            }
            "--tx" => {
                let items: Option<Vec<fpm::Item>> = value(&mut i)
                    .split_whitespace()
                    .map(|w| w.parse().ok())
                    .collect();
                a.txs.push(items.unwrap_or_else(|| store_usage()));
            }
            "--file" => a.file = Some(value(&mut i)),
            "--format" => {
                a.format = value(&mut i);
                if a.format != "text" && a.format != "json" {
                    eprintln!("--format must be text or json");
                    store_usage();
                }
            }
            "--help" | "-h" => store_usage(),
            other => {
                eprintln!("unknown store argument {other}");
                store_usage()
            }
        }
        i += 1;
    }
    a
}

fn store_build(a: &StoreArgs) -> ExitCode {
    let (Some(dir), Some(ds)) = (&a.dir, a.dataset) else {
        store_usage()
    };
    let db = ds.generate(a.scale);
    let minsup = a.minsup.unwrap_or_else(|| ds.support(a.scale));
    let spec = store::SpecMeta::named(&ds.label().to_ascii_lowercase(), a.scale.label());
    let mut artifact = store::Artifact::build(spec, &db);
    for label in &a.kernels {
        let Some(kernel) = fpm::Kernel::by_label(label) else {
            eprintln!("unknown kernel {label}");
            return ExitCode::from(2);
        };
        let mut sink = CollectSink::default();
        exec::MinePlan::kernel(kernel, minsup).execute(&db, &mut sink);
        eprintln!("{label}: {} patterns at minsup {minsup}", sink.patterns.len());
        artifact.push_result(kernel.code(), minsup, fpm::QueryKey::default(), sink.patterns);
    }
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let path = artifact.path_in(dir);
    match artifact.store(&path) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Artifact paths under `--dir`, narrowed to `--name` when given.
fn store_paths(a: &StoreArgs) -> Vec<std::path::PathBuf> {
    let Some(dir) = &a.dir else { store_usage() };
    let paths = store::scan(std::path::Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("cannot scan {dir}: {e}");
        std::process::exit(1);
    });
    match &a.name {
        Some(stem) => paths
            .into_iter()
            .filter(|p| p.file_stem().and_then(|s| s.to_str()) == Some(stem))
            .collect(),
        None => paths,
    }
}

/// Renders a result entry's query tag for inspect output. A tag whose
/// class code a newer writer minted (undecodable here) still prints,
/// as `unknown`.
fn query_label(key: fpm::QueryKey) -> String {
    fpm::PatternQuery::from_key(key)
        .map(|q| q.label())
        .unwrap_or_else(|| "unknown".into())
}

/// The query tag as a JSON object (`class`, `top_k`, `rules`), mirroring
/// the serve request fields so inspect output can be replayed.
fn query_json(key: fpm::QueryKey) -> String {
    let Some(q) = fpm::PatternQuery::from_key(key) else {
        return format!("{{\"unknown_class\":{}}}", key.class);
    };
    let top_k = q.top_k.map_or("null".into(), |k| k.to_string());
    let rules = q.rules.map_or("null".into(), |r| {
        format!(
            "{{\"min_confidence\":{},\"min_lift\":{}}}",
            r.min_confidence, r.min_lift
        )
    });
    format!(
        "{{\"class\":\"{}\",\"top_k\":{top_k},\"rules\":{rules}}}",
        q.class.name()
    )
}

fn store_inspect(a: &StoreArgs) -> ExitCode {
    let paths = store_paths(a);
    if paths.is_empty() {
        eprintln!("no artifacts found");
        return ExitCode::FAILURE;
    }
    let kernel_label = |code: u8| {
        fpm::Kernel::ALL
            .iter()
            .find(|k| k.code() == code)
            .map(|k| k.label())
            .unwrap_or("?")
    };
    for path in paths {
        let art = match store::Artifact::load(&path) {
            Ok(art) => art,
            Err(e) => {
                if a.format == "json" {
                    println!(
                        "{{\"path\":{:?},\"error\":\"{e}\"}}",
                        path.display().to_string()
                    );
                } else {
                    println!("{}: UNREADABLE ({e})", path.display());
                }
                continue;
            }
        };
        if a.format == "json" {
            let results: Vec<String> = art
                .results
                .iter()
                .map(|entry| {
                    format!(
                        "{{\"kernel\":\"{}\",\"min_support\":{},\"query\":{},\
                         \"generation\":{},\"live\":{},\"patterns\":{}}}",
                        kernel_label(entry.kernel),
                        entry.min_support,
                        query_json(entry.query),
                        entry.generation,
                        entry.generation == art.generation,
                        entry.patterns.len()
                    )
                })
                .collect();
            println!(
                "{{\"path\":{:?},\"kind\":\"{}\",\"dataset\":{:?},\"scale\":{:?},\
                 \"generation\":{},\"fingerprint\":\"{:016x}\",\"raw_rows\":{},\
                 \"results\":[{}]}}",
                path.display().to_string(),
                art.spec.kind.label(),
                art.spec.dataset,
                art.spec.scale,
                art.generation,
                art.fingerprint,
                art.raw.len(),
                results.join(",")
            );
            continue;
        }
        println!(
            "{}: {} {}{}{} gen {} fp {:016x} | {} raw rows | {} result(s), {} live",
            path.display(),
            art.spec.kind.label(),
            art.spec.dataset,
            if art.spec.scale.is_empty() { "" } else { "-" },
            art.spec.scale,
            art.generation,
            art.fingerprint,
            art.raw.len(),
            art.results.len(),
            art.live_results().count(),
        );
        for entry in &art.results {
            println!(
                "  {} minsup {} query {} gen {}: {} patterns{}",
                kernel_label(entry.kernel),
                entry.min_support,
                query_label(entry.query),
                entry.generation,
                entry.patterns.len(),
                if entry.generation == art.generation {
                    ""
                } else {
                    " (stale)"
                }
            );
        }
    }
    ExitCode::SUCCESS
}

fn store_verify(a: &StoreArgs) -> ExitCode {
    let paths = store_paths(a);
    if paths.is_empty() {
        eprintln!("no artifacts found");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in paths {
        match store::Artifact::load(&path) {
            Ok(art) => match art.verify_deep() {
                Ok(()) => println!("{}: ok", path.display()),
                Err(e) => {
                    println!("{}: DEEP-VERIFY FAILED ({e})", path.display());
                    failed = true;
                }
            },
            Err(e) => {
                println!("{}: CORRUPT ({e})", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn store_append(a: &StoreArgs) -> ExitCode {
    if a.name.is_none() {
        store_usage();
    }
    let mut rows = a.txs.clone();
    if let Some(path) = &a.file {
        match fpm::io::read_dat_file(path) {
            Ok(db) => rows.extend(db.transactions().iter().cloned()),
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if rows.is_empty() {
        eprintln!("append needs at least one --tx or a non-empty --file");
        return ExitCode::from(2);
    }
    let paths = store_paths(a);
    let [path] = paths.as_slice() else {
        eprintln!("--name must match exactly one artifact");
        return ExitCode::FAILURE;
    };
    let mut artifact = match store::Artifact::load(path) {
        Ok(art) => art,
        Err(e) => {
            eprintln!("{}: cannot load ({e})", path.display());
            return ExitCode::FAILURE;
        }
    };
    let report = store::append(&mut artifact, &rows);
    if let Err(e) = artifact.store(path) {
        eprintln!("cannot rewrite {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "appended {} row(s) to {}, now generation {}; {} cached result(s) invalidated",
        report.appended_rows,
        path.display(),
        report.generation,
        report.invalidated_results,
    );
    ExitCode::SUCCESS
}

fn run_store(argv: &[String]) -> ExitCode {
    let Some(sub) = argv.first() else { store_usage() };
    let a = parse_store_args(&argv[1..]);
    match sub.as_str() {
        "build" => store_build(&a),
        "inspect" => store_inspect(&a),
        "verify" => store_verify(&a),
        "append" => store_append(&a),
        _ => store_usage(),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("serve") {
        return run_serve(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("loadgen") {
        return run_loadgen(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("store") {
        return run_store(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("rules") {
        return run_rules(&raw[1..]);
    }
    let args = parse_args();
    let (db, minsup) = load(&args);
    eprintln!(
        "database: {} transactions, {} items, mean length {:.1}; minsup {}",
        db.len(),
        db.n_items(),
        db.mean_len(),
        minsup
    );

    if args.profile {
        let p = fpm::metrics::profile(&db, minsup);
        eprintln!(
            "profile: density {:.5}, scatter {:.3}, mean ranked length {:.1}, {} frequent items",
            p.density, p.scatter, p.mean_len, p.n_items
        );
    }

    let variant = if args.advise {
        let v = advised_variant(&db, minsup, &args.kernel);
        eprintln!("advisor picked variant {v:?} for kernel {}", args.kernel);
        v
    } else {
        args.variant.clone()
    };

    let query = fpm::PatternQuery {
        class: args.kind,
        top_k: args.top_k,
        rules: None,
    };
    let start = Instant::now();
    let result = if args.count_only && query.is_all() {
        let mut sink = CountSink::default();
        mine_with(&args.kernel, &variant, &db, minsup, args.threads, query, &mut sink).map(|()| {
            eprintln!(
                "{} frequent itemsets in {:.3}s",
                sink.count,
                start.elapsed().as_secs_f64()
            );
        })
    } else {
        let mut sink = CollectSink::default();
        mine_with(&args.kernel, &variant, &db, minsup, args.threads, query, &mut sink).map(|()| {
            // A top-k answer is *ordered* (support desc, serial rank
            // asc) — canonicalizing would destroy the ranking, so only
            // unranked answers are canonicalized for stable output.
            let patterns = if query.top_k.is_some() {
                sink.patterns
            } else {
                fpm::types::canonicalize(sink.patterns)
            };
            eprintln!(
                "{} {} itemsets in {:.3}s",
                patterns.len(),
                query.label(),
                start.elapsed().as_secs_f64()
            );
            if args.count_only {
                return;
            }
            match &args.out {
                Some(path) => {
                    let f = std::fs::File::create(path).expect("create output file");
                    fpm::io::write_patterns(f, &patterns).expect("write patterns");
                }
                None => {
                    let stdout = std::io::stdout();
                    let mut lock = stdout.lock();
                    fpm::io::write_patterns(&mut lock, &patterns).expect("write patterns");
                    lock.flush().ok();
                }
            }
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
