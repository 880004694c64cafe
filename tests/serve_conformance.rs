//! Service-layer conformance: stopped runs emit serial-order prefixes,
//! cache hits are byte-identical to cold runs, every query of a key is
//! derived from one mine, and every wire line — over stdio or TCP — gets
//! exactly one in-order answer.
//!
//! The service's central claim (DESIGN.md §10) is that *every* response
//! — complete, budget-truncated, cancelled, or deadline-cut — is a
//! contiguous prefix of the kernel's deterministic serial emission
//! order. This suite drives the claim through both [`MinePlan`]
//! execution paths (serial streaming and the work-stealing runtime)
//! for all three kernels, across every budget value, and
//! property-tests the cache-hit path end to end.

use chaos::goldens::{self, GoldenCase, PREFIX_LINES};
use exec::MinePlan;
use fpm::control::MineControl;
use fpm::{
    CollectSink, ItemsetCount, PatternQuery, PatternSink, RecordSink, RuleSpec, TransactionDb,
};
use proptest::prelude::*;
use serve::{DatasetSpec, FrontendConfig, Kernel, MineRequest, MineService, Outcome, ServeConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

fn toy() -> TransactionDb {
    TransactionDb::from_transactions(vec![
        vec![0, 2, 5],
        vec![1, 2, 5],
        vec![0, 2, 5],
        vec![3, 4],
        vec![0, 1, 2, 3, 4, 5],
    ])
}

/// The full serial emission sequence (not canonicalized — order is the
/// property under test).
fn serial(kernel: Kernel, db: &TransactionDb, minsup: u64) -> Vec<ItemsetCount> {
    let mut sink = CollectSink::default();
    match kernel {
        Kernel::Lcm => {
            lcm::mine(db, minsup, &lcm::LcmConfig::all(), &mut sink);
        }
        Kernel::Eclat => {
            eclat::mine(db, minsup, &eclat::EclatConfig::all(), &mut sink);
        }
        Kernel::FpGrowth => {
            fpgrowth::mine(db, minsup, &fpgrowth::FpConfig::all(), &mut sink);
        }
    }
    sink.patterns
}

fn controlled_serial(
    kernel: Kernel,
    db: &TransactionDb,
    minsup: u64,
    control: &MineControl,
) -> Vec<ItemsetCount> {
    let mut sink = CollectSink::default();
    MinePlan::kernel(kernel, minsup).execute_controlled(db, control, &mut sink);
    sink.patterns
}

fn controlled_parallel(
    kernel: Kernel,
    db: &TransactionDb,
    minsup: u64,
    control: &MineControl,
    threads: usize,
) -> (Vec<ItemsetCount>, bool) {
    let mut sink = CollectSink::default();
    let summary = MinePlan::kernel(kernel, minsup)
        .threads(threads)
        .execute_controlled(db, control, &mut sink);
    (sink.patterns, summary.complete)
}

/// Serial controlled runs under every budget value emit exactly the
/// first `budget` patterns of the serial order — for all three kernels.
#[test]
fn budget_prefixes_match_serial_order_serially() {
    let db = toy();
    for kernel in Kernel::ALL {
        let full = serial(kernel, &db, 2);
        assert!(full.len() > 4, "{}: toy must emit enough", kernel.label());
        for budget in 0..=full.len() as u64 + 2 {
            let control = MineControl::with_budget(budget);
            let got = controlled_serial(kernel, &db, 2, &control);
            let want = budget.min(full.len() as u64) as usize;
            assert_eq!(
                got,
                full[..want],
                "{} budget={budget}: must be the exact serial prefix",
                kernel.label()
            );
        }
    }
}

/// The same property through the work-stealing parallel path: whatever
/// a tripped run merges is a contiguous serial-order prefix.
#[test]
fn parallel_cut_output_is_a_serial_prefix() {
    let db = toy();
    for kernel in Kernel::ALL {
        let full = serial(kernel, &db, 2);
        for threads in [1usize, 2, 3, 7] {
            for budget in [0u64, 1, 3, 5, full.len() as u64, full.len() as u64 + 5] {
                let control = MineControl::with_budget(budget);
                let (got, complete) = controlled_parallel(kernel, &db, 2, &control, threads);
                assert!(
                    got.len() as u64 <= budget,
                    "{} threads={threads} budget={budget}: over-delivered",
                    kernel.label()
                );
                assert_eq!(
                    got,
                    full[..got.len()],
                    "{} threads={threads} budget={budget}: not a serial prefix",
                    kernel.label()
                );
                if budget > full.len() as u64 {
                    assert!(complete, "{}: nothing tripped", kernel.label());
                    assert_eq!(got, full);
                }
            }
        }
    }
}

/// Pre-cancelled controls yield the empty prefix everywhere.
#[test]
fn cancelled_before_start_emits_nothing() {
    let db = toy();
    for kernel in Kernel::ALL {
        let control = MineControl::unlimited();
        control.cancel();
        assert!(controlled_serial(kernel, &db, 2, &control).is_empty());
        let (got, complete) = controlled_parallel(kernel, &db, 2, &control, 3);
        assert!(got.is_empty(), "{}", kernel.label());
        assert!(!complete);
    }
}

/// Renders response patterns in the canonical `RecordSink` line format,
/// so service output can be diffed against the committed corpus bytes.
fn render(patterns: &[ItemsetCount]) -> Vec<u8> {
    let mut sink = RecordSink::default();
    for p in patterns {
        sink.emit(&p.items, p.support);
    }
    sink.bytes
}

/// End-to-end against the committed golden corpus (`tests/goldens/`,
/// see `chaos::goldens`): a cold full response digests to the committed
/// reference, and a warm budget-limited request — served from cache —
/// reproduces the committed `.prefix` file byte-for-byte. The serial
/// reference is never recomputed here; the corpus is the oracle.
#[test]
fn service_responses_match_the_committed_corpus() {
    let digests = goldens::load_digests();
    let svc = MineService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let spec = DatasetSpec::Named {
        dataset: quest::Dataset::Ds1,
        scale: quest::Scale::Smoke,
    };
    for kernel in Kernel::ALL {
        let case = GoldenCase::smoke(kernel);
        let want = digests
            .get(&case.stem())
            .unwrap_or_else(|| panic!("{} missing from digests.txt", case.stem()));

        let cold = svc.mine(MineRequest::new(spec.clone(), kernel, case.minsup));
        assert_eq!(cold.outcome, Outcome::Complete, "{}", case.stem());
        assert!(!cold.stats.cache_hit);
        let bytes = render(cold.patterns.as_ref().expect("patterns included"));
        assert_eq!(cold.stats.emitted, want.lines, "{}: pattern count", case.stem());
        assert_eq!(goldens::fnv(&bytes), want.hash, "{}: cold response digest", case.stem());

        let mut req = MineRequest::new(spec.clone(), kernel, case.minsup);
        req.max_patterns = Some(PREFIX_LINES);
        let warm = svc.mine(req);
        assert!(warm.stats.cache_hit, "{}: warm request must hit the cache", case.stem());
        assert_eq!(
            render(warm.patterns.as_ref().expect("patterns included")),
            goldens::load_prefix(&case.stem()),
            "{}: cache-served budget cut ≠ committed prefix",
            case.stem()
        );
    }
    svc.shutdown();
}

/// Satellite: the single-flight stampede. K identical cold requests
/// arrive together; the service must mine exactly once and answer all
/// K byte-identically to the serial golden for that request. The
/// mining gate makes the pile-up deterministic: the leader registers,
/// parks before mining, the followers attach, then the gate opens.
#[test]
fn cold_stampede_mines_once_and_fans_out_identically() {
    const K: usize = 8;
    let db_rows = vec![
        vec![0, 2, 5],
        vec![1, 2, 5],
        vec![0, 2, 5],
        vec![3, 4],
        vec![0, 1, 2, 3, 4, 5],
    ];
    let golden = render(&serial(Kernel::Lcm, &toy(), 2));
    let svc = MineService::start(ServeConfig {
        shards: 2,
        workers: 2,
        ..ServeConfig::default()
    });
    let req = || MineRequest::new(DatasetSpec::Inline(db_rows.clone()), Kernel::Lcm, 2);

    svc.hold_mining(true);
    let leader = svc.submit(req());
    wait_for_counter(&svc, "singleflight_leaders", 1);
    let followers: Vec<_> = (0..K - 1).map(|_| svc.submit(req())).collect();
    wait_for_counter(&svc, "requests_coalesced", (K - 1) as u64);
    svc.hold_mining(false);

    let mut responses = vec![leader.wait()];
    responses.extend(followers.into_iter().map(|t| t.wait()));
    assert_eq!(responses.len(), K);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.outcome, Outcome::Complete, "request {i}");
        let bytes = render(resp.patterns.as_ref().expect("patterns included"));
        assert_eq!(
            bytes, golden,
            "request {i}: every stampede response is the single-request golden"
        );
    }
    let m = svc.metrics();
    assert_eq!(m.get("mined_runs"), 1, "the K-way stampede mined exactly once");
    assert_eq!(m.get("singleflight_leaders"), 1);
    assert_eq!(m.get("requests_coalesced"), (K - 1) as u64);
    assert_eq!(m.get("coalesced_served"), (K - 1) as u64);
    assert_eq!(m.get("coalesced_requeued"), 0);
    svc.shutdown();
}

fn wait_for_counter(svc: &MineService, name: &str, want: u64) {
    for _ in 0..5000 {
        if svc.metrics().get(name) >= want {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!(
        "counter {name} never reached {want} (at {})",
        svc.metrics().get(name)
    );
}

/// Satellite: loadgen determinism. The same seed and config must derive
/// the same arrival schedule (same digest) and — on a service that
/// absorbs the offered load — the same deterministic report half; a
/// different seed must offer different traffic.
#[test]
fn loadgen_reruns_reproduce_the_deterministic_summary() {
    use serve::loadgen::{self, LoadConfig};
    let cfg = LoadConfig {
        rps: 300.0,
        duration: std::time::Duration::from_millis(150),
        keys: 6,
        ..LoadConfig::default()
    };
    let a = loadgen::schedule(&cfg);
    let b = loadgen::schedule(&cfg);
    assert_eq!(a, b, "the schedule is a pure function of the config");
    assert_ne!(
        loadgen::schedule_digest(&loadgen::schedule(&LoadConfig { seed: cfg.seed + 1, ..cfg })),
        loadgen::schedule_digest(&a),
        "a different seed offers different traffic"
    );

    let run_once = || {
        let svc = MineService::start(ServeConfig {
            shards: 2,
            workers: 2,
            queue_depth: 4096,
            ..ServeConfig::default()
        });
        let report = loadgen::run(&svc, &cfg);
        svc.shutdown();
        report
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(
        first.deterministic_summary(),
        second.deterministic_summary(),
        "same seed + config must reproduce the BENCH_serve.json summary \
         modulo timing percentiles"
    );
    assert_eq!(first.requests, a.len() as u64, "every scheduled arrival was offered");
    assert_eq!(first.rejected, 0, "the gentle config is fully absorbed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: shard routing. Routing is a stable pure function of
    /// the dataset spec, and every request is counted on the shard its
    /// spec routes to.
    #[test]
    fn shard_routing_is_stable_and_metrics_partition(
        dbs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::btree_set(0u32..12, 1..5)
                    .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
                1..6),
            1..8),
        shards in 1usize..5,
        repeats in 1usize..3,
    ) {
        let svc = MineService::start(ServeConfig {
            shards,
            workers: 1,
            ..ServeConfig::default()
        });
        prop_assert_eq!(svc.shard_count(), shards.max(1));
        let specs: Vec<DatasetSpec> =
            dbs.iter().map(|rows| DatasetSpec::Inline(rows.clone())).collect();
        let routed: Vec<usize> = specs.iter().map(|s| svc.shard_of(s)).collect();
        for _ in 0..repeats {
            for (spec, &shard) in specs.iter().zip(&routed) {
                prop_assert_eq!(
                    svc.shard_of(spec), shard,
                    "routing must not drift while the service runs"
                );
                let resp = svc.mine(MineRequest::new(spec.clone(), Kernel::Eclat, 1));
                prop_assert_eq!(resp.outcome, Outcome::Complete);
            }
        }
        let total_requests = (dbs.len() * repeats) as u64;
        prop_assert_eq!(svc.metrics().get("requests_submitted"), total_requests);
        // Each spec's traffic landed entirely on its routed shard.
        for shard in 0..svc.shard_count() {
            let routed_here = routed.iter().filter(|&&s| s == shard).count() * repeats;
            prop_assert_eq!(
                svc.shard_metrics(shard).get("requests_submitted"),
                routed_here as u64
            );
        }
        svc.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random databases, all kernels, serial + parallel: every budget
    /// cut is a prefix of the full serial order.
    #[test]
    fn random_budget_cuts_are_serial_prefixes(
        db in prop::collection::vec(
            prop::collection::btree_set(0u32..10, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            0..30),
        minsup in 1u64..4,
        budget in 0u64..40,
        threads in 1usize..5,
    ) {
        let db = TransactionDb::from_transactions(db);
        for kernel in Kernel::ALL {
            let full = serial(kernel, &db, minsup);
            let control = MineControl::with_budget(budget);
            let got = controlled_serial(kernel, &db, minsup, &control);
            let want = (budget as usize).min(full.len());
            prop_assert_eq!(&got, &full[..want], "{} serial", kernel.label());

            let control = MineControl::with_budget(budget);
            let (got, _) = controlled_parallel(kernel, &db, minsup, &control, threads);
            prop_assert!(got.len() as u64 <= budget);
            prop_assert_eq!(&got, &full[..got.len()], "{} parallel", kernel.label());
        }
    }

    /// End-to-end through the service: a cache hit answers byte-identical
    /// to the cold run that populated it, without mining again.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_runs(
        db in prop::collection::vec(
            prop::collection::btree_set(0u32..10, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..25),
        minsup in 1u64..4,
    ) {
        let svc = MineService::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        for kernel in Kernel::ALL {
            let req = || MineRequest::new(DatasetSpec::Inline(db.clone()), kernel, minsup);
            let cold = svc.mine(req());
            prop_assert_eq!(cold.outcome, Outcome::Complete);
            prop_assert!(!cold.stats.cache_hit);
            let mined = svc.metrics().get("mined_runs");
            let hit = svc.mine(req());
            prop_assert_eq!(hit.outcome, Outcome::Complete);
            prop_assert!(hit.stats.cache_hit, "{}", kernel.label());
            prop_assert_eq!(svc.metrics().get("mined_runs"), mined, "hit must not mine");
            prop_assert_eq!(hit.patterns, cold.patterns, "{}", kernel.label());
        }
        svc.shutdown();
    }
}

/// The five queries a perfbench query session asks of every key: the
/// loadgen palette (all, closed, maximal, top-32) and rules at
/// confidence 0.9.
fn session_queries() -> Vec<PatternQuery> {
    let mut queries = serve::loadgen::query_palette().to_vec();
    queries.push(PatternQuery::all().rules(RuleSpec::confidence(0.9)));
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serve mines one All set per `(dataset, kernel, minsup)` and
    /// derives every query's answer from it: asked one after another in
    /// any order, or submitted together onto one flight, the five
    /// session queries cost one mine and answer byte-identically to the
    /// plan's own query path.
    #[test]
    fn every_query_of_a_key_derives_from_one_mine(
        rows in prop::collection::vec(
            prop::collection::btree_set(0u32..10, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..25),
        minsup in 1u64..4,
        kernel in 0usize..3,
        order in prop::collection::vec(any::<u64>(), 5..6),
    ) {
        let kernel = Kernel::ALL[kernel];
        let queries = session_queries();
        // A random permutation: the query indices sorted by random keys.
        let mut perm: Vec<usize> = (0..queries.len()).collect();
        perm.sort_by_key(|&i| order[i]);
        let db = TransactionDb::from_transactions(rows.clone());
        let want: Vec<Vec<u8>> = queries
            .iter()
            .map(|&q| {
                let mut sink = RecordSink::default();
                MinePlan::kernel(kernel, minsup).query(q).threads(1).execute(&db, &mut sink);
                sink.bytes
            })
            .collect();
        let req = |i: usize| {
            MineRequest::new(DatasetSpec::Inline(rows.clone()), kernel, minsup)
                .with_query(queries[i])
        };
        for mine_threads in [1usize, 2] {
            let cfg = ServeConfig {
                workers: 2,
                mine_threads,
                ..ServeConfig::default()
            };
            let label = format!("{} mine_threads={mine_threads}", kernel.label());

            // One after another: the first query mines, the rest derive.
            let svc = MineService::start(cfg.clone());
            for &i in &perm {
                let resp = svc.mine(req(i));
                prop_assert_eq!(resp.outcome, Outcome::Complete);
                prop_assert_eq!(
                    render(resp.patterns.as_ref().expect("patterns included")),
                    want[i].clone(),
                    "{} {}", label, queries[i].label()
                );
            }
            prop_assert_eq!(svc.metrics().get("mined_runs"), 1, "{}", label);
            svc.shutdown();

            // Submitted together: one leader mines, four followers
            // attach to its flight and get their own query's answer.
            let svc = MineService::start(cfg);
            svc.hold_mining(true);
            let leader = svc.submit(req(perm[0]));
            wait_for_counter(&svc, "singleflight_leaders", 1);
            let followers: Vec<_> = perm[1..].iter().map(|&i| svc.submit(req(i))).collect();
            wait_for_counter(&svc, "requests_coalesced", (perm.len() - 1) as u64);
            svc.hold_mining(false);
            let mut tickets = vec![leader];
            tickets.extend(followers);
            for (&i, ticket) in perm.iter().zip(tickets) {
                let resp = ticket.wait();
                prop_assert_eq!(resp.outcome, Outcome::Complete);
                prop_assert_eq!(
                    render(resp.patterns.as_ref().expect("patterns included")),
                    want[i].clone(),
                    "{} {} (coalesced)", label, queries[i].label()
                );
            }
            let m = svc.metrics();
            prop_assert_eq!(m.get("mined_runs"), 1, "{}", label);
            prop_assert_eq!(m.get("coalesced_served"), (perm.len() - 1) as u64, "{}", label);
            svc.shutdown();
        }
    }
}

/// An item id for a valid wire request: mostly small, so rows share
/// items and mine something; one in four from the full `u32` range.
fn item_id() -> impl Strategy<Value = u32> {
    (0u32..8, any::<u32>(), 0u8..4).prop_map(|(small, id, pick)| if pick == 0 { id } else { small })
}

/// One line of the hostile wire battery: its bytes (no `\n`), and
/// whether it is a valid request that must complete.
fn wire_line() -> impl Strategy<Value = (Vec<u8>, bool)> {
    (
        0u8..4,
        prop::collection::vec(any::<u8>(), 0..200),
        1usize..10_001,
        prop::collection::vec(prop::collection::btree_set(item_id(), 1..5), 1..6),
    )
        .prop_map(|(kind, bytes, n, rows)| {
            let rows: Vec<String> = rows
                .iter()
                .map(|row| {
                    let items: Vec<String> = row.iter().map(u32::to_string).collect();
                    format!("[{}]", items.join(","))
                })
                .collect();
            let request = |min_support: &str| {
                format!(
                    r#"{{"dataset":{{"inline":[{}]}},"kernel":"{}","min_support":{min_support}}}"#,
                    rows.join(","),
                    Kernel::ALL[n % Kernel::ALL.len()].label()
                )
            };
            match kind {
                // Arbitrary bytes: invalid UTF-8, control bytes, junk.
                0 => (bytes.into_iter().filter(|&b| b != b'\n').collect(), false),
                // `[` nested up to 10 000 deep, closed or not.
                1 if n % 2 == 0 => (
                    format!("{}{}", "[".repeat(n), "]".repeat(n)).into_bytes(),
                    false,
                ),
                1 => ("[".repeat(n).into_bytes(), false),
                // A 400-digit number where the service expects a u64.
                2 => {
                    let digits: String = (0..400)
                        .map(|i| char::from(b'1' + bytes.get(i).map_or(0, |b| b % 9)))
                        .collect();
                    (request(&digits).into_bytes(), false)
                }
                _ => (request(&(1 + n % 3).to_string()).into_bytes(), true),
            }
        })
}

/// A wire battery as one input stream, and the outcome owed to each of
/// its non-blank lines, in order.
fn wire_batch(batch: &[(Vec<u8>, bool)]) -> (Vec<u8>, Vec<&'static str>) {
    let mut input = Vec::new();
    let mut want = Vec::new();
    for (bytes, valid) in batch {
        input.extend_from_slice(bytes);
        input.push(b'\n');
        if !String::from_utf8_lossy(bytes).trim().is_empty() {
            want.push(if *valid { "complete" } else { "rejected" });
        }
    }
    (input, want)
}

/// The outcome of every response line in `text`.
fn outcomes(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| {
            let v = serve::json::parse(line).expect("each response is one JSON line");
            v.get("outcome").and_then(|o| o.as_str()).unwrap_or("").to_string()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hostile wire battery: whatever bytes a batch carries, `serve_lines`
    /// returns `Ok` and answers every non-blank line exactly once, in
    /// order — valid requests `complete`, everything else `rejected`.
    #[test]
    fn every_wire_line_gets_one_in_order_answer(
        batch in prop::collection::vec(wire_line(), 1..12),
    ) {
        let svc = MineService::start(ServeConfig::default());
        let (input, want) = wire_batch(&batch);
        let mut out = Vec::new();
        let served = serve::serve_lines(&svc, input.as_slice(), &mut out);
        prop_assert!(served.is_ok(), "{:?}", served);
        let text = String::from_utf8(out).expect("responses are UTF-8");
        prop_assert_eq!(outcomes(&text), want);
        svc.shutdown();
    }

    /// The same battery over TCP through the poll frontend on loopback:
    /// one in-order answer per non-blank line, while a second connection
    /// whose line outgrows `max_line_bytes` gets one `rejected` line and
    /// is closed.
    #[test]
    fn every_wire_line_gets_one_in_order_answer_over_tcp(
        batch in prop::collection::vec(wire_line(), 1..12),
    ) {
        let svc = MineService::start(ServeConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        // Above the battery's longest line (20 000 nested brackets).
        let cfg = FrontendConfig {
            max_line_bytes: 1 << 16,
            ..FrontendConfig::default()
        };
        let server = {
            let svc = svc.clone();
            std::thread::spawn(move || serve::serve_poll(&svc, listener, cfg, Some(2)))
        };
        // A valid request padded past the cap, sent without its newline:
        // the cap trips only once every byte sent has been read, so the
        // frontend's close is orderly and the rejection arrives intact.
        let oversized = std::thread::spawn(move || -> std::io::Result<String> {
            let mut line =
                br#"{"dataset":{"inline":[[1,2],[2]]},"kernel":"lcm","min_support":1}"#.to_vec();
            line.resize(cfg.max_line_bytes + 1, b' ');
            let mut stream = TcpStream::connect(addr)?;
            stream.write_all(&line)?;
            let mut text = String::new();
            stream.read_to_string(&mut text)?;
            Ok(text)
        });
        let (input, want) = wire_batch(&batch);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&input).expect("send the batch");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read the answers");
        prop_assert_eq!(outcomes(&text), want);

        let refused = oversized.join().expect("oversized client").expect("oversized client io");
        prop_assert_eq!(outcomes(&refused), vec!["rejected".to_string()]);
        prop_assert!(refused.contains("exceeds"), "{}", refused);
        let stats = server.join().expect("frontend thread").expect("serve_poll");
        prop_assert_eq!(stats.connections_served, 2);
        svc.shutdown();
    }
}
