//! Outcome-taxonomy acceptance tests for the mining service.
//!
//! The load-bearing guarantees, measured end to end:
//!
//! * a short-deadline request on a large synthetic dataset answers
//!   `deadline_exceeded` within **2× the deadline** — cooperative
//!   cancellation really does bound latency;
//! * the same request *without* a deadline answers `complete` with
//!   patterns byte-identical to the serial miner;
//! * whatever a stopped run did deliver is a contiguous **prefix** of
//!   that serial order;
//! * a repeated request is served from the result cache without mining
//!   (verified through the metrics counters).

use fpm_serve::{
    serve_lines, DatasetSpec, Kernel, MineRequest, MineService, Outcome, ServeConfig,
};
use std::time::{Duration, Instant};

/// DS1 at smoke scale with a support low enough that a full mine takes
/// on the order of a second — long enough that a sub-second deadline
/// reliably trips mid-run.
const MINSUP: u64 = 25;

fn big_spec() -> DatasetSpec {
    DatasetSpec::Named {
        dataset: quest::Dataset::Ds1,
        scale: quest::Scale::Smoke,
    }
}

fn serial_patterns() -> Vec<fpm::ItemsetCount> {
    let db = quest::Dataset::Ds1.generate(quest::Scale::Smoke);
    let mut sink = fpm::CollectSink::default();
    lcm::mine(&db, MINSUP, &lcm::LcmConfig::all(), &mut sink);
    sink.patterns
}

/// Warms the service's named-dataset cache so deadline measurements
/// start at mining, not at dataset generation.
fn warm(svc: &MineService) {
    let mut req = MineRequest::new(big_spec(), Kernel::Lcm, 2_000_000);
    req.include_patterns = false;
    let r = svc.mine(req);
    assert_eq!(r.outcome, Outcome::Complete);
}

#[test]
fn deadline_exceeded_within_twice_the_deadline() {
    let svc = MineService::start(ServeConfig::default());
    warm(&svc);
    let deadline = Duration::from_millis(300);
    let mut req = MineRequest::new(big_spec(), Kernel::Lcm, MINSUP);
    req.deadline = Some(deadline);
    let started = Instant::now();
    let resp = svc.mine(req);
    let elapsed = started.elapsed();
    assert_eq!(resp.outcome, Outcome::DeadlineExceeded);
    assert!(
        elapsed < 2 * deadline,
        "deadline {deadline:?} but the response took {elapsed:?}"
    );

    // The truncated output is a contiguous prefix of the serial order.
    let serial = serial_patterns();
    let got = resp.patterns.expect("patterns included by default");
    assert!(
        got.len() < serial.len(),
        "the deadline must have cut the run short"
    );
    assert_eq!(
        *got,
        serial[..got.len()],
        "cut output must be a prefix of serial emission order"
    );

    // The same request without a deadline completes, byte-identical to
    // the serial miner.
    let resp = svc.mine(MineRequest::new(big_spec(), Kernel::Lcm, MINSUP));
    assert_eq!(resp.outcome, Outcome::Complete);
    assert!(!resp.stats.truncated);
    assert_eq!(*resp.patterns.expect("patterns"), serial);
    svc.shutdown();
}

#[test]
fn cancellation_cuts_a_running_request() {
    let svc = MineService::start(ServeConfig::default());
    warm(&svc);
    let mut req = MineRequest::new(big_spec(), Kernel::Lcm, MINSUP);
    req.include_patterns = false;
    let ticket = svc.submit(req);
    // Let the worker get into the recursion, then cancel.
    std::thread::sleep(Duration::from_millis(60));
    let started = Instant::now();
    ticket.cancel();
    let resp = ticket.wait();
    assert_eq!(resp.outcome, Outcome::Cancelled);
    assert!(
        started.elapsed() < Duration::from_millis(600),
        "cancellation must take effect promptly"
    );
    assert_eq!(svc.metrics().get("requests_cancelled"), 1);
    svc.shutdown();
}

#[test]
fn repeated_request_is_served_from_cache_without_mining() {
    let svc = MineService::start(ServeConfig::default());
    let req = || {
        let mut r = MineRequest::new(big_spec(), Kernel::Eclat, 60);
        r.include_patterns = true;
        r
    };
    let cold = svc.mine(req());
    assert_eq!(cold.outcome, Outcome::Complete);
    assert!(!cold.stats.cache_hit);
    let mined_before = svc.metrics().get("mined_runs");
    let hits_before = svc.metrics().get("cache_hits");

    let warm = svc.mine(req());
    assert_eq!(warm.outcome, Outcome::Complete);
    assert!(warm.stats.cache_hit);
    assert_eq!(
        svc.metrics().get("mined_runs"),
        mined_before,
        "cache hit must not mine"
    );
    assert_eq!(svc.metrics().get("cache_hits"), hits_before + 1);
    assert_eq!(warm.patterns, cold.patterns, "hit is byte-identical to the cold run");
    svc.shutdown();
}

#[test]
fn mixed_batch_exercises_the_outcome_taxonomy() {
    // One line-protocol batch that lands in every outcome class:
    // complete, deadline_exceeded, rejected (admission is covered by
    // unit tests; here a parse error and an unknown dataset reject).
    let svc = MineService::start(ServeConfig::default());
    let batch = concat!(
        r#"{"dataset":{"inline":[[1,2,3],[1,2],[2,3]]},"kernel":"lcm","min_support":2}"#,
        "\n",
        r#"{"dataset":{"name":"ds1","scale":"smoke"},"kernel":"lcm","min_support":25,"deadline_ms":150,"include_patterns":false}"#,
        "\n",
        r#"{"dataset":{"path":"/no/such/file.dat"},"kernel":"lcm","min_support":2}"#,
        "\n",
        "this is not json\n",
    );
    let mut out = Vec::new();
    serve_lines(&svc, batch.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let outcomes: Vec<String> = text
        .lines()
        .map(|l| {
            fpm_serve::json::parse(l)
                .unwrap()
                .get("outcome")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        outcomes,
        vec!["complete", "deadline_exceeded", "rejected", "rejected"]
    );
    let m = svc.metrics();
    assert_eq!(m.get("requests_completed"), 1);
    assert_eq!(m.get("requests_deadline_exceeded"), 1);
    assert!(m.get("requests_rejected") >= 1);
    svc.shutdown();
}

#[test]
fn hostile_paths_are_rejected_and_the_batch_goes_on() {
    // A device that reads as one endless line, a directory, and a
    // readable file that is not a FIMI file. Each is rejected, no reason
    // quotes a byte of the file, and the line after each is answered.
    let dir = std::env::temp_dir().join(format!("fpm-serve-paths-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let secret = dir.join("secret.dat");
    std::fs::write(&secret, "secret-token 1 2\n").unwrap();
    let mut paths = vec![dir.display().to_string(), secret.display().to_string()];
    if cfg!(unix) {
        paths.insert(0, "/dev/zero".to_string());
    }
    let mut batch = String::new();
    for path in &paths {
        let quoted = fpm_serve::json::Json::Str(path.clone()).render();
        batch.push_str(&format!(
            r#"{{"dataset":{{"path":{quoted}}},"kernel":"lcm","min_support":1,"deadline_ms":200}}"#
        ));
        batch.push('\n');
        batch.push_str(r#"{"dataset":{"inline":[[1,2],[1,2]]},"kernel":"lcm","min_support":2}"#);
        batch.push('\n');
    }
    let svc = MineService::start(ServeConfig::default());
    let mut out = Vec::new();
    serve_lines(&svc, batch.as_bytes(), &mut out).unwrap();
    svc.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
    let replies: Vec<fpm_serve::json::Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| fpm_serve::json::parse(l).unwrap())
        .collect();
    assert_eq!(replies.len(), 2 * paths.len());
    let field = |r: &fpm_serve::json::Json, key: &str| {
        r.get(key)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    for (path, pair) in paths.iter().zip(replies.chunks(2)) {
        assert_eq!(field(&pair[0], "outcome"), "rejected", "{path}");
        let reason = field(&pair[0], "reason");
        assert!(reason.contains(path.as_str()), "{path}: {reason}");
        assert!(!reason.contains("secret-token"), "{path}: {reason}");
        assert_eq!(
            field(&pair[1], "outcome"),
            "complete",
            "the line after {path}"
        );
    }
    let secret_reason = field(&replies[replies.len() - 2], "reason");
    assert!(secret_reason.contains("line 1"), "{secret_reason}");
}

#[test]
fn parallel_service_deadline_still_yields_serial_prefix() {
    let svc = MineService::start(ServeConfig {
        mine_threads: 4,
        ..ServeConfig::default()
    });
    warm(&svc);
    let mut req = MineRequest::new(big_spec(), Kernel::Lcm, MINSUP);
    req.deadline = Some(Duration::from_millis(200));
    let resp = svc.mine(req);
    assert_eq!(resp.outcome, Outcome::DeadlineExceeded);
    let serial = serial_patterns();
    let got = resp.patterns.expect("patterns");
    assert!(got.len() < serial.len());
    assert_eq!(
        *got,
        serial[..got.len()],
        "parallel cut output must still be a serial-order prefix"
    );
    svc.shutdown();
}
