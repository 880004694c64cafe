//! Fixture-based tests for the `also-lint` rules: one good and one bad
//! fixture per rule under `tests/fixtures/`. Bad fixtures must trigger
//! exactly their own rule; good fixtures must lint clean under the same
//! file context.

use std::fs;
use std::path::Path;
use xtask::{lint_source, to_json, FileCtx};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn ctx(name: &str) -> FileCtx {
    FileCtx {
        path: format!("tests/fixtures/{name}"),
        // R2 only fires on crate roots; the r2 fixtures model one.
        is_crate_root: name.starts_with("r2"),
        in_also: false,
        // R3 only fires on emission/merge-path modules.
        emission_path: name.starts_with("r3"),
        // R6 is suspended inside the executor and kernel crates; the
        // fixtures model ordinary caller code.
        kernel_internal: false,
        // R7 is suspended inside crates/chaos and fpm::faults; the
        // fixtures model production code outside that zone.
        chaos_zone: false,
        // R11 only fires on panic-free paths.
        panic_free_path: name.starts_with("r11"),
    }
}

fn check(name: &str, expected_rule: &str, expect_bad: bool) {
    let diags = lint_source(&ctx(name), &fixture(name));
    if expect_bad {
        assert!(
            !diags.is_empty(),
            "{name}: expected ≥1 `{expected_rule}` diagnostic, got none"
        );
        for d in &diags {
            assert_eq!(
                d.rule, expected_rule,
                "{name}: expected only `{expected_rule}`, got {d}"
            );
        }
    } else {
        assert!(
            diags.is_empty(),
            "{name}: expected clean, got: {}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

#[test]
fn r1_safety_comments() {
    check("r1_good.rs", "safety-comments", false);
    check("r1_bad.rs", "safety-comments", true);
}

#[test]
fn r2_lint_headers() {
    check("r2_good.rs", "lint-headers", false);
    check("r2_bad.rs", "lint-headers", true);
    // Both headers are missing, so both must be reported.
    let diags = lint_source(&ctx("r2_bad.rs"), &fixture("r2_bad.rs"));
    assert_eq!(diags.len(), 2);
}

#[test]
fn r3_deterministic_iteration() {
    check("r3_good.rs", "deterministic-iteration", false);
    check("r3_bad.rs", "deterministic-iteration", true);
    // Both the `for … in &map` loop and the `.keys()` call are caught.
    let diags = lint_source(&ctx("r3_bad.rs"), &fixture("r3_bad.rs"));
    assert_eq!(diags.len(), 2);
    // Off the emission path the same source is fine.
    let mut off = ctx("r3_bad.rs");
    off.emission_path = false;
    assert!(lint_source(&off, &fixture("r3_bad.rs")).is_empty());
}

#[test]
fn r4_hot_loop_alloc() {
    check("r4_good.rs", "hot-loop-alloc", false);
    check("r4_bad.rs", "hot-loop-alloc", true);
}

#[test]
fn r5_unchecked_indexing() {
    check("r5_good.rs", "unchecked-indexing", false);
    check("r5_bad.rs", "unchecked-indexing", true);
    // The same source inside crates/also is allowed.
    let mut also = ctx("r5_bad.rs");
    also.in_also = true;
    assert!(lint_source(&also, &fixture("r5_bad.rs")).is_empty());
}

#[test]
fn r6_kernel_entry() {
    check("r6_good.rs", "kernel-entry", false);
    check("r6_bad.rs", "kernel-entry", true);
    // The bad fixture names the spine type three times, `root_tasks` and
    // `mine_tasks` once each, and the retired controlled entry point once.
    let diags = lint_source(&ctx("r6_bad.rs"), &fixture("r6_bad.rs"));
    assert_eq!(diags.len(), 6);
    // The same source inside the kernel-internal zone is allowed.
    let mut inside = ctx("r6_bad.rs");
    inside.kernel_internal = true;
    assert!(lint_source(&inside, &fixture("r6_bad.rs")).is_empty());
}

#[test]
fn r7_chaos_sites() {
    check("r7_good.rs", "chaos-sites", false);
    check("r7_bad.rs", "chaos-sites", true);
    // FaultPlan + FaultSite + faults::install + the unqualified hook.
    let diags = lint_source(&ctx("r7_bad.rs"), &fixture("r7_bad.rs"));
    assert_eq!(diags.len(), 4);
    // The same source inside the chaos zone is allowed.
    let mut zone = ctx("r7_bad.rs");
    zone.chaos_zone = true;
    assert!(lint_source(&zone, &fixture("r7_bad.rs")).is_empty());
}

#[test]
fn r8_atomic_ordering() {
    check("r8_good.rs", "atomic-ordering", false);
    check("r8_bad.rs", "atomic-ordering", true);
    // The SeqCst store, the Relaxed non-counter load, and the
    // variable-ordering RMW are each reported.
    let diags = lint_source(&ctx("r8_bad.rs"), &fixture("r8_bad.rs"));
    assert_eq!(diags.len(), 3);
}

#[test]
fn r9_lock_order() {
    check("r9_good.rs", "lock-order", false);
    check("r9_bad.rs", "lock-order", true);
    // The diagnostic names the witness cycle with both acquisition
    // sites, so the report is actionable without re-deriving the graph.
    let diags = lint_source(&ctx("r9_bad.rs"), &fixture("r9_bad.rs"));
    assert_eq!(diags.len(), 1);
    let msg = &diags[0].message;
    assert!(
        msg.contains("queue -> cache -> queue") || msg.contains("cache -> queue -> cache"),
        "witness path missing: {msg}"
    );
    assert!(msg.contains("while holding"), "witness sites missing: {msg}");
}

#[test]
fn r11_panic_path() {
    check("r11_good.rs", "panic-path", false);
    check("r11_bad.rs", "panic-path", true);
    // unwrap, expect, panic!, and the indexing are each reported.
    let diags = lint_source(&ctx("r11_bad.rs"), &fixture("r11_bad.rs"));
    assert_eq!(diags.len(), 4);
    // Off the panic-free path the same source is fine.
    let mut off = ctx("r11_bad.rs");
    off.panic_free_path = false;
    assert!(lint_source(&off, &fixture("r11_bad.rs")).is_empty());
}

#[test]
fn r12_guard_across_wait() {
    check("r12_good.rs", "guard-across-await-free-wait", false);
    check("r12_bad.rs", "guard-across-await-free-wait", true);
    let diags = lint_source(&ctx("r12_bad.rs"), &fixture("r12_bad.rs"));
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("guard `q`"));
}

#[test]
fn json_output_round_trips_fixture_diagnostics() {
    let diags = lint_source(&ctx("r5_bad.rs"), &fixture("r5_bad.rs"));
    let json = to_json(&diags);
    assert!(json.contains("\"count\": 1"));
    assert!(json.contains("\"rule\": \"unchecked-indexing\""));
    assert!(json.contains("tests/fixtures/r5_bad.rs"));
}
