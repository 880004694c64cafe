//! Self-check: the lint must run clean on the real workspace, with
//! zero diagnostics — the same invariant CI enforces with
//! `cargo run -p xtask -- lint`.

use std::path::Path;
use std::process::Command;
use xtask::lint_workspace;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn workspace_lints_clean() {
    let diags = lint_workspace(repo_root()).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace has {} also-lint diagnostic(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_exits_zero_on_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_also-lint"))
        .args(["lint", "--root"])
        .arg(repo_root())
        .output()
        .expect("spawn also-lint");
    assert!(
        out.status.success(),
        "also-lint exited {:?}:\n{}{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_reports_usage_error_without_subcommand() {
    let out = Command::new(env!("CARGO_BIN_EXE_also-lint"))
        .output()
        .expect("spawn also-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_emits_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_also-lint"))
        .args(["lint", "--format", "json", "--root"])
        .arg(repo_root())
        .output()
        .expect("spawn also-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"count\""));
    assert!(stdout.contains("\"diagnostics\""));
}

#[test]
fn binary_emits_sarif_with_all_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_also-lint"))
        .args(["lint", "--format", "sarif", "--root"])
        .arg(repo_root())
        .output()
        .expect("spawn also-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\": \"2.1.0\""));
    assert!(stdout.contains("\"name\": \"also-lint\""));
    for id in xtask::RULE_IDS {
        assert!(stdout.contains(id), "sarif driver missing rule {id}");
    }
}

#[test]
fn binary_explains_every_rule_and_rejects_unknown() {
    for id in xtask::RULE_IDS {
        let out = Command::new(env!("CARGO_BIN_EXE_also-lint"))
            .args(["lint", "--explain", id])
            .output()
            .expect("spawn also-lint");
        assert!(out.status.success(), "--explain {id} failed");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with(id),
            "--explain {id} output does not lead with the rule id"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_also-lint"))
        .args(["lint", "--explain", "no-such-rule"])
        .output()
        .expect("spawn also-lint");
    assert_eq!(out.status.code(), Some(2));
}
