//! Workspace task driver:
//!
//! * `cargo run -p xtask -- lint [--format text|json|sarif] [--root DIR]`
//!   — the `also-lint` static analysis pass; any diagnostic fails it.
//! * `cargo run -p xtask -- lint --explain <rule>` — print the full
//!   rationale for one rule.
//! * `cargo run -p xtask -- regen-goldens` — rewrite the golden corpus
//!   under `tests/goldens/` (shells out to the `chaos` crate's
//!   release-built `regen-goldens` bin; the CI-scale datasets are
//!   minutes-slow unoptimized, and xtask itself stays dependency-free).
//!
//! Exit codes: 0 = clean, 1 = diagnostics found, 2 = usage/IO error.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{explain, lint_workspace, to_json, to_sarif, RULE_IDS};

const USAGE: &str = "usage: cargo run -p xtask -- <lint [--format text|json|sarif] [--root DIR] [--explain RULE] | regen-goldens>";

/// Rebuilds `tests/goldens/` by delegating to the chaos crate's bin.
fn regen_goldens() -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args(["run", "--release", "-p", "chaos", "--bin", "regen-goldens"])
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("xtask: regen-goldens exited {:?}", s.code());
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("xtask: cannot spawn cargo: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    let mut saw_lint = false;
    let mut explain_rule: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "lint" => saw_lint = true,
            "regen-goldens" => return regen_goldens(),
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" || f == "sarif" => format = f.clone(),
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--explain" => match it.next() {
                Some(r) => explain_rule = Some(r.clone()),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("also-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !saw_lint {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if let Some(rule) = explain_rule {
        return match explain(&rule) {
            Some(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "also-lint: unknown rule `{rule}`; known rules: {}",
                    RULE_IDS.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }

    // Default root: the workspace containing this crate (CARGO_MANIFEST_DIR
    // is crates/xtask at compile time; at run time prefer the cargo-provided
    // workspace cwd so `--root` stays optional under `cargo run`).
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let diags = match lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("also-lint: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match format.as_str() {
        "json" => print!("{}", to_json(&diags)),
        "sarif" => print!("{}", to_sarif(&diags)),
        _ => {
            for d in &diags {
                println!("{d}");
            }
            if diags.is_empty() {
                eprintln!("also-lint: workspace clean");
            } else {
                eprintln!("also-lint: {} diagnostic(s)", diags.len());
            }
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
