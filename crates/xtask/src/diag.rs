//! Diagnostic type and output formats.
//!
//! Every rule reports through [`Diagnostic`]; the driver sorts them and
//! renders either the grep-friendly text form (`file:line: rule-id:
//! message`) or a JSON array (`--format json`) for machine consumption.

use std::fmt;

/// The stable identifiers of the rules `also-lint` enforces.
pub const RULE_IDS: &[&str] = &[
    "safety-comments",
    "lint-headers",
    "deterministic-iteration",
    "hot-loop-alloc",
    "unchecked-indexing",
    "kernel-entry",
    "chaos-sites",
    "atomic-ordering",
    "lock-order",
    "panic-path",
    "guard-across-await-free-wait",
];

/// One finding: a rule violated at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative path (forward slashes) of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule identifier, one of [`RULE_IDS`].
    pub rule: &'static str,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `diags` as a stable JSON document:
/// `{"count": N, "diagnostics": [{file, line, rule, message}, …]}`.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"count\": ");
    out.push_str(&diags.len().to_string());
    out.push_str(",\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": \"");
        out.push_str(&json_escape(&d.file));
        out.push_str("\", \"line\": ");
        out.push_str(&d.line.to_string());
        out.push_str(", \"rule\": \"");
        out.push_str(d.rule);
        out.push_str("\", \"message\": \"");
        out.push_str(&json_escape(&d.message));
        out.push_str("\"}");
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders `diags` as a minimal SARIF 2.1.0 log, one run with one
/// result per diagnostic, for upload into code-scanning UIs.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n",
    );
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"also-lint\",\n          \"rules\": [");
    for (i, id) in RULE_IDS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n            {\"id\": \"");
        out.push_str(id);
        out.push_str("\"}");
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        {\n          \"ruleId\": \"");
        out.push_str(d.rule);
        out.push_str("\",\n          \"level\": \"error\",\n          \"message\": {\"text\": \"");
        out.push_str(&json_escape(&d.message));
        out.push_str("\"},\n          \"locations\": [\n            {\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"");
        out.push_str(&json_escape(&d.file));
        out.push_str("\"}, \"region\": {\"startLine\": ");
        out.push_str(&d.line.to_string());
        out.push_str("}}}\n          ]\n        }");
    }
    if !diags.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// Returns the embedded documentation for a rule id, for
/// `also-lint --explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "safety-comments" => {
            "safety-comments (R1)\n\nEvery `unsafe` block, function, or impl must carry an adjacent\n`// SAFETY:` comment stating the invariant that makes it sound. The\nALSO kernels lean on raw pointers and SIMD intrinsics; an unsafe\nwithout its proof is unreviewable."
        }
        "lint-headers" => {
            "lint-headers (R2)\n\nEvery crate root must `#![deny(unsafe_op_in_unsafe_fn)]` and\n`#![warn(missing_docs)]`, so unsafety stays explicit per-operation\nand the public surface stays documented."
        }
        "deterministic-iteration" => {
            "deterministic-iteration (R3)\n\nNo `HashMap`/`HashSet` iteration on the emission/merge path. The\nparallel runtime promises byte-identical-to-serial output; hash-order\niteration silently breaks it. Use `BTreeMap`/`BTreeSet` or sort first."
        }
        "hot-loop-alloc" => {
            "hot-loop-alloc (R4)\n\nFunctions annotated `// also-lint: hot` must not allocate\n(`Vec::new`, `to_vec`, `collect`, `Box::new`, `format!` …). Mirrors\nthe runtime `fpm::alloc_guard`; buffers are carried in scratch\nstructs allocated outside the loop."
        }
        "unchecked-indexing" => {
            "unchecked-indexing (R5)\n\n`get_unchecked`/`get_unchecked_mut` are confined to `crates/also`,\nwhere the bounds proofs live next to the kernels. Everywhere else,\nchecked indexing is fast enough."
        }
        "kernel-entry" => {
            "kernel-entry (R6)\n\nKernel dispatch goes through `exec::MinePlan`. The `KernelSpine`\nmachinery and retired per-kernel entry points are internal to\n`crates/exec` and the kernel crates; callers that bypass the plan\nlose budgeting, faults, and metrics."
        }
        "chaos-sites" => {
            "chaos-sites (R7)\n\nFault scheduling (`FaultPlan` & co.) stays inside `crates/chaos` and\n`fpm::faults`. Production code crosses injection hooks only fully\nqualified (`faults::<site>(…)`) so every chaos seam is greppable and\nresolves to the feature-gated no-op stubs."
        }
        "atomic-ordering" => {
            "atomic-ordering (R8)\n\nEvery atomic operation must name its `Ordering` literally at the\ncall site. `Relaxed` is accepted without comment only on pure\ncounters (receivers that take `fetch_add`/`fetch_sub` in the same\nfile); any other `Relaxed`, and every `SeqCst`, needs an adjacent\n`// ORDERING:` comment proving either that no data is published\nthrough the atomic (Relaxed) or that a single global order is truly\nrequired (SeqCst — usually it is not, and the fix is a downgrade).\nAcquire/Release/AcqRel are self-describing and need no comment."
        }
        "lock-order" => {
            "lock-order (R9)\n\nBuilds a per-file lock-acquisition graph: an edge A -> B whenever a\nguard of A is still live when B is locked (guards tracked through\n`let` bindings, `drop()`, and temporary-lifetime rules; lock names\nresolved through receiver chains like `shard.queue.lock()`). A cycle\nin that graph — including a self-edge, i.e. re-locking a mutex\nalready held — is a deadlock seed; the diagnostic prints the witness\npath. Fix by choosing one global acquisition order, or by dropping\nthe first guard before taking the second."
        }
        "panic-path" => {
            "panic-path (R11)\n\nOn panic-free paths (serve worker loop, poll frontend, par steal\npath) non-test code must not `unwrap`/`expect`, use the panic\nmacros, or index/slice with `[…]`. A panicking worker poisons locks\nand strands in-flight jobs. Recover instead (for poisoned locks:\n`unwrap_or_else(|e| e.into_inner())`), or carry the impossibility\nproof in an `// also-lint: allow(panic-path)` comment."
        }
        "guard-across-await-free-wait" => {
            "guard-across-await-free-wait (R12)\n\nNo lock guard may be live across a blocking suspension point —\n`Condvar::wait*`, channel `recv*`, `thread::park` — except the one\nmutex a condvar wait consumes as its own argument. This runtime is\nawait-free (std threads only), so these calls are its suspension\npoints; sleeping on one while holding an unrelated lock stalls every\nthread that needs it. Drop or scope the guard before blocking."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_grep_format() {
        let d = Diagnostic {
            file: "crates/also/src/bits.rs".into(),
            line: 45,
            rule: "safety-comments",
            message: "x".into(),
        };
        assert_eq!(d.to_string(), "crates/also/src/bits.rs:45: safety-comments: x");
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let d = Diagnostic {
            file: "a\\b.rs".into(),
            line: 1,
            rule: "lint-headers",
            message: "needs \"quotes\"".into(),
        };
        let j = to_json(&[d]);
        assert!(j.contains("a\\\\b.rs"));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"count\": 1"));
    }

    #[test]
    fn empty_list_is_valid_json() {
        assert_eq!(to_json(&[]), "{\n  \"count\": 0,\n  \"diagnostics\": []\n}\n");
    }

    #[test]
    fn sarif_names_every_rule_and_locates_results() {
        let d = Diagnostic {
            file: "crates/par/src/lib.rs".into(),
            line: 315,
            rule: "atomic-ordering",
            message: "needs \"proof\"".into(),
        };
        let s = to_sarif(&[d]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        for id in RULE_IDS {
            assert!(s.contains(&format!("{{\"id\": \"{id}\"}}")), "{id}");
        }
        assert!(s.contains("\"startLine\": 315"));
        assert!(s.contains("\\\"proof\\\""));
    }

    #[test]
    fn every_rule_id_has_an_explanation() {
        for id in RULE_IDS {
            let doc = explain(id).unwrap_or_else(|| panic!("no --explain for {id}"));
            assert!(doc.starts_with(id), "{id} doc leads with its id");
        }
        assert!(explain("no-such-rule").is_none());
    }
}
