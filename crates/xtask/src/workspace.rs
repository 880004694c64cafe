//! Workspace discovery: find every `.rs` file the lint should see and
//! classify it into a [`FileCtx`].
//!
//! The walk starts at the repo root and skips `target/`, `vendor/`
//! (offline dependency stand-ins we do not own), `.git/`, and the lint's
//! own `tests/fixtures/` corpus (those files *intentionally* violate
//! rules).

use crate::diag::Diagnostic;
use crate::rules::{lint_source, FileCtx};
use std::fs;
use std::path::{Path, PathBuf};

/// Modules on the emission/merge path, where iteration order becomes
/// output order: pattern sinks, the query filters (closed/maximal,
/// rules, top-k), the parallel runtime's merge, the plan executor (whose driver owns the
/// rank-ordered prefix replay), and the whole serve layer (its cache
/// eviction, response rendering, and prefix merge all feed
/// caller-visible output), plus the artifact store's encoder/decoder
/// and append (persisted bytes must be a pure
/// function of the artifact, or checksums and warm-start byte-identity
/// break). These carry PR 1's byte-identical-to-serial determinism
/// guarantee, so R3 (deterministic-iteration) applies to them.
pub const EMISSION_PATHS: &[&str] = &[
    "crates/fpm/src/sink.rs",
    "crates/fpm/src/query.rs",
    "crates/par/src/lib.rs",
    "crates/exec/src/lib.rs",
    "crates/apriori/src/lib.rs",
    "crates/memsim/src/classify.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/request.rs",
    "crates/serve/src/json.rs",
    "crates/serve/src/frontend.rs",
    "crates/serve/src/loadgen.rs",
    "crates/store/src/fmt.rs",
    "crates/store/src/artifact.rs",
    "crates/store/src/append.rs",
    // The hybrid-container vertical path (DESIGN.md §16): container
    // layout and the chunk walk determine the tid order every kernel
    // emits from, so iteration here must be deterministic.
    "crates/also/src/containers.rs",
    "crates/fpm/src/vertical.rs",
    "crates/eclat/src/hybrid.rs",
];

/// Path prefixes allowed to touch the `KernelSpine` machinery directly
/// (R6 `kernel-entry` does not apply inside them): the executor and the
/// kernel crates that implement spines.
pub const KERNEL_INTERNAL_PREFIXES: &[&str] = &[
    "crates/exec/",
    "crates/lcm/",
    "crates/eclat/",
    "crates/fpgrowth/",
];

/// Single files outside those prefixes that also own spine vocabulary:
/// the `fpm` module *defining* the `KernelSpine` trait.
pub const KERNEL_INTERNAL_FILES: &[&str] = &["crates/fpm/src/exec.rs"];

/// The chaos zone (R7 `chaos-sites` does not apply): the fault-injection
/// harness itself.
pub const CHAOS_ZONE_PREFIXES: &[&str] = &["crates/chaos/"];

/// Single files in the chaos zone outside those prefixes: the `fpm`
/// module defining the fault plans and hook stubs.
pub const CHAOS_ZONE_FILES: &[&str] = &["crates/fpm/src/faults.rs"];

/// Panic-free paths, where R11 (panic-path) applies: the serve worker
/// loop and single-flight machinery, the poll frontend's state machine,
/// and the par runtime's steal path. A panic here poisons locks and
/// strands in-flight jobs; pre-existing debt is pinned in
/// `lint-baseline.json` and may only shrink.
pub const PANIC_FREE_PATHS: &[&str] = &[
    "crates/serve/src/service.rs",
    "crates/serve/src/frontend.rs",
    "crates/par/src/lib.rs",
];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "node_modules"];

/// Builds the [`FileCtx`] for a repo-relative path (forward slashes).
pub fn classify(root: &Path, rel: &str) -> FileCtx {
    let is_crate_root = (rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs"))
        && Path::new(rel)
            .parent() // src/
            .and_then(Path::parent) // package dir
            .map(|pkg| root.join(pkg).join("Cargo.toml").is_file())
            .unwrap_or(false);
    FileCtx {
        path: rel.to_string(),
        is_crate_root,
        in_also: rel.starts_with("crates/also/") || rel.contains("/crates/also/"),
        emission_path: EMISSION_PATHS.iter().any(|p| rel == *p || rel.ends_with(&format!("/{p}"))),
        kernel_internal: KERNEL_INTERNAL_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p) || rel.contains(&format!("/{p}")))
            || KERNEL_INTERNAL_FILES
                .iter()
                .any(|p| rel == *p || rel.ends_with(&format!("/{p}"))),
        chaos_zone: CHAOS_ZONE_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p) || rel.contains(&format!("/{p}")))
            || CHAOS_ZONE_FILES
                .iter()
                .any(|p| rel == *p || rel.ends_with(&format!("/{p}"))),
        panic_free_path: PANIC_FREE_PATHS
            .iter()
            .any(|p| rel == *p || rel.ends_with(&format!("/{p}"))),
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            // The fixture corpus violates rules on purpose.
            if name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Collects every lintable `.rs` file under `root`, sorted, repo-relative
/// with forward slashes.
pub fn lintable_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut abs = Vec::new();
    walk(root, &mut abs)?;
    let mut rels: Vec<String> = abs
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

/// Lints the whole workspace rooted at `root`; returns sorted diagnostics.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for rel in lintable_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        let ctx = classify(root, &rel);
        diags.extend(lint_source(&ctx, &src));
    }
    diags.sort();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf()
    }

    #[test]
    fn classify_marks_crate_roots_and_also() {
        let root = repo_root();
        let c = classify(&root, "crates/also/src/lib.rs");
        assert!(c.is_crate_root);
        assert!(c.in_also);
        assert!(!c.emission_path);
        let c = classify(&root, "crates/also/src/bits.rs");
        assert!(!c.is_crate_root);
        assert!(c.in_also);
        let c = classify(&root, "crates/par/src/lib.rs");
        assert!(c.is_crate_root);
        assert!(c.emission_path);
        assert!(!c.in_also);
        let c = classify(&root, "crates/fpm/src/sink.rs");
        assert!(c.emission_path);
        // The query surface (class/rules/top-k filters) feeds
        // caller-visible output directly, so it carries R3 too.
        assert!(classify(&root, "crates/fpm/src/query.rs").emission_path);
        // The serve layer renders caller-visible output, so all of it
        // carries R3.
        let c = classify(&root, "crates/serve/src/cache.rs");
        assert!(c.emission_path);
        // The store persists bytes that must round-trip exactly, so its
        // encoder, decoder and append patcher carry R3 too.
        let c = classify(&root, "crates/store/src/artifact.rs");
        assert!(c.emission_path);
        assert!(classify(&root, "crates/store/src/fmt.rs").emission_path);
        assert!(classify(&root, "crates/store/src/append.rs").emission_path);
        assert!(!classify(&root, "crates/store/src/lib.rs").emission_path);
        // The hybrid-container chunk walk fixes the emitted tid order,
        // so the container module and its consumers carry R3 (and the
        // container kernels, being in crates/also, carry R4 as well).
        let c = classify(&root, "crates/also/src/containers.rs");
        assert!(c.emission_path);
        assert!(c.in_also);
        assert!(classify(&root, "crates/fpm/src/vertical.rs").emission_path);
        let c = classify(&root, "crates/eclat/src/hybrid.rs");
        assert!(c.emission_path);
        assert!(c.kernel_internal);
        let c = classify(&root, "crates/serve/src/lib.rs");
        assert!(c.is_crate_root);
        assert!(!c.emission_path, "the crate root holds no iteration");
        assert!(!c.kernel_internal, "serve must go through MinePlan");
    }

    #[test]
    fn classify_marks_kernel_internal_zone() {
        let root = repo_root();
        assert!(classify(&root, "crates/exec/src/lib.rs").kernel_internal);
        assert!(classify(&root, "crates/exec/src/lib.rs").emission_path);
        assert!(classify(&root, "crates/lcm/src/spine.rs").kernel_internal);
        assert!(classify(&root, "crates/eclat/src/lib.rs").kernel_internal);
        assert!(classify(&root, "crates/fpgrowth/src/spine.rs").kernel_internal);
        assert!(classify(&root, "crates/fpm/src/exec.rs").kernel_internal);
        assert!(!classify(&root, "crates/fpm/src/lib.rs").kernel_internal);
        assert!(!classify(&root, "crates/cli/src/main.rs").kernel_internal);
        assert!(!classify(&root, "tests/exec_conformance.rs").kernel_internal);
    }

    #[test]
    fn classify_marks_chaos_zone() {
        let root = repo_root();
        assert!(classify(&root, "crates/chaos/src/campaign.rs").chaos_zone);
        assert!(classify(&root, "crates/chaos/tests/panic_every_task.rs").chaos_zone);
        assert!(classify(&root, "crates/fpm/src/faults.rs").chaos_zone);
        assert!(!classify(&root, "crates/fpm/src/control.rs").chaos_zone);
        assert!(!classify(&root, "crates/par/src/lib.rs").chaos_zone);
        assert!(!classify(&root, "crates/serve/src/cache.rs").chaos_zone);
    }

    #[test]
    fn classify_marks_concurrency_paths() {
        let root = repo_root();
        assert!(classify(&root, "crates/serve/src/service.rs").panic_free_path);
        assert!(classify(&root, "crates/serve/src/frontend.rs").panic_free_path);
        assert!(classify(&root, "crates/par/src/lib.rs").panic_free_path);
        assert!(!classify(&root, "crates/serve/src/cache.rs").panic_free_path);
    }

    #[test]
    fn every_path_entry_names_an_existing_file_or_directory() {
        // A deleted or renamed module must take its lint entry with it:
        // a stale entry silently stops applying its rule.
        let root = repo_root();
        for list in [
            EMISSION_PATHS,
            PANIC_FREE_PATHS,
            KERNEL_INTERNAL_FILES,
            CHAOS_ZONE_FILES,
        ] {
            for rel in list {
                assert!(root.join(rel).is_file(), "{rel} is not a file");
            }
        }
        for list in [KERNEL_INTERNAL_PREFIXES, CHAOS_ZONE_PREFIXES] {
            for rel in list {
                assert!(root.join(rel).is_dir(), "{rel} is not a directory");
            }
        }
    }

    #[test]
    fn walk_skips_vendor_target_and_fixtures() {
        let root = repo_root();
        let files = lintable_files(&root).unwrap();
        assert!(!files.is_empty());
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.starts_with("target/")));
        assert!(files.iter().all(|f| !f.contains("tests/fixtures/")));
        assert!(files.iter().any(|f| f == "crates/also/src/bits.rs"));
    }
}
