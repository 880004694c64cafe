//! `also-lint`: project-specific static analysis for the ALSO workspace.
//!
//! The ALSO patterns (prefetch pointers, wave-front prefetch, SIMD
//! popcount kernels) force this codebase into `unsafe` intrinsics and raw
//! allocation, and the parallel runtime promises byte-identical-to-serial
//! output. Those invariants are cheap to break silently, so this crate
//! machine-checks them at the source level on every CI run:
//!
//! - **safety-comments** (R1): every `unsafe` block/fn/impl carries a
//!   `// SAFETY:` comment.
//! - **lint-headers** (R2): every crate root denies
//!   `unsafe_op_in_unsafe_fn` and warns on `missing_docs`.
//! - **deterministic-iteration** (R3): no hash-order iteration on the
//!   emission/merge path (see [`workspace::EMISSION_PATHS`]).
//! - **hot-loop-alloc** (R4): `// also-lint: hot` functions do not
//!   allocate; `fpm::alloc_guard` proves the same at runtime.
//! - **unchecked-indexing** (R5): `get_unchecked` stays inside
//!   `crates/also`.
//! - **kernel-entry** (R6): the `KernelSpine` machinery (and the retired
//!   per-kernel entry points) stays inside `crates/exec` and the kernel
//!   crates; everyone else mines through `exec::MinePlan`.
//! - **chaos-sites** (R7): fault *scheduling* (`FaultPlan` & co.) stays
//!   inside `crates/chaos` and `fpm::faults`; production code only ever
//!   crosses injection hooks fully qualified, `faults::<site>(…)`, so
//!   every chaos seam is greppable and resolves to the feature-gated
//!   no-op stubs.
//!
//! The concurrency-audit layer ([`concurrency`], built on the
//! token-stream analyses in [`analysis`]) adds:
//!
//! - **atomic-ordering** (R8): every atomic op names its `Ordering`;
//!   `Relaxed` on a non-counter, and every `SeqCst`, needs an adjacent
//!   `// ORDERING:` justification comment.
//! - **lock-order** (R9): the per-file lock-acquisition graph is
//!   acyclic; cycles are reported with a witness path.
//! - **panic-path** (R11): no `unwrap`/`expect`/panic macros/indexing
//!   in non-test code on the serve worker, poll frontend, or par steal
//!   paths.
//! - **guard-across-await-free-wait** (R12): no lock guard held across
//!   `Condvar::wait`/`recv`/`park` except a condvar's own mutex.
//!
//! Run with `cargo run -p xtask -- lint [--format json|sarif]`; any
//! diagnostic fails the run. Suppress a finding with
//! `// also-lint: allow(<rule>)` on the offending line or the line
//! above — the comment is also where the justification lives.
//! `--explain <rule>` prints the full rationale for any rule.
//!
//! Deliberately std-only (no registry or vendored deps) so the lint
//! builds in seconds and can run first in CI.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod analysis;
pub mod concurrency;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use diag::{explain, to_json, to_sarif, Diagnostic, RULE_IDS};
pub use rules::{lint_source, FileCtx};
pub use workspace::{
    classify, lint_workspace, lintable_files, CHAOS_ZONE_FILES, CHAOS_ZONE_PREFIXES,
    EMISSION_PATHS, KERNEL_INTERNAL_FILES, KERNEL_INTERNAL_PREFIXES, PANIC_FREE_PATHS,
};
