//! # `fpm-store` — the persistent artifact store
//!
//! Serve re-generates and re-mines every dataset from scratch each
//! process lifetime. This crate makes a dataset and its mined results
//! durable instead (DESIGN.md §14): a compact, versioned, checksummed
//! on-disk artifact holding the normalized raw transactions and the
//! persisted result-cache entries — so a restart skips dataset
//! generation and the mine.
//!
//! The three load-bearing promises:
//!
//! * **Every byte is checksummed.** The header and section table are
//!   covered by a table CRC-32, each section payload by its own, and
//!   the decoder requires the payloads to exactly fill the file — so
//!   any truncation or bit-flip anywhere reads as a typed
//!   [`LoadError`], never a panic and never silent garbage. Chaos site
//!   #7 (`artifact-corruption`) drives truncation and bit-flip flavors
//!   through [`Artifact::load`] to prove the fallback-to-cold-rebuild
//!   path end to end.
//! * **Writes are atomic.** [`Artifact::store`] serializes to a
//!   sibling `.tmp` and renames over the target; a crash leaves the
//!   old artifact intact.
//! * **Generations invalidate.** Persisted results are keyed
//!   `(kernel, minsup, query, generation)` — the query tag is the
//!   canonical [`fpm::PatternQuery`] encoding; [`append`] bumps the
//!   generation and drops the results, so stale patterns can never be
//!   served for an appended dataset.
//!
//! ```
//! use fpm::TransactionDb;
//! use fpm_store::{append, Artifact, SpecMeta};
//!
//! let db = TransactionDb::from_transactions(vec![vec![1, 2, 3], vec![1, 2], vec![2, 3]]);
//! let mut artifact = Artifact::build(SpecMeta::named("ds1", "smoke"), &db);
//! // kernel code 0 = lcm; the default query key is the identity query.
//! artifact.push_result(0, 2, fpm::QueryKey::default(), vec![]);
//!
//! let bytes = artifact.encode();
//! let back = Artifact::decode(&bytes).unwrap();
//! assert_eq!(back, artifact);
//!
//! let report = append(&mut artifact, &[vec![1, 2]]);
//! assert_eq!(report.generation, 1);
//! assert_eq!(artifact.live_results().count(), 0); // invalidated
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod append;
pub mod artifact;
pub mod fmt;

pub use append::{append, AppendReport};
pub use artifact::{
    fingerprint, scan, section_name, Artifact, LoadError, ResultEntry, SpecKind, SpecMeta,
    EXTENSION, FORMAT_VERSION, MAGIC,
};
