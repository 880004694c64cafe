//! # `fpm-core` — frequent-pattern-mining substrate
//!
//! The shared foundation beneath the mining kernels: the transaction
//! model, frequency-rank remapping, the vertical representations of the
//! paper's Figure 3 (bit matrix and hybrid containers; its horizontal
//! arrays and prefix tree live with `fpm-lcm` and `fpm-fpgrowth`), FIMI
//! `.dat` I/O, pattern sinks, and a brute-force reference miner used to
//! validate everything else.
//!
//! ## The problem (paper §2.1)
//!
//! Let `I = {i1..im}` be items and `T = {t1..tn}` a database of
//! transactions, each a subset of `I`. The *support* of an itemset is the
//! number of transactions that subsume it; frequent pattern mining outputs
//! every itemset with support ≥ a threshold `s`. With weighted
//! (duplicate-merged) transactions the support is the sum of the weights
//! of the subsuming transactions — all miners in this workspace agree on
//! that weighted definition.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod alloc_guard;
pub mod bound;
pub mod control;
pub mod db;
pub mod exec;
pub mod faults;
pub mod hmine;
pub mod io;
pub mod metrics;
pub mod naive;
pub mod query;
pub mod remap;
pub mod sink;
pub mod stats;
pub mod types;
pub mod vertical;

pub use control::{MineControl, StopCause};
pub use db::TransactionDb;
pub use query::{PatternQuery, QueryKey, Rule, RuleSpec};
pub use remap::{frequent_later_pairs, pair_ceilings, remap, remap_lex, RankMap, RankedDb};
pub use sink::{
    replay_merged_prefix, CollectSink, ControlledSink, CountSink, PatternSink, RecordSink,
    StatsSink, TranslateSink,
};
pub use types::{Item, ItemsetCount, Kernel, MineKind, Tid};

/// The 64-bit FNV-1a offset basis: the state every [`fnv1a`] hash starts
/// from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a state `h`. Folding pieces one
/// after another hashes their concatenation, so callers feed each field
/// as its little-endian bytes.
///
/// Store fingerprints, cache checksums, shard routing, load-schedule
/// digests and the golden corpus digests all hash with this function.
/// Artifacts, shard placement and `tests/goldens/digests.txt` record its
/// values, so each of those uses pins its output in a test.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
