//! # `also` — Architecture-Level Software Optimization tuning patterns
//!
//! This crate is a reusable implementation of the *ALSO tuning patterns*
//! catalogued by Wei, Jiang & Snir, *"Programming Patterns for
//! Architecture-Level Software Optimizations on Frequent Pattern Mining"*
//! (ICDE 2007). Each pattern is a general, repeatable solution to a
//! performance problem that recurs across frequent-pattern-mining kernels
//! (and other pointer/array-intensive codes), and is beyond the reach of
//! compiler optimization because it needs application-level knowledge.
//!
//! | id   | pattern                      | where it lives |
//! |------|------------------------------|----------------|
//! | P1   | Lexicographic ordering       | [`lexorder`] |
//! | P2   | Data structure adaptation    | [`adapt`] |
//! | P3   | Aggregation (supernodes)     | [`aggregate`] |
//! | P4   | Compaction                   | LCM's counter layout: `Counters` in `crates/lcm/src/miner.rs` |
//! | P5   | Prefetch pointers            | FP-Growth's jump table: `FpTree::finalize` in `crates/fpgrowth/src/tree.rs` |
//! | P6.1 | Tiling for sparse structures | [`tiling`]; the tiled loop nest is LCM's `count_tiles` |
//! | P7   | Software prefetch            | [`prefetch`] |
//! | P7.1 | Wave-front prefetching       | LCM's `deliver_column`, on [`prefetch::prefetch_read`] |
//! | P8   | SIMDization                  | [`simd`], [`bits`] |
//!
//! A machine-readable catalogue of the patterns — which locality or
//! latency problem each one attacks (Table 2 of the paper) and which
//! mining kernel each applies to (Table 4) — lives in [`catalog`].
//!
//! A pattern lives in this crate when its code does not depend on the
//! loop that applies it: the sibling crates `fpm-lcm`, `fpm-eclat` and
//! `fpm-fpgrowth` call P1, P2, P3, P7's prefetch hint, P8, and P6.1's
//! tile ranges and tile size from here. P4, P5 and P7.1 are each written
//! once, inside the hot loop of the one kernel that applies them, because
//! each is shaped by that loop: LCM's compaction is a choice of counter
//! layout rather than a copy step; its wave-front prefetches both the
//! header and the arena item of an occurrence and charges the probe for
//! them; FP-Growth's jump table is filled while walking the linked header
//! chains. The same holds for P6.1's loop nest, which keeps one count row
//! per candidate and must not allocate.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod adapt;
pub mod advisor;
pub mod aggregate;
pub mod bits;
pub mod catalog;
pub mod containers;
pub mod lexorder;
pub mod prefetch;
pub mod radix;
pub mod simd;
pub mod tiling;

pub use catalog::{Pattern, PatternBenefit};

/// Size in bytes of one cache line on every platform this crate targets.
///
/// The aggregation pattern ([`aggregate`]) sizes supernodes to this and
/// [`bits::BitVec`] aligns its words to it; the paper found one cache line
/// to be the optimal supernode size (§3.3, P3).
pub const CACHE_LINE_BYTES: usize = 64;
