//! # `fpm-bench` — the reproduction harness
//!
//! Shared machinery behind the `repro` binary and the Criterion benches:
//! per-figure drivers ([`fig2`], [`fig8`]), the static tables ([`tables`])
//! and the headline-claims checker ([`claims`]). Every table and figure
//! of the paper maps to one entry point here (see DESIGN.md §3 for the
//! index).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod claims;
pub mod fig2;
pub mod fig8;
pub mod tables;
