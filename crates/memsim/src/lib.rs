//! # `fpm-memsim` — trace-driven memory-hierarchy simulator
//!
//! The paper's Figure 2 reports CPI and cache-miss profiles measured with
//! hardware counters on a Pentium D 830 (machine **M1**) and an Athlon 64
//! X2 4200+ (**M2**) — hardware we cannot re-run. This crate substitutes a
//! trace-driven simulator: set-associative L1/L2 caches, a data TLB, an
//! optional next-line hardware prefetcher, and a simple in-order cycle
//! model. The mining kernels are generic over a [`Probe`]; compiled with
//! [`NullProbe`] they are probe-free machine code (benchmarks verify the
//! overhead is below noise), compiled with [`CacheProbe`] every memory
//! touch and instruction estimate flows into the simulator.
//!
//! The model is deliberately simple — the paper's Figure 2 argument is
//! *relative* (LCM and FP-Growth sit far above the 0.33 optimum CPI and
//! are memory bound; Eclat sits near it and is computation bound), and a
//! calibrated latency model preserves that ordering. Absolute cycle
//! counts are not claims. For the same reason a run's [`MemReport`]
//! counts hits and misses per cache level and the TLB but does not sort
//! misses by cause (compulsory, capacity, conflict): Figure 2 and the
//! Figure 8 panels need only the rates and the cycles.
//!
//! ```
//! use fpm_memsim::{CacheProbe, Machine, Probe};
//!
//! let mut p = CacheProbe::new(Machine::m1());
//! let data = vec![0u8; 1 << 20];
//! for chunk in data.chunks(64) {
//!     p.read(chunk.as_ptr() as usize, chunk.len());
//!     p.instr(8);
//! }
//! let r = p.report("streaming read");
//! assert!(r.l1.misses > 0);          // cold misses
//! assert!(r.cpi() > 0.3);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cache;
pub mod machine;
pub mod probe;
pub mod report;
pub mod trace;

pub use cache::{CacheGeom, SetAssocCache};
pub use machine::{Machine, MachineKind};
pub use probe::{addr_of, slice_span, CacheProbe, NullProbe, Probe};
pub use report::MemReport;
pub use trace::{Event, Tee, TraceRecorder};
