//! # `fpm-serve` — the mining service layer
//!
//! Batch miners answer one query and exit; a *service* answers a stream
//! of queries from callers with latency expectations. This crate turns
//! the workspace's kernels into such a service (DESIGN.md §10):
//!
//! * **dataset-sharded worker pools** ([`MineService`]): requests
//!   route by a stable hash of the dataset spec to independent shards,
//!   each with its own bounded FIFO queue, workers, cache partition and
//!   metrics — one hot dataset cannot queue behind another's backlog
//!   (DESIGN.md §13);
//! * **single-flight coalescing**: identical in-flight `(dataset
//!   fingerprint, kernel, min_support)` requests attach to one run and
//!   share its result — a cold-cache stampede mines exactly once;
//! * **deadlines, budgets, and cancellation** via the cooperative
//!   [`fpm::MineControl`] threaded through every kernel's recursion
//!   spine — a stopped run's output is always a contiguous *prefix* of
//!   the serial emission order, never a scramble;
//! * an LRU **result cache** keyed by `(dataset fingerprint, kernel,
//!   min_support)` with optional byte budget and TTL
//!   ([`cache::CacheConfig`]) so repeated queries skip mining entirely;
//! * **tiered admission**: connection caps and per-client quotas at the
//!   frontend, queue-depth backpressure at submit, and the
//!   Geerts-style candidate bound ([`fpm::bound`]) rejecting requests
//!   whose search space provably exceeds a ceiling before any work is
//!   spent;
//! * three frontends over one request model: the in-process handle
//!   ([`MineService::mine`] / [`MineService::submit`]), the
//!   line-delimited JSON protocol over stdio
//!   ([`frontend::serve_stdio`]), and the same protocol over TCP through
//!   one single-threaded non-blocking poll loop
//!   ([`frontend::serve_poll`]);
//! * a deterministic **load generator** ([`loadgen`], `fpm-mine
//!   loadgen`): a seeded open-loop schedule whose reproducible half is
//!   committed as `BENCH_serve.json`;
//! * per-request **metrics** through [`fpm::metrics::MetricSet`], kept
//!   per shard ([`MineService::shard_metrics`]) and summed on read
//!   ([`MineService::metrics`]).
//!
//! Every response carries an [`Outcome`]: `Complete`, `Cancelled`,
//! `DeadlineExceeded`, `Rejected`, or `Failed` (a mining task panicked;
//! the worker caught the unwind and the response still holds the serial
//! prefix emitted before the failure).
//!
//! ```
//! use fpm_serve::{DatasetSpec, Kernel, MineRequest, MineService, Outcome, ServeConfig};
//!
//! let svc = MineService::start(ServeConfig::default());
//! let resp = svc.mine(MineRequest::new(
//!     DatasetSpec::Inline(vec![vec![1, 2, 3], vec![1, 2], vec![2, 3]]),
//!     Kernel::Lcm,
//!     2,
//! ));
//! assert_eq!(resp.outcome, Outcome::Complete);
//! assert!(resp.count > 0);
//! svc.shutdown();
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cache;
pub mod frontend;
pub mod json;
pub mod loadgen;
pub mod request;
pub mod service;

pub use cache::{fingerprint, Lookup, ResultCache};
pub use frontend::{serve_lines, serve_poll, serve_stdio, FrontendConfig, FrontendStats};
pub use loadgen::{LoadConfig, LoadReport};
pub use request::{
    parse_request, render_response, DatasetSpec, Kernel, MineRequest, MineResponse, MineStats,
    Outcome,
};
pub use service::{MineService, ServeConfig, Ticket, METRIC_NAMES};
