#![warn(missing_docs)]

//! `treequery-obs`: the observability substrate of the query pipeline.
//!
//! Zero-dependency (offline-friendly, like `shims/`) tracing and metrics
//! primitives:
//!
//! * [`capture()`] — the one way to observe a query: runs a closure and
//!   returns the spans that closed and the allocations made while it
//!   ran, on the calling thread and on every pool worker acting for it
//!   (via [`CaptureHandle`]). `Engine::explain_analyze`, the flight
//!   recorder, the bench suite and the harness report all read their
//!   numbers from captures, so concurrent queries never mix;
//! * [`span`] / [`Span`] — a lightweight span core: a per-thread depth
//!   stack with monotonic timing and structured fields. With no capture
//!   open a span costs one relaxed atomic load (verified by the
//!   harness's `--check-noop-overhead`);
//! * [`alloc`] — the counting global allocator, its
//!   [`AccountingGuard`](alloc::AccountingGuard) switch and per-stage
//!   [`AllocScope`](alloc::AllocScope)s;
//! * [`summarize_spans`] — per-span-name call counts, wall time, latency
//!   percentiles and field sums of a captured span list;
//! * [`LatencyHistogram`] — fixed power-of-two-bucket latency histograms
//!   with p50/p95/p99 summaries;
//! * [`flight`] — the per-query flight recorder and slow-query log;
//! * [`Json`] — a serde-free JSON value with a renderer and a parser,
//!   used by the bench harness's `--report` path and by
//!   `Engine::explain_analyze`'s machine-readable output.

pub mod alloc;
mod capture;
pub mod env;
pub mod flight;
mod histogram;
mod json;
pub mod metrics;
pub mod prom;
pub mod slo;
mod span;
mod summary;
pub mod traceexport;

pub use capture::{capture, CaptureHandle, Captured};
pub use histogram::{HistogramSummary, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use json::{parse_json, write_u64, Json, JsonErrorKind, JsonParseError, MAX_DEPTH};
pub use span::{span, Field, FieldValue, Span, SpanRecord};
pub use summary::{summarize_spans, SpanSummary};

/// The counting allocator wraps [`std::alloc::System`] for every binary
/// in the workspace. Its disabled path is one relaxed atomic load per
/// `alloc`/`dealloc` (bounded by the `--check-noop-overhead` CI gate);
/// accounting only runs inside an [`alloc::AccountingGuard`] scope.
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
