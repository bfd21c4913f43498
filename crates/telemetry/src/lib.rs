//! Telemetry for Hyper-M: structured event tracing, a per-level metrics
//! registry, and query forensics.
//!
//! The paper's evaluation (Figs. 8–11) is about *where cost goes* — hops
//! per insertion, messages per query, recall per wavelet level. This
//! crate makes those attributions observable on a live network without
//! perturbing the simulation:
//!
//! * [`Recorder`] — a cheap-clone span/event handle threaded through the
//!   CAN overlay, the query layer and the repair engine. The default is
//!   disabled and provably free: the simulated [`hyperm_sim::OpStats`]
//!   are computed identically whether tracing is off, on, or the crate is
//!   unused (asserted by the `telemetry` integration tests). Events are
//!   stamped with the **sim clock** ([`Recorder::set_time`]), not host
//!   time, so equal seeds give equal streams.
//! * [`Metrics`] — named counters plus log2-histogram cells keyed by
//!   `(op kind, wavelet level)` covering hops, messages, bytes, retries,
//!   failed routes and end-to-end latency; [`Metrics::snapshot`] yields a
//!   serialisable [`MetricsSnapshot`].
//! * [`forensics`] — rebuilds a span tree from a flat event stream; the
//!   `trace_query` bin (in `hyperm-bench`) uses it to print a query's
//!   full per-level route tree and per-phase cost breakdown. With
//!   [`forensics::merge_streams`] it also stitches per-node JSONL streams
//!   from a live cluster into one cross-process tree, joined on the
//!   [`TraceCtx`] carried inside wire frames.
//! * [`window`] — sliding-window totals over a node's last 64 served
//!   frames (latency quantiles, bytes, retries, per-level heat) cheap
//!   enough to stay on by default in every node runtime; [`slo`]
//!   evaluates declarative rules (`p99_ms < 50, failed_routes == 0`) over
//!   its snapshots.
//! * [`sync`] — the workspace's one lock type: a ranked [`sync::Mutex`]
//!   whose debug builds check lock order and blocking holds.
//! * [`json`] — the tiny JSON writer (and, for scrape pipelines, a
//!   bounded-depth reader) shared with the bench bins (the workspace has
//!   no serde).
//!
//! Event and counter names are the [`Name`] and [`Counter`] enums
//! ([`taxonomy`]), so the compiler checks every emit site. The span
//! hierarchy is documented in DESIGN.md ("Observability"); sink formats
//! in EXPERIMENTS.md.
//!
//! No external dependencies: like the rest of the workspace this builds
//! offline (see `vendor/`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay needs no unordered container, and every lock is the
// ranked `sync::Mutex` (clippy.toml lists the std types and why).
#![deny(clippy::disallowed_types)]

pub mod event;
pub mod forensics;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod sync;
pub mod taxonomy;
pub mod window;

pub use event::{Event, EventClass, Fields, SpanId, TraceCtx, Value};
pub use forensics::{merge_streams, parse_jsonl, PhaseTotal, SpanNode, Trace};
pub use json::{JsonError, JsonObj, JsonValue};
pub use metrics::{CellSnapshot, HistSnapshot, Log2Hist, Metrics, MetricsSnapshot};
pub use recorder::{JsonlSink, Recorder, RingHandle, Sink, TeeSink};
pub use slo::{CmpOp, SloCheck, SloReport, SloRule};
pub use taxonomy::{Counter, Name};
pub use window::{nearest_rank, Window, WindowSnapshot};

// Re-exported so downstream crates can key metrics without an extra
// `hyperm-sim` import at the call site.
pub use hyperm_sim::OpKind;
