//! **hyperm** — the umbrella crate of the Hyper-M workspace.
//!
//! Hyper-M (Lupu, Li, Ooi, Shi — ICDE 2007) is a fast data-dissemination
//! method for structured P2P overlays in short-lived mobile ad-hoc
//! networks: peers publish wavelet-clustered *summaries* of their data into
//! per-subspace CAN overlays instead of publishing every item, cutting
//! overlay construction cost by an order of magnitude while keeping range
//! and k-nn retrieval effective.
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`core`](mod@core) — the Hyper-M framework (build, range/k-nn/point
//!   queries, maintenance, evaluation);
//! * [`wavelet`](mod@wavelet) — the Haar transform and Theorem 3.1;
//! * [`cluster`](mod@cluster) — k-means and cluster spheres;
//! * [`geometry`](mod@geometry) — hypersphere intersections and the
//!   Eq. 8 radius solver;
//! * [`can`](mod@can) — the CAN overlay with sphere replication;
//! * [`sim`](mod@sim) — cost accounting, energy model and MANET underlay;
//! * [`datagen`](mod@datagen) — the paper's synthetic workloads;
//! * [`baseline`](mod@baseline) — per-item CAN baselines and the flat
//!   ground-truth index;
//! * [`repair`](mod@repair) — the overlay repair engine: churn schedules,
//!   zone takeover and soft-state replica refresh;
//! * [`load`](mod@load) — per-peer load accounting and hot-spot relief:
//!   virtual nodes and load-triggered zone splits/merges (both off by
//!   default);
//! * [`telemetry`](mod@telemetry) — structured event tracing, the
//!   per-`(op kind, level)` metrics registry, and query forensics
//!   (disabled by default and provably free for the simulation);
//! * [`transport`](mod@transport) — the `Transport` trait with sim,
//!   in-memory and loopback-TCP implementations, length-prefixed message
//!   framing with bounded-inbox backpressure, and the node runtime
//!   behind the `hyperm-node` / `hyperm-client` / `hyperm-monitor`
//!   binaries.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough and DESIGN.md
//! for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hyperm_baseline as baseline;
pub use hyperm_baton as baton;
pub use hyperm_can as can;
pub use hyperm_cluster as cluster;
pub use hyperm_core as core;
pub use hyperm_datagen as datagen;
pub use hyperm_geometry as geometry;
pub use hyperm_load as load;
pub use hyperm_repair as repair;
pub use hyperm_sim as sim;
pub use hyperm_telemetry as telemetry;
pub use hyperm_transport as transport;
pub use hyperm_vbi as vbi;
pub use hyperm_wavelet as wavelet;

pub use hyperm_baseline::{precision_recall, FlatIndex, PrecisionRecall};
pub use hyperm_can::Message;
pub use hyperm_can::{CanConfig, CanOverlay, InsertOutcome, ObjectRef, RangeOutcome, StoredObject};
pub use hyperm_cluster::{
    ClusterQuality, ClusterSphere, Dataset, InitMethod, KMeansConfig, KMeansResult, MiniBatchConfig,
};
pub use hyperm_core::{
    BuildReport, ChurnOutcome, EvalHarness, HypermConfig, HypermError, HypermNetwork, InsertPolicy,
    JoinError, JoinReport, KnnOptions, KnnResult, Overlay, OverlayBackend, Peer, PeerScore,
    PointResult, PublishReport, QueryBudget, RangeResult, Rows, ScorePolicy, SphereRef,
};
pub use hyperm_datagen::{ZipfConfig, ZipfWorkload};
pub use hyperm_geometry::{Overlap, SolveError};
pub use hyperm_load::{LoadBalancer, LoadConfig, LoadSnapshot, ReliefReport};
pub use hyperm_repair::{
    ChurnEvent, ChurnEventKind, ChurnSchedule, RepairConfig, RepairEngine, RepairStats,
    ScheduleReport,
};
pub use hyperm_sim::{
    Backoff, EnergyModel, FaultConfig, FaultReport, LoadLedger, NodeId, OpKind, OpStats,
    PartitionPlan, PeerLoad,
};
pub use hyperm_telemetry::{
    MetricsSnapshot, Recorder, SloReport, SpanId, Trace, TraceCtx, WindowSnapshot,
};
pub use hyperm_transport::{
    ChaosConfig, ChaosEndpoint, ChaosStats, Client, Envelope, MemEndpoint, MemHub, NodeRuntime,
    PeerId, RequestPolicy, Role, ServeOutcome, TcpEndpoint, Transport, TransportError,
};
pub use hyperm_wavelet::{Decomposition, Normalization, Subspace, WaveletError};
