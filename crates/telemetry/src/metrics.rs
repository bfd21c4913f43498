//! Metrics registry: named counters plus per-`(op kind, wavelet level)`
//! cost cells with fixed-bucket log2 histograms.
//!
//! Every cell covers the paper's cost axes — hops, messages, bytes,
//! retries, failed routes — plus host-side end-to-end latency. Histograms
//! are power-of-two bucketed (`bucket 0` = value 0, `bucket i` = values in
//! `[2^(i-1), 2^i)`), so recording is two instructions and the snapshot is
//! bounded regardless of sample count. Level `None` rows aggregate a whole
//! operation (route + flood + fetch); `Some(l)` rows cover only the
//! overlay work on wavelet level `l` — so the per-level rows do *not* sum
//! to the whole-op row, which additionally counts fetch traffic.

use crate::json::{inline_arr, JsonObj};
use crate::sync::{Guard, Mutex};
use crate::taxonomy::Counter;
use hyperm_sim::{OpKind, OpStats};
use std::collections::BTreeMap;

/// Number of histogram buckets: one for zero plus one per possible
/// `u64` bit length.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Log2Hist {
    /// Bucket index for a value: 0 for 0, else its bit length.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            1 => 1,
            _ => 1u64 << (i - 1),
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lo, hi, count)` ranges.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
            .collect()
    }
}

/// One `(op kind, level)` cell of the registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Cell {
    ops: u64,
    retries: u64,
    failed_routes: u64,
    hops: Log2Hist,
    messages: Log2Hist,
    bytes: Log2Hist,
    latency_us: Log2Hist,
}

/// Level key inside the registry: `-1` aggregates the whole operation,
/// `0..` is a wavelet level.
type LevelKey = i16;

const WHOLE_OP: LevelKey = -1;

fn level_key(level: Option<usize>) -> LevelKey {
    level.map(|l| l as LevelKey).unwrap_or(WHOLE_OP)
}

/// Everything a [`Metrics`] registry records, behind its one lock.
#[derive(Debug, Default)]
struct Registry {
    cells: BTreeMap<(usize, LevelKey), Cell>,
    /// Keyed by wire string, so snapshots list counters in name order.
    counters: BTreeMap<&'static str, u64>,
}

impl Registry {
    fn cell(&mut self, kind: OpKind, level: Option<usize>) -> &mut Cell {
        self.cells
            .entry((kind.index(), level_key(level)))
            .or_default()
    }
}

/// Thread-safe metrics registry. Owned by the recorder, so all mutation
/// goes through `&self`: the recorder may be shared across threads (see
/// [`crate::Sink`]). Every method, the snapshot included, takes the one
/// lock once.
#[derive(Debug, Default)]
pub struct Metrics {
    registry: Mutex<Registry>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> Guard<'_, Registry> {
        self.registry.lock().expect("metrics poisoned")
    }

    /// Record one operation's cost into the `(kind, level)` cell.
    pub fn record_op(&self, kind: OpKind, level: Option<usize>, stats: OpStats) {
        let mut registry = self.lock();
        let cell = registry.cell(kind, level);
        cell.ops += 1;
        cell.retries += stats.retries;
        cell.failed_routes += stats.failed_routes;
        cell.hops.record(stats.hops);
        cell.messages.record(stats.messages);
        cell.bytes.record(stats.bytes);
    }

    /// Record one operation's host-side end-to-end latency (microsecond
    /// resolution in the histogram).
    pub fn record_latency_s(&self, kind: OpKind, level: Option<usize>, secs: f64) {
        let us = (secs * 1e6).max(0.0).round() as u64;
        self.lock().cell(kind, level).latency_us.record(us);
    }

    /// Bump a named counter by `v`.
    pub fn add(&self, counter: impl Into<Counter>, v: u64) {
        let mut registry = self.lock();
        *registry
            .counters
            .entry(counter.into().as_str())
            .or_insert(0) += v;
    }

    /// Read a named counter (0 when never bumped).
    pub fn counter(&self, counter: impl Into<Counter>) -> u64 {
        self.lock()
            .counters
            .get(counter.into().as_str())
            .copied()
            .unwrap_or(0)
    }

    /// Immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let registry = self.lock();
        let Registry { cells, counters } = &*registry;
        MetricsSnapshot {
            counters: counters.iter().map(|(k, &v)| (k.to_string(), v)).collect(),
            cells: cells
                .iter()
                .map(|(&(kind_idx, lvl), cell)| CellSnapshot {
                    op: OpKind::ALL[kind_idx].name(),
                    level: if lvl < 0 { None } else { Some(lvl as usize) },
                    ops: cell.ops,
                    retries: cell.retries,
                    failed_routes: cell.failed_routes,
                    hops: HistSnapshot::of(&cell.hops),
                    messages: HistSnapshot::of(&cell.messages),
                    bytes: HistSnapshot::of(&cell.bytes),
                    latency_us: HistSnapshot::of(&cell.latency_us),
                })
                .collect(),
        }
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean (0 when empty).
    pub mean: f64,
    /// Non-empty buckets as `(lo, hi, count)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistSnapshot {
    fn of(h: &Log2Hist) -> Self {
        Self {
            count: h.count,
            sum: h.sum,
            mean: h.mean(),
            buckets: h.nonzero_buckets(),
        }
    }

    fn to_json(&self) -> JsonObj {
        let buckets = self
            .buckets
            .iter()
            .map(|&(lo, hi, c)| inline_arr([lo, hi, c]));
        JsonObj::new()
            .u("count", self.count)
            .u("sum", self.sum)
            .f("mean", self.mean, 3)
            .raw("buckets", inline_arr(buckets))
    }
}

/// Snapshot of one `(op kind, level)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    /// Operation kind name (`publish`, `range_query`, …).
    pub op: &'static str,
    /// Wavelet level, or `None` for the whole-operation aggregate.
    pub level: Option<usize>,
    /// Operations recorded.
    pub ops: u64,
    /// Total retransmissions.
    pub retries: u64,
    /// Total failed routing attempts.
    pub failed_routes: u64,
    /// Hops per operation.
    pub hops: HistSnapshot,
    /// Messages per operation.
    pub messages: HistSnapshot,
    /// Bytes per operation.
    pub bytes: HistSnapshot,
    /// Host end-to-end latency per operation, microseconds.
    pub latency_us: HistSnapshot,
}

/// Serialisable report of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Cells sorted by (kind, level) with whole-op rows first.
    pub cells: Vec<CellSnapshot>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.cells.is_empty()
    }

    /// The cell for `(op, level)` if recorded.
    pub fn cell(&self, op: OpKind, level: Option<usize>) -> Option<&CellSnapshot> {
        self.cells
            .iter()
            .find(|c| c.op == op.name() && c.level == level)
    }

    /// Render as a pretty JSON report (one counter object plus one array
    /// entry per cell).
    pub fn to_json(&self) -> String {
        let mut counters = JsonObj::new();
        for (k, v) in &self.counters {
            counters = counters.u(k, *v);
        }
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let mut o = JsonObj::new().s("op", c.op);
                o = match c.level {
                    Some(l) => o.u("level", l as u64),
                    None => o.raw("level", "null"),
                };
                o.u("ops", c.ops)
                    .u("retries", c.retries)
                    .u("failed_routes", c.failed_routes)
                    .obj("hops", c.hops.to_json())
                    .obj("messages", c.messages.to_json())
                    .obj("bytes", c.bytes.to_json())
                    .obj("latency_us", c.latency_us.to_json())
                    .render()
            })
            .collect();
        JsonObj::new()
            .obj("counters", counters)
            .arr("cells", &cells)
            .render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 1);
        assert_eq!(Log2Hist::bucket_of(2), 2);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 3);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(Log2Hist::bucket_of(Log2Hist::bucket_lo(i)), i);
            assert_eq!(Log2Hist::bucket_of(Log2Hist::bucket_hi(i)), i);
        }
    }

    #[test]
    fn hist_records_and_means() {
        let mut h = Log2Hist::default();
        for v in [0, 1, 2, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 13);
        assert!((h.mean() - 2.6).abs() < 1e-12);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 1)]
        );
    }

    #[test]
    fn registry_cells_keyed_by_kind_and_level() {
        let m = Metrics::new();
        let op = OpStats {
            hops: 5,
            messages: 9,
            bytes: 512,
            retries: 1,
            failed_routes: 0,
        };
        m.record_op(OpKind::RangeQuery, Some(0), op);
        m.record_op(OpKind::RangeQuery, Some(1), op);
        m.record_op(OpKind::RangeQuery, None, op);
        m.record_op(OpKind::Publish, Some(0), op);
        m.record_latency_s(OpKind::RangeQuery, None, 0.0025);
        m.add(Counter::Queries, 1);
        m.add(Counter::Queries, 2);
        let snap = m.snapshot();
        assert_eq!(snap.cells.len(), 4);
        assert_eq!(snap.counters, vec![("queries".to_string(), 3)]);
        let whole = snap.cell(OpKind::RangeQuery, None).unwrap();
        assert_eq!(whole.ops, 1);
        assert_eq!(whole.hops.sum, 5);
        assert_eq!(whole.latency_us.count, 1);
        assert_eq!(whole.latency_us.sum, 2500);
        let l1 = snap.cell(OpKind::RangeQuery, Some(1)).unwrap();
        assert_eq!(l1.messages.sum, 9);
        assert_eq!(l1.retries, 1);
        assert!(snap.cell(OpKind::KnnQuery, None).is_none());
        // Whole-op rows sort before per-level rows within a kind.
        let range_rows: Vec<_> = snap
            .cells
            .iter()
            .filter(|c| c.op == "range_query")
            .map(|c| c.level)
            .collect();
        assert_eq!(range_rows, vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn snapshot_json_is_nonempty_and_structured() {
        let m = Metrics::new();
        m.record_op(OpKind::KnnQuery, Some(2), OpStats::one_hop(64));
        let json = m.snapshot().to_json();
        assert!(json.contains("\"op\": \"knn_query\""));
        assert!(json.contains("\"level\": 2"));
        assert!(json.contains("\"buckets\": [[1, 1, 1]]"));
        assert!(MetricsSnapshot::default().is_empty());
    }
}
