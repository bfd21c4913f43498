//! Sliding-window node metrics: a fixed-size ring of cost buckets cheap
//! enough to stay on by default in the node runtime.
//!
//! A [`Window`] buckets cost observations by a caller-supplied monotone
//! **tick**. The node runtime advances it once per served frame, so its
//! window is the last 64 served frames, not a time span; wall time is
//! never read, so window contents are as deterministic as the clock
//! driving them. Each bucket accumulates the paper's cost axes (ops, hops,
//! messages, bytes, retries, failed routes) plus rejected requests, a log2
//! latency histogram, and per-level *heat* — how many overlay operations
//! touched each wavelet level (a range query's phase 1 touches every
//! level; publish/get/route touch exactly one). The ring keeps the most
//! recent 64 buckets of one tick each; recording is a few adds under one mutex, and a [`WindowSnapshot`]
//! serialises to the JSON the `Stats` protocol request returns.
//!
//! Snapshots are **mergeable**: the monitor's `--watch` mode sums per-node
//! snapshots into a cluster aggregate (histograms merge bucket-wise, so
//! cluster p50/p99 stay exact with respect to bucket resolution).

use crate::json::{inline_arr, JsonObj, JsonValue};
use crate::metrics::Log2Hist;
use crate::sync::{Guard, Mutex};
use hyperm_sim::OpStats;
use std::collections::VecDeque;

/// Ring capacity of every [`Window`], in buckets.
const BUCKETS: usize = 64;
/// Clock ticks per bucket.
const BUCKET_TICKS: u64 = 1;

#[derive(Debug, Clone)]
struct Bucket {
    /// Bucket index: `tick / BUCKET_TICKS`.
    index: u64,
    ops: u64,
    rejected: u64,
    retries: u64,
    failed_routes: u64,
    hops: u64,
    messages: u64,
    bytes: u64,
    latency_us: Log2Hist,
    heat: Vec<u64>,
}

impl Bucket {
    fn new(index: u64, levels: usize) -> Self {
        Self {
            index,
            ops: 0,
            rejected: 0,
            retries: 0,
            failed_routes: 0,
            hops: 0,
            messages: 0,
            bytes: 0,
            latency_us: Log2Hist::default(),
            heat: vec![0; levels],
        }
    }
}

struct Inner {
    tick: u64,
    ring: VecDeque<Bucket>,
}

/// A sliding window of cost buckets. All mutation goes through `&self`;
/// the runtime shares one window across its serve loop.
pub struct Window {
    /// Wavelet levels tracked by the heat counters.
    levels: usize,
    inner: Mutex<Inner>,
}

impl Default for Window {
    /// An empty window tracking heat for 8 levels.
    fn default() -> Self {
        Self::new(8)
    }
}

impl Window {
    /// An empty window tracking heat for `levels` wavelet levels.
    pub fn new(levels: usize) -> Self {
        Self {
            levels,
            inner: Mutex::new(Inner {
                tick: 0,
                ring: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> Guard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Advance the window clock to `tick` (monotone; a smaller value is
    /// ignored). Subsequent records land in `tick`'s bucket.
    pub fn advance(&self, tick: u64) {
        let mut inner = self.lock();
        if tick > inner.tick {
            inner.tick = tick;
        }
    }

    fn current<'a>(&self, inner: &'a mut Inner) -> &'a mut Bucket {
        let index = inner.tick / BUCKET_TICKS;
        let fresh = match inner.ring.back() {
            Some(b) => b.index < index,
            None => true,
        };
        if fresh {
            inner.ring.push_back(Bucket::new(index, self.levels));
            while inner.ring.len() > BUCKETS {
                inner.ring.pop_front();
            }
        }
        inner.ring.back_mut().expect("ring non-empty")
    }

    /// Record one served operation: simulated cost plus host latency.
    pub fn record_op(&self, stats: &OpStats, latency_us: u64) {
        let mut inner = self.lock();
        let b = self.current(&mut inner);
        b.ops += 1;
        b.retries += stats.retries;
        b.failed_routes += stats.failed_routes;
        b.hops += stats.hops;
        b.messages += stats.messages;
        b.bytes += stats.bytes;
        b.latency_us.record(latency_us);
    }

    /// Record a rejected request (failure ack sent).
    pub fn record_rejected(&self) {
        let mut inner = self.lock();
        let b = self.current(&mut inner);
        b.ops += 1;
        b.rejected += 1;
    }

    /// Record one overlay operation touching wavelet level `level`
    /// (levels beyond the configured heat depth are dropped).
    pub fn record_level(&self, level: usize) {
        let mut inner = self.lock();
        let b = self.current(&mut inner);
        if let Some(h) = b.heat.get_mut(level) {
            *h += 1;
        }
    }

    /// Snapshot the window. `node` and `seq` identify the scrape (the
    /// runtime stamps its transport peer id and a monotone sequence).
    pub fn snapshot(&self, node: u64, seq: u64) -> WindowSnapshot {
        let inner = self.lock();
        let mut snap = WindowSnapshot {
            node,
            seq,
            tick: inner.tick,
            bucket_ticks: BUCKET_TICKS,
            capacity: BUCKETS,
            ops: 0,
            rejected: 0,
            retries: 0,
            failed_routes: 0,
            hops: 0,
            messages: 0,
            bytes: 0,
            latency_count: 0,
            latency_sum_us: 0,
            latency_buckets: Vec::new(),
            heat: vec![0; self.levels],
        };
        let mut latency: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
        for b in &inner.ring {
            snap.ops += b.ops;
            snap.rejected += b.rejected;
            snap.retries += b.retries;
            snap.failed_routes += b.failed_routes;
            snap.hops += b.hops;
            snap.messages += b.messages;
            snap.bytes += b.bytes;
            for (acc, &h) in snap.heat.iter_mut().zip(&b.heat) {
                *acc += h;
            }
            snap.latency_count += b.latency_us.count;
            snap.latency_sum_us += b.latency_us.sum;
            for (lo, hi, count) in b.latency_us.nonzero_buckets() {
                latency.entry(lo).or_insert((hi, 0)).1 += count;
            }
        }
        snap.latency_buckets = latency
            .into_iter()
            .map(|(lo, (hi, count))| (lo, hi, count))
            .collect();
        snap
    }
}

/// Serialisable view of a [`Window`]: totals over the retained buckets,
/// the merged latency histogram (as non-empty `[lo, hi, count]` rows, so
/// snapshots merge exactly) and the per-level heat totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowSnapshot {
    /// Transport peer id of the scraped node (0 = unknown/aggregate).
    pub node: u64,
    /// Monotone scrape sequence stamped by the serving runtime.
    pub seq: u64,
    /// Window clock (frame count or sim ticks) at snapshot time.
    pub tick: u64,
    /// Clock ticks per bucket.
    pub bucket_ticks: u64,
    /// Ring capacity in buckets.
    pub capacity: usize,
    /// Operations served across retained buckets.
    pub ops: u64,
    /// Requests rejected (failure acks).
    pub rejected: u64,
    /// Simulated retransmissions.
    pub retries: u64,
    /// Simulated failed routing attempts.
    pub failed_routes: u64,
    /// Simulated overlay hops.
    pub hops: u64,
    /// Simulated messages.
    pub messages: u64,
    /// Simulated bytes.
    pub bytes: u64,
    /// Latency samples recorded.
    pub latency_count: u64,
    /// Sum of latency samples, microseconds.
    pub latency_sum_us: u64,
    /// Non-empty log2 latency buckets as `(lo, hi, count)`.
    pub latency_buckets: Vec<(u64, u64, u64)>,
    /// Overlay operations per wavelet level.
    pub heat: Vec<u64>,
}

/// One-based nearest-rank position of the `q`-quantile among `n` sorted
/// samples: `⌈q·n⌉`, at least 1, with `q` clamped to `[0, 1]`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1)
}

impl WindowSnapshot {
    /// Latency quantile in microseconds: upper bound of the log2 bucket
    /// containing the `q`-quantile sample (0 when no samples).
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        if self.latency_count == 0 {
            return 0;
        }
        let rank = nearest_rank(q, self.latency_count as usize) as u64;
        let mut seen = 0;
        for &(_lo, hi, count) in &self.latency_buckets {
            seen += count;
            if seen >= rank {
                return hi;
            }
        }
        self.latency_buckets.last().map_or(0, |&(_, hi, _)| hi)
    }

    /// Median latency, microseconds.
    pub fn p50_us(&self) -> u64 {
        self.latency_quantile_us(0.50)
    }

    /// 99th-percentile latency, microseconds.
    pub fn p99_us(&self) -> u64 {
        self.latency_quantile_us(0.99)
    }

    /// Hottest level's heat (0 when no levels tracked).
    pub fn heat_max(&self) -> u64 {
        self.heat.iter().copied().max().unwrap_or(0)
    }

    /// Merge per-node snapshots into a cluster aggregate: totals and
    /// histograms sum; `tick` takes the maximum; `node`/`seq` reset to 0.
    pub fn merge(snaps: &[WindowSnapshot]) -> WindowSnapshot {
        let mut out = WindowSnapshot::default();
        let mut latency: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
        for s in snaps {
            out.tick = out.tick.max(s.tick);
            out.bucket_ticks = out.bucket_ticks.max(s.bucket_ticks);
            out.capacity = out.capacity.max(s.capacity);
            out.ops += s.ops;
            out.rejected += s.rejected;
            out.retries += s.retries;
            out.failed_routes += s.failed_routes;
            out.hops += s.hops;
            out.messages += s.messages;
            out.bytes += s.bytes;
            out.latency_count += s.latency_count;
            out.latency_sum_us += s.latency_sum_us;
            if out.heat.len() < s.heat.len() {
                out.heat.resize(s.heat.len(), 0);
            }
            for (i, &h) in s.heat.iter().enumerate() {
                out.heat[i] += h;
            }
            for &(lo, hi, count) in &s.latency_buckets {
                let e = latency.entry(lo).or_insert((hi, 0));
                e.1 += count;
            }
        }
        out.latency_buckets = latency
            .into_iter()
            .map(|(lo, (hi, count))| (lo, hi, count))
            .collect();
        out
    }

    /// Render as a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_obj().render()
    }

    /// The snapshot as a JSON object under construction, so a caller can
    /// append its own fields before rendering (the node runtime adds its
    /// liveness verdict for `StatsAck`).
    pub fn to_json_obj(&self) -> JsonObj {
        let buckets = self
            .latency_buckets
            .iter()
            .map(|&(lo, hi, c)| inline_arr([lo, hi, c]));
        JsonObj::new()
            .u("node", self.node)
            .u("seq", self.seq)
            .u("tick", self.tick)
            .u("bucket_ticks", self.bucket_ticks)
            .u("capacity", self.capacity as u64)
            .u("ops", self.ops)
            .u("rejected", self.rejected)
            .u("retries", self.retries)
            .u("failed_routes", self.failed_routes)
            .u("hops", self.hops)
            .u("messages", self.messages)
            .u("bytes", self.bytes)
            .u("p50_us", self.p50_us())
            .u("p99_us", self.p99_us())
            .u("latency_count", self.latency_count)
            .u("latency_sum_us", self.latency_sum_us)
            .raw("latency_buckets", inline_arr(buckets))
            .raw("heat", inline_arr(&self.heat))
    }

    /// Parse a snapshot back from [`WindowSnapshot::to_json`] output.
    /// `None` when required fields are missing or ill-typed (derived
    /// fields like `p50_us` are recomputed, not trusted).
    pub fn from_json(v: &JsonValue) -> Option<WindowSnapshot> {
        let u = |key: &str| v.get(key).and_then(JsonValue::as_u64);
        let mut snap = WindowSnapshot {
            node: u("node")?,
            seq: u("seq")?,
            tick: u("tick")?,
            bucket_ticks: u("bucket_ticks")?,
            capacity: usize::try_from(u("capacity")?).ok()?,
            ops: u("ops")?,
            rejected: u("rejected")?,
            retries: u("retries")?,
            failed_routes: u("failed_routes")?,
            hops: u("hops")?,
            messages: u("messages")?,
            bytes: u("bytes")?,
            latency_count: u("latency_count")?,
            latency_sum_us: u("latency_sum_us")?,
            latency_buckets: Vec::new(),
            heat: Vec::new(),
        };
        for row in v.get("latency_buckets")?.as_arr()? {
            let row = row.as_arr()?;
            if row.len() != 3 {
                return None;
            }
            snap.latency_buckets
                .push((row[0].as_u64()?, row[1].as_u64()?, row[2].as_u64()?));
        }
        for h in v.get("heat")?.as_arr()? {
            snap.heat.push(h.as_u64()?);
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(hops: u64, messages: u64, bytes: u64) -> OpStats {
        OpStats {
            hops,
            messages,
            bytes,
            retries: 0,
            failed_routes: 0,
        }
    }

    #[test]
    fn buckets_rotate_and_evict() {
        let w = Window::new(2);
        for tick in (0..=BUCKETS as u64 + 2).chain([BUCKETS as u64 + 2]) {
            w.advance(tick);
            w.record_op(&op(2, 3, 100), 50);
        }
        let snap = w.snapshot(7, 1);
        // The two records at tick 66 share its bucket; buckets 0..=2 were
        // evicted when buckets 64..=66 arrived — the ring keeps the 64
        // newest, 3..=66, holding 63 + 2 records.
        assert_eq!(snap.ops, 65);
        assert_eq!(snap.hops, 130);
        assert_eq!(snap.node, 7);
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.tick, 66);
        // One more bucket evicts the oldest, bucket 3, and its one record.
        w.advance(67);
        w.record_op(&op(2, 3, 100), 50);
        assert_eq!(w.snapshot(7, 2).ops, 65, "oldest bucket evicted");
    }

    #[test]
    fn clock_is_monotone() {
        let w = Window::default();
        w.advance(10);
        w.advance(3); // ignored
        w.record_op(&op(1, 1, 1), 10);
        let snap = w.snapshot(0, 0);
        assert_eq!(snap.tick, 10);
        assert_eq!(snap.ops, 1);
        // The record sits in bucket 10, not 3: a second record at tick 10
        // shares it, so 63 newer buckets evict nothing and the 64th
        // evicts both records at once.
        w.advance(10);
        w.record_op(&op(1, 1, 1), 10);
        for tick in 11..10 + BUCKETS as u64 {
            w.advance(tick);
            w.record_op(&op(1, 1, 1), 10);
        }
        assert_eq!(w.snapshot(0, 1).ops, 65);
        w.advance(10 + BUCKETS as u64);
        w.record_op(&op(1, 1, 1), 10);
        assert_eq!(w.snapshot(0, 2).ops, 64);
    }

    #[test]
    fn quantiles_and_rates() {
        let w = Window::new(4);
        for i in 0..100u64 {
            w.advance(i / 25);
            // 99 fast ops and one slow one.
            w.record_op(&op(1, 2, 64), if i == 99 { 100_000 } else { 100 });
        }
        w.record_rejected();
        w.record_level(0);
        w.record_level(0);
        w.record_level(3);
        w.record_level(9); // beyond tracked depth: dropped
        let snap = w.snapshot(1, 2);
        assert_eq!(snap.ops, 101);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.latency_count, 100);
        // p50 falls in the bucket containing 100 (64..127).
        assert_eq!(snap.p50_us(), 127);
        // p99 rank = ceil(0.99*100) = 99 ≤ 99 fast samples → still fast.
        assert_eq!(snap.p99_us(), 127);
        assert_eq!(snap.latency_quantile_us(1.0), 131071);
        assert_eq!(snap.heat, vec![2, 0, 0, 1]);
        assert_eq!(snap.heat_max(), 2);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let w = Window::new(3);
        w.advance(1);
        w.record_op(&op(3, 5, 256), 120);
        w.record_level(1);
        w.advance(3);
        w.record_rejected();
        let snap = w.snapshot(42, 9);
        let json = snap.to_json();
        // Byte pin: this line is what `StatsAck` carries on the wire.
        assert_eq!(
            json,
            "{\"node\": 42, \"seq\": 9, \"tick\": 3, \"bucket_ticks\": 1, \"capacity\": 64, \
             \"ops\": 2, \"rejected\": 1, \"retries\": 0, \"failed_routes\": 0, \"hops\": 3, \
             \"messages\": 5, \"bytes\": 256, \"p50_us\": 127, \"p99_us\": 127, \
             \"latency_count\": 1, \"latency_sum_us\": 120, \"latency_buckets\": [[64, 127, 1]], \
             \"heat\": [0, 1, 0]}"
        );
        let parsed = WindowSnapshot::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn merge_aggregates_nodes() {
        let mk = |node: u64, latency: u64, ops: u64| {
            let w = Window::default();
            w.advance(node); // distinct buckets per node
            for _ in 0..ops {
                w.record_op(&op(1, 1, 10), latency);
            }
            w.snapshot(node, 1)
        };
        let a = mk(1, 100, 10);
        let b = mk(2, 100_000, 10);
        let merged = WindowSnapshot::merge(&[a.clone(), b.clone()]);
        assert_eq!(merged.ops, 20);
        assert_eq!(merged.bytes, 200);
        assert_eq!(merged.latency_count, 20);
        assert_eq!(merged.node, 0);
        assert_eq!(merged.tick, 2);
        // Half the cluster's samples are slow: p99 must see them.
        assert!(merged.p99_us() >= 65536);
        assert_eq!(merged.p50_us(), a.p50_us());
        assert_eq!(WindowSnapshot::merge(&[]), WindowSnapshot::default());
    }
}
