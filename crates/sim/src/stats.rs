//! Message/hop/byte accounting.
//!
//! The paper's dissemination experiments (Figure 8) report *average hops per
//! item insertion*; each overlay hop is one radio message. [`OpStats`] is
//! the per-operation record returned by CAN operations, [`NetStats`] the
//! thread-safe whole-network accumulator used when many peers insert in
//! parallel.

use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of network operation a cost record belongs to.
///
/// Lives here (not in `hyperm-telemetry`) so that [`NetStats`] can break
/// its counters down per kind without `hyperm-sim` depending on the
/// telemetry crate; telemetry re-uses this enum as half of its
/// `(op kind, wavelet level)` metrics key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Build-time publication of one cluster sphere.
    Publish,
    /// Soft-state republish of a peer's summaries (TTL refresh).
    Refresh,
    /// ε-range query.
    RangeQuery,
    /// k-nearest-neighbour query.
    KnnQuery,
    /// Exact point query.
    PointQuery,
    /// Overlay repair: zone takeover, handoff, background merges.
    Repair,
}

impl OpKind {
    /// All kinds, in stable report order.
    pub const ALL: [OpKind; 6] = [
        OpKind::Publish,
        OpKind::Refresh,
        OpKind::RangeQuery,
        OpKind::KnnQuery,
        OpKind::PointQuery,
        OpKind::Repair,
    ];

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Publish => "publish",
            OpKind::Refresh => "refresh",
            OpKind::RangeQuery => "range_query",
            OpKind::KnnQuery => "knn_query",
            OpKind::PointQuery => "point_query",
            OpKind::Repair => "repair",
        }
    }

    /// Dense index into per-kind tables (`0..OpKind::ALL.len()`).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Cost record of one overlay operation (insert, lookup, query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Overlay hops taken (greedy routing steps + replication fan-out).
    pub hops: u64,
    /// Messages sent (≥ hops; a flooding step sends several).
    pub messages: u64,
    /// Payload bytes moved across all messages.
    pub bytes: u64,
    /// Retransmissions after per-hop message drops (fault injection).
    pub retries: u64,
    /// Routing attempts that terminated without reaching an owner
    /// (dead end in a damaged topology, hop-cap, or retry exhaustion).
    pub failed_routes: u64,
}

impl OpStats {
    /// A zero record.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Record of a single message of `bytes` traveling one hop.
    pub fn one_hop(bytes: u64) -> Self {
        Self {
            hops: 1,
            messages: 1,
            bytes,
            ..Self::zero()
        }
    }

    /// Record of one routing attempt that never reached an owner.
    pub fn one_failed_route() -> Self {
        Self {
            failed_routes: 1,
            ..Self::zero()
        }
    }
}

impl std::ops::Add for OpStats {
    type Output = OpStats;
    fn add(self, rhs: OpStats) -> OpStats {
        OpStats {
            hops: self.hops + rhs.hops,
            messages: self.messages + rhs.messages,
            bytes: self.bytes + rhs.bytes,
            retries: self.retries + rhs.retries,
            failed_routes: self.failed_routes + rhs.failed_routes,
        }
    }
}

impl std::ops::AddAssign for OpStats {
    fn add_assign(&mut self, rhs: OpStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for OpStats {
    fn sum<I: Iterator<Item = OpStats>>(iter: I) -> OpStats {
        iter.fold(OpStats::zero(), |a, b| a + b)
    }
}

/// One kind's worth of atomic counters inside [`NetStats`].
#[derive(Debug, Default)]
struct KindCell {
    hops: AtomicU64,
    messages: AtomicU64,
    bytes: AtomicU64,
    retries: AtomicU64,
    failed_routes: AtomicU64,
    operations: AtomicU64,
}

impl KindCell {
    fn record(&self, op: OpStats) {
        self.hops.fetch_add(op.hops, Ordering::Relaxed);
        self.messages.fetch_add(op.messages, Ordering::Relaxed);
        self.bytes.fetch_add(op.bytes, Ordering::Relaxed);
        self.retries.fetch_add(op.retries, Ordering::Relaxed);
        self.failed_routes
            .fetch_add(op.failed_routes, Ordering::Relaxed);
        self.operations.fetch_add(1, Ordering::Relaxed);
    }

    fn totals(&self) -> OpStats {
        OpStats {
            hops: self.hops.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failed_routes: self.failed_routes.load(Ordering::Relaxed),
        }
    }

    fn operations(&self) -> u64 {
        self.operations.load(Ordering::Relaxed)
    }
}

/// Thread-safe whole-network counters (relaxed atomics — counters only),
/// broken down per [`OpKind`] so hop averages can be reported per kind
/// (publish vs. query vs. repair, as in the paper's Fig. 8).
#[derive(Debug, Default)]
pub struct NetStats {
    total: KindCell,
    kinds: [KindCell; OpKind::ALL.len()],
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one operation's record into the totals, unattributed to any
    /// kind (legacy entry point; prefer [`NetStats::record_as`]).
    pub fn record(&self, op: OpStats) {
        self.total.record(op);
    }

    /// Fold one operation's record into both the overall totals and the
    /// per-kind cell for `kind`.
    pub fn record_as(&self, kind: OpKind, op: OpStats) {
        self.total.record(op);
        self.kinds[kind.index()].record(op);
    }

    /// Snapshot the overall totals as a plain [`OpStats`].
    pub fn totals(&self) -> OpStats {
        self.total.totals()
    }

    /// Snapshot one kind's totals.
    pub fn totals_of(&self, kind: OpKind) -> OpStats {
        self.kinds[kind.index()].totals()
    }

    /// Number of operations recorded overall.
    pub fn operations(&self) -> u64 {
        self.total.operations()
    }

    /// Number of operations recorded for `kind` (via
    /// [`NetStats::record_as`]).
    pub fn operations_of(&self, kind: OpKind) -> u64 {
        self.kinds[kind.index()].operations()
    }

    /// Average hops per recorded operation (0 when nothing recorded).
    pub fn avg_hops(&self) -> f64 {
        Self::ratio(self.total.totals().hops, self.total.operations())
    }

    /// Average hops per operation of `kind` (0 when nothing recorded).
    pub fn avg_hops_of(&self, kind: OpKind) -> f64 {
        let cell = &self.kinds[kind.index()];
        Self::ratio(cell.totals().hops, cell.operations())
    }

    /// Average messages per operation of `kind` (0 when nothing recorded).
    pub fn avg_messages_of(&self, kind: OpKind) -> f64 {
        let cell = &self.kinds[kind.index()];
        Self::ratio(cell.totals().messages, cell.operations())
    }

    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stats_arithmetic() {
        let a = OpStats {
            hops: 2,
            messages: 3,
            bytes: 100,
            ..OpStats::zero()
        };
        let b = OpStats::one_hop(50);
        let c = a + b;
        assert_eq!(
            c,
            OpStats {
                hops: 3,
                messages: 4,
                bytes: 150,
                ..OpStats::zero()
            }
        );
        let sum: OpStats = [a, b, c].into_iter().sum();
        assert_eq!(sum.hops, 6);
    }

    #[test]
    fn add_assign() {
        let mut a = OpStats::zero();
        a += OpStats::one_hop(10);
        a += OpStats::one_hop(20);
        assert_eq!(
            a,
            OpStats {
                hops: 2,
                messages: 2,
                bytes: 30,
                ..OpStats::zero()
            }
        );
    }

    #[test]
    fn net_stats_accumulates() {
        let stats = NetStats::new();
        stats.record(OpStats {
            hops: 4,
            messages: 5,
            bytes: 64,
            ..OpStats::zero()
        });
        stats.record(OpStats {
            hops: 2,
            messages: 2,
            bytes: 32,
            ..OpStats::zero()
        });
        assert_eq!(
            stats.totals(),
            OpStats {
                hops: 6,
                messages: 7,
                bytes: 96,
                ..OpStats::zero()
            }
        );
        assert_eq!(stats.operations(), 2);
        assert_eq!(stats.avg_hops(), 3.0);
    }

    #[test]
    fn avg_hops_empty() {
        assert_eq!(NetStats::new().avg_hops(), 0.0);
        assert_eq!(NetStats::new().avg_hops_of(OpKind::Publish), 0.0);
    }

    #[test]
    fn net_stats_per_kind_breakdown() {
        let stats = NetStats::new();
        stats.record_as(
            OpKind::Publish,
            OpStats {
                hops: 10,
                messages: 12,
                bytes: 640,
                ..OpStats::zero()
            },
        );
        stats.record_as(
            OpKind::Publish,
            OpStats {
                hops: 6,
                messages: 8,
                bytes: 320,
                ..OpStats::zero()
            },
        );
        stats.record_as(OpKind::RangeQuery, OpStats::one_hop(64));
        stats.record_as(
            OpKind::Repair,
            OpStats {
                messages: 3,
                bytes: 96,
                ..OpStats::zero()
            },
        );
        // Per-kind counts and averages.
        assert_eq!(stats.operations_of(OpKind::Publish), 2);
        assert_eq!(stats.operations_of(OpKind::RangeQuery), 1);
        assert_eq!(stats.operations_of(OpKind::Repair), 1);
        assert_eq!(stats.operations_of(OpKind::KnnQuery), 0);
        assert_eq!(stats.avg_hops_of(OpKind::Publish), 8.0);
        assert_eq!(stats.avg_hops_of(OpKind::RangeQuery), 1.0);
        assert_eq!(stats.avg_hops_of(OpKind::Repair), 0.0);
        assert_eq!(stats.avg_messages_of(OpKind::Publish), 10.0);
        assert_eq!(stats.totals_of(OpKind::Publish).bytes, 960);
        // Kind-attributed records also land in the overall totals,
        // alongside unattributed `record` calls.
        stats.record(OpStats::one_hop(1));
        assert_eq!(stats.operations(), 5);
        assert_eq!(stats.totals().hops, 18);
    }

    #[test]
    fn op_kind_names_and_indices_are_dense() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn net_stats_is_thread_safe() {
        let stats = std::sync::Arc::new(NetStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = stats.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record(OpStats::one_hop(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.operations(), 8000);
        assert_eq!(stats.totals().hops, 8000);
    }
}
