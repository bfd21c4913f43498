//! Message/hop/byte accounting.
//!
//! The paper's dissemination experiments (Figure 8) report *average hops per
//! item insertion*; each overlay hop is one radio message. [`OpStats`] is
//! the per-operation record returned by CAN operations; [`OpKind`] names
//! the operation it belongs to.

/// The kind of network operation a cost record belongs to.
///
/// Lives here (not in `hyperm-telemetry`) beside [`OpStats`], so crates
/// below telemetry can name a kind; telemetry's metrics registry uses
/// this enum as half of its `(op kind, wavelet level)` key.
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
    fn op_kind_names_and_indices_are_dense() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}
