//! Query processing (Section 4 of the paper).
//!
//! All three query types share the two-phase structure of Figure 3:
//!
//! 1. **Peer selection** — translate the query into every published wavelet
//!    subspace, run an overlay lookup there, score peers with Eq. 1 and
//!    aggregate across levels;
//! 2. **Item retrieval** — contact the selected peers directly and let them
//!    answer exactly from their local collections (which is why precision
//!    of range queries is always 100%).
//!
//! * [`range`] — ε-range queries, no false dismissals (Theorem 4.1);
//! * [`knn`] — the Figure-5 heuristic with the Eq. 8 radius estimation and
//!   the `C` precision/recall knob;
//! * [`point`] — exact-match lookups;
//! * [`cache`] — the popular-summary cache entry peers may consult before
//!   a phase-1 overlay lookup (hot-spot relief; see `hyperm-load`).

pub mod cache;
pub mod knn;
pub mod point;
pub mod range;

use hyperm_sim::OpStats;

/// Failure-tolerance budget for the phase-2 direct fetch.
///
/// The paper assumes selected peers answer; on a lossy or partitioned MANET
/// they may not. A `QueryBudget` makes the degradation explicit: unanswered
/// fetches cost `fetch_timeout` ticks instead of hanging, `fallback` slides
/// the contact window to the next-scored candidates so the intended number
/// of peers still answers, and `deadline` caps the total phase-2 hop spend —
/// when it runs out the query returns what it has with `truncated = true`.
///
/// Passing no budget (the legacy entry points) keeps phase 2 bit-identical
/// to the original fetch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
    /// Ticks (charged as hops) burnt waiting on an unanswered direct fetch
    /// before declaring the peer unreachable. Clamped to ≥ 1.
    pub fetch_timeout: u64,
    /// Slide the contact window past unreachable peers to the next-scored
    /// candidates, preserving the intended number of answering peers.
    pub fallback: bool,
    /// Optional phase-2 hop budget: checked before each contact; once spent
    /// the query stops fetching and flags its result `truncated`.
    pub deadline: Option<u64>,
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self {
            fetch_timeout: 1,
            fallback: true,
            deadline: None,
        }
    }
}

impl QueryBudget {
    /// Builder-style timeout override.
    pub fn with_fetch_timeout(mut self, ticks: u64) -> Self {
        self.fetch_timeout = ticks;
        self
    }

    /// Builder-style deadline override.
    pub fn with_deadline(mut self, hops: u64) -> Self {
        self.deadline = Some(hops);
        self
    }

    /// Builder-style fallback toggle.
    pub fn with_fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }

    /// Effective per-probe tick charge (the configured timeout, ≥ 1).
    pub(crate) fn timeout_ticks(&self) -> u64 {
        self.fetch_timeout.max(1)
    }
}

/// Cost of contacting a peer directly (request + response), in overlay
/// message terms: the paper's phase-2 retrieval bypasses the overlay, so we
/// charge one hop each way.
pub(crate) fn direct_fetch_cost(query_bytes: u64, response_bytes: u64) -> OpStats {
    OpStats {
        hops: 2,
        messages: 2,
        bytes: query_bytes + response_bytes,
        ..OpStats::zero()
    }
}

/// Cost of a direct fetch that timed out: the request went out, `ticks`
/// ticks were burnt waiting, no response came back.
pub(crate) fn timed_out_fetch_cost(query_bytes: u64, ticks: u64) -> OpStats {
    OpStats {
        hops: ticks,
        messages: 1,
        bytes: query_bytes,
        failed_routes: 1,
        ..OpStats::zero()
    }
}
