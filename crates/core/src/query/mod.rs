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
//! * [`point`] — exact-match lookups.
//!
//! Phase 2 is one candidate walk (`QueryRun::walk`) for all three. A
//! candidate that does not answer — dead, or severed by the active
//! partition — is accounted one of two ways, chosen by whether the caller
//! passed a [`QueryBudget`]; nothing else in the walk depends on it:
//!
//! | unanswered probe | no budget | budget |
//! |---|---|---|
//! | hops | 1 | 1 (one timeout tick) |
//! | messages, bytes | 1, request size | 1, request size |
//! | failed routes | 0 | 1 |
//! | counts toward `peers_contacted` | yes | no |
//! | trace | `fetch{alive=false}` event | `fetch_timeout` event + counter |
//! | contact window | fixed | slides to the next candidate if `fallback` |

// Panic-free hot path, here and in the query/ submodules: no
// unwrap/expect, panic!/unreachable! or unchecked indexing outside tests
// without a written reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
pub mod knn;
pub mod point;
pub mod range;

use crate::network::HypermNetwork;
use crate::op::{cost_fields, Op};
use crate::score::PeerScore;
use hyperm_sim::OpStats;
use hyperm_telemetry::{Fields, Name, OpKind};

/// Failure-tolerance budget for the phase-2 direct fetch.
///
/// The paper assumes selected peers answer; on a lossy or partitioned MANET
/// they may not. A `QueryBudget` makes the degradation explicit: unanswered
/// fetches cost one timeout tick instead of hanging, `fallback` slides
/// the contact window to the next-scored candidates so the intended number
/// of peers still answers, and `deadline` caps the total phase-2 hop spend —
/// when it runs out the query returns what it has with `truncated = true`.
/// The module docs tabulate what an unanswered fetch costs with and without
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
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
            fallback: true,
            deadline: None,
        }
    }
}

impl QueryBudget {
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
}

/// Cost of contacting a peer directly (request + response), in overlay
/// message terms: the paper's phase-2 retrieval bypasses the overlay, so we
/// charge one hop each way.
fn direct_fetch_cost(query_bytes: u64, response_bytes: u64) -> OpStats {
    OpStats {
        hops: 2,
        messages: 2,
        bytes: query_bytes + response_bytes,
        ..OpStats::zero()
    }
}

/// Ticks (charged as hops) burnt waiting on an unanswered direct fetch
/// before the peer is declared unreachable.
const FETCH_TIMEOUT_TICKS: u64 = 1;

/// Cost of a direct fetch that timed out: the request went out,
/// [`FETCH_TIMEOUT_TICKS`] were burnt waiting, no response came back.
fn timed_out_fetch_cost(query_bytes: u64) -> OpStats {
    OpStats {
        hops: FETCH_TIMEOUT_TICKS,
        messages: 1,
        bytes: query_bytes,
        failed_routes: 1,
        ..OpStats::zero()
    }
}

/// What a contacted peer sent back, as the walk's accounting and the
/// `fetch` event need it.
#[derive(Clone, Copy)]
pub(super) enum Reply {
    /// Range and k-nn: `got` items (`want` is the share a k-nn asked for).
    Items { want: Option<usize>, got: usize },
    /// Point: whether the peer holds the exact item.
    Matched(bool),
}

impl Reply {
    fn bytes(self, dim: u64) -> u64 {
        match self {
            Reply::Items { got, .. } => 8 * dim * got as u64 + 16,
            Reply::Matched(_) => 24,
        }
    }

    /// The `fetch` event of a probe to `peer` that moved `bytes` in total.
    fn fetch_fields(self, peer: usize, alive: bool, bytes: u64) -> Fields {
        let mut f: Fields = Vec::with_capacity(5);
        f.extend([("peer", peer.into()), ("alive", alive.into())]);
        match self {
            Reply::Items { want, got } => {
                f.extend(want.map(|w| ("want", w.into())));
                f.push(("items", got.into()));
                f.push(("bytes", bytes.into()));
            }
            Reply::Matched(hit) => f.push(("matched", hit.into())),
        }
        f
    }
}

/// One query in flight: its `query` op, the phase-2 hop spend a
/// [`QueryBudget`] deadline is checked against, and the host clock its
/// latency is measured by.
pub(super) struct QueryRun<'a> {
    net: &'a HypermNetwork,
    from_peer: usize,
    dim: u64,
    budget: Option<QueryBudget>,
    t0: Option<std::time::Instant>,
    /// Phase 1 runs its levels, phase 2 adds its fetches.
    pub(super) op: Op,
    phase2_hops: u64,
    truncated: bool,
}

impl<'a> QueryRun<'a> {
    /// Open the `query` op for a `dim`-dimensional query (`label` and
    /// `extra` are its kind-specific attributes).
    pub(super) fn open(
        net: &'a HypermNetwork,
        kind: OpKind,
        label: &'static str,
        from_peer: usize,
        dim: usize,
        budget: Option<QueryBudget>,
        extra: impl FnOnce() -> Fields,
    ) -> Self {
        let tel = net.recorder();
        #[expect(
            clippy::disallowed_methods,
            reason = "host-latency metric for the trace only; never feeds simulated results or routing decisions"
        )]
        let t0 = tel.is_enabled().then(std::time::Instant::now);
        // Roots under the recorder's ambient scope — NONE standalone, the
        // serve span when a node runtime is dispatching us.
        let op = Op::open(tel, tel.scope(), kind, Name::Query, || {
            let head = vec![("kind", label.into()), ("from", from_peer.into())];
            [head, extra()].concat()
        });
        QueryRun {
            net,
            from_peer,
            dim: dim as u64,
            budget,
            t0,
            op,
            phase2_hops: 0,
            truncated: false,
        }
    }

    /// Phase 2: walk `ranked` in order until `target` peers have been
    /// contacted, and return how many were. `ask` is what a reachable peer
    /// does; its [`Reply`] is charged as an answered fetch (to the query,
    /// and to the answering peer — and only it — on the load ledger).
    /// Returning `None` defers the fetch: the peer counts, nothing is
    /// charged. `silent` shapes the event of a probe nobody answers.
    pub(super) fn walk(
        &mut self,
        ranked: &[PeerScore],
        target: usize,
        silent: Reply,
        mut ask: impl FnMut(&PeerScore) -> Option<Reply>,
    ) -> usize {
        let net = self.net;
        let tel = net.recorder();
        let traced = tel.is_enabled();
        let q_bytes = 8 * (self.dim + 1) + 16;
        let fallback = self.budget.is_some_and(|b| b.fallback);
        let deadline = self.budget.and_then(|b| b.deadline);
        let mut contacted = 0;
        for (idx, ps) in ranked.iter().enumerate() {
            if contacted == target || (idx >= target && !fallback) {
                break;
            }
            if deadline.is_some_and(|d| self.phase2_hops >= d) {
                self.truncated = true;
                break;
            }
            if !(net.is_alive(ps.peer) && net.peers_connected(self.from_peer, ps.peer)) {
                // The two accountings of the module-doc table.
                match self.budget {
                    None => {
                        self.op.stats += OpStats {
                            failed_routes: 0,
                            ..timed_out_fetch_cost(q_bytes)
                        };
                        if traced {
                            let fields = silent.fetch_fields(ps.peer, false, q_bytes);
                            tel.event(self.op.span, Name::Fetch, fields);
                        }
                        contacted += 1;
                    }
                    Some(_) => {
                        self.phase2_hops += FETCH_TIMEOUT_TICKS;
                        self.op.stats += timed_out_fetch_cost(q_bytes);
                        if traced {
                            tel.count_event(
                                self.op.span,
                                Name::FetchTimeout,
                                vec![
                                    ("peer", ps.peer.into()),
                                    ("ticks", FETCH_TIMEOUT_TICKS.into()),
                                    ("bytes", q_bytes.into()),
                                ],
                            );
                        }
                    }
                }
                continue;
            }
            if idx >= target && traced {
                tel.count_event(
                    self.op.span,
                    Name::FetchFallback,
                    vec![("peer", ps.peer.into()), ("rank", idx.into())],
                );
            }
            contacted += 1;
            let Some(reply) = ask(ps) else { continue };
            let resp_bytes = reply.bytes(self.dim);
            self.op.stats += direct_fetch_cost(q_bytes, resp_bytes);
            if let Some(ledger) = net.load_ledger() {
                ledger.charge_fetch_answered(ps.peer, resp_bytes);
            }
            self.phase2_hops += 2;
            if traced {
                let fields = reply.fetch_fields(ps.peer, true, q_bytes + resp_bytes);
                tel.event(self.op.span, Name::Fetch, fields);
            }
        }
        contacted
    }

    /// Close the `query` op (`tail` is its kind-specific outcome) and hand
    /// back the total cost and whether a deadline truncated phase 2.
    pub(super) fn close(self, tail: impl FnOnce() -> Fields) -> (OpStats, bool) {
        if let Some(t0) = self.t0 {
            let tel = self.net.recorder();
            tel.record_latency_s(self.op.kind, None, t0.elapsed().as_secs_f64());
        }
        let stats = self.op.close(|s| [cost_fields(s), tail()].concat());
        (stats, self.truncated)
    }
}
