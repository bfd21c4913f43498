//! The canonical event-name taxonomy, as types.
//!
//! Every span or instant a [`crate::Recorder`] emits (`span` / `event` /
//! `end` / `count_event`) and every name the forensics matchers
//! (`spans_named` / `event_count`) look for is a [`Name`]; every metrics
//! counter is a [`Counter`] — an event's own [`Name`] or one of the
//! counter-only aggregates. Producers (overlay, query, publish, repair,
//! transport code) and consumers (`trace_query`, metrics dashboards, the
//! integration tests) cannot drift apart: a name that is not a row here
//! does not compile. Each row carries its doc line and its wire string —
//! the exact bytes JSONL lines and metrics counter keys have always
//! carried.

use std::fmt;

/// One enum per row list: the variants, `as_str` (row → wire string),
/// `parse` (wire string → row) and `Display` (the wire string). A
/// `wraps Variant(Inner)` header adds a variant carrying every row of
/// another such enum.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident $(wraps $wrap:ident($inner:ident) $wrap_doc:literal)? {
            $( $(#[$attr:meta])* $var:ident = $wire:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $( #[doc = $wrap_doc] $wrap($inner), )?
            $( $(#[$attr])* $var, )*
        }

        impl $ty {
            /// The wire string (JSONL `name`, metrics counter key).
            pub const fn as_str(self) -> &'static str {
                match self {
                    $( $ty::$wrap(inner) => inner.as_str(), )?
                    $( $ty::$var => $wire, )*
                }
            }

            /// The row whose wire string is `s`, if any.
            pub fn parse(s: &str) -> Option<Self> {
                $( if let Some(inner) = $inner::parse(s) {
                    return Some($ty::$wrap(inner));
                } )?
                match s {
                    $( $wire => Some($ty::$var), )*
                    _ => None,
                }
            }

            /// Every row of this list (a wrapped enum's rows excluded).
            #[cfg(test)]
            const ROWS: &'static [$ty] = &[$( $ty::$var, )*];
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

wire_enum! {
    /// A canonical span or instant-event name.
    pub enum Name {
        // ---- spans ------------------------------------------------------

        /// Root span of one range/knn/point query.
        Query = "query",
        /// Per-level overlay range/point lookup inside a query.
        OverlayLookup = "overlay_lookup",
        /// Replica flood of one summary sphere (publish or lookup side).
        Flood = "flood",
        /// One peer publishing its per-level summaries.
        Publish = "publish",
        /// One soft-state TTL refresh round.
        Refresh = "refresh",
        /// One overlay repair step (merge/handoff/relocation round).
        RepairStep = "repair_step",
        /// Lifetime of an injected underlay partition (ends at heal).
        Partition = "partition",
        /// Lifetime of one transport endpoint (bind → close).
        Transport = "transport",
        /// One request served by a node runtime (recv → reply sent).
        Serve = "serve",

        // ---- instants ---------------------------------------------------

        /// One greedy CAN routing hop.
        RouteHop = "route_hop",
        /// A lossy hop was retried.
        Retry = "retry",
        /// A message was dropped by fault injection.
        Drop = "drop",
        /// Routing reached a dead end (no live neighbour closer to target).
        DeadEnd = "dead_end",
        /// A node was visited during a flood walk.
        Visit = "visit",
        /// A flood edge was traversed.
        FloodEdge = "flood_edge",
        /// A replica of a summary sphere was stored.
        Replica = "replica",
        /// A k-nn probe radius was evaluated at some level.
        Probe = "probe",
        /// Per-level score aggregation finished.
        Score = "score",
        /// Items fetched from a candidate peer.
        Fetch = "fetch",
        /// A fetch timed out on an unreachable peer.
        FetchTimeout = "fetch_timeout",
        /// The fetch window slid past unreachable peers to a fallback.
        FetchFallback = "fetch_fallback",
        /// A dead node's zone was taken over during repair.
        Takeover = "takeover",
        /// A peer joined the network (engine-driven arrival).
        Join = "join",
        /// An injected partition healed.
        Heal = "heal",
        /// A frame was sent by a transport endpoint.
        FrameTx = "frame_tx",
        /// A frame was received by a transport endpoint.
        FrameRx = "frame_rx",
        /// A frame was rejected (undecodable, oversized, or unroutable).
        FrameDrop = "frame_drop",
        /// A bounded inbox blocked or refused a sender (backpressure).
        Backpressure = "backpressure",
        /// A transport connection was established.
        Connect = "connect",
        /// A transport connection closed.
        Disconnect = "disconnect",
        /// A node runtime relayed a request/reply on behalf of another peer.
        Forward = "forward",
        /// A hot zone was split and half granted to a colder host.
        ZoneSplit = "zone_split",
        /// Zone fragments were merged back (load-triggered quiescence pass).
        ZoneMerge = "zone_merge",
        /// A virtual zone migrated off an overloaded host.
        VnodeMigrate = "vnode_migrate",
        /// A node runtime served a window-stats scrape request.
        Stats = "stats",
        /// A wire heartbeat request was served.
        Ping = "ping",
        /// A wire heartbeat answer was received.
        Pong = "pong",
        /// A peer exceeded its missed-ping threshold and was marked dead.
        PeerDown = "peer_down",
        /// A previously-joined peer re-joined (crash-restart resync) or a
        /// degraded link to the head recovered.
        Rejoin = "rejoin",
        /// A reply to an already-timed-out request arrived and was discarded.
        StaleReply = "stale_reply",
        /// A dropped transport connection was re-established.
        Reconnect = "reconnect",
        /// A request exhausted its retry budget and failed for good.
        GaveUp = "gave_up",
    }
}

wire_enum! {
    /// A metrics-registry counter: an event's own [`Name`] (e.g.
    /// `fetch_timeout`, via `Counter::from`) or a counter-only aggregate.
    pub enum Counter wraps Event(Name) "A counter named after the event it counts." {
        /// Queries executed (whole-op counter).
        Queries = "queries",
        /// Virtual-zone migrations executed by the load balancer.
        VnodeMigrations = "vnode_migrations",
        /// Window-stats scrapes served by a node runtime (aggregate).
        StatsServed = "stats_served",
    }
}

impl From<Name> for Counter {
    fn from(name: Name) -> Self {
        Counter::Event(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_counter() -> impl Iterator<Item = Counter> {
        Name::ROWS
            .iter()
            .map(|&n| Counter::from(n))
            .chain(Counter::ROWS.iter().copied())
    }

    #[test]
    fn taxonomy_is_duplicate_free_and_lowercase() {
        let mut seen = std::collections::BTreeSet::new();
        for c in every_counter() {
            let s = c.as_str();
            assert!(
                !s.is_empty()
                    && !s.starts_with('_')
                    && !s.ends_with('_')
                    && !s.contains("__")
                    && s.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'),
                "wire string {s:?} must be lowercase snake_case"
            );
            assert!(seen.insert(s), "duplicate wire string {s:?}");
        }
        assert_eq!(Name::ROWS.len(), 42);
        assert_eq!(seen.len(), 42 + 3);
    }

    #[test]
    fn every_row_round_trips_through_its_wire_string() {
        for &n in Name::ROWS {
            assert_eq!(Name::parse(n.as_str()), Some(n));
            assert_eq!(n.to_string(), n.as_str());
        }
        for c in every_counter() {
            assert_eq!(Counter::parse(c.as_str()), Some(c));
            assert_eq!(c.to_string(), c.as_str());
        }
        assert_eq!(Name::OverlayLookup.as_str(), "overlay_lookup");
        assert_eq!(Counter::from(Name::GaveUp).as_str(), "gave_up");
        assert_eq!(
            Name::parse("queries"),
            None,
            "aggregates are not event names"
        );
        assert_eq!(Counter::parse("mystery_event"), None);
    }
}
