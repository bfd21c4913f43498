//! CAN nodes, bootstrap/join and greedy routing.
//!
//! The overlay follows the original CAN design: one zone per node, joins
//! split the zone containing a uniformly random point, and routing forwards
//! greedily to the neighbour whose zone is (torus-)closest to the target.
//! Hyper-M builds one such overlay per wavelet subspace over the *same*
//! device population.
//!
//! Neighbour lists are maintained incrementally on join: the new node's
//! neighbours are a subset of the split node's old neighbour set plus the
//! split node itself, so each join touches only the local neighbourhood —
//! no global recomputation.

// Panic-free hot path: no unwrap/expect, panic!/unreachable! or
// unchecked indexing outside tests without a written reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
#![expect(
    clippy::indexing_slicing,
    reason = "node ids are dense indices into self.nodes by construction, and zone/neighbour offsets come from checked position() hits"
)]
use crate::store::ObjectStore;
use crate::zone::Zone;
use crate::zoneindex::ZoneIndex;
use hyperm_sim::underlay::map_connected;
use hyperm_sim::{FaultConfig, FaultInjector, FaultReport, LoadProbe, NodeId, OpStats};
use hyperm_telemetry::sync::Mutex;
use hyperm_telemetry::{Name, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Safety cap on greedy routing steps (diagnoses broken topologies).
const MAX_ROUTE_HOPS: u64 = 4096;

/// Overlay construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanConfig {
    /// Key-space dimensionality.
    pub dim: usize,
    /// RNG seed for join points.
    pub seed: u64,
    /// Finger links on a 1-d overlay (see [`CanNode::fingers`]): greedy
    /// routing then takes O(log n) hops around the ring instead of ≈ n/4.
    /// On by default; off models the original CAN. No effect at d > 1.
    pub fingers: bool,
}

impl CanConfig {
    /// Defaults for a `dim`-dimensional overlay.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            seed: 0,
            fingers: true,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style finger switch.
    pub fn with_fingers(mut self, on: bool) -> Self {
        self.fingers = on;
        self
    }
}

/// One participant: its zone(s), neighbour links and local object store.
#[derive(Debug, Clone)]
pub struct CanNode {
    /// Node identifier (dense index).
    pub id: NodeId,
    /// The primary key-space region this node owns (stale once the node is
    /// no longer alive — dead nodes own nothing).
    pub zone: Zone,
    /// Extra zone fragments adopted during failure takeover, merged back
    /// into primaries by the background repair loop (see `crate::repair`).
    pub adopted: Vec<Zone>,
    /// Whether the node participates in the overlay. Dead slots stay in
    /// the node table so ids remain dense, but own no zones and appear in
    /// no neighbour list.
    pub alive: bool,
    /// Nodes whose zones abut any of this node's zones.
    pub neighbours: Vec<NodeId>,
    /// Long-range links of a 1-d overlay (Chord's finger table, kept in
    /// both directions): the alive owners of `lo ± 2^-i (mod 1)` for
    /// i = 1..⌈log₂ n⌉, where `lo` is the lower end of the primary zone
    /// and n the alive count. Sorted, without duplicates, the node itself
    /// or its neighbours. Routing only — floods, replication and stores
    /// stay neighbour-only. Empty at d > 1, with fingers off, and on dead
    /// nodes.
    pub fingers: Vec<NodeId>,
    /// Objects stored here (owned or replicated).
    pub store: ObjectStore,
}

impl CanNode {
    /// Every zone this node currently owns: the primary plus any adopted
    /// fragments. Empty for dead nodes.
    pub fn zones(&self) -> impl Iterator<Item = &Zone> {
        let count = if self.alive {
            1 + self.adopted.len()
        } else {
            0
        };
        std::iter::once(&self.zone)
            .chain(self.adopted.iter())
            .take(count)
    }

    /// Whether any owned zone contains `point` (false for dead nodes).
    pub fn covers(&self, point: &[f64]) -> bool {
        self.zones().any(|z| z.contains(point))
    }

    /// Torus distance from `point` to the nearest owned zone (∞ for dead
    /// nodes) — the routing metric.
    pub fn torus_dist(&self, point: &[f64]) -> f64 {
        self.zones()
            .map(|z| z.torus_dist(point))
            .fold(f64::INFINITY, f64::min)
    }

    /// Total volume of the owned zones (0 for dead nodes).
    pub fn total_volume(&self) -> f64 {
        self.zones().map(Zone::volume).sum()
    }

    /// Whether any owned zone overlaps the Euclidean ball.
    pub fn intersects_sphere(&self, centre: &[f64], radius: f64) -> bool {
        self.zones().any(|z| z.intersects_sphere(centre, radius))
    }
}

/// Interior-mutable slot for the optional fault injector: route/flood take
/// `&self` yet fault rolls mutate RNG state, and the overlay must stay
/// `Sync` so callers may query one network from several threads. Cloning
/// an overlay snapshots the injector state.
#[derive(Debug, Default)]
pub(crate) struct FaultSlot(Option<Mutex<FaultInjector>>);

impl Clone for FaultSlot {
    #[expect(
        clippy::expect_used,
        reason = "mutex poison only follows a panic elsewhere; propagating it is correct"
    )]
    fn clone(&self) -> Self {
        FaultSlot(
            self.0
                .as_ref()
                .map(|m| Mutex::new(m.lock().expect("fault injector poisoned").clone())),
        )
    }
}

/// How a routing attempt terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The message reached the owner of the target point.
    Delivered,
    /// No further progress was possible: every useful neighbour was dead,
    /// unreachable, or already tried (hole in an unrepaired topology or
    /// fault-induced).
    DeadEnd,
    /// The hop cap was hit (pathological topology guard).
    HopLimit,
}

/// Result of [`CanOverlay::route_result`]: where the walk ended and what
/// it cost. Every route terminates with an explicit outcome — queries on
/// damaged overlays degrade instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteResult {
    /// The owner on delivery; the last node reached otherwise.
    pub node: NodeId,
    /// How the walk terminated.
    pub outcome: RouteOutcome,
    /// Message cost, including retransmissions (`retries`) and a
    /// `failed_routes` tick when the walk did not deliver.
    pub stats: OpStats,
    /// Sim-time ticks on the critical path (hops stretched by retry and
    /// delay timelines).
    pub rounds: u64,
}

/// A complete CAN overlay.
#[derive(Debug, Clone)]
pub struct CanOverlay {
    config: CanConfig,
    nodes: Vec<CanNode>,
    bootstrap_stats: OpStats,
    pub(crate) next_object_id: u64,
    /// Host-side spatial index over zones (see [`crate::zoneindex`]):
    /// accelerates flood candidate enumeration without touching the
    /// simulated cost model. Registers every fragment of every alive node
    /// and is updated on join/leave/fail/repair, so it is never stale.
    index: ZoneIndex,
    /// Number of dead slots in `nodes`.
    dead: usize,
    /// Optional message-level fault injection (queries and fallible
    /// publishes).
    faults: FaultSlot,
    /// Active network partition, as a dense node → component map (see
    /// `hyperm_sim::PartitionPlan::component_map`). While installed,
    /// links between nodes in different components are severed: routing
    /// and floods treat the far side like dead nodes, but reversibly —
    /// clearing the map heals every link at once. `None` = fully
    /// connected (the default; zero-cost on the routing hot path).
    partition: Option<Vec<u32>>,
    /// Tracing handle (disabled by default — provably free). Installed
    /// per level by the network layer via [`CanOverlay::set_recorder`];
    /// events attach to whatever span the caller pointed the handle's
    /// scope at (see `hyperm_telemetry::Recorder::set_scope`).
    telemetry: Recorder,
    /// Per-peer load attribution hook (disabled by default — free).
    /// Installed per level by the network layer via
    /// [`CanOverlay::set_load_probe`]; charging is strictly observational
    /// and never changes results, costs or telemetry.
    pub(crate) load: LoadProbe,
    /// The alive fragments of a 1-d overlay as of the last finger
    /// recompute, sorted by lower end, and ⌈log₂ alive⌉ then: what
    /// [`CanOverlay::refresh_fingers`] diffs the current zones against to
    /// find the nodes whose fingers can have moved. Empty without fingers.
    finger_ring: Vec<RingFragment>,
    finger_levels: usize,
}

/// A zone of a 1-d overlay: lower end, upper end, owner.
type RingFragment = (f64, f64, NodeId);

/// `x` ∈ [−1, 2) back onto the unit ring [0, 1).
fn wrap(x: f64) -> f64 {
    if x >= 1.0 {
        x - 1.0
    } else if x < 0.0 {
        x + 1.0
    } else {
        x
    }
}

/// The key ranges whose owner differs between two sorted fragment lists
/// (every fragment in one list and not the other), in order, with
/// overlapping and touching ranges merged.
fn changed_spans(old: &[RingFragment], new: &[RingFragment]) -> Vec<(f64, f64)> {
    let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
    let mut spans: Vec<(f64, f64)> = Vec::new();
    loop {
        let next = match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if a == b => {
                old.next();
                new.next();
                continue;
            }
            (Some(a), Some(b)) if a.0 <= b.0 => old.next(),
            (Some(_), None) => old.next(),
            (_, Some(_)) => new.next(),
            (None, None) => return spans,
        };
        let Some(&(lo, hi, _)) = next else {
            return spans;
        };
        match spans.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => spans.push((lo, hi)),
        }
    }
}

impl CanOverlay {
    /// Build an overlay of `n` nodes by successive joins at random points.
    ///
    /// Join routing costs are accumulated into [`CanOverlay::bootstrap_stats`]
    /// (the paper charges data dissemination separately from the one-off
    /// structure construction, which related work [2, 5] parallelises).
    /// The joins route on neighbours only; fingers are computed once,
    /// after the last one.
    pub fn bootstrap(config: CanConfig, n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(config.dim > 0, "dimension must be positive");
        let mut index = ZoneIndex::new(config.dim);
        index.insert(0, &Zone::whole(config.dim));
        let mut overlay = CanOverlay {
            config,
            nodes: vec![CanNode {
                id: NodeId(0),
                zone: Zone::whole(config.dim),
                adopted: Vec::new(),
                alive: true,
                neighbours: Vec::new(),
                fingers: Vec::new(),
                store: ObjectStore::new(config.dim),
            }],
            bootstrap_stats: OpStats::zero(),
            next_object_id: 0,
            index,
            dead: 0,
            faults: FaultSlot::default(),
            partition: None,
            telemetry: Recorder::disabled(),
            load: LoadProbe::disabled(),
            finger_ring: Vec::new(),
            finger_levels: 0,
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 1..n {
            let point: Vec<f64> = (0..config.dim).map(|_| rng.gen::<f64>()).collect();
            let entry = NodeId(rng.gen_range(0..overlay.nodes.len()));
            overlay.join_unfingered(entry, &point);
        }
        overlay.refresh_fingers();
        overlay
    }

    /// Key-space dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the overlay is empty (never true post-bootstrap).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &CanNode {
        &self.nodes[id.0]
    }

    /// Mutably borrow a node (used by the ops module).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut CanNode {
        &mut self.nodes[id.0]
    }

    /// `from`'s store, shared, beside `to`'s, mutable — the two ends of a
    /// replica transfer (`from != to`).
    pub(crate) fn store_pair(
        &mut self,
        from: NodeId,
        to: NodeId,
    ) -> (&ObjectStore, &mut ObjectStore) {
        assert_ne!(from, to, "a store cannot transfer to itself");
        if from.0 < to.0 {
            let (lo, hi) = self.nodes.split_at_mut(to.0);
            (&lo[from.0].store, &mut hi[0].store)
        } else {
            let (lo, hi) = self.nodes.split_at_mut(from.0);
            (&hi[0].store, &mut lo[to.0].store)
        }
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &CanNode> {
        self.nodes.iter()
    }

    /// Iterate mutably over all nodes (ops module).
    pub(crate) fn nodes_mut(&mut self) -> impl ExactSizeIterator<Item = &mut CanNode> {
        self.nodes.iter_mut()
    }

    /// Routing cost of all joins so far.
    pub fn bootstrap_stats(&self) -> OpStats {
        self.bootstrap_stats
    }

    /// Whether a node participates in the overlay.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes[id.0].alive
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.len() - self.dead
    }

    /// Ids of all alive nodes, ascending.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.id)
            .collect()
    }

    /// The alive node owning `point`, by direct scan, or `None` if the
    /// point falls into a hole left by an unrepaired failure.
    pub fn try_owner_of(&self, point: &[f64]) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.covers(point)).map(|n| n.id)
    }

    /// The node whose zone contains `point`, by direct scan (ground truth
    /// for tests; real lookups go through [`CanOverlay::route`]). Panics on
    /// unrepaired holes — use [`CanOverlay::try_owner_of`] under damage.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: infallible owner_of requires tiled zones; damage-aware callers use try_owner_of"
    )]
    pub fn owner_of(&self, point: &[f64]) -> NodeId {
        self.try_owner_of(point).expect("zones tile the space")
    }

    /// Install (or clear) message-level fault injection. Query routing and
    /// flooding roll it, and so does the fallible publish path
    /// ([`CanOverlay::try_insert_sphere`]). Join traffic and the plain
    /// [`CanOverlay::insert_sphere`] stay reliable (acknowledged).
    pub fn set_faults(&mut self, cfg: Option<FaultConfig>) {
        self.faults = FaultSlot(cfg.map(|c| Mutex::new(FaultInjector::new(c))));
    }

    /// Install (or clear) a network partition: a dense node → component
    /// map (`hyperm_sim::PartitionPlan::component_map`). Nodes appended
    /// after the map was built (beyond its length) are treated as severed
    /// from everyone — install a fresh map after joins if that matters.
    pub fn set_partition(&mut self, map: Option<Vec<u32>>) {
        self.partition = map;
    }

    /// Whether a partition map is currently installed.
    pub fn partition_active(&self) -> bool {
        self.partition.is_some()
    }

    /// Whether `a` and `b` can exchange messages under the active
    /// partition (always true when none is installed).
    pub(crate) fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        map_connected(self.partition.as_deref(), a.0, b.0)
    }

    /// Install a tracing/metrics handle (usually one scoped per wavelet
    /// level — see `hyperm_telemetry::Recorder::scoped`). Pass
    /// `Recorder::disabled()` to turn tracing off again.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.telemetry = rec;
    }

    /// The overlay's tracing handle. Callers point its scope at the span
    /// overlay-internal events (route hops, flood edges, fault drops)
    /// should attach to before invoking an operation.
    pub fn recorder(&self) -> &Recorder {
        &self.telemetry
    }

    /// Install a per-peer load attribution probe (usually one per wavelet
    /// level — see `hyperm_sim::LoadProbe::new`). Pass
    /// `LoadProbe::disabled()` to turn accounting off again.
    pub fn set_load_probe(&mut self, probe: LoadProbe) {
        self.load = probe;
    }

    /// Fault counters accumulated so far (`None` when injection is off).
    #[expect(
        clippy::expect_used,
        reason = "mutex poison only follows a panic elsewhere; propagating it is correct"
    )]
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults
            .0
            .as_ref()
            .map(|m| m.lock().expect("fault injector poisoned").report())
    }

    /// Resolve one hop against the injector, if any. Returns
    /// `(delivered, attempts, ticks)`; the no-fault path is `(true, 1, 1)`.
    pub(crate) fn fault_hop(&self) -> (bool, u64, u64) {
        match &self.faults.0 {
            None => (true, 1, 1),
            Some(m) => {
                #[expect(
                    clippy::expect_used,
                    reason = "mutex poison only follows a panic elsewhere; propagating it is correct"
                )]
                let mut inj = m.lock().expect("fault injector poisoned");
                match inj.hop() {
                    hyperm_sim::HopDelivery::Delivered { attempts, ticks } => {
                        (true, attempts as u64, ticks)
                    }
                    hyperm_sim::HopDelivery::Unreachable { attempts, ticks } => {
                        (false, attempts as u64, ticks)
                    }
                }
            }
        }
    }

    /// Greedy-route from `from` to the owner of `target`, with an explicit
    /// outcome — never panics on damaged topologies.
    ///
    /// Follows CAN's rule: forward to the alive neighbour (or finger, see
    /// [`CanNode::fingers`]) whose zones are torus-closest to the target;
    /// ties break toward the lower node id.
    /// With fault injection active, each forwarding hop may be retried
    /// (drops) or abandoned (dead recipient / retry exhaustion) — an
    /// abandoned hop marks the next node as visited and the walk reroutes
    /// around it.
    ///
    /// `msg_bytes` is charged once per transmission attempt; `rounds` is
    /// the hop count stretched by retry/delay ticks (sim-time latency).
    pub fn route_result(&self, from: NodeId, target: &[f64], msg_bytes: u64) -> RouteResult {
        self.route_result_with(from, target, msg_bytes, true)
    }

    /// [`CanOverlay::route_result`] with fault injection optionally
    /// suppressed: join traffic and legacy publishes use reliable
    /// (acknowledged) transport in the cost model; query routing and the
    /// fallible publish path roll faults.
    pub(crate) fn route_result_with(
        &self,
        from: NodeId,
        target: &[f64],
        msg_bytes: u64,
        with_faults: bool,
    ) -> RouteResult {
        assert_eq!(target.len(), self.config.dim, "target dimension mismatch");
        let tel = &self.telemetry;
        let traced = tel.is_enabled();
        let mut stats = OpStats::zero();
        let mut rounds = 0u64;
        if !self.nodes[from.0].alive {
            stats.failed_routes += 1;
            if traced {
                tel.event(
                    tel.scope(),
                    Name::DeadEnd,
                    vec![("at", from.0.into()), ("reason", "origin_dead".into())],
                );
            }
            return RouteResult {
                node: from,
                outcome: RouteOutcome::DeadEnd,
                stats,
                rounds,
            };
        }
        let mut current = from;
        let mut visited = vec![false; self.nodes.len()];
        visited[current.0] = true;
        for _ in 0..MAX_ROUTE_HOPS {
            let node = &self.nodes[current.0];
            if node.covers(target) {
                return RouteResult {
                    node: current,
                    outcome: RouteOutcome::Delivered,
                    stats,
                    rounds,
                };
            }
            // (distance, candidate, reached through a finger)
            let mut best: Option<(f64, NodeId, bool)> = None;
            let links = node.neighbours.iter().map(|&nb| (nb, false));
            for (nb, finger) in links.chain(node.fingers.iter().map(|&f| (f, true))) {
                if visited[nb.0] || !self.nodes[nb.0].alive || !self.reachable(current, nb) {
                    continue;
                }
                let d = self.nodes[nb.0].torus_dist(target);
                let better = match best {
                    None => true,
                    Some((bd, bid, _)) => d < bd - 1e-15 || (d <= bd + 1e-15 && nb < bid),
                };
                if better {
                    best = Some((d, nb, finger));
                }
            }
            let Some((_, next, finger)) = best else {
                // Every neighbour visited or dead. Greedy can corner
                // itself in rare geometries even when the tiling is
                // complete; without fault injection the historical
                // behaviour (owner scan charged as one hop) is kept, so
                // fault-free routing on a repaired topology always
                // delivers. Only a genuine hole (unrepaired failure),
                // injected faults, or an active network partition (the
                // scan must not teleport across severed links) produce a
                // dead end.
                if (!with_faults || self.faults.0.is_none()) && self.partition.is_none() {
                    if let Some(owner) = self.try_owner_of(target) {
                        stats += OpStats::one_hop(msg_bytes);
                        if traced {
                            tel.event(
                                tel.scope(),
                                Name::RouteHop,
                                vec![
                                    ("from", current.0.into()),
                                    ("to", owner.0.into()),
                                    ("direct", true.into()),
                                ],
                            );
                        }
                        return RouteResult {
                            node: owner,
                            outcome: RouteOutcome::Delivered,
                            stats,
                            rounds: rounds + 1,
                        };
                    }
                }
                stats.failed_routes += 1;
                if traced {
                    tel.event(
                        tel.scope(),
                        Name::DeadEnd,
                        vec![("at", current.0.into()), ("reason", "no_neighbour".into())],
                    );
                }
                return RouteResult {
                    node: current,
                    outcome: RouteOutcome::DeadEnd,
                    stats,
                    rounds,
                };
            };
            let (delivered, attempts, ticks) = if with_faults {
                self.fault_hop()
            } else {
                (true, 1, 1)
            };
            stats.messages += attempts;
            stats.bytes += attempts * msg_bytes;
            stats.retries += attempts.saturating_sub(1);
            // Retransmissions are paid by the hop sender `current`,
            // never also by the receiver.
            self.load.retries(current.0, attempts.saturating_sub(1));
            rounds += ticks;
            if traced && attempts > 1 {
                tel.event(
                    tel.scope(),
                    Name::Retry,
                    vec![
                        ("from", current.0.into()),
                        ("to", next.0.into()),
                        ("attempts", attempts.into()),
                    ],
                );
            }
            if !delivered {
                // Reroute around the unreachable neighbour: mark it
                // visited without moving there.
                if traced {
                    tel.event(
                        tel.scope(),
                        Name::Drop,
                        vec![("from", current.0.into()), ("to", next.0.into())],
                    );
                }
                visited[next.0] = true;
                continue;
            }
            stats.hops += 1;
            if traced {
                let mut fields = vec![("from", current.0.into()), ("to", next.0.into())];
                if finger {
                    fields.push(("finger", true.into()));
                }
                tel.event(tel.scope(), Name::RouteHop, fields);
            }
            visited[next.0] = true;
            current = next;
        }
        stats.failed_routes += 1;
        if traced {
            tel.event(
                tel.scope(),
                Name::DeadEnd,
                vec![("at", current.0.into()), ("reason", "hop_limit".into())],
            );
        }
        RouteResult {
            node: current,
            outcome: RouteOutcome::HopLimit,
            stats,
            rounds,
        }
    }

    /// Greedy-route from `from` to the owner of `target` (legacy
    /// infallible interface used by joins and publishes).
    ///
    /// Returns the owner and the per-hop cost (`msg_bytes` charged per
    /// forwarding step). Panics if the route cannot terminate at an owner —
    /// publish paths run on repaired topologies where that cannot happen;
    /// query paths use [`CanOverlay::route_result`] instead.
    pub fn route(&self, from: NodeId, target: &[f64], msg_bytes: u64) -> (NodeId, OpStats) {
        let out = self.route_result_with(from, target, msg_bytes, false);
        match out.outcome {
            RouteOutcome::Delivered => (out.node, out.stats),
            #[expect(
                clippy::panic,
                reason = "documented contract: infallible route() is only for repaired topologies; fallible callers use route_result"
            )]
            RouteOutcome::DeadEnd => {
                panic!("route to owner failed: dead end at {}", out.node)
            }
            #[expect(clippy::panic, reason = "same contract as the dead-end arm above")]
            RouteOutcome::HopLimit => {
                panic!("routing exceeded {MAX_ROUTE_HOPS} hops — broken overlay topology")
            }
        }
    }

    /// Join a new node: choose the owner of `point`, split its zone, hand
    /// the half containing `point` to the newcomer.
    ///
    /// Returns the new node's id.
    pub fn join(&mut self, entry: NodeId, point: &[f64]) -> NodeId {
        let id = self.join_unfingered(entry, point);
        self.refresh_fingers();
        id
    }

    /// [`CanOverlay::join`] without the finger recompute.
    fn join_unfingered(&mut self, entry: NodeId, point: &[f64]) -> NodeId {
        // Join request routes like a normal message (small control packet).
        let (owner, stats) = self.route(entry, point, JOIN_MSG_BYTES);
        self.bootstrap_stats += stats;
        self.split_node(owner, point)
    }

    /// Split the zone of `owner` containing `point`, assigning the half
    /// containing `point` to a new node. Object replicas are
    /// re-distributed by overlap; neighbour lists are patched locally.
    fn split_node(&mut self, owner: NodeId, point: &[f64]) -> NodeId {
        assert!(self.nodes[owner.0].alive, "cannot split a dead node");
        let new_id = NodeId(self.nodes.len());
        // Which of the owner's zones holds the point? Usually the primary;
        // an adopted fragment only while a repair is still in flight.
        #[expect(
            clippy::expect_used,
            reason = "owner_of postcondition: the owner covers the join point in primary or an adopted zone"
        )]
        let split_adopted = if self.nodes[owner.0].zone.contains(point) {
            None
        } else {
            Some(
                self.nodes[owner.0]
                    .adopted
                    .iter()
                    .position(|z| z.contains(point))
                    .expect("owner covers the join point"),
            )
        };
        let split_zone = match split_adopted {
            None => self.nodes[owner.0].zone.clone(),
            Some(i) => self.nodes[owner.0].adopted[i].clone(),
        };
        let (zone_a, zone_b) = split_zone.split(split_zone.longest_dim());
        // The newcomer takes the half containing the join point.
        let (old_zone, new_zone) = if zone_b.contains(point) {
            (zone_a, zone_b)
        } else {
            (zone_b, zone_a)
        };

        // Re-distribute stored objects by overlap with the new halves
        // (replicas covering the owner's other zones always stay).
        let old_store = self.nodes[owner.0].store.take();
        let mut keep = ObjectStore::new(self.dim());
        let mut moved = ObjectStore::new(self.dim());
        for obj in old_store.iter() {
            let in_old = old_zone.intersects_sphere(obj.centre, obj.radius)
                || self.nodes[owner.0]
                    .zones()
                    .filter(|z| !z.same_box(&split_zone))
                    .any(|z| z.intersects_sphere(obj.centre, obj.radius));
            let in_new = new_zone.intersects_sphere(obj.centre, obj.radius);
            if in_new {
                moved.push(obj);
            }
            if in_old || !in_new {
                // `!in_new` can only happen through floating-point edge
                // cases; never silently drop an object.
                keep.push(obj);
            }
        }

        // Candidate neighbourhood: the split node's old neighbours + itself.
        let mut candidates = self.nodes[owner.0].neighbours.clone();
        candidates.push(owner);

        // Keep the spatial index in step: the owner's split zone shrinks to
        // `old_zone`, the newcomer takes `new_zone`.
        self.index.remove(owner.0 as u32, &split_zone);
        self.index.insert(owner.0 as u32, &old_zone);
        self.index.insert(new_id.0 as u32, &new_zone);

        match split_adopted {
            None => self.nodes[owner.0].zone = old_zone,
            Some(i) => self.nodes[owner.0].adopted[i] = old_zone,
        }
        self.nodes[owner.0].store = keep;
        self.nodes.push(CanNode {
            id: new_id,
            zone: new_zone,
            adopted: Vec::new(),
            alive: true,
            neighbours: Vec::new(),
            fingers: Vec::new(),
            store: moved,
        });

        // Patch neighbour lists within the affected neighbourhood.
        for &c in &candidates {
            if c != owner {
                // Does c still neighbour the (shrunk) owner?
                let still = self.nodes_abut(c, owner);
                let list = &mut self.nodes[c.0].neighbours;
                if let Some(pos) = list.iter().position(|&x| x == owner) {
                    if !still {
                        list.swap_remove(pos);
                        #[expect(
                            clippy::expect_used,
                            reason = "neighbour lists are kept symmetric by every mutation in this module"
                        )]
                        let pos2 = self.nodes[owner.0]
                            .neighbours
                            .iter()
                            .position(|&x| x == c)
                            .expect("symmetric neighbour lists");
                        self.nodes[owner.0].neighbours.swap_remove(pos2);
                    }
                }
            }
            // Does c neighbour the new node?
            if self.nodes_abut(c, new_id) {
                self.nodes[c.0].neighbours.push(new_id);
                self.nodes[new_id.0].neighbours.push(c);
            }
        }
        new_id
    }

    /// Whether two (alive) nodes share a face through any zone pair —
    /// the neighbour relation generalised to multi-fragment nodes.
    pub(crate) fn nodes_abut(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        self.nodes[a.0]
            .zones()
            .any(|za| self.nodes[b.0].zones().any(|zb| za.is_neighbour(zb)))
    }

    /// Recompute the neighbour lists of `affected` nodes from geometry
    /// (via the spatial index), patching the other end of every changed
    /// link so symmetry is preserved. Used by the repair paths, where zone
    /// transfers invalidate whole neighbourhoods at once.
    pub(crate) fn refresh_neighbours(&mut self, affected: &[NodeId]) {
        let mut seen = vec![false; self.nodes.len()];
        let mut ids: Vec<NodeId> = Vec::new();
        for &id in affected {
            if !seen[id.0] {
                seen[id.0] = true;
                ids.push(id);
            }
        }
        for &id in &ids {
            // Candidate set: everything registered near any owned zone.
            let mut cand: Vec<u32> = Vec::new();
            for z in self.nodes[id.0].zones() {
                cand.extend(self.index.box_candidates(z.lo(), z.hi()));
            }
            cand.sort_unstable();
            cand.dedup();
            let new_list: Vec<NodeId> = cand
                .into_iter()
                .map(|c| NodeId(c as usize))
                .filter(|&c| self.nodes[c.0].alive && self.nodes_abut(id, c))
                .collect();
            // Patch the reverse links of everything that changed.
            let old_list = std::mem::take(&mut self.nodes[id.0].neighbours);
            for &old in &old_list {
                if !new_list.contains(&old) {
                    let list = &mut self.nodes[old.0].neighbours;
                    if let Some(pos) = list.iter().position(|&x| x == id) {
                        list.swap_remove(pos);
                    }
                }
            }
            for &new in &new_list {
                if !self.nodes[new.0].neighbours.contains(&id) {
                    self.nodes[new.0].neighbours.push(id);
                }
            }
            self.nodes[id.0].neighbours = new_list;
        }
    }

    /// Whether this overlay keeps fingers: switched on and 1-d.
    pub fn has_fingers(&self) -> bool {
        self.config.fingers && self.config.dim == 1
    }

    /// The finger distances on a ring of `alive` nodes: `2^-i` for
    /// i = 1..⌈log₂ alive⌉.
    fn finger_steps(alive: usize) -> Vec<f64> {
        let levels = alive.next_power_of_two().trailing_zeros() as usize;
        std::iter::successors(Some(0.5f64), |s| Some(s * 0.5))
            .take(levels)
            .collect()
    }

    /// The distinct finger points of a node whose primary zone starts at
    /// `lo`: `lo ± step (mod 1)` for each of `steps`. The ± points of
    /// 1/2 coincide (exactly: zone bounds are dyadic), so there are
    /// 2⌈log₂ n⌉ − 1 of them.
    fn finger_points(lo: f64, steps: &[f64]) -> impl Iterator<Item = f64> + '_ {
        steps.iter().enumerate().flat_map(move |(i, &step)| {
            let minus = (i > 0).then(|| wrap(lo - step));
            std::iter::once(wrap(lo + step)).chain(minus)
        })
    }

    /// Bring every node's fingers up to date with the current zones. Runs
    /// once at the end of every public structural operation (never
    /// between its internal steps), so fingers are always exact; a no-op
    /// unless [`CanOverlay::has_fingers`].
    ///
    /// A node's fingers are a function of its primary's lower end, its
    /// neighbours, ⌈log₂ alive⌉ and the owners of its finger points. So
    /// only the nodes with a zone in or abutting a key range whose owner
    /// changed since the last call, or with a finger point inside one, are
    /// recomputed (all of them when ⌈log₂ alive⌉ moved): one binary search
    /// over the alive fragments per finger point.
    pub(crate) fn refresh_fingers(&mut self) {
        if !self.has_fingers() {
            return;
        }
        let mut ring: Vec<RingFragment> = self
            .nodes
            .iter()
            .flat_map(|n| n.zones().map(move |z| (z.lo()[0], z.hi()[0], n.id)))
            .collect();
        ring.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let steps = Self::finger_steps(self.alive_count());
        let levels = steps.len();
        let changed = if levels == self.finger_levels {
            changed_spans(&self.finger_ring, &ring)
        } else {
            vec![(0.0, 1.0)]
        };
        let in_changed = |p: f64| changed.iter().any(|&(a, b)| a <= p && p < b);
        // Touching counts, across the 0/1 seam too: a zone abutting a
        // changed range can have gained or lost a neighbour.
        let near_changed = |lo: f64, hi: f64| {
            changed.iter().any(|&(a, b)| {
                (lo <= b && a <= hi) || (lo == 0.0 && b == 1.0) || (hi == 1.0 && a == 0.0)
            })
        };
        // The owner of `p`: the last fragment starting at or below it, if
        // `p` is inside (a hole left by an unrepaired crash has none).
        let owner = |p: f64| {
            let i = ring.partition_point(|f| f.0 <= p).checked_sub(1)?;
            let &(_, hi, id) = ring.get(i)?;
            (p < hi || hi == 1.0).then_some(id)
        };
        for n in &mut self.nodes {
            if !n.alive {
                n.fingers.clear();
                continue;
            }
            let lo = n.zone.lo()[0];
            let stale = n.zones().any(|z| near_changed(z.lo()[0], z.hi()[0]))
                || Self::finger_points(lo, &steps).any(in_changed);
            if !stale {
                continue;
            }
            let (id, neighbours) = (n.id, &n.neighbours);
            let owners = Self::finger_points(lo, &steps)
                .filter_map(owner)
                .filter(|&f| f != id && !neighbours.contains(&f));
            n.fingers.clear();
            n.fingers.extend(owners);
            n.fingers.sort_unstable();
            n.fingers.dedup();
        }
        self.finger_ring = ring;
        self.finger_levels = levels;
    }

    /// What one round of Chord's `fix_fingers` costs `node`: one routed
    /// lookup per finger point, 2⌈log₂ n⌉ − 1 of them, each a control
    /// packet on the reliable path (like join traffic). Fingers are
    /// already recomputed exactly at every structural change, so this
    /// only charges the upkeep a deployment pays and changes nothing.
    /// Zero when the overlay keeps no fingers or `node` is dead.
    pub fn fix_fingers(&self, node: NodeId) -> OpStats {
        if !self.has_fingers() || !self.nodes[node.0].alive {
            return OpStats::zero();
        }
        let steps = Self::finger_steps(self.alive_count());
        Self::finger_points(self.nodes[node.0].zone.lo()[0], &steps)
            .map(|p| {
                self.route_result_with(node, &[p], JOIN_MSG_BYTES, false)
                    .stats
            })
            .sum()
    }

    /// Detach a node from the overlay structure: mark it dead, deregister
    /// all its zones from the index, and drop every neighbour link in both
    /// directions. Returns the zones it owned and its old neighbour set.
    /// The store is left in place for the caller to transfer or discard.
    pub(crate) fn detach(&mut self, id: NodeId) -> (Vec<Zone>, Vec<NodeId>) {
        assert!(self.nodes[id.0].alive, "node {id} is already dead");
        let zones: Vec<Zone> = self.nodes[id.0].zones().cloned().collect();
        for z in &zones {
            self.index.remove(id.0 as u32, z);
        }
        let old_neighbours = std::mem::take(&mut self.nodes[id.0].neighbours);
        for &nb in &old_neighbours {
            let list = &mut self.nodes[nb.0].neighbours;
            if let Some(pos) = list.iter().position(|&x| x == id) {
                list.swap_remove(pos);
            }
        }
        self.nodes[id.0].alive = false;
        self.nodes[id.0].adopted.clear();
        self.dead += 1;
        (zones, old_neighbours)
    }

    /// Register an extra zone for `id` (takeover adoption or a merge
    /// result) in node state and index.
    pub(crate) fn add_zone(&mut self, id: NodeId, zone: Zone) {
        assert!(self.nodes[id.0].alive, "cannot grant a zone to dead {id}");
        self.index.insert(id.0 as u32, &zone);
        self.nodes[id.0].adopted.push(zone);
    }

    /// Drop an adopted fragment (a merge consumed it) from node state and
    /// index.
    pub(crate) fn drop_fragment(&mut self, id: NodeId, zone: &Zone) {
        self.index.remove(id.0 as u32, zone);
        #[expect(
            clippy::expect_used,
            reason = "caller verified the fragment is adopted by this node before dropping it"
        )]
        let pos = self.nodes[id.0]
            .adopted
            .iter()
            .position(|z| z.same_box(zone))
            .expect("fragment present");
        self.nodes[id.0].adopted.swap_remove(pos);
    }

    /// Swap a node's primary zone for `new_zone` (a merge grew it),
    /// keeping the index current. The store is untouched: merges only ever
    /// grow the owned region.
    pub(crate) fn replace_primary(&mut self, id: NodeId, new_zone: Zone) {
        let old = self.nodes[id.0].zone.clone();
        self.index.remove(id.0 as u32, &old);
        self.index.insert(id.0 as u32, &new_zone);
        self.nodes[id.0].zone = new_zone;
    }

    /// Move a node's primary to an unrelated `new_zone` (vacancy
    /// relocation during repair), dropping store replicas that no longer
    /// overlap any owned zone — the repair protocol hands those to the new
    /// owner first.
    pub(crate) fn relocate_primary(&mut self, id: NodeId, new_zone: Zone) {
        self.replace_primary(id, new_zone);
        let zones: Vec<Zone> = self.nodes[id.0].zones().cloned().collect();
        self.nodes[id.0].store.retain(|o| {
            zones
                .iter()
                .any(|z| z.intersects_sphere(o.centre, o.radius))
        });
    }

    /// Alive node ids registered near `z` (overlapping or abutting,
    /// torus-aware), sorted ascending.
    pub(crate) fn box_candidates_around(&self, z: &Zone) -> Vec<NodeId> {
        self.index
            .box_candidates(z.lo(), z.hi())
            .into_iter()
            .map(|c| NodeId(c as usize))
            .filter(|&c| self.nodes[c.0].alive)
            .collect()
    }

    /// Union of [`CanOverlay::box_candidates_around`] over several zones,
    /// sorted and deduplicated — the set of nodes whose neighbour lists a
    /// zone transfer within those regions can affect.
    pub(crate) fn nodes_around(&self, zones: &[Zone]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = zones
            .iter()
            .flat_map(|z| self.box_candidates_around(z))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Node ids whose zones overlap the Euclidean ball `(centre, radius)`,
    /// sorted ascending — the exact candidate set a flood can visit.
    ///
    /// Enumerated through the [`ZoneIndex`] grid (sublinear for local
    /// balls) and filtered with the same
    /// [`Zone::intersects_sphere`] predicate the floods used to evaluate
    /// per neighbour edge, so flood semantics — and therefore every
    /// simulated hop/message/byte count — are unchanged. Dead nodes are
    /// never candidates (the index deregisters them).
    pub(crate) fn flood_candidates(&self, centre: &[f64], radius: f64) -> Vec<u32> {
        let mut cand = self.index.candidates(centre, radius);
        cand.retain(|&id| {
            let n = &self.nodes[id as usize];
            n.alive && n.intersects_sphere(centre, radius)
        });
        cand
    }

    /// Number of stored objects per node (replicas counted everywhere) —
    /// the occupancy histogram of Figure 9.
    pub fn store_sizes(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.store.len()).collect()
    }

    /// Sum of per-node stored item counts (replicas multiply-counted).
    pub fn stored_items_per_node(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.store.iter().map(|o| o.payload.items as u64).sum())
            .collect()
    }

    /// Verify structural invariants: the alive nodes' zones (primaries and
    /// adopted fragments) tile the space without overlap, neighbour lists
    /// match the geometric relation and are symmetric, dead nodes are
    /// fully detached, the spatial index is exact, every finger list is
    /// current and every store's columns are in step, `dim` wide and free
    /// of duplicate ids. Test-support; O(F²·d) over the F zone fragments.
    pub fn check_invariants(&self) {
        // 1. Volume: the alive zones sum to the whole space.
        let total_volume: f64 = self.nodes.iter().map(CanNode::total_volume).sum();
        assert!(
            (total_volume - 1.0).abs() < 1e-9,
            "zones do not tile: volume {total_volume}"
        );
        // 2. Disjointness: no two owned zones overlap with positive volume.
        let fragments: Vec<(NodeId, &Zone)> = self
            .nodes
            .iter()
            .flat_map(|n| n.zones().map(move |z| (n.id, z)))
            .collect();
        for (i, (ida, za)) in fragments.iter().enumerate() {
            for (idb, zb) in &fragments[i + 1..] {
                assert!(
                    !za.overlaps(zb),
                    "zones of {ida} and {idb} overlap: {za:?} vs {zb:?}"
                );
            }
        }
        // 3. Neighbour lists: exactly the geometric relation, symmetric,
        //    and never referencing the dead.
        for a in &self.nodes {
            if !a.alive {
                assert!(
                    a.neighbours.is_empty(),
                    "dead node {} still has neighbours",
                    a.id
                );
                continue;
            }
            for b in &self.nodes {
                if a.id == b.id {
                    continue;
                }
                let listed = a.neighbours.contains(&b.id);
                let actual = b.alive && self.nodes_abut(a.id, b.id);
                assert_eq!(
                    listed, actual,
                    "neighbour list mismatch between {} and {}",
                    a.id, b.id
                );
            }
            for &nb in &a.neighbours {
                assert!(
                    self.nodes[nb.0].neighbours.contains(&a.id),
                    "asymmetric neighbour link {} -> {}",
                    a.id,
                    nb
                );
            }
        }
        // 4. Index exactness: registered ids = alive ids, and every owned
        //    zone is found by a probe at its centre.
        let alive: Vec<u32> = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.id.0 as u32)
            .collect();
        assert_eq!(self.index_ids(), alive, "spatial index is stale");
        for (id, z) in &fragments {
            assert!(
                self.index
                    .candidates(&z.centre(), 0.0)
                    .contains(&(id.0 as u32)),
                "index misses zone of {id} at its centre"
            );
        }
        // 5. Fingers: every finger is alive and owns one of its node's
        //    finger points, and the list equals a recompute by direct scan.
        let steps = Self::finger_steps(self.alive_count());
        for n in &self.nodes {
            let want: Vec<NodeId> = if n.alive && self.has_fingers() {
                let points: Vec<f64> = Self::finger_points(n.zone.lo()[0], &steps).collect();
                for &f in &n.fingers {
                    let fnode = &self.nodes[f.0];
                    assert!(fnode.alive, "finger {f} of {} is dead", n.id);
                    assert!(
                        points.iter().any(|&p| fnode.covers(&[p])),
                        "finger {f} of {} owns none of its finger points",
                        n.id
                    );
                }
                let mut want: Vec<NodeId> = points
                    .iter()
                    .filter_map(|&p| self.try_owner_of(&[p]))
                    .filter(|&f| f != n.id && !n.neighbours.contains(&f))
                    .collect();
                want.sort_unstable();
                want.dedup();
                want
            } else {
                Vec::new()
            };
            assert_eq!(n.fingers, want, "fingers of {} are stale", n.id);
        }
        // 6. Dead-count bookkeeping.
        assert_eq!(
            self.dead,
            self.nodes.iter().filter(|n| !n.alive).count(),
            "dead counter out of sync"
        );
        // 7. Stores: columns of equal length, `dim` coordinates per object,
        //    no object held twice.
        for n in &self.nodes {
            assert_eq!(
                n.store.dim(),
                self.dim(),
                "store of {} has the wrong width",
                n.id
            );
            n.store.check_invariants();
        }
    }

    /// Sorted ids currently registered in the spatial index (test support).
    pub fn index_ids(&self) -> Vec<u32> {
        self.index.ids()
    }
}

/// Size of a join/control packet in bytes (node id + target point).
pub(crate) const JOIN_MSG_BYTES: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_tiles_space() {
        for dim in [1usize, 2, 3, 5] {
            let overlay = CanOverlay::bootstrap(CanConfig::new(dim).with_seed(1), 32);
            overlay.check_invariants();
            assert_eq!(overlay.len(), 32);
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let overlay = CanOverlay::bootstrap(CanConfig::new(2), 1);
        assert_eq!(overlay.owner_of(&[0.3, 0.9]), NodeId(0));
        let (owner, stats) = overlay.route(NodeId(0), &[0.99, 0.01], 10);
        assert_eq!(owner, NodeId(0));
        assert_eq!(stats.hops, 0);
    }

    #[test]
    fn routing_reaches_owner_from_anywhere() {
        let overlay = CanOverlay::bootstrap(CanConfig::new(2).with_seed(7), 64);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let target = [rng.gen::<f64>(), rng.gen::<f64>()];
            let from = NodeId(rng.gen_range(0..overlay.len()));
            let (owner, stats) = overlay.route(from, &target, 1);
            assert_eq!(owner, overlay.owner_of(&target));
            assert!(stats.hops < 64);
        }
    }

    #[test]
    fn routing_cost_scales_like_sqrt_n_in_2d() {
        // CAN theory: average path length Θ(√n) for d = 2. Just sanity-check
        // the order of magnitude.
        let overlay = CanOverlay::bootstrap(CanConfig::new(2).with_seed(11), 100);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total_hops = 0u64;
        let trials = 300;
        for _ in 0..trials {
            let target = [rng.gen::<f64>(), rng.gen::<f64>()];
            let from = NodeId(rng.gen_range(0..overlay.len()));
            total_hops += overlay.route(from, &target, 1).1.hops;
        }
        let avg = total_hops as f64 / trials as f64;
        assert!(avg > 1.0 && avg < 20.0, "avg hops {avg}");
    }

    #[test]
    fn high_dimensional_overlay_works() {
        let overlay = CanOverlay::bootstrap(CanConfig::new(16).with_seed(13), 40);
        overlay.check_invariants();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let target: Vec<f64> = (0..16).map(|_| rng.gen::<f64>()).collect();
            let (owner, _) = overlay.route(NodeId(0), &target, 1);
            assert_eq!(owner, overlay.owner_of(&target));
        }
    }

    #[test]
    fn join_splits_the_right_zone() {
        let mut overlay = CanOverlay::bootstrap(CanConfig::new(2), 1);
        let new = overlay.join(NodeId(0), &[0.9, 0.9]);
        assert_eq!(overlay.len(), 2);
        assert!(overlay.node(new).zone.contains(&[0.9, 0.9]));
        assert!(!overlay.node(NodeId(0)).zone.contains(&[0.9, 0.9]));
        overlay.check_invariants();
    }

    #[test]
    fn bootstrap_is_deterministic() {
        let a = CanOverlay::bootstrap(CanConfig::new(3).with_seed(21), 20);
        let b = CanOverlay::bootstrap(CanConfig::new(3).with_seed(21), 20);
        for i in 0..20 {
            assert_eq!(a.node(NodeId(i)).zone, b.node(NodeId(i)).zone);
        }
        assert_eq!(a.bootstrap_stats(), b.bootstrap_stats());
    }

    #[test]
    fn bootstrap_stats_grow_with_network() {
        let small = CanOverlay::bootstrap(CanConfig::new(2).with_seed(2), 8);
        let large = CanOverlay::bootstrap(CanConfig::new(2).with_seed(2), 64);
        assert!(large.bootstrap_stats().hops > small.bootstrap_stats().hops);
    }

    /// Regression: the spatial index must track every membership change.
    /// A stale index entry would surface dead owners to `candidates` /
    /// `box_candidates` and silently corrupt routing and neighbour
    /// refresh after churn.
    #[test]
    fn zone_index_tracks_membership_changes() {
        let mut overlay = CanOverlay::bootstrap(CanConfig::new(2).with_seed(7), 12);
        assert_eq!(
            overlay.index_ids(),
            overlay
                .alive_ids()
                .iter()
                .map(|n| n.0 as u32)
                .collect::<Vec<_>>()
        );

        overlay.join(NodeId(0), &[0.9, 0.1]);
        assert_eq!(
            overlay.index_ids(),
            overlay
                .alive_ids()
                .iter()
                .map(|n| n.0 as u32)
                .collect::<Vec<_>>()
        );

        overlay.leave(NodeId(3));
        assert_eq!(
            overlay.index_ids(),
            overlay
                .alive_ids()
                .iter()
                .map(|n| n.0 as u32)
                .collect::<Vec<_>>()
        );
        assert!(!overlay.index_ids().contains(&3));

        overlay.fail(NodeId(5));
        assert_eq!(
            overlay.index_ids(),
            overlay
                .alive_ids()
                .iter()
                .map(|n| n.0 as u32)
                .collect::<Vec<_>>()
        );
        assert!(!overlay.index_ids().contains(&5));

        overlay.repair_to_quiescence(16);
        assert_eq!(
            overlay.index_ids(),
            overlay
                .alive_ids()
                .iter()
                .map(|n| n.0 as u32)
                .collect::<Vec<_>>()
        );
        overlay.check_invariants();
    }

    #[test]
    fn fingers_only_on_1d_and_never_in_bootstrap_cost() {
        for dim in [1usize, 2, 4] {
            let on = CanOverlay::bootstrap(CanConfig::new(dim).with_seed(3), 64);
            let off =
                CanOverlay::bootstrap(CanConfig::new(dim).with_seed(3).with_fingers(false), 64);
            on.check_invariants();
            off.check_invariants();
            // Bootstrap joins route on neighbours only.
            assert_eq!(on.bootstrap_stats(), off.bootstrap_stats());
            assert_eq!(on.has_fingers(), dim == 1);
            assert!(off.nodes().all(|n| n.fingers.is_empty()));
            let fingered = on.nodes().filter(|n| !n.fingers.is_empty()).count();
            assert_eq!(
                fingered > 0,
                dim == 1,
                "dim {dim}: {fingered} nodes with fingers"
            );
        }
    }

    #[test]
    fn finger_hops_are_traced_as_fingers() {
        let (rec, ring) = Recorder::ring(1 << 12);
        let mut overlay = CanOverlay::bootstrap(CanConfig::new(1).with_seed(5), 100);
        overlay.set_recorder(rec);
        let mut rng = StdRng::seed_from_u64(6);
        let mut hops = 0;
        for _ in 0..50 {
            let from = NodeId(rng.gen_range(0..overlay.len()));
            hops += overlay
                .route_result(from, &[rng.gen::<f64>()], 1)
                .stats
                .hops;
        }
        let events = ring.events();
        let route_hops: Vec<_> = events.iter().filter(|e| e.name == Name::RouteHop).collect();
        assert_eq!(route_hops.len() as u64, hops);
        let fingers = route_hops
            .iter()
            .filter(|e| e.field("finger").is_some())
            .count();
        assert!(
            fingers > 0 && fingers < route_hops.len(),
            "{fingers} finger hops"
        );
    }

    #[test]
    fn fix_fingers_routes_one_lookup_per_finger_point() {
        let overlay = CanOverlay::bootstrap(CanConfig::new(1).with_seed(9), 40);
        // ⌈log₂ 40⌉ = 6: lo ± 2^-i for i = 1..6, the two i = 1 points equal.
        for node in [NodeId(0), NodeId(17), NodeId(39)] {
            let lo = overlay.node(node).zone.lo()[0];
            let mut points: Vec<f64> = (1..=6)
                .flat_map(|i| {
                    let step = 0.5f64.powi(i);
                    [(lo + step).rem_euclid(1.0), (lo - step).rem_euclid(1.0)]
                })
                .collect();
            points.sort_by(f64::total_cmp);
            points.dedup();
            assert_eq!(points.len(), 11);
            let want: OpStats = points
                .iter()
                .map(|&p| overlay.route(node, &[p], JOIN_MSG_BYTES).1)
                .sum();
            assert_eq!(overlay.fix_fingers(node), want);
            assert!(want.messages > 0);
        }
        let plain = CanOverlay::bootstrap(CanConfig::new(2).with_seed(9), 40);
        assert_eq!(plain.fix_fingers(NodeId(3)), OpStats::zero());
    }

    #[test]
    fn zone_volumes_are_plausibly_balanced() {
        let overlay = CanOverlay::bootstrap(CanConfig::new(2).with_seed(31), 128);
        let vols: Vec<f64> = overlay.nodes().map(|n| n.zone.volume()).collect();
        let max = vols.iter().cloned().fold(0.0f64, f64::max);
        let min = vols.iter().cloned().fold(1.0f64, f64::min);
        // Random splits give ratios of a few powers of two, not thousands.
        assert!(max / min <= 64.0, "volume skew {max}/{min}");
    }
}
