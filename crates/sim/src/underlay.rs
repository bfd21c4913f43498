//! MANET radio underlay: a unit-disk random geometric graph.
//!
//! The paper's scenario is a confined space — "the office, school,
//! long-distance public transport" — with limited mobility. The overlay
//! (CAN) is logical; a message between overlay neighbours physically
//! traverses one or more radio hops. This module places nodes uniformly in
//! a square arena, connects nodes within radio range (unit-disk model),
//! precomputes all-pairs BFS hop counts, and can translate overlay traffic
//! into physical radio cost.
//!
//! Substitution note (DESIGN.md #2): the paper used no physical-layer model
//! at all — its metric is overlay hops. We expose both: overlay statistics
//! unchanged, plus the optional underlay expansion for the energy analysis.
//! Nodes do not move once placed.

use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Parameters of the arena and radio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnderlayConfig {
    /// Number of devices.
    pub nodes: usize,
    /// Side of the square arena, in metres.
    pub arena_side: f64,
    /// Radio range, in metres (unit-disk connectivity).
    pub radio_range: f64,
    /// Placement RNG seed.
    pub seed: u64,
}

impl Default for UnderlayConfig {
    fn default() -> Self {
        // A conference room: 100 devices in 30×30 m with 10 m Bluetooth range.
        Self {
            nodes: 100,
            arena_side: 30.0,
            radio_range: 10.0,
            seed: 0,
        }
    }
}

/// A scheduled network partition: the node set splits into disjoint
/// components for a tick window `[start, end)`, then heals.
///
/// The plan is pure data — the sim layer defines *what* is severed and
/// *when*; enforcement lives with whoever routes messages (the CAN overlay
/// skips cross-component neighbours while a partition is active, exactly
/// like dead nodes but reversible). Nodes not named in any component form
/// an implicit extra component of their own, so plans stay valid as peers
/// join after the plan was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Disjoint node-id components; membership in different components
    /// severs every link between the two sides while active.
    pub components: Vec<Vec<usize>>,
    /// First tick the split is in force.
    pub start: u64,
    /// First tick after healing (exclusive end of the window).
    pub end: u64,
}

impl PartitionPlan {
    /// Split `nodes` ids (`0..nodes`) into two contiguous halves for the
    /// window `[start, end)` — the canonical "room divides" scenario.
    pub fn halves(nodes: usize, start: u64, end: u64) -> Self {
        assert!(start < end, "partition window must be non-empty");
        let mid = nodes / 2;
        Self {
            components: vec![(0..mid).collect(), (mid..nodes).collect()],
            start,
            end,
        }
    }

    /// Whether the split is in force at tick `t`.
    pub fn active_at(&self, t: u64) -> bool {
        (self.start..self.end).contains(&t)
    }

    /// The component index of `node`, or `None` if the plan does not name
    /// it (implicitly its own singleton side).
    pub fn component_of(&self, node: usize) -> Option<usize> {
        self.components.iter().position(|c| c.contains(&node))
    }

    /// Whether `a` and `b` can exchange messages while the split is in
    /// force. Unnamed nodes are severed from everyone but themselves.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        match (self.component_of(a), self.component_of(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// Dense component map for `n` nodes: `map[i]` is the component index
    /// of node `i`, with unnamed nodes assigned fresh singleton indices.
    /// This is the form overlays consume on the routing hot path.
    pub fn component_map(&self, n: usize) -> Vec<u32> {
        let mut map = vec![u32::MAX; n];
        for (ci, comp) in self.components.iter().enumerate() {
            for &node in comp {
                if node < n {
                    map[node] = ci as u32;
                }
            }
        }
        let mut next = self.components.len() as u32;
        for slot in map.iter_mut() {
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
        }
        map
    }
}

/// Whether nodes `a` and `b` can exchange messages under `map`, a
/// [`PartitionPlan::component_map`] (`None` = no partition in force).
/// Nodes beyond the map are severed from everyone but themselves.
#[inline]
pub fn map_connected(map: Option<&[u32]>, a: usize, b: usize) -> bool {
    match map {
        None => true,
        Some(map) => a == b || matches!((map.get(a), map.get(b)), (Some(ca), Some(cb)) if ca == cb),
    }
}

/// The physical network: positions, adjacency and all-pairs hop counts.
#[derive(Debug, Clone)]
pub struct Underlay {
    config: UnderlayConfig,
    positions: Vec<(f64, f64)>,
    adjacency: Vec<Vec<usize>>,
    /// `hop_table[a][b]` = radio hops from a to b (`u16::MAX` if unreachable).
    hop_table: Vec<Vec<u16>>,
}

impl Underlay {
    /// Place `config.nodes` devices uniformly at random and build the graph.
    ///
    /// If the resulting graph is disconnected the radio range is grown by
    /// 10% steps until it connects (a connected arena is the paper's
    /// implicit assumption — every peer joins the overlay).
    pub fn random(mut config: UnderlayConfig) -> Self {
        assert!(config.nodes > 0, "need at least one node");
        assert!(config.arena_side > 0.0 && config.radio_range > 0.0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let positions: Vec<(f64, f64)> = (0..config.nodes)
            .map(|_| {
                (
                    rng.gen::<f64>() * config.arena_side,
                    rng.gen::<f64>() * config.arena_side,
                )
            })
            .collect();
        loop {
            let adjacency = build_adjacency(&positions, config.radio_range);
            let hop_table = all_pairs_bfs(&adjacency);
            let connected = hop_table[0].iter().all(|&h| h != u16::MAX);
            if connected {
                return Self {
                    config,
                    positions,
                    adjacency,
                    hop_table,
                };
            }
            config.radio_range *= 1.1;
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the underlay has no nodes (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The (possibly grown) configuration in effect.
    pub fn config(&self) -> &UnderlayConfig {
        &self.config
    }

    /// Position of a node.
    pub fn position(&self, n: NodeId) -> (f64, f64) {
        self.positions[n.0]
    }

    /// Direct radio neighbours of a node.
    pub fn neighbours(&self, n: NodeId) -> &[usize] {
        &self.adjacency[n.0]
    }

    /// Physical hops between two devices (0 for self).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u16 {
        self.hop_table[a.0][b.0]
    }

    /// Mean hop count over all ordered pairs of distinct nodes — the
    /// underlay "stretch" every overlay hop pays on average.
    pub fn mean_path_hops(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        for row in &self.hop_table {
            for &h in row {
                total += h as u64;
            }
        }
        total as f64 / (n * (n - 1)) as f64
    }

    /// Whether every node can currently reach every other node.
    pub fn is_connected(&self) -> bool {
        self.hop_table
            .iter()
            .all(|row| row.iter().all(|&h| h != u16::MAX))
    }
}

fn build_adjacency(positions: &[(f64, f64)], range: f64) -> Vec<Vec<usize>> {
    let n = positions.len();
    let r2 = range * range;
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in i + 1..n {
            let dx = positions[i].0 - positions[j].0;
            let dy = positions[i].1 - positions[j].1;
            if dx * dx + dy * dy <= r2 {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

fn all_pairs_bfs(adjacency: &[Vec<usize>]) -> Vec<Vec<u16>> {
    let n = adjacency.len();
    let mut table = vec![vec![u16::MAX; n]; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        let row = &mut table[start];
        row[start] = 0;
        queue.clear();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = row[u];
            for &v in &adjacency[u] {
                if row[v] == u16::MAX {
                    row[v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_is_connected() {
        let u = Underlay::random(UnderlayConfig {
            nodes: 50,
            seed: 1,
            ..Default::default()
        });
        assert!(u.is_connected());
        assert_eq!(u.len(), 50);
    }

    #[test]
    fn hops_are_a_metric() {
        let u = Underlay::random(UnderlayConfig {
            nodes: 40,
            seed: 2,
            ..Default::default()
        });
        for a in 0..u.len() {
            assert_eq!(u.hops(NodeId(a), NodeId(a)), 0);
            for b in 0..u.len() {
                // Symmetry.
                assert_eq!(u.hops(NodeId(a), NodeId(b)), u.hops(NodeId(b), NodeId(a)));
            }
        }
        // Triangle inequality on a sample.
        for (a, b, c) in [(0, 1, 2), (3, 10, 20), (5, 15, 35)] {
            let ab = u.hops(NodeId(a), NodeId(b)) as u32;
            let bc = u.hops(NodeId(b), NodeId(c)) as u32;
            let ac = u.hops(NodeId(a), NodeId(c)) as u32;
            assert!(ac <= ab + bc);
        }
    }

    #[test]
    fn neighbours_are_within_range() {
        let u = Underlay::random(UnderlayConfig {
            nodes: 30,
            seed: 3,
            ..Default::default()
        });
        let range = u.config().radio_range;
        for i in 0..u.len() {
            let (xi, yi) = u.position(NodeId(i));
            for &j in u.neighbours(NodeId(i)) {
                let (xj, yj) = u.position(NodeId(j));
                let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
                assert!(d <= range + 1e-9);
            }
        }
    }

    #[test]
    fn sparse_arena_grows_range_until_connected() {
        // 5 nodes in a huge arena with tiny initial range: must autogrow.
        let u = Underlay::random(UnderlayConfig {
            nodes: 5,
            arena_side: 1000.0,
            radio_range: 1.0,
            seed: 4,
        });
        assert!(u.is_connected());
        assert!(u.config().radio_range > 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = UnderlayConfig {
            nodes: 25,
            seed: 9,
            ..Default::default()
        };
        let a = Underlay::random(cfg);
        let b = Underlay::random(cfg);
        assert_eq!(a.position(NodeId(7)), b.position(NodeId(7)));
        assert_eq!(a.hops(NodeId(0), NodeId(24)), b.hops(NodeId(0), NodeId(24)));
    }

    #[test]
    fn mean_path_reasonable() {
        let u = Underlay::random(UnderlayConfig {
            nodes: 100,
            seed: 5,
            ..Default::default()
        });
        let m = u.mean_path_hops();
        // 30 m arena with ≥10 m range: diameter ≤ ~6 hops.
        assert!((1.0..6.0).contains(&m), "mean {m}");
    }

    #[test]
    fn placement_is_pinned_to_the_seeds_draws() {
        // Each node takes the seed's next two draws in node order; the
        // range grows from 5 m in 10 % steps until the graph connects.
        let cfg = UnderlayConfig {
            nodes: 12,
            arena_side: 50.0,
            radio_range: 5.0,
            seed: 17,
        };
        let u = Underlay::random(cfg);
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..cfg.nodes {
            let x = rng.gen::<f64>() * cfg.arena_side;
            let y = rng.gen::<f64>() * cfg.arena_side;
            assert_eq!(u.position(NodeId(i)), (x, y), "node {i}");
        }
        assert_eq!(u.mean_path_hops().to_bits(), 0x3ffa_6c9b_26c9_b26d); // 1.6515…
        assert_eq!(u.config().radio_range.to_bits(), 0x4036_f990_bf88_09e2); // 22.97… m
    }

    #[test]
    fn partition_plan_halves_and_heals() {
        let p = PartitionPlan::halves(10, 5, 20);
        assert!(!p.active_at(4));
        assert!(p.active_at(5));
        assert!(p.active_at(19));
        assert!(!p.active_at(20));
        assert!(p.connected(0, 4));
        assert!(p.connected(5, 9));
        assert!(!p.connected(4, 5));
        assert!(p.connected(3, 3));
        // A latecomer (id 10) is severed from everyone but itself.
        assert!(!p.connected(0, 10));
        assert!(p.connected(10, 10));
        let map = p.component_map(12);
        assert_eq!(map[0], map[4]);
        assert_eq!(map[5], map[9]);
        assert_ne!(map[0], map[5]);
        assert_ne!(map[10], map[11]);
        assert_ne!(map[10], map[0]);
    }

    #[test]
    fn single_node_degenerate() {
        let u = Underlay::random(UnderlayConfig {
            nodes: 1,
            seed: 0,
            ..Default::default()
        });
        assert!(u.is_connected());
        assert_eq!(u.mean_path_hops(), 0.0);
    }
}
