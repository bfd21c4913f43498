//! The Hyper-M network: N peers, one overlay per wavelet subspace.
//!
//! [`HypermNetwork::build`] performs the paper's Figure-2 insertion
//! pipeline for every peer: summarisation (offline, parallelised across
//! peers with scoped threads) followed by publication of each cluster
//! sphere into its subspace's overlay. Costs are tracked per level and per
//! peer; the **makespan** (max per-peer cumulative hops) is the paper's
//! "parallel execution" view of dissemination time, while total hops is its
//! Figure-8 metric.

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
    reason = "level indices iterate 0..levels() and peer ids index the dense peer table built at construction"
)]
use crate::config::HypermConfig;
use crate::overlay::{Overlay, OverlayBackend};
use crate::peer::Peer;
use crate::HypermError;
use hyperm_can::{CanOverlay, KeyMap};
use hyperm_cluster::Dataset;
use hyperm_sim::underlay::map_connected;
use hyperm_sim::{LoadLedger, LoadProbe, NodeId, OpStats};
use hyperm_telemetry::Recorder;
use hyperm_wavelet::{decompose, radius_contraction, Decomposition, Subspace};
use std::sync::Arc;

/// Cost report of a network build.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildReport {
    /// Total publication cost across all levels (excludes overlay
    /// bootstrap, reported separately).
    pub insertion: OpStats,
    /// Publication cost per level.
    pub per_level: Vec<OpStats>,
    /// One-off overlay construction cost (node joins), all levels.
    pub bootstrap: OpStats,
    /// Cluster spheres published.
    pub clusters_published: u64,
    /// Total replicas stored (≥ clusters when replication is on).
    pub replicas: u64,
    /// Total data items summarised.
    pub items_total: u64,
    /// Parallel makespan: the maximum cumulative insertion hops any single
    /// peer pays (peers publish concurrently, their own inserts serially).
    pub makespan_hops: u64,
    /// Parallel makespan in *rounds*: each peer publishes its clusters
    /// back-to-back while all peers run concurrently, so this is the
    /// largest per-peer sum of insert rounds. Replication floods fan out
    /// one depth level per round (tighter than `makespan_hops`, which
    /// serialises the floods).
    pub makespan_rounds: u64,
}

impl BuildReport {
    /// The paper's Figure-8 y-axis: average insertion hops **per data
    /// item** — "some values … are smaller than 1 because we are averaging
    /// over the number of items on a peer, but insert only cluster
    /// centroids".
    pub fn avg_hops_per_item(&self) -> f64 {
        if self.items_total == 0 {
            0.0
        } else {
            self.insertion.hops as f64 / self.items_total as f64
        }
    }
}

/// A built Hyper-M network.
#[derive(Debug, Clone)]
pub struct HypermNetwork {
    /// The configuration the network was built with.
    pub config: HypermConfig,
    peers: Vec<Peer>,
    overlays: Vec<Overlay>,
    keymaps: Vec<KeyMap>,
    subspaces: Vec<Subspace>,
    contractions: Vec<f64>,
    /// Fail-stop flags, one per peer (see the `churn` module).
    failed: Vec<bool>,
    /// Active network partition as a peer → component map (see the
    /// `publish` module); `None` = fully connected.
    partition: Option<Vec<u32>>,
    /// Telemetry handle (disabled by default; see `hyperm_telemetry`).
    recorder: Recorder,
    /// Per-peer load ledger (`None` — the default — charges nothing).
    /// Installed via [`HypermNetwork::set_load_ledger`], which also hands
    /// each level's overlay a level-scoped probe. Clones share the ledger.
    load: Option<Arc<LoadLedger>>,
}

impl HypermNetwork {
    /// Build a network from per-peer collections.
    pub fn build(
        peers_data: Vec<Dataset>,
        config: HypermConfig,
    ) -> Result<(Self, BuildReport), HypermError> {
        Self::build_traced(peers_data, config, Recorder::disabled())
    }

    /// Like [`HypermNetwork::build`], but with a telemetry [`Recorder`]
    /// installed *before* publication, so the build's publish floods are
    /// traced too. The recorder only observes host-side: the returned
    /// network and [`BuildReport`] are bit-identical to an untraced build
    /// (asserted by the `telemetry` integration tests).
    pub fn build_traced(
        peers_data: Vec<Dataset>,
        config: HypermConfig,
        recorder: Recorder,
    ) -> Result<(Self, BuildReport), HypermError> {
        if peers_data.is_empty() {
            return Err(HypermError::NoPeers);
        }
        if !config.data_dim.is_power_of_two() || config.data_dim == 0 {
            return Err(HypermError::BadDimension(config.data_dim));
        }
        if config.levels == 0 || config.levels > config.max_levels() {
            return Err(HypermError::TooManyLevels {
                requested: config.levels,
                max: config.max_levels(),
            });
        }
        if config.clusters_per_peer == 0 {
            return Err(HypermError::ZeroClusters);
        }
        for (i, p) in peers_data.iter().enumerate() {
            if p.is_empty() || p.dim() != config.data_dim {
                return Err(HypermError::DimensionMismatch {
                    peer: i,
                    got: p.dim(),
                    expected: config.data_dim,
                });
            }
        }

        // ---- Offline phase: summarise every peer (parallel). ----
        let peers = summarize_all(peers_data, &config)?;

        // ---- Overlay construction (one CAN per subspace). ----
        let subspaces = config.subspaces();
        let n = peers.len();
        let mut overlays = Vec::with_capacity(subspaces.len());
        let mut keymaps = Vec::with_capacity(subspaces.len());
        let mut contractions = Vec::with_capacity(subspaces.len());
        let mut bootstrap = OpStats::zero();
        for (l, &s) in subspaces.iter().enumerate() {
            let dim = config.can_dim(s);
            let overlay = Overlay::bootstrap_fingers(
                config.overlay_backend,
                dim,
                config.seed.wrapping_add(l as u64 + 1),
                n,
                config.fingers,
            );
            bootstrap += overlay.bootstrap_stats();
            let (lo, hi) = config.subspace_bounds(s);
            keymaps.push(KeyMap::uniform(dim, lo, hi));
            contractions.push(radius_contraction(config.data_dim, s, config.normalization));
            overlays.push(overlay);
        }
        let mut net = HypermNetwork {
            config,
            peers,
            overlays,
            keymaps,
            subspaces,
            contractions,
            failed: vec![false; n],
            partition: None,
            recorder: Recorder::disabled(),
            load: None,
        };
        net.set_recorder(recorder);

        // ---- Publication phase (step i3). ----
        let mut per_level = vec![OpStats::zero(); net.levels()];
        let mut per_peer_hops = vec![0u64; n];
        let mut per_peer_rounds = vec![0u64; n];
        let mut clusters_published = 0u64;
        let mut replicas = 0u64;
        for peer in 0..n {
            for (level, level_stats) in per_level.iter_mut().enumerate() {
                for cluster in 0..net.peer(peer).summaries[level].len() {
                    let out = net.place_sphere(peer, level, cluster);
                    *level_stats += out.stats;
                    per_peer_hops[peer] += out.stats.hops;
                    per_peer_rounds[peer] += out.rounds;
                    clusters_published += 1;
                    replicas += out.replicas as u64;
                }
            }
        }

        let report = BuildReport {
            insertion: per_level.iter().copied().sum(),
            per_level,
            bootstrap,
            clusters_published,
            replicas,
            items_total: net.peers().map(|p| p.len() as u64).sum(),
            makespan_hops: per_peer_hops.iter().copied().max().unwrap_or(0),
            makespan_rounds: per_peer_rounds.iter().copied().max().unwrap_or(0),
        };
        Ok((net, report))
    }

    /// Install a telemetry recorder on a built network: every level's CAN
    /// gets a level-scoped clone, and query/churn spans are emitted
    /// through the base handle (a tree's overlay work stays untraced).
    /// Pass [`Recorder::disabled`] to turn tracing off again.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for (l, can) in self.cans_mut("overlay tracing", false) {
            can.set_recorder(recorder.scoped(l));
        }
        self.recorder = recorder;
    }

    /// The network's telemetry handle (disabled unless installed via
    /// [`HypermNetwork::set_recorder`] or [`HypermNetwork::build_traced`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Level `level`'s overlay recorder: the level-scoped clone
    /// [`HypermNetwork::set_recorder`] installed on a CAN, disabled on a
    /// tree.
    pub(crate) fn level_recorder(&self, level: usize) -> Recorder {
        let can = self.overlay(level).as_can();
        can.map_or_else(Recorder::disabled, |c| c.recorder().clone())
    }

    /// Every level's CAN (none on a tree-backed network).
    pub(crate) fn cans(&self) -> impl Iterator<Item = &CanOverlay> {
        self.overlays.iter().filter_map(Overlay::as_can)
    }

    /// Every level's CAN with its level, to set a CAN-only `what` on. A
    /// tree-backed network yields none, unless `required` (installing a
    /// `Some`), which panics there with "`what` requires the CAN
    /// substrate".
    pub(crate) fn cans_mut(
        &mut self,
        what: &'static str,
        required: bool,
    ) -> impl Iterator<Item = (usize, &mut CanOverlay)> {
        let on_can = self.config.overlay_backend == OverlayBackend::Can;
        let levels = if on_can || required { self.levels() } else { 0 };
        let overlays = self.overlays.iter_mut().take(levels);
        overlays.map(move |o| o.can_mut(what)).enumerate()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the network has no peers (never true post-build).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Borrow a peer.
    pub fn peer(&self, id: usize) -> &Peer {
        &self.peers[id]
    }

    /// Mutably borrow a peer (used by maintenance).
    pub(crate) fn peer_mut(&mut self, id: usize) -> &mut Peer {
        &mut self.peers[id]
    }

    /// Fail-stop flags (churn module).
    pub(crate) fn failed(&self) -> &[bool] {
        &self.failed
    }

    /// Install (or clear) a network partition: the component map is pushed
    /// into every level's CAN (severing routing and flood links across
    /// components) and kept here for phase-2 direct-fetch reachability.
    /// Installing one on a tree-backed network panics.
    pub fn set_partition(&mut self, map: Option<Vec<u32>>) {
        for (_, can) in self.cans_mut("a partition", map.is_some()) {
            can.set_partition(map.clone());
        }
        self.partition = map;
    }

    /// Whether a partition is currently in force.
    pub fn partition_active(&self) -> bool {
        self.partition.is_some()
    }

    /// Whether peers `a` and `b` can exchange direct messages under the
    /// active partition (always true when none is installed). Peers
    /// outside the component map are severed from everyone but themselves.
    pub fn peers_connected(&self, a: usize, b: usize) -> bool {
        map_connected(self.partition.as_deref(), a, b)
    }

    /// Mutable fail-stop flags (churn module).
    pub(crate) fn failed_mut(&mut self) -> &mut [bool] {
        &mut self.failed
    }

    /// Append a freshly summarised peer (live join module).
    pub(crate) fn push_peer(&mut self, peer: Peer) {
        assert_eq!(peer.id, self.peers.len(), "peer ids must stay dense");
        self.peers.push(peer);
        self.failed.push(false);
    }

    /// Iterate over peers.
    pub fn peers(&self) -> impl ExactSizeIterator<Item = &Peer> {
        self.peers.iter()
    }

    /// Number of published levels.
    pub fn levels(&self) -> usize {
        self.subspaces.len()
    }

    /// Original-space data dimensionality (what queries and items must
    /// match).
    pub fn data_dim(&self) -> usize {
        self.config.data_dim
    }

    /// The subspace of a level.
    pub fn subspace(&self, level: usize) -> Subspace {
        self.subspaces[level]
    }

    /// Borrow a level's overlay.
    pub fn overlay(&self, level: usize) -> &Overlay {
        &self.overlays[level]
    }

    /// Mutably borrow a level's overlay (used by maintenance).
    pub(crate) fn overlay_mut(&mut self, level: usize) -> &mut Overlay {
        &mut self.overlays[level]
    }

    /// Install (or clear) the per-peer load ledger: each level's CAN gets
    /// a level-scoped [`LoadProbe`] so floods, served lookups and retries
    /// are attributed exactly once; phase-2 direct fetches are charged by
    /// the query path. `None` (the default) charges nothing and keeps the
    /// hot path free. Installing one on a tree-backed network panics.
    pub fn set_load_ledger(&mut self, ledger: Option<Arc<LoadLedger>>) {
        for (l, can) in self.cans_mut("a load ledger", ledger.is_some()) {
            let probe = ledger
                .as_ref()
                .map_or_else(LoadProbe::disabled, |lg| LoadProbe::new(lg.clone(), l));
            can.set_load_probe(probe);
        }
        self.load = ledger;
    }

    /// The installed load ledger, if any.
    pub fn load_ledger(&self) -> Option<&Arc<LoadLedger>> {
        self.load.as_ref()
    }

    /// Load-balancing hook: split the level-`level` zone covering `point`
    /// and grant the half containing it to `to_peer` (replicas are
    /// *copied*, so the candidate set only grows — Theorem 4.1 holds).
    /// `None` when the point is unowned, the beneficiary is dead, or the
    /// zone is too thin to split; panics on a tree-backed network.
    pub fn split_zone(&mut self, level: usize, point: &[f64], to_peer: usize) -> Option<OpStats> {
        if level >= self.levels() || to_peer >= self.len() {
            return None;
        }
        let can = self.overlay_mut(level).can_mut("a zone split");
        can.split_adopt(point, NodeId(to_peer))
    }

    /// Load-balancing hook: migrate the largest zone fragment adopted by
    /// `from_peer` in the level-`level` overlay to `to_peer`, reusing the
    /// leave/takeover handoff (replicas copied first). `None` when either
    /// peer is dead or `from_peer` holds no fragments; panics on a
    /// tree-backed network.
    pub fn migrate_zone(
        &mut self,
        level: usize,
        from_peer: usize,
        to_peer: usize,
    ) -> Option<OpStats> {
        if level >= self.levels() || from_peer >= self.len() || to_peer >= self.len() {
            return None;
        }
        let can = self.overlay_mut(level).can_mut("a zone migration");
        can.migrate_fragment(NodeId(from_peer), NodeId(to_peer))
            .map(|(_, stats)| stats)
    }

    /// Transport entry point: publish a raw sphere `object` into the
    /// level-`level` overlay. Unlike the internal publication paths this
    /// validates every field — the object may have been decoded from an
    /// untrusted frame — and returns `None` (instead of panicking) when
    /// the level is out of range, the centre dimensionality does not match
    /// the overlay, a coordinate is non-finite, or the publishing peer is
    /// unknown or dead.
    pub fn publish_object(
        &mut self,
        level: usize,
        object: hyperm_can::StoredObject,
        replicate: bool,
    ) -> Option<hyperm_can::InsertOutcome> {
        if level >= self.levels() {
            return None;
        }
        if object.centre.len() != self.overlay(level).dim() {
            return None;
        }
        if !object.centre.iter().all(|c| c.is_finite())
            || !object.radius.is_finite()
            || object.radius < 0.0
        {
            return None;
        }
        if object.payload.peer >= self.len() || !self.is_alive(object.payload.peer) {
            return None;
        }
        let from = NodeId(object.payload.peer);
        Some(self.overlay_mut(level).insert_sphere(
            from,
            object.centre,
            object.radius,
            object.payload,
            replicate,
        ))
    }

    /// Borrow a level's key map.
    pub fn keymap(&self, level: usize) -> &KeyMap {
        &self.keymaps[level]
    }

    /// Theorem-3.1 radius divisor of a level.
    pub fn contraction(&self, level: usize) -> f64 {
        self.contractions[level]
    }

    /// Decompose a query vector once for all levels.
    #[expect(
        clippy::expect_used,
        reason = "config builder asserts data_dim is a power of two at construction"
    )]
    pub fn decompose_query(&self, q: &[f64]) -> Decomposition {
        assert_eq!(q.len(), self.config.data_dim, "query dimension mismatch");
        decompose(q, self.config.normalization).expect("power-of-two dim")
    }

    /// The query's coefficients in a level's subspace, as a key-space point.
    pub fn query_key(&self, dec: &Decomposition, level: usize) -> Vec<f64> {
        #[expect(
            clippy::expect_used,
            reason = "level index comes from 0..self.levels(), which indexes self.subspaces"
        )]
        let coeffs = dec.subspace(self.subspaces[level]).expect("level exists");
        self.keymaps[level].to_key(coeffs)
    }

    /// An original-space radius translated into a level's key space:
    /// contracted per Theorem 3.1, then affinely scaled by the key map.
    pub fn query_key_radius(&self, eps: f64, level: usize) -> f64 {
        self.keymaps[level].to_key_radius(eps / self.contractions[level])
    }

    /// Like [`HypermNetwork::query_key`], but also report the clamp slack
    /// (see [`KeyMap::to_key_slack`]): query points whose subspace
    /// coefficients fall outside the configured bounds get clamped, and
    /// widening the key-space search radius by the returned slack restores
    /// the covering property. Slack is 0 for in-bounds queries.
    pub fn query_key_with_slack(&self, dec: &Decomposition, level: usize) -> (Vec<f64>, f64) {
        #[expect(
            clippy::expect_used,
            reason = "level index comes from 0..self.levels(), which indexes self.subspaces"
        )]
        let coeffs = dec.subspace(self.subspaces[level]).expect("level exists");
        self.keymaps[level].to_key_slack(coeffs)
    }
}

/// Summarise all peers, in parallel when the corpus is large enough to pay
/// for thread startup. A peer holding a NaN or infinite coordinate is
/// refused; with several, the lowest peer id is named, whichever thread
/// met it.
fn summarize_all(
    peers_data: Vec<Dataset>,
    config: &HypermConfig,
) -> Result<Vec<Peer>, HypermError> {
    // A refusal is `(peer, row, coordinate)`: the lowest in that order is
    // the one to name.
    let summarize = |(id, items): (usize, Dataset)| {
        Peer::try_summarize(id, items, config).map_err(|(row, coordinate)| (id, row, coordinate))
    };
    let refuse = |(peer, row, coordinate)| HypermError::NonFinite {
        peer,
        row,
        coordinate,
    };
    let total_items: usize = peers_data.iter().map(Dataset::len).sum();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads <= 1 || total_items < 2_000 || peers_data.len() < 2 {
        return peers_data
            .into_iter()
            .enumerate()
            .map(summarize)
            .collect::<Result<_, _>>()
            .map_err(refuse);
    }
    // Scoped threads: deal peers round-robin, collect by index.
    let indexed: Vec<(usize, Dataset)> = peers_data.into_iter().enumerate().collect();
    let chunks: Vec<Vec<(usize, Dataset)>> = {
        let mut cs: Vec<Vec<(usize, Dataset)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, item) in indexed.into_iter().enumerate() {
            cs[i % threads].push(item);
        }
        cs
    };
    let mut out: Vec<Peer> = Vec::new();
    let mut refused = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(summarize)
                        .collect::<Result<Vec<Peer>, _>>()
                })
            })
            .collect();
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "re-raising a worker panic on the coordinator thread is the intended propagation"
            )]
            match h.join().expect("summarisation thread panicked") {
                Ok(peers) => out.extend(peers),
                // A chunk stops at its lowest refused peer (peers are dealt
                // in id order), so the lowest over chunks is the first.
                Err(e) => refused = Some(refused.map_or(e, |r: (usize, usize, usize)| r.min(e))),
            }
        }
    });
    if let Some(r) = refused {
        return Err(refuse(r));
    }
    out.sort_by_key(|p| p.id);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn peers_data(n_peers: usize, items: usize, dim: usize, seed: u64) -> Vec<Dataset> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_peers)
            .map(|_| {
                let mut ds = Dataset::new(dim);
                let mut row = vec![0.0; dim];
                for _ in 0..items {
                    for x in row.iter_mut() {
                        *x = rng.gen();
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect()
    }

    fn config() -> HypermConfig {
        HypermConfig::new(16)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(1)
    }

    #[test]
    fn build_produces_consistent_network() {
        let (net, report) = HypermNetwork::build(peers_data(8, 30, 16, 1), config()).unwrap();
        assert_eq!(net.len(), 8);
        assert_eq!(net.levels(), 3);
        assert_eq!(report.items_total, 240);
        // ≤ 4 clusters × 3 levels × 8 peers.
        assert!(report.clusters_published <= 96);
        assert!(report.clusters_published >= 24);
        assert!(report.replicas >= report.clusters_published);
        for l in 0..3 {
            assert_eq!(net.overlay(l).len(), 8);
            net.overlay(l).check_invariants();
        }
    }

    #[test]
    fn summaries_land_in_overlays() {
        let (net, report) = HypermNetwork::build(peers_data(6, 20, 16, 2), config()).unwrap();
        let stored: u64 = (0..net.levels())
            .map(|l| net.overlay(l).store_sizes().iter().sum::<usize>() as u64)
            .sum();
        assert_eq!(stored, report.replicas);
    }

    #[test]
    fn insertion_cost_scales_with_clusters_not_items() {
        let few_items = HypermNetwork::build(peers_data(6, 20, 16, 3), config())
            .unwrap()
            .1;
        let many_items = HypermNetwork::build(peers_data(6, 200, 16, 3), config())
            .unwrap()
            .1;
        // Ten times the items, same cluster count → per-item hops drop ~10×.
        assert!(
            many_items.avg_hops_per_item() < few_items.avg_hops_per_item() / 4.0,
            "{} vs {}",
            many_items.avg_hops_per_item(),
            few_items.avg_hops_per_item()
        );
    }

    #[test]
    fn makespan_bounded_by_total() {
        let (_, report) = HypermNetwork::build(peers_data(8, 25, 16, 4), config()).unwrap();
        assert!(report.makespan_hops <= report.insertion.hops);
        assert!(report.makespan_hops * 8 >= report.insertion.hops);
    }

    #[test]
    fn build_is_deterministic() {
        let a = HypermNetwork::build(peers_data(5, 15, 16, 5), config())
            .unwrap()
            .1;
        let b = HypermNetwork::build(peers_data(5, 15, 16, 5), config())
            .unwrap()
            .1;
        assert_eq!(a, b);
    }

    #[test]
    fn query_translation_helpers() {
        let (net, _) = HypermNetwork::build(peers_data(4, 10, 16, 6), config()).unwrap();
        let q = vec![0.5; 16];
        let dec = net.decompose_query(&q);
        for l in 0..net.levels() {
            let key = net.query_key(&dec, l);
            assert_eq!(key.len(), net.overlay(l).dim());
            assert!(key.iter().all(|&x| (0.0..1.0).contains(&x)));
            // Radius shrinks per Theorem 3.1 (levels here have contraction
            // √16=4 or lower) before the affine map rescales it.
            assert!(net.query_key_radius(0.4, l) > 0.0);
        }
    }

    #[test]
    fn error_paths() {
        assert_eq!(
            HypermNetwork::build(vec![], config()).unwrap_err(),
            HypermError::NoPeers
        );
        let bad_levels = config().with_levels(9); // 16-d supports max 5
        assert!(matches!(
            HypermNetwork::build(peers_data(2, 5, 16, 7), bad_levels).unwrap_err(),
            HypermError::TooManyLevels { .. }
        ));
        let no_clusters = config().with_clusters_per_peer(0);
        assert_eq!(
            HypermNetwork::build(peers_data(2, 5, 16, 7), no_clusters).unwrap_err(),
            HypermError::ZeroClusters
        );
        let cfg24 = HypermConfig::new(24);
        assert!(matches!(
            HypermNetwork::build(peers_data(2, 5, 24, 8), cfg24).unwrap_err(),
            HypermError::BadDimension(24)
        ));
        let mismatched = peers_data(2, 5, 8, 9);
        assert!(matches!(
            HypermNetwork::build(mismatched, config()).unwrap_err(),
            HypermError::DimensionMismatch { .. }
        ));
    }

    /// A NaN or infinite coordinate anywhere in the corpus is refused
    /// before k-means sees it, naming the first one — also over 2k items,
    /// where summarisation may run on several threads.
    #[test]
    fn non_finite_data_is_refused() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (peers, items) in [(4, 5), (8, 300)] {
                let mut data = peers_data(peers, items, 16, 11);
                data[peers - 1].row_mut(0)[0] = bad;
                data[2].row_mut(4)[1] = bad;
                data[2].row_mut(3)[7] = bad;
                assert_eq!(
                    HypermNetwork::build(data, config()).unwrap_err(),
                    HypermError::NonFinite {
                        peer: 2,
                        row: 3,
                        coordinate: 7
                    },
                    "{bad} over {peers} peers"
                );
            }
        }
    }

    #[test]
    fn parallel_and_serial_summarisation_agree() {
        // Over the 2k-item threshold the parallel path kicks in; the result
        // must be identical to the serial path (same seeds per peer).
        let data = peers_data(8, 300, 16, 10); // 2400 items total
        let (net_par, _) = HypermNetwork::build(data.clone(), config()).unwrap();
        // Force serial by building tiny slices and comparing one peer.
        let serial_peer = Peer::summarize(3, data[3].clone(), &config());
        assert_eq!(net_par.peer(3).summaries, serial_peer.summaries);
    }
}
