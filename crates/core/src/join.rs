//! Live peer joins: a device arrives after the network is up.
//!
//! The paper's deployment model has everyone joining in a burst at session
//! start (related work [2, 5] parallelises exactly that), but its scenarios
//! — a conference room, a train — obviously admit latecomers. A joining
//! peer summarises its collection offline, joins every overlay (CAN zone
//! split at a random point) and publishes its cluster spheres; the cost is
//! the same per-peer cost the initial build charged, so the network grows
//! incrementally at no penalty to anyone else.
//!
//! Supported on the CAN substrate (whose join protocol the original paper
//! defines). The static tree builds would need the tree-rotation join of
//! the BATON paper or the VBI-tree's own, which are out of scope — joins
//! on a BATON- or VBI-backed network return
//! [`JoinError::UnsupportedBackend`].

use crate::network::HypermNetwork;
use crate::peer::Peer;
use hyperm_cluster::Dataset;
use hyperm_sim::{NodeId, OpStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why a live join was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The joining peer's data does not match the network dimensionality.
    DimensionMismatch {
        /// Data dimensionality supplied.
        got: usize,
        /// Network data dimensionality.
        expected: usize,
    },
    /// The peer brought no items.
    EmptyCollection,
    /// An item has a NaN or infinite coordinate, which k-means cannot
    /// cluster.
    NonFinite {
        /// Row of the first such item in the joining collection.
        row: usize,
        /// Its first non-finite coordinate.
        coordinate: usize,
    },
    /// The overlay substrate has no dynamic join (BATON and VBI here).
    UnsupportedBackend,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::DimensionMismatch { got, expected } => {
                write!(
                    f,
                    "joining data is {got}-dimensional, network expects {expected}"
                )
            }
            JoinError::EmptyCollection => write!(f, "joining peer has no items"),
            JoinError::NonFinite { row, coordinate } => {
                write!(
                    f,
                    "joining item {row} has a non-finite coordinate {coordinate}"
                )
            }
            JoinError::UnsupportedBackend => {
                write!(f, "live joins require the CAN substrate")
            }
        }
    }
}

impl std::error::Error for JoinError {}

/// Outcome of a live join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// The new peer's id (== its node id in every overlay).
    pub peer: usize,
    /// Overlay join cost (zone splits).
    pub join: OpStats,
    /// Summary publication cost.
    pub insertion: OpStats,
    /// Cluster spheres published.
    pub clusters_published: u64,
}

impl HypermNetwork {
    /// Add a latecomer with its local collection; summarises, joins every
    /// overlay and publishes. Returns the new peer id and the costs.
    pub fn join_peer(&mut self, items: Dataset) -> Result<JoinReport, JoinError> {
        if items.is_empty() {
            return Err(JoinError::EmptyCollection);
        }
        if items.dim() != self.config.data_dim {
            return Err(JoinError::DimensionMismatch {
                got: items.dim(),
                expected: self.config.data_dim,
            });
        }
        if self.overlay(0).as_can().is_none() {
            return Err(JoinError::UnsupportedBackend);
        }

        let peer_id = self.len();
        let peer = Peer::try_summarize(peer_id, items, &self.config)
            .map_err(|(row, coordinate)| JoinError::NonFinite { row, coordinate })?;
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0xBEEF)
                .wrapping_add(peer_id as u64),
        );

        // Join every overlay at a random point; the new CAN node id must
        // equal `peer_id`, which holds because nodes are appended densely.
        let mut join = OpStats::zero();
        for l in 0..self.levels() {
            let can = self.overlay_mut(l).can_mut("a live join");
            let point: Vec<f64> = (0..can.dim()).map(|_| rng.gen::<f64>()).collect();
            // Entry node: resample until an alive node comes up (under
            // churn, dead slots stay in the table; with everyone alive the
            // RNG stream — and thus the whole join — is unchanged).
            let entry = loop {
                let e = NodeId(rng.gen_range(0..can.len()));
                if can.is_alive(e) {
                    break e;
                }
            };
            let before = can.bootstrap_stats();
            let new_node = can.join(entry, &point);
            assert_eq!(new_node.0, peer_id, "overlay node ids must track peer ids");
            let after = can.bootstrap_stats();
            join += OpStats {
                hops: after.hops - before.hops,
                messages: after.messages - before.messages,
                bytes: after.bytes - before.bytes,
                retries: after.retries - before.retries,
                failed_routes: after.failed_routes - before.failed_routes,
            };
        }

        self.push_peer(peer);
        // Publish the newcomer's summaries (step i3 of Figure 2).
        let mut insertion = OpStats::zero();
        let mut clusters_published = 0u64;
        for level in 0..self.levels() {
            for cluster in 0..self.peer(peer_id).summaries[level].len() {
                let out = self.place_sphere(peer_id, level, cluster);
                insertion += out.stats;
                clusters_published += 1;
            }
        }
        Ok(JoinReport {
            peer: peer_id,
            join,
            insertion,
            clusters_published,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HypermConfig;
    use crate::overlay::OverlayBackend;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(16);
        let mut row = [0.0f64; 16];
        for _ in 0..n {
            for x in row.iter_mut() {
                *x = rng.gen();
            }
            ds.push_row(&row);
        }
        ds
    }

    fn build(backend: OverlayBackend) -> HypermNetwork {
        let peers: Vec<Dataset> = (0..6).map(|p| data(p as u64, 25)).collect();
        let cfg = HypermConfig::new(16)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(1)
            .with_backend(backend);
        HypermNetwork::build(peers, cfg).unwrap().0
    }

    #[test]
    fn latecomer_is_fully_searchable() {
        let mut net = build(OverlayBackend::Can);
        let newcomer = data(99, 30);
        let probe = newcomer.row(7).to_vec();
        let report = net.join_peer(newcomer).unwrap();
        assert_eq!(report.peer, 6);
        assert_eq!(net.len(), 7);
        assert!(report.insertion.hops > 0);
        assert!(report.clusters_published > 0);
        // Its items are now findable by everyone.
        let res = net.range_query(0, &probe, 1e-9, None);
        assert!(res.items.contains(&(6, 7)), "latecomer's item not found");
        // And the overlays remain structurally sound.
        for l in 0..net.levels() {
            net.overlay(l).check_invariants();
            assert_eq!(net.overlay(l).len(), 7);
        }
    }

    #[test]
    fn latecomer_publishes_are_accounted_like_builds() {
        use hyperm_sim::OpKind;
        use hyperm_telemetry::{EventClass, Name, Recorder};
        let mut net = build(OverlayBackend::Can);
        let (rec, ring) = Recorder::ring(1 << 16);
        net.set_recorder(rec.clone());
        let report = net.join_peer(data(99, 30)).unwrap();
        let spans = ring
            .events()
            .into_iter()
            .filter(|e| e.name == Name::Publish);
        let starts = spans.filter(|e| e.class == EventClass::Start).count();
        assert_eq!(starts as u64, report.clusters_published);
        let snap = rec.metrics().unwrap().snapshot();
        let whole = snap.cell(OpKind::Publish, None).unwrap();
        assert_eq!(whole.ops, report.clusters_published);
        assert_eq!(whole.hops.sum, report.insertion.hops);
    }

    #[test]
    fn existing_data_unaffected_by_join() {
        let mut net = build(OverlayBackend::Can);
        let probe = net.peer(2).items.row(3).to_vec();
        net.join_peer(data(77, 10)).unwrap();
        let res = net.range_query(1, &probe, 1e-9, None);
        assert!(
            res.items.contains(&(2, 3)),
            "pre-existing item lost after join"
        );
    }

    #[test]
    fn multiple_joins_accumulate() {
        let mut net = build(OverlayBackend::Can);
        for i in 0..4 {
            let report = net.join_peer(data(200 + i, 12)).unwrap();
            assert_eq!(report.peer, 6 + i as usize);
        }
        assert_eq!(net.len(), 10);
        net.overlay(0).check_invariants();
    }

    /// A NaN or infinite coordinate is refused before k-means sees it, and
    /// the network is left as it was.
    #[test]
    fn non_finite_rows_are_refused() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut net = build(OverlayBackend::Can);
            let mut items = data(9, 10);
            items.row_mut(6)[11] = bad;
            assert_eq!(
                net.join_peer(items).unwrap_err(),
                JoinError::NonFinite {
                    row: 6,
                    coordinate: 11
                },
                "{bad}"
            );
            assert_eq!(net.len(), 6);
            net.overlay(0).check_invariants();
        }
    }

    #[test]
    fn error_paths() {
        let mut net = build(OverlayBackend::Can);
        assert_eq!(
            net.join_peer(Dataset::new(16)).unwrap_err(),
            JoinError::EmptyCollection
        );
        let wrong = {
            let mut ds = Dataset::new(8);
            ds.push_row(&[0.0; 8]);
            ds
        };
        assert!(matches!(
            net.join_peer(wrong).unwrap_err(),
            JoinError::DimensionMismatch {
                got: 8,
                expected: 16
            }
        ));
        let mut baton_net = build(OverlayBackend::Baton);
        assert_eq!(
            baton_net.join_peer(data(5, 5)).unwrap_err(),
            JoinError::UnsupportedBackend
        );
    }
}
