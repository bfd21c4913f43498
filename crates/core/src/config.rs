//! Hyper-M network configuration.
//!
//! The knobs mirror the paper's experimental parameters: the number of
//! overlay **levels** (wavelet subspaces published — the paper settles on
//! four), the number of **clusters per peer** (`K_p`, 5–20 in Figure 10b),
//! the score **aggregation policy** (minimum in all the paper's
//! experiments), and whether overlapping cluster spheres are **replicated**
//! across CAN zones (Figure 8a studies the overhead).

use crate::overlay::OverlayBackend;
use hyperm_wavelet::{Normalization, Subspace};

/// Cap on per-overlay CAN dimensionality: subspaces wider than this are
/// projected onto their leading coordinates for key purposes. The paper's
/// 4-level configuration uses subspace dims 1,1,2,4 — uncapped. The cap
/// kernel's closed forms cover every key dimension up to it.
pub const MAX_CAN_DIM: usize = 8;

/// How per-level peer scores are folded into one global score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScorePolicy {
    /// `Score = min_l Score_l` — the paper's choice: prunes aggressively
    /// and provably yields no false dismissals for range queries.
    #[default]
    Min,
    /// Arithmetic mean across levels (ablation).
    Avg,
    /// `max_l Score_l` — most permissive (ablation).
    Max,
}

/// Configuration of a Hyper-M network.
#[derive(Debug, Clone, PartialEq)]
pub struct HypermConfig {
    /// Original data dimensionality (must be a power of two).
    pub data_dim: usize,
    /// Number of wavelet subspaces published: `{A, D_0, …, D_{levels−2}}`.
    /// The paper's effectiveness experiments use 4.
    pub levels: usize,
    /// Clusters per peer per subspace (`K_p`).
    pub clusters_per_peer: usize,
    /// Haar normalisation convention (paper average by default).
    pub normalization: Normalization,
    /// Coordinate bounds of the original data space (`[lo, hi]` per
    /// dimension) — part of the shared network configuration, like a DHT's
    /// hash function.
    pub data_bounds: (f64, f64),
    /// Replicate cluster spheres into every CAN zone they overlap
    /// (Section 5 / Figure 6). Disabling reproduces the "no replication
    /// standard" line of Figure 8a.
    pub replicate: bool,
    /// Score aggregation policy.
    pub score_policy: ScorePolicy,
    /// k-means iteration cap for peer summarisation.
    pub kmeans_max_iter: usize,
    /// Master seed: peers, levels and overlays derive their own from it.
    pub seed: u64,
    /// Which overlay substrate to build per subspace (CAN in the paper's
    /// evaluation; BATON as the overlay-independence alternative).
    pub overlay_backend: OverlayBackend,
    /// Finger links on the 1-d CAN levels (`hyperm_can::CanConfig::fingers`):
    /// levels A and D_0 route in O(log n) instead of ≈ n/4 hops. Answers
    /// never depend on it, only routing costs. On by default; off models
    /// the paper's plain CAN.
    pub fingers: bool,
}

impl HypermConfig {
    /// Defaults for `data_dim`-dimensional data in `[0,1]`: 4 levels,
    /// 10 clusters/peer, replication on, min-score policy.
    pub fn new(data_dim: usize) -> Self {
        Self {
            data_dim,
            levels: 4,
            clusters_per_peer: 10,
            normalization: Normalization::PaperAverage,
            data_bounds: (0.0, 1.0),
            replicate: true,
            score_policy: ScorePolicy::Min,
            kmeans_max_iter: 50,
            seed: 0,
            overlay_backend: OverlayBackend::Can,
            fingers: true,
        }
    }

    /// Builder-style overrides.
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    /// Set the number of clusters per peer (`K_p`).
    pub fn with_clusters_per_peer(mut self, k: usize) -> Self {
        self.clusters_per_peer = k;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the score aggregation policy.
    pub fn with_score_policy(mut self, policy: ScorePolicy) -> Self {
        self.score_policy = policy;
        self
    }

    /// Set sphere replication on/off.
    pub fn with_replication(mut self, on: bool) -> Self {
        self.replicate = on;
        self
    }

    /// Select the overlay substrate.
    pub fn with_backend(mut self, backend: OverlayBackend) -> Self {
        self.overlay_backend = backend;
        self
    }

    /// Set finger links on the 1-d CAN levels on/off.
    pub fn with_fingers(mut self, on: bool) -> Self {
        self.fingers = on;
        self
    }

    /// The ordered subspaces this configuration publishes.
    pub fn subspaces(&self) -> Vec<Subspace> {
        Subspace::first(self.levels)
    }

    /// Maximum levels supported by the data dimensionality
    /// (`log₂ d + 1`: the approximation plus every detail space).
    pub fn max_levels(&self) -> usize {
        self.data_dim.trailing_zeros() as usize + 1
    }

    /// Coordinate bounds of one subspace's coefficients, derived from the
    /// original-space bounds.
    ///
    /// Paper convention: averages stay within `[lo, hi]`; differences
    /// (any detail coefficient) lie within `±(hi−lo)/2`. Orthonormal
    /// convention: every averaging step scales sums by `√2`, so the
    /// approximation range grows by `√2` per step; details after `s`
    /// averaging steps are bounded by `±(hi−lo)/√2 · (√2)^s`.
    pub fn subspace_bounds(&self, s: Subspace) -> (f64, f64) {
        let (lo, hi) = self.data_bounds;
        let ext = hi - lo;
        match self.normalization {
            Normalization::PaperAverage => match s {
                Subspace::Approx => (lo, hi),
                Subspace::Detail(_) => (-ext / 2.0, ext / 2.0),
            },
            Normalization::Orthonormal => {
                // steps to reach the subspace from the original dim.
                let steps = (self.data_dim / s.dim()).trailing_zeros() as i32;
                let scale = 2f64.powf(steps as f64 / 2.0);
                match s {
                    Subspace::Approx => {
                        // Sums of 2^steps coords / √2^steps.
                        if lo >= 0.0 {
                            (lo * scale, hi * scale)
                        } else {
                            (
                                lo.abs().max(hi.abs()) * -scale,
                                lo.abs().max(hi.abs()) * scale,
                            )
                        }
                    }
                    Subspace::Detail(_) => {
                        let half = ext / 2.0 * scale;
                        (-half, half)
                    }
                }
            }
        }
    }

    /// The CAN key dimensionality used for subspace `s` (capped).
    pub fn can_dim(&self, s: Subspace) -> usize {
        s.dim().min(MAX_CAN_DIM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = HypermConfig::new(512);
        assert_eq!(c.levels, 4);
        assert_eq!(c.subspaces().len(), 4);
        assert_eq!(
            c.subspaces(),
            vec![
                Subspace::Approx,
                Subspace::Detail(0),
                Subspace::Detail(1),
                Subspace::Detail(2)
            ]
        );
        assert_eq!(c.max_levels(), 10);
        assert_eq!(c.score_policy, ScorePolicy::Min);
        assert!(c.replicate);
        assert!(c.fingers);
    }

    #[test]
    fn subspace_bounds_paper_convention() {
        let c = HypermConfig::new(64); // data in [0,1]
        assert_eq!(c.subspace_bounds(Subspace::Approx), (0.0, 1.0));
        assert_eq!(c.subspace_bounds(Subspace::Detail(0)), (-0.5, 0.5));
        assert_eq!(c.subspace_bounds(Subspace::Detail(3)), (-0.5, 0.5));
    }

    #[test]
    fn subspace_bounds_contain_actual_coefficients() {
        use hyperm_wavelet::decompose;
        // Extremal vectors: alternating 0/1 maximises detail magnitude.
        let c = HypermConfig::new(16);
        let v: Vec<f64> = (0..16).map(|i| (i % 2) as f64).collect();
        let dec = decompose(&v, c.normalization).unwrap();
        for s in c.subspaces() {
            let (lo, hi) = c.subspace_bounds(s);
            for &x in dec.subspace(s).unwrap() {
                assert!(
                    x >= lo - 1e-12 && x <= hi + 1e-12,
                    "{s:?}: {x} outside [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn orthonormal_bounds_contain_coefficients() {
        use hyperm_wavelet::decompose;
        let mut c = HypermConfig::new(16);
        c.normalization = Normalization::Orthonormal;
        for pattern in 0..8u32 {
            let v: Vec<f64> = (0..16)
                .map(|i| ((i as u32 ^ pattern) % 3) as f64 / 2.0)
                .collect();
            let dec = decompose(&v, c.normalization).unwrap();
            for s in c.subspaces() {
                let (lo, hi) = c.subspace_bounds(s);
                for &x in dec.subspace(s).unwrap() {
                    assert!(
                        x >= lo - 1e-9 && x <= hi + 1e-9,
                        "{s:?}: {x} outside [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn can_dim_is_capped() {
        let mut c = HypermConfig::new(512);
        c.levels = 8; // subspace dims 1,1,2,4,8,16,32,64
        assert_eq!(c.can_dim(Subspace::Detail(6)), 8); // 64 capped to 8
        assert_eq!(c.can_dim(Subspace::Detail(2)), 4);
    }
}
