//! Relief-mechanism configuration. Everything defaults to off.

/// Which relief mechanisms a [`crate::LoadBalancer`] runs, and their
/// knobs. The default enables *nothing*: installing a balancer with it
/// only measures load (the ledger) and perturbs neither results nor
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Extra virtual zones carved per overlay level at install time
    /// (join-time placement). `0` disables virtual nodes; any other value
    /// also makes [`crate::LoadBalancer::relieve`] migrate the hottest
    /// host's largest virtual zone to the coldest host.
    pub virtual_nodes: usize,
    /// On relieve, split the hottest zone when the max/median load ratio
    /// exceeds [`LoadConfig::split_ratio`], granting one half to the
    /// coldest host; merge fragments back when load flattens.
    pub splits: bool,
    /// Max/median per-peer load ratio that triggers a split (and, at
    /// half of it, the flat-load merge-back). Must be > 1.
    pub split_ratio: f64,
    /// Seed for the balancer's own placement RNG (virtual-node split
    /// points). Query results never depend on it — only *where* relief
    /// zones land.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            virtual_nodes: 0,
            splits: false,
            split_ratio: 2.0,
            seed: 0,
        }
    }
}

impl LoadConfig {
    /// Enable virtual nodes: `n` extra zones per level, with migration
    /// rebalancing on relieve.
    pub fn with_virtual_nodes(mut self, n: usize) -> Self {
        self.virtual_nodes = n;
        self
    }

    /// Enable (or disable) load-triggered splits/merges.
    pub fn with_splits(mut self, on: bool) -> Self {
        self.splits = on;
        self
    }

    /// Override the split-trigger ratio (> 1).
    pub fn with_split_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 1.0, "split ratio must exceed 1, got {ratio}");
        self.split_ratio = ratio;
        self
    }

    /// Override the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}
