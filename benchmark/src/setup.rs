//! Input generation and network set-up shared by the workloads.
//!
//! The corpus and the network built from it are derived from the corpus
//! seed (a constant unless `--corpus-seed` is given); queries, entry peers,
//! inserted items and the churn schedule are derived from `--seed`. The
//! network is built with the library-default
//! `HypermConfig::new(dim).with_seed(corpus_seed)` and no other knob, so the
//! benchmark measures what a user of the library gets.

use crate::stats::median;
use hyperm_cluster::Dataset;
use hyperm_core::{BuildReport, HypermConfig, HypermNetwork};
use hyperm_datagen::{distribute_by_clusters, generate_markov, DistributeConfig, MarkovConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Input sizes. `paper` is Sec. 5.1 of the paper; `quick` exists so the
/// whole suite can be smoke-tested in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub peers: usize,
    pub items: usize,
    pub dim: usize,
    /// `churn_mix` corpus: items per peer, and peers held back for joins.
    pub churn_items_per_peer: usize,
    pub churn_held_back: usize,
    /// Operations per second each query workload makes on the reference
    /// host, rounded down: a list of `rate × --seconds` distinct queries
    /// takes about `--seconds` to pass once.
    pub narrow_rate: f64,
    pub wide_rate: f64,
    pub knn_rate: f64,
    pub tcp_rate: f64,
    /// Queries checked against the flat-scan oracle, outside the clock.
    pub verified_queries: usize,
    /// `churn_mix` step counts: range, insert, refresh, k-nn, join,
    /// depart, crash.
    pub churn_steps: [usize; 7],
}

pub const PAPER: Scale = Scale {
    peers: 100,
    items: 100_000,
    dim: 512,
    churn_items_per_peer: 400,
    churn_held_back: 20,
    narrow_rate: 500.0,
    wide_rate: 24.0,
    knn_rate: 17.0,
    tcp_rate: 11.0,
    verified_queries: 24,
    churn_steps: [2000, 600, 240, 120, 20, 10, 10],
};

pub const QUICK: Scale = Scale {
    peers: 10,
    items: 500,
    dim: 64,
    churn_items_per_peer: 50,
    churn_held_back: 2,
    narrow_rate: 4000.0,
    wide_rate: 2000.0,
    knn_rate: 1000.0,
    tcp_rate: 11.0,
    verified_queries: 24,
    churn_steps: [200, 60, 24, 12, 2, 1, 1],
};

pub const EPS_NARROW: f64 = 0.05;
pub const EPS_WIDE: f64 = 0.5;
pub const KNN_K: usize = 10;

/// The corpus every seed queries unless `--corpus-seed` says otherwise.
/// Fixed because corpus-to-corpus differences (k-means outcome, replica
/// counts, where the entry peer's zone lies) moved every metric by more
/// than the regressions the bounds are meant to catch.
pub const CORPUS_SEED: u64 = 2007;

/// What one invocation runs with.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub scale: Scale,
    pub seed: u64,
    pub corpus_seed: u64,
    pub seconds: f64,
}

impl Run {
    /// The library-default configuration the whole benchmark runs under.
    pub fn config(&self) -> HypermConfig {
        HypermConfig::new(self.scale.dim).with_seed(self.corpus_seed)
    }

    /// The Sec. 5.1 corpus at this run's scale.
    pub fn corpus(&self) -> Corpus {
        corpus(
            self.scale.peers,
            self.scale.items,
            self.scale.dim,
            self.corpus_seed,
        )
    }

    /// Distinct queries a workload of nominal `rate` passes in `--seconds`.
    pub fn list_len(&self, rate: f64) -> usize {
        ((rate * self.seconds).ceil() as usize).max(self.scale.verified_queries)
    }
}

/// A seeded corpus dealt onto peers, with the wall time of each stage.
pub struct Corpus {
    pub peers: Vec<Dataset>,
    /// Items dealt in total (stays put when a workload holds peers back).
    pub items: usize,
    pub markov_s: f64,
    pub distribute_s: f64,
}

impl Corpus {
    /// The two `datagen` layer metrics every traced run reports.
    pub fn report_datagen(&self, out: &mut crate::Outcome) {
        out.set(
            "datagen.markov_items_per_s",
            self.items as f64 / self.markov_s,
        );
        out.set("datagen.distribute_s", self.distribute_s);
    }
}

/// Sec. 5.1: Markov vectors, clustered into `peers / 4` interest classes,
/// each class spread over 8–10 peers. The class spread can leave a peer
/// empty; like the repo's own experiment harness, such a peer is given
/// one row of the largest peer so that every node participates.
pub fn corpus(peers: usize, items: usize, dim: usize, seed: u64) -> Corpus {
    let t = Instant::now();
    let data = generate_markov(&MarkovConfig {
        count: items,
        dim,
        seed,
        ..MarkovConfig::default()
    });
    let markov_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut dealt = distribute_by_clusters(
        &data,
        &DistributeConfig {
            peers,
            classes: (peers / 4).max(2),
            seed: seed.wrapping_add(1),
            ..DistributeConfig::default()
        },
    );
    let donor = (0..dealt.len())
        .max_by_key(|&i| dealt[i].len())
        .expect("at least one peer");
    let spare = dealt[donor].row(0).to_vec();
    for p in dealt.iter_mut().filter(|p| p.is_empty()) {
        p.push_row(&spare);
    }
    let distribute_s = t.elapsed().as_secs_f64();
    Corpus {
        items: dealt.iter().map(Dataset::len).sum(),
        peers: dealt,
        markov_s,
        distribute_s,
    }
}

/// Build the network `BUILDS` times (cloning the corpus outside the clock)
/// and keep the last; returns it with the median build wall in seconds.
pub fn build_median(peers: &[Dataset], config: &HypermConfig) -> (HypermNetwork, BuildReport, f64) {
    const BUILDS: usize = 3;
    let mut walls = Vec::with_capacity(BUILDS);
    let mut last = None;
    for _ in 0..BUILDS {
        drop(last.take());
        let data = peers.to_vec();
        let t = Instant::now();
        let built = HypermNetwork::build(data, config.clone()).expect("corpus is well-formed");
        walls.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (net, report) = last.expect("BUILDS > 0");
    (net, report, median(&walls))
}

/// One query: centre vector and the peer it enters the overlay at.
#[derive(Debug, Clone)]
pub struct Query {
    pub centre: Vec<f64>,
    pub entry: usize,
}

/// `n` seeded queries centred on corpus items (uniform over items) with a
/// uniform entry peer. A prefix of a longer list equals the shorter list,
/// which is what lets `tcp_query` replay the head of `range_narrow`.
pub fn queries(peers: &[Dataset], n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5155_4552);
    let total: usize = peers.iter().map(Dataset::len).sum();
    (0..n)
        .map(|_| {
            let mut g = rng.gen_range(0..total);
            let peer = peers
                .iter()
                .position(|p| {
                    if g < p.len() {
                        true
                    } else {
                        g -= p.len();
                        false
                    }
                })
                .expect("index below total");
            Query {
                centre: peers[peer].row(g).to_vec(),
                entry: rng.gen_range(0..peers.len()),
            }
        })
        .collect()
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}
