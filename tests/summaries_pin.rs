//! Pins what summarising produces: every level view, every published
//! cluster sphere and the `BuildReport` of a seeded 512-d Markov build,
//! under both Haar conventions, folded into two FNV-1a digests per build:
//! the level views alone, and the spheres plus the report. The digests
//! were measured before the DWT and k-means kernels were rewritten for
//! speed; a change to those kernels must leave every bit unchanged. A
//! change to how spheres are derived from a clustering moves only the
//! second digest.
//!
//! Six levels publish subspaces of width 1, 1, 2, 4, 8 and 16, so every
//! fixed-width k-means and enclosing-ball instantiation and their
//! run-time-width fallbacks are covered.
//! One peer holds fewer rows than `k`, one duplicated rows, and one a
//! single row repeated (all ties, forced empty-cluster repairs).

use hyperm::datagen::{generate_markov, MarkovConfig};
use hyperm::{BuildReport, Dataset, HypermConfig, HypermNetwork, Normalization, OpStats};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u(&mut self, v: u64) {
        for x in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f(&mut self, x: f64) {
        self.u(x.to_bits());
    }
    fn stats(&mut self, s: &OpStats) {
        for w in [s.hops, s.messages, s.bytes, s.retries, s.failed_routes] {
            self.u(w);
        }
    }
    fn report(&mut self, r: &BuildReport) {
        self.stats(&r.insertion);
        for s in &r.per_level {
            self.stats(s);
        }
        self.stats(&r.bootstrap);
        for w in [
            r.clusters_published,
            r.replicas,
            r.items_total,
            r.makespan_hops,
            r.makespan_rounds,
        ] {
            self.u(w);
        }
    }
}

/// Eight peers of unequal size cut from one Markov corpus; peer 5 gets
/// three rows (fewer than `k`), peer 2 a block of repeated rows. A ninth
/// peer holds one row twelve times: its centroids coincide, so every
/// assignment is a tie and every cluster but one is repaired.
fn peers() -> Vec<Dataset> {
    let data = generate_markov(&MarkovConfig::small(420, 512, 27));
    let sizes = [60, 48, 52, 71, 39, 3, 80, 67];
    let mut start = 0;
    let mut peers: Vec<Dataset> = sizes
        .iter()
        .enumerate()
        .map(|(p, &n)| {
            let mut ds = data.select(&(start..start + n).collect::<Vec<_>>());
            start += n;
            if p == 2 {
                for i in [0, 0, 0, 7, 7] {
                    let row = ds.row(i).to_vec();
                    ds.push_row(&row);
                }
            }
            ds
        })
        .collect();
    peers.push(data.select(&[7; 12]));
    peers
}

/// The build's `(level views, spheres + BuildReport)` digests.
fn digests(norm: Normalization, levels: usize, k: usize) -> (u64, u64) {
    let mut cfg = HypermConfig::new(512)
        .with_levels(levels)
        .with_clusters_per_peer(k)
        .with_seed(27);
    cfg.normalization = norm;
    let (net, report) = HypermNetwork::build(peers(), cfg).unwrap();
    let (mut views, mut spheres) = (Fnv::new(), Fnv::new());
    spheres.report(&report);
    for peer in net.peers() {
        views.u(peer.id as u64);
        for view in peer.level_views() {
            views.u(view.dim() as u64);
            for &x in view.as_flat() {
                views.f(x);
            }
        }
        spheres.u(peer.id as u64);
        for level in &peer.summaries {
            spheres.u(level.len() as u64);
            for s in level {
                for &x in &s.centroid {
                    spheres.f(x);
                }
                spheres.f(s.radius);
                spheres.u(s.items as u64);
            }
        }
    }
    (views.0, spheres.0)
}

/// `(convention, levels, clusters per peer, level views, spheres and
/// report)`.
///
/// The level views are the DWT's output alone; they have not moved since
/// the DWT kernel was rewritten for speed.
///
/// The spheres-and-report digest was re-pinned when the 1-d CAN levels (A
/// and D_0) gained finger links (route hops moved the `BuildReport`'s
/// `insertion`, `per_level`, `makespan_hops` and `makespan_rounds`), and
/// again when each cluster came to be published as its (near-)minimum
/// enclosing ball instead of its centroid ball: every sphere's centre and
/// radius moved (member counts did not), and so did the replicas and
/// insertion costs of the `BuildReport`.
const PINNED: [(Normalization, usize, usize, u64, u64); 4] = [
    (
        Normalization::PaperAverage,
        4,
        10,
        0x67c5_6910_366e_5500,
        0xe8b3_2439_99bf_f7be,
    ),
    (
        Normalization::PaperAverage,
        6,
        7,
        0x6d39_5047_f469_7751,
        0xe881_2453_3e75_9efe,
    ),
    (
        Normalization::Orthonormal,
        4,
        10,
        0xc44b_c4b0_2661_b853,
        0x0172_a60e_6d8d_0d7b,
    ),
    (
        Normalization::Orthonormal,
        6,
        7,
        0x9436_cbd8_c8f2_2d50,
        0x6c80_e8be_f501_fdc1,
    ),
];

#[test]
fn summaries_level_views_and_report_match_their_pinned_digests() {
    let got: Vec<String> = PINNED
        .iter()
        .map(|&(norm, levels, k, ..)| {
            let (views, spheres) = digests(norm, levels, k);
            format!("{views:#018x} {spheres:#018x}")
        })
        .collect();
    let want: Vec<String> = PINNED
        .iter()
        .map(|p| format!("{:#018x} {:#018x}", p.3, p.4))
        .collect();
    assert_eq!(
        got, want,
        "summaries moved (rows as in PINNED: level views, spheres and report)"
    );
}
