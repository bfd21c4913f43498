//! Pins what summarising produces: every published cluster sphere, every
//! level view and the `BuildReport` of a seeded 512-d Markov build, under
//! both Haar conventions, folded into one FNV-1a digest per build. The
//! digests were measured before the DWT and k-means kernels were rewritten
//! for speed; a change to those kernels must leave every bit unchanged.
//!
//! Six levels publish subspaces of width 1, 1, 2, 4, 8 and 16, so every
//! fixed-width k-means instantiation and the slice fallback are covered.
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

fn digest(norm: Normalization, levels: usize, k: usize) -> u64 {
    let mut cfg = HypermConfig::new(512)
        .with_levels(levels)
        .with_clusters_per_peer(k)
        .with_seed(27);
    cfg.normalization = norm;
    let (net, report) = HypermNetwork::build(peers(), cfg).unwrap();
    let mut h = Fnv::new();
    h.report(&report);
    for peer in net.peers() {
        h.u(peer.id as u64);
        for view in peer.level_views() {
            h.u(view.dim() as u64);
            for &x in view.as_flat() {
                h.f(x);
            }
        }
        for level in &peer.summaries {
            h.u(level.len() as u64);
            for s in level {
                for &x in &s.centroid {
                    h.f(x);
                }
                h.f(s.radius);
                h.u(s.items as u64);
            }
        }
    }
    h.0
}

/// `(convention, levels, clusters per peer, digest)`. Re-pinned when the
/// 1-d CAN levels (A and D_0) gained finger links: route hops on those
/// levels moved the `BuildReport`'s `insertion`, `per_level` (levels 0
/// and 1), `makespan_hops` and `makespan_rounds`. The spheres, level
/// views, replicas and bootstrap cost are unchanged, and
/// `with_fingers(false)` reproduces the previous digests.
const PINNED: [(Normalization, usize, usize, u64); 4] = [
    (Normalization::PaperAverage, 4, 10, 0x02e1_3906_685e_bec2),
    (Normalization::PaperAverage, 6, 7, 0xd05f_8067_e7f4_2457),
    (Normalization::Orthonormal, 4, 10, 0x5a0c_213a_82d1_316f),
    (Normalization::Orthonormal, 6, 7, 0xbb64_c438_3541_8e41),
];

#[test]
fn summaries_level_views_and_report_match_their_pinned_digests() {
    let got: Vec<String> = PINNED
        .iter()
        .map(|&(norm, levels, k, _)| format!("{:#018x}", digest(norm, levels, k)))
        .collect();
    let want: Vec<String> = PINNED.iter().map(|p| format!("{:#018x}", p.3)).collect();
    assert_eq!(got, want, "summaries moved (rows as in PINNED)");
}
