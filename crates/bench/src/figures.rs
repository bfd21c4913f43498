//! The paper's evaluation: one function per entry of DESIGN.md's
//! experiment index, each returning a [`Figure`] (heading, the series the
//! paper plots, the shape to expect). [`ALL`] is the registry the
//! `figures` binary runs to write `FIGURES.json` ([`report`]). Seeds are
//! fixed and cells are rounded as printed, so a re-run repeats the file
//! byte for byte; cells Theorem 4.1 guarantees are asserted, not printed
//! only.

use crate::{f1, f3, DisseminationWorkload, RetrievalWorkload, Scale, Table};
use hyperm_baseline::{
    distribution_stats, insert_all_items, precision_recall, FlatIndex, PerItemCanConfig,
};
use hyperm_cluster::kmeans::kmeans;
use hyperm_cluster::{quality_ratio, Dataset, KMeansConfig};
use hyperm_core::{
    BuildReport, EvalHarness, HypermConfig, HypermNetwork, InsertPolicy, KnnOptions,
    OverlayBackend, QueryBudget, ScorePolicy,
};
use hyperm_datagen::{
    generate_aloi_like, generate_markov, generate_skewed, AloiConfig, MarkovConfig, SkewedConfig,
    ZipfWorkload,
};
use hyperm_geometry::vecmath::sq_dist;
use hyperm_load::{LoadBalancer, LoadConfig};
use hyperm_repair::{ChurnSchedule, RepairConfig, RepairEngine};
use hyperm_sim::{
    Backoff, EnergyModel, FaultConfig, OpStats, PartitionPlan, Underlay, UnderlayConfig,
};
use hyperm_telemetry::json::inline_arr;
use hyperm_telemetry::JsonObj;
use hyperm_wavelet::{decompose, Normalization, Subspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;

/// An experiment: the scale is its only input.
pub type Experiment = fn(Scale) -> Figure;

/// Every experiment, in DESIGN.md's index order: the paper's figures,
/// then the extensions.
pub const ALL: &[(&str, Experiment)] = &[
    ("fig07", fig07),
    ("fig08a", fig08a),
    ("fig08b", fig08b),
    ("fig08c", fig08c),
    ("fig09", fig09),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("fig10c", fig10c),
    ("fig11", fig11),
    ("sec61", sec61),
    ("ablations", ablations),
    ("ablation_overlay", ablation_overlay),
    ("churn", churn),
    ("faults", faults),
    ("load", load),
    ("scalability", scalability),
    ("energy_manet", energy_manet),
];

/// One experiment's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure {
    /// First printed line: what ran, at which size.
    pub heading: String,
    /// The series, in print order.
    pub tables: Vec<Table>,
    /// The shape the paper leads us to expect (empty when none is stated).
    pub expected: &'static str,
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.heading)?;
        self.tables.iter().try_for_each(|t| write!(f, "{t}"))?;
        match self.expected {
            "" => Ok(()),
            expected => writeln!(f, "\n{expected}"),
        }
    }
}

/// `FIGURES.json`: the scale, then one object per figure, one per line.
pub fn report(scale: Scale, figures: &[(&str, Figure)]) -> String {
    let objects: Vec<String> = figures
        .iter()
        .map(|(id, f)| {
            JsonObj::new()
                .s("id", id)
                .s("heading", &f.heading)
                .raw("tables", inline_arr(f.tables.iter().map(Table::json)))
                .s("expected", f.expected)
                .render()
        })
        .collect();
    JsonObj::new()
        .s("scale", &format!("{scale:?}").to_lowercase())
        .arr("figures", &objects)
        .render_pretty()
}

/// Hyper-M at the paper's four levels with `clusters` clusters per peer,
/// on the library's default substrate (CAN with fingers on its 1-d
/// levels): the extension experiments' network.
fn config(dim: usize, clusters: usize, seed: u64) -> HypermConfig {
    HypermConfig::new(dim)
        .with_levels(4)
        .with_clusters_per_peer(clusters)
        .with_seed(seed)
}

/// [`config`] on the paper's plain CAN (no fingers): the network of the
/// paper's figures.
fn paper(dim: usize, clusters: usize, seed: u64) -> HypermConfig {
    config(dim, clusters, seed).with_fingers(false)
}

/// Build a network over a copy of `peers`.
fn build(peers: &[Dataset], cfg: HypermConfig) -> (HypermNetwork, BuildReport) {
    HypermNetwork::build(peers.to_vec(), cfg).expect("figure workloads are well-formed")
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean, min and max of a sample (a figure's error bars), as cells.
fn spread(xs: &[f64]) -> [String; 3] {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    [f3(mean(xs)), f3(min), f3(max)]
}

/// A built retrieval network and its ground truth; queries enter at peer 0.
struct Eval {
    net: HypermNetwork,
    truth: EvalHarness,
}

/// A batch of queries: per-query recall, the precision of every non-empty
/// answer, mean messages.
struct Run {
    recalls: Vec<f64>,
    precisions: Vec<f64>,
    msgs: f64,
}

impl Eval {
    fn new(net: HypermNetwork) -> Self {
        let truth = EvalHarness::new(&net);
        Self { net, truth }
    }

    fn build(peers: &[Dataset], cfg: HypermConfig) -> (Self, BuildReport) {
        let (net, report) = build(peers, cfg);
        (Self::new(net), report)
    }

    fn queries(&self, n: usize, seed: u64) -> Vec<Vec<f64>> {
        self.truth.sample_queries(&self.net, n, seed)
    }

    /// `one(q, k)` for every query and every `k` in `ks`; `one` returns
    /// the recall, the precision if there is one, and the cost.
    fn batch(
        &self,
        queries: &[Vec<f64>],
        ks: &[usize],
        one: impl Fn(&[f64], usize) -> (f64, Option<f64>, OpStats),
    ) -> Run {
        let (mut recalls, mut precisions, mut msgs) = (Vec::new(), Vec::new(), Vec::new());
        for q in queries {
            for &k in ks {
                let (recall, precision, stats) = one(q, k);
                recalls.push(recall);
                precisions.extend(precision);
                msgs.push(stats.messages as f64);
            }
        }
        Run {
            recalls,
            precisions,
            msgs: mean(&msgs),
        }
    }

    /// Range queries at the radius of each query's `k`-th neighbour, for
    /// every `k` in `radius_ks`, contacting at most `budget` peers.
    fn range(&self, queries: &[Vec<f64>], radius_ks: &[usize], budget: Option<usize>) -> Run {
        self.batch(queries, radius_ks, |q, k| {
            let eps = self.truth.kth_distance(q, k);
            let res = self.net.range_query(0, q, eps, budget);
            let pr = precision_recall(&res.items, &self.truth.range_truth(q, eps));
            // An empty answer has no precision.
            let precision = (!res.items.is_empty()).then_some(pr.precision);
            (pr.recall, precision, res.stats)
        })
    }

    /// k-nn queries for every `k` in `ks` (retrieved-set metrics).
    fn knn(&self, queries: &[Vec<f64>], ks: &[usize], opts: KnnOptions) -> Run {
        self.batch(queries, ks, |q, k| {
            let e = self.truth.eval_knn(&self.net, 0, q, k, opts);
            (e.retrieved.recall, Some(e.retrieved.precision), e.stats)
        })
    }
}

/// Figure 7: the synthetic Markov dataset.
///
/// Summary statistics of the generated corpus and a few sample vectors
/// (downsampled coordinate series) so the wavy shapes of the paper's
/// Figure 7b can be eyeballed.
pub fn fig07(scale: Scale) -> Figure {
    let w = DisseminationWorkload::at(scale);
    let total = w.nodes * w.items_per_node;
    let data = generate_markov(&MarkovConfig {
        count: total,
        dim: w.dim,
        max_step_cap: 0.05,
        seed: 42,
    });
    let [mean, min, max] = spread(data.as_flat());
    let (jumps, steps) = data
        .rows()
        .flat_map(|row| row.windows(2))
        .fold((0.0, 0u64), |(sum, n), w2| {
            (sum + (w2[1] - w2[0]).abs(), n + 1)
        });
    let stats = Table::new(
        "corpus statistics",
        &["vectors", "dim", "min", "max", "mean", "mean |x_{i+1}-x_i|"],
        vec![vec![
            total.to_string(),
            w.dim.to_string(),
            min,
            max,
            mean,
            f3(jumps / steps as f64),
        ]],
    );

    // Sample series, downsampled to 16 points per vector.
    let step = w.dim / 16;
    let series = |label: String, cell: &dyn Fn(usize) -> String| {
        std::iter::once(label).chain((0..16).map(cell)).collect()
    };
    let samples = Table {
        title: "sample vectors (downsampled, cf. Figure 7b)".into(),
        headers: series("vector".into(), &|i| format!("x{}", i * step)),
        rows: (0..4)
            .map(|v| series(format!("v{v}"), &|i| f3(data.row(v * 7)[i * step])))
            .collect(),
    };
    Figure {
        heading: format!(
            "Figure 7 — synthetic Markov dataset ({total} x {}-d, scale {scale:?})",
            w.dim
        ),
        tables: vec![stats, samples],
        expected: "",
    }
}

/// Figure 8a: cluster replication overhead.
///
/// "Figure 8a shows the average number of hops for different cluster sizes.
/// As expected, if the clustering is finer, the number of hops approaches
/// the no-replication standard" — finer clusters (more clusters per peer)
/// have smaller radii, overlap fewer CAN zones, and replicate less.
///
/// Series: average hops per *cluster insertion* with replication, without
/// replication, and the replication factor (replicas per cluster).
pub fn fig08a(scale: Scale) -> Figure {
    let w = DisseminationWorkload::at(scale);
    let peers = w.build_peers(7);
    let per_cluster = |r: &BuildReport| f3(r.insertion.hops as f64 / r.clusters_published as f64);
    let rows = [5usize, 10, 20, 50, 100]
        .iter()
        .map(|&k| {
            let (_, rep) = build(&peers, paper(w.dim, k, 3).with_replication(true));
            let (_, no_rep) = build(&peers, paper(w.dim, k, 3).with_replication(false));
            vec![
                k.to_string(),
                per_cluster(&rep),
                per_cluster(&no_rep),
                f3(rep.replicas as f64 / rep.clusters_published as f64),
                f1(rep.insertion.hops as f64),
                f1(no_rep.insertion.hops as f64),
            ]
        })
        .collect();
    Figure {
        heading: format!(
            "Figure 8a — replication overhead ({} nodes x {} items, {}-d, scale {scale:?})",
            w.nodes, w.items_per_node, w.dim
        ),
        tables: vec![Table::new(
            "avg hops per cluster insertion vs clusters per peer",
            &[
                "clusters/peer",
                "hops/cluster (replication)",
                "hops/cluster (no replication)",
                "replicas/cluster",
                "total hops (rep)",
                "total hops (no rep)",
            ],
            rows,
        )],
        expected: "Expected shape (paper): with finer clustering (more clusters/peer), the\n\
                   replication column approaches the no-replication standard.",
    }
}

/// Figure 8b: insertion cost vs amount of data disseminated.
///
/// "Our method not only overcomes this \[replication\] overhead, but provides
/// up to 400% reduction in the number of hops compared with the basic CAN
/// insertion method … Hyper-M sets up the network overlay much faster, even
/// if it incurs some replication overhead."
///
/// Series: total insertion hops as the corpus grows, for Hyper-M (4
/// levels), per-item CAN in the original 512-d space, and the paper's
/// illustrative 2-d CAN.
pub fn fig08b(scale: Scale) -> Figure {
    let w = DisseminationWorkload::at(scale);
    let full_peers = w.build_peers(11);
    // Sweep data volume: 20%..100% of the corpus.
    let rows = [0.2, 0.4, 0.6, 0.8, 1.0]
        .iter()
        .map(|&frac| {
            let peers: Vec<Dataset> = full_peers
                .iter()
                .map(|p| {
                    let keep = ((p.len() as f64 * frac).ceil() as usize).max(1);
                    p.select(&(0..keep).collect::<Vec<_>>())
                })
                .collect();
            let items: usize = peers.iter().map(Dataset::len).sum();
            let (_, hyperm) = build(&peers, paper(w.dim, 10, 5));
            let can_full = insert_all_items(&peers, &PerItemCanConfig::full_dim(w.nodes, w.dim, 5));
            let can_2d = insert_all_items(&peers, &PerItemCanConfig::two_dim(w.nodes, 5));
            let ours = hyperm.insertion.hops.max(1) as f64;
            vec![
                items.to_string(),
                f1(hyperm.insertion.hops as f64),
                f1(can_full.totals.hops as f64),
                f1(can_2d.totals.hops as f64),
                f3(can_full.totals.hops as f64 / ours),
                f3(can_2d.totals.hops as f64 / ours),
            ]
        })
        .collect();
    Figure {
        heading: format!(
            "Figure 8b — hops vs data volume ({} nodes, {}-d, scale {scale:?})",
            w.nodes, w.dim
        ),
        tables: vec![Table::new(
            "total insertion hops vs items inserted",
            &[
                "items",
                "Hyper-M (4 levels)",
                "CAN 512-d per item",
                "CAN 2-d per item",
                "speedup vs 512-d",
                "speedup vs 2-d",
            ],
            rows,
        )],
        expected: "Expected shape (paper): Hyper-M's totals stay far below both per-item\n\
                   baselines (order-of-magnitude vs 512-d CAN) and grow sub-linearly with\n\
                   volume because only cluster summaries are published.",
    }
}

/// Figure 8c: average insertion hops per item vs number of overlay layers.
///
/// "We see that Hyper-M greatly reduces the number of hops required to
/// publish each item when compared to the CAN approach in the original
/// vector space … some values for the average number of hops are smaller
/// than 1 because we are averaging over the number of items on a peer, but
/// insert only cluster centroids." (Plotted on a log scale in the paper.)
pub fn fig08c(scale: Scale) -> Figure {
    let w = DisseminationWorkload::at(scale);
    let peers = w.build_peers(13);
    // Baselines (flat lines in the paper's plot).
    let can_full = insert_all_items(&peers, &PerItemCanConfig::full_dim(w.nodes, w.dim, 9));
    let can_2d = insert_all_items(&peers, &PerItemCanConfig::two_dim(w.nodes, 9));
    let rows = (1..=6usize)
        .map(|layers| {
            let (_, report) = build(&peers, paper(w.dim, 10, 17).with_levels(layers));
            vec![
                layers.to_string(),
                f3(report.avg_hops_per_item()),
                f3(report.avg_hops_per_item().log10()),
                report.makespan_hops.to_string(),
                report.makespan_rounds.to_string(),
            ]
        })
        .collect();
    let baseline = |name: &str, hops: f64| vec![name.into(), f3(hops), f3(hops.log10())];
    Figure {
        heading: format!(
            "Figure 8c — avg hops per item vs overlay layers ({} nodes x {} items, {}-d, scale {scale:?})",
            w.nodes, w.items_per_node, w.dim
        ),
        tables: vec![
            Table::new(
                "Hyper-M: avg insertion hops per item vs layers",
                &[
                    "layers",
                    "hops/item",
                    "log10(hops/item)",
                    "makespan hops",
                    "makespan rounds",
                ],
                rows,
            ),
            Table::new(
                "per-item CAN baselines (flat reference lines)",
                &["system", "hops/item", "log10"],
                vec![
                    baseline("CAN 512-d", can_full.avg_hops_per_item()),
                    baseline("CAN 2-d", can_2d.avg_hops_per_item()),
                ],
            ),
        ],
        expected: "Expected shape (paper): Hyper-M's per-item hops sit well below 1 and grow\n\
                   roughly linearly with the layer count, staying an order of magnitude below\n\
                   per-item CAN even at 4+ layers.",
    }
}

/// Figure 9: data distribution among nodes under skewed data.
///
/// "The CAN overlay of the dimensionality of the original dataset performs
/// among the worst, having most of the data on a very small number of
/// nodes. The absolute worst case … occurs with the usage of only the
/// approximation level. However, as detail levels are added, the nodes used
/// turn out to be from different parts of the overlay due to the
/// orthogonality of the spaces."
///
/// For skewed corpora (2–5 dense clusters) we report, per overlay, how
/// concentrated the stored summaries' item mass is (non-empty nodes, share
/// of the top 10% of nodes, Gini coefficient), plus the paper's headline
/// number: the average count of peers holding data across all overlays.
pub fn fig09(scale: Scale) -> Figure {
    let (nodes, dim) = (100usize, 512usize);
    let count = match scale {
        Scale::Quick => 5_000,
        Scale::Full => 20_000,
    };
    let occupancy = |label: String, items_per_node: &[u64]| {
        let s = distribution_stats(items_per_node);
        vec![label, s.nonempty.to_string(), f3(s.top10_share), f3(s.gini)]
    };
    let tables = (2..=5usize)
        .map(|blobs| {
            let corpus = generate_skewed(&SkewedConfig {
                blobs,
                count,
                dim,
                spread: 0.02,
                seed: 21,
            });
            // Deal items round-robin onto peers (skew is in the data, not
            // the peer assignment).
            let mut peers: Vec<Dataset> = (0..nodes).map(|_| Dataset::new(dim)).collect();
            for (i, row) in corpus.data.rows().enumerate() {
                peers[i % nodes].push_row(row);
            }
            let (net, _) = build(&peers, paper(dim, 10, 23));
            // Per-item CAN in the original space, for the "original" line.
            let can_full = insert_all_items(&peers, &PerItemCanConfig::full_dim(nodes, dim, 23));

            let mut rows = vec![occupancy(
                "original 512-d (per item)".into(),
                &can_full.overlay.stored_items_per_node(),
            )];
            let mut nonempty_sum = 0usize;
            let mut combined = vec![0u64; nodes];
            for l in 0..net.levels() {
                let occ = net.overlay(l).stored_items_per_node();
                for (c, o) in combined.iter_mut().zip(&occ) {
                    *c += o;
                }
                nonempty_sum += distribution_stats(&occ).nonempty;
                let label = match net.subspace(l) {
                    Subspace::Approx => "Hyper-M: A (approx only)".to_string(),
                    Subspace::Detail(d) => format!("Hyper-M: D_{d}"),
                };
                rows.push(occupancy(label, &occ));
            }
            // The paper's headline effect: each overlay loads *different*
            // devices (orthogonal subspaces place the same data
            // independently), so the per-device load summed across all
            // levels is far better spread than any single space.
            rows.push(occupancy(
                "Hyper-M: all levels combined (per device)".into(),
                &combined,
            ));
            rows.push(vec![
                "Hyper-M: avg peers holding data (per level)".into(),
                f1(nonempty_sum as f64 / net.levels() as f64),
                String::new(),
                String::new(),
            ]);
            Table::new(
                format!("{blobs} dense clusters"),
                &["overlay", "non-empty nodes", "top-10% share", "Gini"],
                rows,
            )
        })
        .collect();
    Figure {
        heading: format!("Figure 9 — data distribution under skew ({nodes} nodes, {dim}-d, {count} items, scale {scale:?})"),
        tables,
        expected: "Expected shape (paper): the original-space overlay and the approximation-only\n\
                   overlay concentrate data on few nodes (high Gini); adding detail levels\n\
                   spreads load because the wavelet subspaces are orthogonal.",
    }
}

/// Figure 10a: range-query recall vs number of peers contacted.
///
/// "Precision is constantly 100% because once we decide which peers to
/// contact, the query is performed directly on those peers … recall
/// reaches as high as 96% if enough peers are contacted." Variation (the
/// paper's error bars) comes from different query radii.
pub fn fig10a(scale: Scale) -> Figure {
    let w = RetrievalWorkload::at(scale);
    let eval = Eval::build(&w.build_peers(31), paper(64, 10, 33)).0;
    let queries = eval.queries(25, 7);
    // Radii per query at the 10th/25th/50th-NN distance (the paper varies
    // radii to produce its error bars).
    let budgets = [1usize, 2, 3, 5, 8, 12, 20]
        .map(|b| (b.to_string(), eval.range(&queries, &[10, 25, 50], Some(b))));
    // Unbounded contact = guaranteed no false dismissals.
    let all = eval.range(&queries, &[25], None);
    let missed = all.recalls.iter().any(|&r| r < 1.0);
    assert!(
        !missed,
        "fig10a: row `all`, recall min below 1.0 (Theorem 4.1)"
    );
    let rows = budgets
        .into_iter()
        .chain([("all".to_string(), all)])
        .map(|(label, run)| {
            // Phase 2 answers from the contacted peers' own data.
            let exact = run.precisions.iter().all(|&p| p == 1.0);
            assert!(exact, "fig10a: row {label}, precision below 1.0");
            let mut cells = vec![label];
            cells.extend(spread(&run.recalls));
            cells.push(f3(mean(&run.precisions)));
            cells
        })
        .collect();
    Figure {
        heading: format!(
            "Figure 10a — range recall vs peers contacted ({} nodes, {} classes x {} views, scale {scale:?})",
            w.nodes, w.classes, w.views_per_class
        ),
        tables: vec![Table::new(
            "recall vs peers contacted (radii at 10/25/50-NN distances)",
            &[
                "peers contacted",
                "recall mean",
                "recall min",
                "recall max",
                "precision",
            ],
            rows,
        )],
        expected: "Expected shape (paper): precision pinned at 1.0; recall climbs with the\n\
                   number of contacted peers, into the ≥0.9 range once enough are contacted,\n\
                   reaching 1.0 when every positively scored peer is visited (no false\n\
                   dismissals — Theorem 4.1).",
    }
}

/// Figure 10b: k-nn precision and recall vs clusters per peer.
///
/// "Figure 10b shows that the system performs well, balancing precision and
/// recall at over 50% … using ten clusters instead of five almost doubles
/// the performance, but using twenty instead of ten only increases it
/// slightly."
pub fn fig10b(scale: Scale) -> Figure {
    let w = RetrievalWorkload::at(scale);
    let peers = w.build_peers(41);
    let rows = [5usize, 10, 20]
        .iter()
        .map(|&clusters| {
            let eval = Eval::build(&peers, paper(64, clusters, 43)).0;
            let run = eval.knn(&eval.queries(20, 11), &[10, 20, 40], KnnOptions::default());
            let mut cells = vec![clusters.to_string(), f3(mean(&run.precisions))];
            cells.extend(spread(&run.recalls));
            cells
        })
        .collect();
    Figure {
        heading: format!(
            "Figure 10b — k-nn effectiveness vs clusters per peer ({} nodes, scale {scale:?})",
            w.nodes
        ),
        tables: vec![Table::new(
            "k-nn effectiveness (k in {10,20,40}, retrieved-set metrics)",
            &[
                "clusters/peer",
                "precision",
                "recall mean",
                "recall min",
                "recall max",
            ],
            rows,
        )],
        expected: "Expected shape (paper): precision and recall balance above ~0.5; the jump\n\
                   from 5 to 10 clusters is large, from 10 to 20 marginal.",
    }
}

/// Figure 10c: recall loss from documents inserted after overlay creation.
///
/// "We have evaluated the impact of inserting documents after the creation
/// of the overlay … even if we insert as much as 45% new documents (3600
/// new data items, versus 8400 existing), the recall loses only up to 33%."
///
/// New items are stored locally without updating the published summaries
/// ([`InsertPolicy::StaleSummaries`]); the Republish repair policy is the
/// extension ablation, and its summaries are current, so its recall must
/// stay exactly 1.0.
pub fn fig10c(scale: Scale) -> Figure {
    let w = RetrievalWorkload::at(scale);
    let peers = w.build_peers(51);
    let existing: usize = peers.iter().map(Dataset::len).sum();
    // Fresh documents drawn from the same distribution (later views of the
    // same kinds of objects).
    let extra = generate_aloi_like(&AloiConfig {
        classes: w.classes,
        views_per_class: w.views_per_class / 2,
        bins: 64,
        view_jitter: 0.15,
        seed: 777,
    });
    let mut rows = Vec::new();
    let mut baseline_recall = None;
    for policy in [InsertPolicy::StaleSummaries, InsertPolicy::Republish] {
        for frac in [0.0f64, 0.1, 0.2, 0.3, 0.45] {
            let (mut net, _) = build(&peers, paper(64, 10, 53));
            let new_docs = ((existing as f64 * frac) as usize).min(extra.len());
            let mut rng = StdRng::seed_from_u64(55);
            for i in 0..new_docs {
                let peer = rng.gen_range(0..net.len());
                net.insert_item(peer, extra.data.row(i), policy);
            }
            // Ground truth over the *current* contents (old + new docs).
            let eval = Eval::new(net);
            let recall = mean(&eval.range(&eval.queries(20, 13), &[25], None).recalls);
            assert!(
                policy == InsertPolicy::StaleSummaries || recall == 1.0,
                "fig10c: Republish row at {new_docs} new docs, recall {recall} (Theorem 4.1: 1.0)"
            );
            let b = *baseline_recall.get_or_insert(recall);
            rows.push(vec![
                format!("{policy:?}"),
                new_docs.to_string(),
                format!("{:.0}%", frac * 100.0),
                f3(recall),
                f3(((b - recall) / b).max(0.0)),
            ]);
        }
    }
    Figure {
        heading: format!(
            "Figure 10c — recall loss vs post-creation insertions ({} nodes, scale {scale:?})",
            w.nodes
        ),
        tables: vec![Table::new(
            "recall after post-creation insertions (range queries, all candidates contacted)",
            &["policy", "new docs", "fraction", "recall", "relative loss"],
            rows,
        )],
        expected: "Expected shape (paper): with stale summaries, recall degrades gracefully —\n\
                   ≈1/3 relative loss at 45% new documents. The Republish extension (not in\n\
                   the paper) should hold recall near the baseline at extra message cost.",
    }
}

/// Figure 11: clustering performance in different vector spaces.
///
/// "Figure 11 shows that the clusters created in the first three wavelet
/// vector spaces are tighter and better separated than clusters created by
/// the same algorithm in the original data space … as the level of detail
/// increases, clustering stops performing as well." The y-axis is the
/// cohesion/separation ratio (lower = better clusters).
pub fn fig11(scale: Scale) -> Figure {
    let w = RetrievalWorkload::at(scale);
    // One pooled corpus (the paper clusters per peer; pooled data shows the
    // same per-space effect with less noise), each item decomposed once.
    let peers = w.build_peers(61);
    let dim = 64usize;
    let subspaces = Subspace::all(dim);
    let mut per_space: Vec<Dataset> = subspaces.iter().map(|s| Dataset::new(s.dim())).collect();
    let mut original = Dataset::new(dim);
    for row in peers.iter().flat_map(Dataset::rows) {
        original.push_row(row);
        let dec = decompose(row, Normalization::PaperAverage).unwrap();
        for (ds, &s) in per_space.iter_mut().zip(&subspaces) {
            ds.push_row(dec.subspace(s).unwrap());
        }
    }
    let quality = |label: String, ds: &Dataset| {
        let q = quality_ratio(ds, &kmeans(ds, &KMeansConfig::new(10).with_seed(1)));
        vec![label, f3(q.cohesion), f3(q.separation), f3(q.ratio)]
    };
    let mut rows = vec![quality("original (64-d)".into(), &original)];
    for (ds, &s) in per_space.iter().zip(&subspaces) {
        let label = match s {
            Subspace::Approx => "A (dim 1)".to_string(),
            Subspace::Detail(d) => format!("D_{d} (dim {})", s.dim()),
        };
        rows.push(quality(label, ds));
    }
    Figure {
        heading: format!(
            "Figure 11 — clustering quality per vector space ({} classes x {} views, scale {scale:?})",
            w.classes, w.views_per_class
        ),
        tables: vec![Table::new(
            "cohesion / separation per vector space (lower ratio = better clusters)",
            &["space", "cohesion", "separation", "ratio"],
            rows,
        )],
        expected: "Expected shape (paper): the first few wavelet spaces (A, D_0, D_1) have a\n\
                   lower ratio than the original space; deeper detail spaces degrade — which is\n\
                   why Hyper-M uses only four levels.",
    }
}

/// Section 6.1 (text): the `C` precision/recall knob of the k-nn heuristic.
///
/// "Our experiments show that we obtain a 14.51% increase in recall when C
/// is 1.5 (50% more data items retrieved) but also a drop of 21.05% in
/// precision. Increasing C further to 2 adds an additional 4.23% to recall
/// and subtracts 6.67% from precision."
pub fn sec61(scale: Scale) -> Figure {
    let w = RetrievalWorkload::at(scale);
    let eval = Eval::build(&w.build_peers(71), paper(64, 10, 73)).0;
    let queries = eval.queries(25, 17);
    let mut rows = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    for c in [1.0f64, 1.5, 2.0] {
        let run = eval.knn(&queries, &[20], KnnOptions::default().with_c(c));
        let (precision, recall) = (mean(&run.precisions), mean(&run.recalls));
        let change = |now: f64, before: f64| format!("{:+.2}%", (now - before) / before * 100.0);
        let (d_rec, d_prec) = match prev {
            Some((p0, r0)) => (change(recall, r0), change(precision, p0)),
            None => ("-".into(), "-".into()),
        };
        rows.push(vec![
            format!("{c}"),
            f3(precision),
            f3(recall),
            d_rec,
            d_prec,
        ]);
        prev = Some((precision, recall));
    }
    Figure {
        heading: format!(
            "Section 6.1 — the C knob ({} nodes, scale {scale:?})",
            w.nodes
        ),
        tables: vec![Table::new(
            "k-nn retrieved-set quality vs C (k = 20)",
            &[
                "C",
                "precision",
                "recall",
                "Δrecall vs prev",
                "Δprecision vs prev",
            ],
            rows,
        )],
        expected: "Expected shape (paper): raising C buys recall (+~15% at 1.5, +~4% more at 2)\n\
                   and costs precision (−~21% then −~7%): diminishing returns past C = 1.5.",
    }
}

/// Design-choice ablations called out in DESIGN.md:
///
/// 1. score aggregation policy (min — the paper's — vs avg vs max);
/// 2. wavelet normalisation (paper average vs orthonormal);
/// 3. the k-means iteration budget, on retrieval quality.
///
/// Each section reports k-nn (k = 20) retrieved-set precision/recall and
/// the message cost per query, over the same 20 queries.
pub fn ablations(scale: Scale) -> Figure {
    let w = RetrievalWorkload::at(scale);
    let peers = w.build_peers(91);
    // Every row queries with the first network's sample.
    let mut queries = None;
    let mut row = |label: String, cfg: HypermConfig| {
        let (eval, report) = Eval::build(&peers, cfg);
        let qs = queries.get_or_insert_with(|| eval.queries(20, 19));
        let run = eval.knn(qs, &[20], KnnOptions::default());
        let cells = vec![
            label,
            f3(mean(&run.precisions)),
            f3(mean(&run.recalls)),
            f1(run.msgs),
        ];
        (cells, report)
    };
    let policies = [
        ("min (paper)", ScorePolicy::Min),
        ("avg", ScorePolicy::Avg),
        ("max", ScorePolicy::Max),
    ]
    .map(|(name, policy)| row(name.into(), config(64, 10, 93).with_score_policy(policy)).0);
    let norms = [
        ("paper average", Normalization::PaperAverage),
        ("orthonormal", Normalization::Orthonormal),
    ]
    .map(|(name, norm)| {
        let mut cfg = config(64, 10, 95);
        cfg.normalization = norm;
        let (mut cells, report) = row(name.into(), cfg);
        cells.push(f3(report.avg_hops_per_item()));
        cells
    });
    let iters = [2usize, 10, 50].map(|iters| {
        let mut cfg = config(64, 10, 97);
        cfg.kmeans_max_iter = iters;
        row(iters.to_string(), cfg).0
    });
    Figure {
        heading: format!("Ablations ({} nodes, scale {scale:?})", w.nodes),
        tables: vec![
            Table::new(
                "score aggregation policy",
                &["policy", "precision", "recall", "msgs/query"],
                policies.into(),
            ),
            Table::new(
                "wavelet normalisation",
                &[
                    "convention",
                    "precision",
                    "recall",
                    "msgs/query",
                    "insert hops/item",
                ],
                norms.into(),
            ),
            Table::new(
                "k-means iteration budget",
                &["max iterations", "precision", "recall", "msgs/query"],
                iters.into(),
            ),
        ],
        expected: "",
    }
}

/// Overlay-independence ablation (the paper's Section-5 claim that Hyper-M
/// "could be implemented on top of BATON, VBI-tree, CAN or any peer-to-peer
/// overlay").
///
/// Builds the same network on all three substrates, CAN both plain (the
/// paper's) and with fingers on its 1-d levels, and compares dissemination
/// cost, query cost, and retrieval quality. Costs differ by each overlay's
/// routing geometry (plain CAN: O(d·n^{1/d}), so O(n) on the 1-d levels;
/// CAN + fingers and BATON: O(log n) there); answers must not, so the run
/// asserts range recall exactly 1.0 on every row and plain CAN's k-nn
/// recall for all four.
pub fn ablation_overlay(scale: Scale) -> Figure {
    let w = RetrievalWorkload::at(scale);
    let peers = w.build_peers(101);
    let mut rows = Vec::new();
    let mut can_knn_recall = None;
    let cfg = config(64, 10, 103);
    for (name, cfg) in [
        ("CAN (paper)", paper(64, 10, 103)),
        ("CAN + fingers", cfg.clone()),
        (
            "BATON + Z-order",
            cfg.clone().with_backend(OverlayBackend::Baton),
        ),
        ("VBI-tree", cfg.with_backend(OverlayBackend::Vbi)),
    ] {
        let (eval, report) = Eval::build(&peers, cfg);
        let queries = eval.queries(20, 23);
        let range = eval.range(&queries, &[25], None);
        let knn = eval.knn(&queries, &[20], KnnOptions::default());
        let (range_recall, knn_recall) = (mean(&range.recalls), mean(&knn.recalls));
        // Overlay independence: the substrate changes routing, never answers.
        assert_eq!(
            range_recall, 1.0,
            "ablation_overlay: {name}: range recall below 1.0"
        );
        let can = *can_knn_recall.get_or_insert(knn_recall);
        assert_eq!(
            knn_recall, can,
            "ablation_overlay: {name}: k-nn recall differs from plain CAN's"
        );
        rows.push(vec![
            name.into(),
            f3(report.avg_hops_per_item()),
            report.bootstrap.hops.to_string(),
            f3(range_recall),
            f1(range.msgs),
            f3(knn_recall),
            f1(knn.msgs),
        ]);
    }
    Figure {
        heading: format!(
            "Overlay ablation: CAN (plain, + fingers) vs BATON vs VBI ({} nodes, scale {scale:?})",
            w.nodes
        ),
        tables: vec![Table::new(
            "substrate comparison (identical answers; costs differ by routing geometry)",
            &[
                "substrate",
                "insert hops/item",
                "bootstrap hops",
                "range recall",
                "range msgs/q",
                "knn recall",
                "knn msgs/q",
            ],
            rows,
        )],
        expected: "Expected shape: recall identical across substrates (overlay-independence);\n\
                   O(log n) routing (CAN + fingers, BATON) undercuts plain CAN's O(d·n^(1/d))\n\
                   on the low-dimensional subspace overlays at this network size.",
    }
}

/// Refresh period of the churn and fault experiments (sim ticks).
const REFRESH_INTERVAL: u64 = 50;

/// The churn and fault experiments' network: the retrieval workload with
/// ten clusters per peer.
fn churn_base(scale: Scale) -> HypermNetwork {
    let peers = RetrievalWorkload::at(scale).build_peers(111);
    build(&peers, config(64, 10, 113)).0
}

/// A range query centred on an alive peer's item, at the radius of its
/// 25th neighbour in the whole corpus, with its answer counted by a plain
/// scan over all peers and over the alive ones.
struct ChurnQuery {
    q: Vec<f64>,
    eps: f64,
    truth_all: usize,
    truth_alive: usize,
}

/// The churn and fault experiments' 25 paired queries.
fn churn_queries(net: &HypermNetwork, seed: u64) -> Vec<ChurnQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..25)
        .map(|_| {
            let (p, i) = loop {
                let p = rng.gen_range(0..net.len());
                if net.is_alive(p) {
                    break (p, rng.gen_range(0..net.peer(p).len()));
                }
            };
            let q = net.peer(p).items.row(i).to_vec();
            let mut d: Vec<f64> = (0..net.len())
                .flat_map(|pp| net.peer(pp).items.rows())
                .map(|row| {
                    row.iter()
                        .zip(&q)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .collect();
            d.sort_by(f64::total_cmp);
            let eps = d[25.min(d.len() - 1)];
            let (mut truth_all, mut truth_alive) = (0, 0);
            for pp in 0..net.len() {
                // Not `Peer::local_range`: the truth must not come from
                // the code the recall columns measure.
                let hits = net
                    .peer(pp)
                    .items
                    .rows()
                    .filter(|row| sq_dist(row, &q) <= eps * eps + 1e-12)
                    .count();
                truth_all += hits;
                if net.is_alive(pp) {
                    truth_alive += hits;
                }
            }
            ChurnQuery {
                q,
                eps,
                truth_all,
                truth_alive,
            }
        })
        .collect()
}

/// Run `queries` from peer 0, through the failure-aware path when given a
/// `budget`: mean recall against all and against the alive peers' data,
/// and the summed cost.
fn churn_run(
    net: &HypermNetwork,
    queries: &[ChurnQuery],
    budget: Option<QueryBudget>,
) -> (f64, f64, OpStats) {
    let (mut all, mut alive, mut stats) = (0.0, 0.0, OpStats::zero());
    for s in queries {
        let res = match budget {
            Some(b) => net.range_query_budgeted(0, &s.q, s.eps, None, b),
            None => net.range_query(0, &s.q, s.eps, None),
        };
        all += res.items.len() as f64 / s.truth_all.max(1) as f64;
        alive += res.items.len() as f64 / s.truth_alive.max(1) as f64;
        stats += res.stats;
    }
    let n = queries.len() as f64;
    (all / n, alive / n, stats)
}

/// The peers a `fail_frac` crash takes down: never peer 0, where the
/// queries enter.
fn churn_victims(n: usize, fail_frac: f64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(117);
    let mut ids: Vec<usize> = (1..n).collect();
    ids.shuffle(&mut rng);
    ids.truncate((fail_frac * n as f64).round() as usize);
    ids
}

/// Format a float with 4 decimals, the precision of the churn and fault
/// recalls.
fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Churn resilience with the overlay repair engine (extension experiment;
/// DESIGN.md "Repair protocol").
///
/// The paper's short-lived MANET assumes everyone stays for the session.
/// This crash-stops a fraction of the peers and compares the paper's
/// behaviour (no repair: failures leave routing holes) with the repair
/// engine (zone takeover, background merges and one soft-state refresh
/// period), on the same victims and queries:
///
/// * recall against **all** published data tracks the survivors in both
///   modes, because the crashed peers' items are gone;
/// * recall against the **alive** peers' data stays exactly 1.0 with
///   repair on (asserted), and degrades without it, where queries report
///   failed routes instead of hanging.
///
/// Two more tables run the rest of the subsystem: queries over lossy
/// links (message-level fault injection with bounded retry) and a Poisson
/// schedule of crashes, departures and arrivals under the refresh loop.
pub fn churn(scale: Scale) -> Figure {
    let base = churn_base(scale);
    let mut sweep = Vec::new();
    for fail_frac in [0.0f64, 0.1, 0.2, 0.3] {
        let victims = churn_victims(base.len(), fail_frac);
        // Truth over the post-crash alive set, shared by both modes.
        let mut dead = base.clone();
        for &v in &victims {
            dead.fail_peer(v);
        }
        let queries = churn_queries(&dead, 119);
        for (mode, repair) in [("repair", true), ("none", false)] {
            let mut eng = RepairEngine::new(
                base.clone(),
                RepairConfig::default()
                    .with_enabled(repair)
                    .with_refresh_interval(REFRESH_INTERVAL),
            );
            for &v in &victims {
                eng.crash(v);
            }
            eng.advance_to(REFRESH_INTERVAL);
            let net = eng.network();
            let (all, alive, cost) = churn_run(net, &queries, None);
            assert!(
                (0.0..=1.0).contains(&all) && (0.0..=1.0).contains(&alive),
                "churn: {mode} at {fail_frac}, recall out of [0, 1]"
            );
            if repair {
                assert_eq!(
                    alive, 1.0,
                    "churn: repair at {fail_frac} failed, alive-peer recall {alive}"
                );
                for l in 0..net.levels() {
                    net.overlay(l).check_invariants();
                }
            }
            if victims.is_empty() {
                assert_eq!(all, 1.0, "churn: {mode} with no failures, recall {all}");
            }
            let st = eng.stats();
            sweep.push(vec![
                format!("{:.0}%", fail_frac * 100.0),
                victims.len().to_string(),
                mode.into(),
                f4(all),
                f4(alive),
                f1(cost.messages as f64 / queries.len() as f64),
                cost.failed_routes.to_string(),
                st.repair.messages.to_string(),
                st.repair.bytes.to_string(),
                st.refresh.messages.to_string(),
                st.max_takeover_rounds.to_string(),
            ]);
        }
    }

    // Lossy links: fault injection with bounded retry, repair on.
    let (drop, dead_prob, fail_frac) = (0.15, 0.02, 0.2);
    let mut eng = RepairEngine::new(
        base.clone(),
        RepairConfig::default()
            .with_refresh_interval(REFRESH_INTERVAL)
            .with_fault_plan(
                FaultConfig::lossy(drop)
                    .with_seed(131)
                    .with_dead_prob(dead_prob),
            ),
    );
    for v in churn_victims(base.len(), fail_frac) {
        eng.crash(v);
    }
    eng.advance_to(REFRESH_INTERVAL);
    let (_, recall, cost) = churn_run(eng.network(), &churn_queries(eng.network(), 119), None);
    let injector = eng.network().fault_report().unwrap_or_default();
    let lossy = vec![
        drop.to_string(),
        dead_prob.to_string(),
        format!("{:.0}%", fail_frac * 100.0),
        f4(recall),
        cost.retries.to_string(),
        cost.failed_routes.to_string(),
        injector.attempts.to_string(),
        injector.drops.to_string(),
        injector.dead_hops.to_string(),
    ];

    // Poisson schedule: crashes, departures and arrivals over sim time.
    let horizon = 400u64;
    let mut eng = RepairEngine::new(
        base.clone(),
        RepairConfig::default().with_refresh_interval(REFRESH_INTERVAL),
    );
    let schedule = ChurnSchedule::poisson(horizon, 0.01, 0.005, 0.005, 137).with_protect(vec![0]);
    let mut arrivals = StdRng::seed_from_u64(139);
    let report = eng.run_schedule(&schedule, |_| {
        let mut ds = Dataset::new(64);
        let mut row = vec![0.0; 64];
        for _ in 0..20 {
            row.iter_mut().for_each(|x| *x = arrivals.gen::<f64>());
            ds.push_row(&row);
        }
        Some(ds)
    });
    let net = eng.network();
    for l in 0..net.levels() {
        net.overlay(l).check_invariants();
    }
    let (_, recall, _) = churn_run(net, &churn_queries(net, 119), None);
    let poisson = vec![
        horizon.to_string(),
        report.crashes.to_string(),
        report.departures.to_string(),
        report.arrivals.to_string(),
        report.skipped.to_string(),
        net.alive_count().to_string(),
        net.len().to_string(),
        f4(recall),
        eng.stats().max_takeover_rounds.to_string(),
        eng.stats().total_messages().to_string(),
    ];

    Figure {
        heading: format!(
            "Churn resilience with overlay repair ({} nodes, 25 queries, refresh every {REFRESH_INTERVAL} ticks, scale {scale:?})",
            base.len()
        ),
        tables: vec![
            Table::new(
                "range recall under crash-stop churn (paired victims and queries)",
                &[
                    "failed",
                    "peers failed",
                    "mode",
                    "recall all",
                    "recall alive",
                    "msgs/query",
                    "failed routes",
                    "repair msgs",
                    "repair bytes",
                    "refresh msgs",
                    "takeover rounds",
                ],
                sweep,
            ),
            Table::new(
                "lossy links (repair on)",
                &[
                    "drop",
                    "dead",
                    "failed",
                    "recall alive",
                    "retries",
                    "failed routes",
                    "attempts",
                    "drops",
                    "dead hops",
                ],
                vec![lossy],
            ),
            Table::new(
                "Poisson churn schedule (repair on, peer 0 protected)",
                &[
                    "horizon",
                    "crashes",
                    "departures",
                    "arrivals",
                    "skipped",
                    "alive",
                    "peers",
                    "recall alive",
                    "max takeover rounds",
                    "maintenance msgs",
                ],
                vec![poisson],
            ),
        ],
        expected: "Expected shape: recall-vs-all tracks the surviving fraction in both\n\
                   modes (dead items are gone); recall-vs-alive stays 1.0000 with repair on\n\
                   and degrades without it, where queries report explicit failed routes.",
    }
}

/// Data-plane fault tolerance (extension experiment; DESIGN.md
/// "Data-plane fault tolerance").
///
/// Reliable publish (ack/retransmit with exponential backoff) and
/// failure-aware budgeted fetches, crossed with a half/half partition
/// injected at t = 20 and healed at t = 120. Mid-window the far half is
/// dark, so alive-peer recall dips; the heal round's reconciliation
/// (background merges and one full republish round) must bring every
/// cell back to exactly 1.0. Every bound is asserted.
pub fn faults(scale: Scale) -> Figure {
    let base = churn_base(scale);
    let queries = churn_queries(&base, 149);
    let n = base.len();
    let budget = Some(QueryBudget::default());
    let per_query = |count: u64| f1(count as f64 / queries.len() as f64);
    let mut rows = Vec::new();
    for drop in [0.0f64, 0.1, 0.3] {
        for split in [false, true] {
            let mut cfg = RepairConfig::default().with_refresh_interval(REFRESH_INTERVAL);
            if drop > 0.0 {
                cfg = cfg.with_fault_plan(
                    FaultConfig::lossy(drop)
                        .with_seed(151 + (drop * 10.0) as u64)
                        .with_max_retries(8)
                        .with_backoff(Backoff::exponential(1, 8).with_jitter(1, 157)),
                );
            }
            if split {
                cfg = cfg.with_partition_plan(PartitionPlan::halves(n, 20, 120));
            }
            let cell = format!("faults: drop {drop}, partition {split}");
            let mut eng = RepairEngine::new(base.clone(), cfg);
            eng.advance_to(70); // mid-window: one lossy refresh behind us
            let (_, recall_mid, mid) = churn_run(eng.network(), &queries, budget);
            assert!(
                (0.0..=1.0).contains(&recall_mid),
                "{cell}: mid-window recall {recall_mid} out of [0, 1]"
            );
            if split {
                assert!(
                    recall_mid < 0.999,
                    "{cell}: a live partition must dent mid-window recall, got {recall_mid}"
                );
            }
            eng.advance_to(150); // past the heal and one more refresh
            let (_, recall_final, last) = churn_run(eng.network(), &queries, budget);
            assert_eq!(
                recall_final, 1.0,
                "{cell}: alive-peer recall must return to 1.0 after the heal"
            );
            let injector = eng.network().fault_report().unwrap_or_default();
            if drop > 0.0 {
                assert!(
                    injector.drops > 0,
                    "{cell}: the injector must drop something"
                );
            }
            rows.push(vec![
                format!("{:.0}%", drop * 100.0),
                if split { "halves" } else { "none" }.into(),
                f4(recall_mid),
                f4(recall_final),
                per_query(mid.messages),
                per_query(last.messages),
                per_query(last.hops),
                eng.stats().publishes_failed.to_string(),
                injector.attempts.to_string(),
                injector.drops.to_string(),
                injector.exhausted.to_string(),
            ]);
        }
    }
    Figure {
        heading: format!(
            "Data-plane fault tolerance ({n} nodes, 25 budgeted queries, refresh every {REFRESH_INTERVAL} ticks, halves split at t=20..120, scale {scale:?})"
        ),
        tables: vec![Table::new(
            "drop x partition (recall mid at t=70, final after heal at t=150)",
            &[
                "drop",
                "partition",
                "recall mid",
                "recall final",
                "msgs/q mid",
                "msgs/q final",
                "hops/q final",
                "failed publishes",
                "injector attempts",
                "injector drops",
                "injector exhausted",
            ],
            rows,
        )],
        expected: "Expected shape: mid-window recall dips only in partition cells (the far\n\
                   half is dark); after the heal round's republish every cell is back to\n\
                   alive-peer recall 1.0000 (asserted).",
    }
}

/// The load experiment's sizes: peers of 40–60 uniform 16-d items around
/// a per-peer centre, a Zipf query stream over a few rows per peer.
struct LoadWorkload {
    peers: usize,
    items: usize,
    adapt_batches: usize,
    adapt_batch: usize,
    measure_queries: usize,
    entry_pool: usize,
}

impl LoadWorkload {
    const DIM: usize = 16;
    const EPS: f64 = 0.2;

    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self {
                peers: 60,
                items: 40,
                adapt_batches: 8,
                adapt_batch: 60,
                measure_queries: 240,
                entry_pool: 8,
            },
            Scale::Full => Self {
                peers: 120,
                items: 60,
                adapt_batches: 10,
                adapt_batch: 80,
                measure_queries: 480,
                entry_pool: 12,
            },
        }
    }

    fn build_peers(&self, seed: u64) -> Vec<Dataset> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.peers)
            .map(|_| {
                let centre = rng.gen::<f64>() * 0.6;
                let mut ds = Dataset::new(Self::DIM);
                let mut row = vec![0.0; Self::DIM];
                for _ in 0..self.items {
                    for x in row.iter_mut() {
                        *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect()
    }
}

/// A load cell's sorted `(peer, item)` answer to every measured query.
type Answers = Vec<Vec<(usize, usize)>>;

/// One load-balancing cell: its answers, its max/median load ratio and
/// its rows of the two tables.
struct LoadCell {
    results: Answers,
    ratio: f64,
    row: Vec<String>,
    heat: Vec<String>,
}

/// The load experiment's fixed inputs, shared by every cell.
struct LoadBench {
    w: LoadWorkload,
    peers: Vec<Dataset>,
    /// The rows the Zipf ranks draw from: two per peer, so the rank-0
    /// centre pins the hot spot onto one peer's cluster.
    pool: Vec<Vec<f64>>,
    flat: FlatIndex,
}

impl LoadBench {
    /// Run one (skew, relief) cell. Each cell builds a fresh network,
    /// adapts to the skew (query batches, a relief round after each), then
    /// clears the ledger and measures an identical fresh workload with no
    /// further relief, so the load is the adapted structure's steady state.
    /// Asserts recall 1.0 against the flat scan and, given the no-relief
    /// cell's result sets, the same answer to every query.
    fn cell(
        &self,
        s: f64,
        relief: &str,
        cfg: LoadConfig,
        no_relief: Option<&[Vec<(usize, usize)>]>,
    ) -> LoadCell {
        let w = &self.w;
        let (mut net, _) = build(&self.peers, config(LoadWorkload::DIM, 5, 83));
        let mut balancer = LoadBalancer::install(&mut net, cfg);
        let entry = |rng: &mut StdRng| rng.gen_range(0..w.entry_pool.min(w.peers));
        let (mut entries, mut zipf) = (
            StdRng::seed_from_u64(89),
            ZipfWorkload::from_pool(self.pool.clone(), s, 97),
        );
        let (mut migrations, mut splits, mut merges) = (0u64, 0u64, 0u64);
        for _ in 0..w.adapt_batches {
            for _ in 0..w.adapt_batch {
                let q = zipf.next_center();
                net.range_query(entry(&mut entries), &q, LoadWorkload::EPS, None);
            }
            let report = balancer.relieve(&mut net);
            migrations += report.migrations;
            splits += report.splits;
            merges += report.merges;
            for l in 0..net.levels() {
                net.overlay(l).check_invariants();
            }
        }

        balancer.ledger().reset();
        let (mut entries, mut zipf) = (
            StdRng::seed_from_u64(89),
            ZipfWorkload::from_pool(self.pool.clone(), s, 97),
        );
        let (mut results, mut recall_sum, mut graded) = (Vec::new(), 0.0, 0usize);
        for _ in 0..w.measure_queries {
            let q = zipf.next_center();
            let res = net.range_query(entry(&mut entries), &q, LoadWorkload::EPS, None);
            let mut items = res.items;
            items.sort_unstable();
            let truth = self.flat.range(&q, LoadWorkload::EPS);
            if !truth.is_empty() {
                let hit = truth
                    .iter()
                    .filter(|t| items.binary_search(t).is_ok())
                    .count();
                recall_sum += hit as f64 / truth.len() as f64;
                graded += 1;
            }
            results.push(items);
        }
        let recall = if graded == 0 {
            1.0
        } else {
            recall_sum / graded as f64
        };
        let cell = format!("load: s={s} {relief}");
        assert!(
            (recall - 1.0).abs() < 1e-12,
            "{cell}: relief caused false dismissals (recall {recall})"
        );
        for (i, (a, b)) in no_relief
            .unwrap_or(&results)
            .iter()
            .zip(&results)
            .enumerate()
        {
            assert_eq!(a, b, "{cell}: query {i} differs from the no-relief answer");
        }

        let load = balancer.snapshot(&net);
        assert!(
            (0.0..=1.0).contains(&load.gini),
            "{cell}: gini {} out of [0, 1]",
            load.gini
        );
        let mut heat = vec![s.to_string(), relief.into()];
        for (max, total) in load
            .heat_max_per_level
            .iter()
            .zip(&load.heat_total_per_level)
        {
            heat.extend([max.to_string(), total.to_string()]);
        }
        LoadCell {
            results,
            ratio: load.max_median_ratio,
            row: vec![
                s.to_string(),
                relief.into(),
                f3(recall),
                format!("{:.3}", load.max_median_ratio),
                f4(load.gini),
                load.max.to_string(),
                load.median.to_string(),
                load.p99.to_string(),
                format!("{:.2}", load.mean),
                load.total_events.to_string(),
                load.total_bytes.to_string(),
                load.total_retries.to_string(),
                migrations.to_string(),
                splits.to_string(),
                merges.to_string(),
                format!("{:.6}", load.max_energy_j),
                format!("{:.6}", load.total_energy_j),
            ],
            heat,
        }
    }
}

/// Hot-spot relief under Zipf query skew (extension experiment; DESIGN.md
/// "Load balancing").
///
/// Sweeps the Zipf exponent s ∈ {0, 0.8, 1.2} against a ladder of relief
/// mechanisms: none, virtual nodes, then virtual nodes plus load-triggered
/// zone splits. Every cell returns exactly the flat-scan answers (relief
/// only grows candidate sets, Theorem 4.1) and the no-relief cell's result
/// sets; at s = 1.2 full relief must cut the max/median per-peer load
/// ratio by at least 2×. All three are asserted.
pub fn load(scale: Scale) -> Figure {
    let w = LoadWorkload::at(scale);
    let peers = w.build_peers(79);
    let pool = peers
        .iter()
        .flat_map(|ds| (0..ds.len().min(2)).map(|i| ds.row(i).to_vec()))
        .collect();
    let flat = FlatIndex::from_peers(&peers);
    let bench = LoadBench {
        w,
        peers,
        pool,
        flat,
    };
    let vnodes = LoadConfig::default().with_virtual_nodes(3).with_seed(7);
    let splits = vnodes.clone().with_splits(true).with_split_ratio(1.25);
    let ladder = [
        ("none", LoadConfig::default()),
        ("vnodes", vnodes),
        ("vnodes_splits", splits),
    ];
    let (mut rows, mut heat, mut headline) = (Vec::new(), Vec::new(), (0.0, 0.0));
    for s in [0.0, 0.8, 1.2] {
        // The no-relief cell's answers and ratio.
        let mut none: Option<(Answers, f64)> = None;
        for (relief, cfg) in ladder.clone() {
            let cell = bench.cell(s, relief, cfg, none.as_ref().map(|(r, _)| r.as_slice()));
            let (_, ratio_none) = none.get_or_insert((cell.results, cell.ratio));
            if s == 1.2 && relief == "vnodes_splits" {
                headline = (*ratio_none, cell.ratio);
            }
            rows.push(cell.row);
            heat.push(cell.heat);
        }
    }
    let (before, after) = headline;
    let improvement = before / after.max(1e-12);
    assert!(
        improvement >= 2.0,
        "load: full relief must cut the s=1.2 max/median ratio by >= 2x, got {improvement:.2}x \
         ({before:.3} -> {after:.3})"
    );
    let mut heat_headers = vec!["zipf s".to_string(), "relief".to_string()];
    for l in 0..4 {
        heat_headers.extend([format!("L{l} max"), format!("L{l} total")]);
    }
    Figure {
        heading: format!(
            "Load balancing under Zipf skew ({} peers x {} items, {}-d, 4 levels, {} measure queries from peers 0..{}, eps {}, scale {scale:?})",
            bench.w.peers,
            bench.w.items,
            LoadWorkload::DIM,
            bench.w.measure_queries,
            bench.w.entry_pool,
            LoadWorkload::EPS
        ),
        tables: vec![
            Table::new(
                "per-peer load over the measure phase (events = lookups served + flood relays + fetches answered)",
                &[
                    "zipf s",
                    "relief",
                    "recall",
                    "max/median",
                    "gini",
                    "max",
                    "median",
                    "p99",
                    "mean",
                    "events",
                    "bytes",
                    "retries",
                    "migrations",
                    "splits",
                    "merges",
                    "max energy (J)",
                    "total energy (J)",
                ],
                rows,
            ),
            Table {
                title: "zone heat per level (flood visits: hottest peer, total)".into(),
                headers: heat_headers,
                rows: heat,
            },
            Table::new(
                "s = 1.2 headline: max/median ratio",
                &["no relief", "full relief", "improvement"],
                vec![vec![
                    format!("{before:.3}"),
                    format!("{after:.3}"),
                    format!("{improvement:.3}"),
                ]],
            ),
        ],
        expected: "Expected shape: virtual nodes plus splits cut the max/median ratio and the\n\
                   Gini coefficient well below no relief at every skew; at s = 1.2 full relief\n\
                   at least halves max/median, with every answer unchanged (all asserted).",
    }
}

/// Scalability sweep (extension experiment; DESIGN.md).
///
/// The paper fixes N = 100 (dissemination) and N = 50 (retrieval); this
/// sweeps the network size with the per-device load held constant to
/// check that the headline properties are size-stable:
///
/// * insertion hops/item grow with each overlay's routing diameter
///   (plain CAN: `O(d·N^{1/d})`, dominated by the 1-d levels' `O(N)`;
///   CAN with fingers: `O(log N)` on those levels; BATON: `O(log N)`);
/// * range recall at full budget stays exactly 1.0 at every size and on
///   every substrate, plain CAN and CAN + fingers included
///   (no-false-dismissal is size-independent; asserted).
pub fn scalability(scale: Scale) -> Figure {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[25, 50, 100, 200],
        Scale::Full => &[25, 50, 100, 200, 400],
    };
    let per_peer = 24usize;
    let cfg = config(64, 6, 7);
    let tables = [
        ("Can", paper(64, 6, 7)),
        ("Can + fingers", cfg.clone()),
        ("Baton", cfg.clone().with_backend(OverlayBackend::Baton)),
        ("Vbi", cfg.with_backend(OverlayBackend::Vbi)),
    ]
    .iter()
    .map(|(substrate, cfg)| {
        let rows = sizes
            .iter()
            .map(|&n| {
                let corpus = generate_aloi_like(&AloiConfig {
                    classes: n, // one subject per peer keeps density constant
                    views_per_class: per_peer,
                    bins: 64,
                    view_jitter: 0.15,
                    seed: 5,
                });
                let peers: Vec<Dataset> = (0..n)
                    .map(|p| corpus.data.select(&(p * per_peer..(p + 1) * per_peer).collect::<Vec<_>>()))
                    .collect();
                let (eval, report) = Eval::build(&peers, cfg.clone());
                let range = eval.range(&eval.queries(10, 11), &[15], None);
                let recall = mean(&range.recalls);
                assert_eq!(
                    recall, 1.0,
                    "scalability: {substrate} at {n} peers, range recall {recall} (Theorem 4.1: 1.0)"
                );
                vec![
                    n.to_string(),
                    f3(report.avg_hops_per_item()),
                    report.makespan_rounds.to_string(),
                    f3(recall),
                    f1(range.msgs),
                ]
            })
            .collect();
        Table::new(
            format!("{substrate} substrate"),
            &[
                "peers",
                "insert hops/item",
                "makespan rounds",
                "range recall",
                "range msgs/q",
            ],
            rows,
        )
    })
    .collect();
    Figure {
        heading: format!(
            "Scalability sweep ({per_peer} items/peer, 64-d histograms, scale {scale:?})"
        ),
        tables,
        expected: "Expected shape: recall pinned at 1.000 at every size and substrate;\n\
                   per-item hops grow sub-linearly on BATON and on CAN + fingers (log N on\n\
                   the 1-d subspace overlays) and faster on plain CAN (O(N) there).",
    }
}

/// Energy and MANET-underlay analysis (the abstract's "energy and time
/// efficient" claim, quantified).
///
/// The paper measures overlay hops only; this expands each overlay message
/// across a unit-disk MANET underlay (average physical path length) and
/// applies the Bluetooth-class radio energy model, comparing Hyper-M, on
/// the paper's plain CAN and with fingers on its 1-d levels, against
/// per-item CAN dissemination. It also reports the parallel makespan, the
/// paper's implicit "time" axis.
pub fn energy_manet(scale: Scale) -> Figure {
    let w = DisseminationWorkload::at(scale);
    let peers = w.build_peers(81);
    let energy = EnergyModel::bluetooth_class2();
    let underlay = Underlay::random(UnderlayConfig {
        nodes: w.nodes,
        seed: 83,
        ..Default::default()
    });
    let stretch = underlay.mean_path_hops();
    let (_, hyperm) = build(&peers, paper(w.dim, 10, 85));
    let (_, fingers) = build(&peers, config(w.dim, 10, 85));
    // Fingers change routing costs, never what is published.
    assert_eq!(
        (hyperm.clusters_published, hyperm.replicas),
        (fingers.clusters_published, fingers.replicas),
        "energy_manet: fingers changed the published replicas"
    );
    let can_full = insert_all_items(&peers, &PerItemCanConfig::full_dim(w.nodes, w.dim, 85));

    let mut rows = Vec::new();
    let mut joules = Vec::new();
    for (name, stats, makespan) in [
        (
            "Hyper-M (4 levels)",
            hyperm.insertion,
            hyperm.makespan_rounds,
        ),
        (
            "Hyper-M (4 levels) + fingers",
            fingers.insertion,
            fingers.makespan_rounds,
        ),
        ("CAN 512-d per item", can_full.totals, can_full.totals.hops),
    ] {
        // Every overlay message crosses `stretch` physical links on average.
        let phys_msgs = (stats.messages as f64 * stretch).round() as u64;
        let phys = OpStats {
            hops: phys_msgs,
            messages: phys_msgs,
            bytes: (stats.bytes as f64 * stretch) as u64,
            ..OpStats::zero()
        };
        let j = energy.op_joules(phys);
        joules.push(j);
        rows.push(vec![
            name.into(),
            stats.messages.to_string(),
            f1(stats.bytes as f64 / 1024.0),
            phys_msgs.to_string(),
            f3(j),
            makespan.to_string(),
        ]);
    }
    Figure {
        heading: format!(
            "Energy / MANET analysis ({} nodes x {} items, {}-d, scale {scale:?})",
            w.nodes, w.items_per_node, w.dim
        ),
        tables: vec![
            Table::new(
                "dissemination cost",
                &[
                    "system",
                    "overlay msgs",
                    "KiB",
                    "radio msgs",
                    "energy (J)",
                    "makespan (rounds)",
                ],
                rows,
            ),
            Table::new(
                "underlay",
                &[
                    "devices",
                    "radio range (m)",
                    "mean physical path (hops)",
                    "energy ratio (CAN / Hyper-M)",
                    "energy ratio (CAN / Hyper-M + fingers)",
                ],
                vec![vec![
                    w.nodes.to_string(),
                    f1(underlay.config().radio_range),
                    format!("{stretch:.2}"),
                    format!("{:.1}x", joules[2] / joules[0].max(1e-12)),
                    format!("{:.1}x", joules[2] / joules[1].max(1e-12)),
                ]],
            ),
        ],
        expected: "Expected shape: Hyper-M an order of magnitude cheaper in messages, bytes\n\
                   and Joules, with a makespan bounded by the busiest peer's few cluster\n\
                   insertions rather than its thousand item insertions.",
    }
}
