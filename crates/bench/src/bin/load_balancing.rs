//! Load-balancing benchmark: hot-spot relief under Zipf query skew.
//!
//! Sweeps Zipf skew s ∈ {0, 0.8, 1.2} against four relief ladders —
//! no relief, virtual nodes, + load-triggered splits, + the
//! popular-summary cache — and emits `BENCH_load.json` with the
//! [`hyperm_load::LoadSnapshot`] of each cell (max/median per-peer load,
//! Gini coefficient, per-level zone heat, radio-energy estimate).
//!
//! Protocol per cell: build a fresh network (identical seed), install the
//! cell's [`LoadConfig`], run an *adaptation* phase (query batches with a
//! [`LoadBalancer::relieve`] round after each batch, letting the relief
//! mechanisms react to the skew), reset the ledger, then run a *measure*
//! phase over a fresh identically-seeded workload with no further relief —
//! so the snapshot reports steady-state load on the adapted structure.
//!
//! Two invariants are asserted on every cell, not just reported:
//!
//! * **recall 1.0** — every cell returns exactly the flat-scan truth for
//!   every measured query (relief never causes a false dismissal,
//!   Theorem 4.1: candidate sets only grow);
//! * **set-identity** — every cell's result items match the no-relief
//!   cell's on the full measure workload (the cached path replays what
//!   the cold path computes).
//!
//! The headline claim is self-asserted at s = 1.2: full relief must cut
//! the max/median load ratio by ≥ 2× versus no relief.

use hyperm_baseline::FlatIndex;
use hyperm_bench::Scale;
use hyperm_cluster::Dataset;
use hyperm_core::{HypermConfig, HypermNetwork};
use hyperm_datagen::ZipfWorkload;
use hyperm_load::{LoadBalancer, LoadConfig, LoadSnapshot};
use hyperm_telemetry::JsonObj;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Workload {
    peers: usize,
    items: usize,
    dim: usize,
    levels: usize,
    adapt_batches: usize,
    adapt_batch: usize,
    measure_queries: usize,
    entry_pool: usize,
    eps: f64,
}

impl Workload {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self {
                peers: 60,
                items: 40,
                dim: 16,
                levels: 4,
                adapt_batches: 8,
                adapt_batch: 60,
                measure_queries: 240,
                entry_pool: 8,
                eps: 0.2,
            },
            Scale::Full => Self {
                peers: 120,
                items: 60,
                dim: 16,
                levels: 4,
                adapt_batches: 10,
                adapt_batch: 80,
                measure_queries: 480,
                entry_pool: 12,
                eps: 0.2,
            },
        }
    }
}

fn build_peers(w: &Workload, seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..w.peers)
        .map(|_| {
            let centre: f64 = rng.gen::<f64>() * 0.6;
            let mut ds = Dataset::new(w.dim);
            let mut row = vec![0.0; w.dim];
            for _ in 0..w.items {
                for x in row.iter_mut() {
                    *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect()
}

fn build_net(peers: &[Dataset], w: &Workload) -> HypermNetwork {
    let cfg = HypermConfig::new(w.dim)
        .with_levels(w.levels)
        .with_clusters_per_peer(5)
        .with_seed(83);
    let (net, _) = HypermNetwork::build(peers.to_vec(), cfg).expect("network build");
    net
}

/// The query pool the Zipf ranks draw from: a couple of rows per peer, so
/// the rank-0 centre pins the hot spot onto one peer's cluster.
fn query_pool(peers: &[Dataset]) -> Vec<Vec<f64>> {
    peers
        .iter()
        .flat_map(|ds| (0..ds.len().min(2)).map(|i| ds.row(i).to_vec()))
        .collect()
}

struct Cell {
    name: &'static str,
    s: f64,
    snapshot: LoadSnapshot,
    migrations: u64,
    splits: u64,
    merges: u64,
    cache_hits: u64,
    cache_misses: u64,
    recall: f64,
    measure_s: f64,
}

/// Run one (skew, relief ladder) cell; `truth` is the no-relief cell's
/// result sets on the same measure workload, asserted identical here.
#[expect(
    clippy::too_many_arguments,
    reason = "one relief cell is a whole experiment configuration; a struct would be built once and unpacked here"
)]
fn run_cell(
    name: &'static str,
    s: f64,
    cfg: LoadConfig,
    w: &Workload,
    peers: &[Dataset],
    pool: &[Vec<f64>],
    flat: &FlatIndex,
    truth: Option<&[Vec<(usize, usize)>]>,
) -> (Cell, Vec<Vec<(usize, usize)>>) {
    let mut net = build_net(peers, w);
    let mut balancer = LoadBalancer::install(&mut net, cfg);
    let mut entries = StdRng::seed_from_u64(89);
    let entry_of = |rng: &mut StdRng| rng.gen_range(0..w.entry_pool.min(w.peers));

    // Adaptation: let the relief mechanisms react to the skew.
    let mut migrations = 0u64;
    let mut splits = 0u64;
    let mut merges = 0u64;
    let mut zipf = ZipfWorkload::from_pool(pool.to_vec(), s, 97);
    for _ in 0..w.adapt_batches {
        for _ in 0..w.adapt_batch {
            let q = zipf.next_center();
            let entry = entry_of(&mut entries);
            net.range_query(entry, &q, w.eps, None);
        }
        let report = balancer.relieve(&mut net);
        migrations += report.migrations;
        splits += report.splits;
        merges += report.merges;
        for l in 0..net.levels() {
            net.overlay(l).check_invariants();
        }
    }

    // Measure: identical fresh workload on the adapted structure, no
    // further relief, ledger cleared of the adaptation-phase charges.
    balancer.ledger().reset();
    let mut zipf = ZipfWorkload::from_pool(pool.to_vec(), s, 97);
    let mut entries = StdRng::seed_from_u64(89);
    let mut results: Vec<Vec<(usize, usize)>> = Vec::with_capacity(w.measure_queries);
    let mut recall_sum = 0.0;
    let mut graded = 0usize;
    let t = Instant::now();
    for _ in 0..w.measure_queries {
        let q = zipf.next_center();
        let entry = entry_of(&mut entries);
        let res = net.range_query(entry, &q, w.eps, None);
        let mut items = res.items.clone();
        items.sort_unstable();
        let truth_items = flat.range(&q, w.eps);
        if !truth_items.is_empty() {
            let got: std::collections::HashSet<_> = items.iter().copied().collect();
            recall_sum += truth_items.iter().filter(|t| got.contains(t)).count() as f64
                / truth_items.len() as f64;
            graded += 1;
        }
        results.push(items);
    }
    let measure_s = t.elapsed().as_secs_f64();
    let recall = if graded == 0 {
        1.0
    } else {
        recall_sum / graded as f64
    };
    assert!(
        (recall - 1.0).abs() < 1e-12,
        "{name} s={s}: relief caused false dismissals (recall {recall})"
    );
    if let Some(truth) = truth {
        for (i, (a, b)) in truth.iter().zip(&results).enumerate() {
            assert_eq!(
                a, b,
                "{name} s={s}: query {i} diverged from the no-relief result set"
            );
        }
    }

    let snapshot = balancer.snapshot(&net);
    let (cache_hits, cache_misses) = balancer
        .cache()
        .map(|c| (c.hits(), c.misses()))
        .unwrap_or((0, 0));
    (
        Cell {
            name,
            s,
            snapshot,
            migrations,
            splits,
            merges,
            cache_hits,
            cache_misses,
            recall,
            measure_s,
        },
        results,
    )
}

fn ladder() -> Vec<(&'static str, LoadConfig)> {
    vec![
        ("none", LoadConfig::default()),
        (
            "vnodes",
            LoadConfig::default().with_virtual_nodes(3).with_seed(7),
        ),
        (
            "vnodes_splits",
            LoadConfig::default()
                .with_virtual_nodes(3)
                .with_splits(true)
                .with_split_ratio(1.25)
                .with_seed(7),
        ),
        (
            "vnodes_splits_cache",
            LoadConfig::default()
                .with_virtual_nodes(3)
                .with_splits(true)
                .with_split_ratio(1.25)
                .with_cache(true)
                .with_seed(7),
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let w = Workload::at(scale);
    println!(
        "load balancing — {} peers x {} items, {}-d, {} levels, {} measure queries ({scale:?})",
        w.peers, w.items, w.dim, w.levels, w.measure_queries
    );

    let peers = build_peers(&w, 79);
    let pool = query_pool(&peers);
    let flat = FlatIndex::from_peers(&peers);

    let mut cells: Vec<Cell> = Vec::new();
    let mut headline: Option<(f64, f64)> = None;
    for &s in &[0.0, 0.8, 1.2] {
        let mut baseline: Option<Vec<Vec<(usize, usize)>>> = None;
        let mut ratio_none = 0.0;
        for (name, cfg) in ladder() {
            let (cell, results) =
                run_cell(name, s, cfg, &w, &peers, &pool, &flat, baseline.as_deref());
            println!(
                "s={s:>3} {name:<20} max/median {:7.3}  gini {:.4}  max {:>6}  \
                 mig {} splits {} merges {}  cache {}/{}  ({:.2}s)",
                cell.snapshot.max_median_ratio,
                cell.snapshot.gini,
                cell.snapshot.max,
                cell.migrations,
                cell.splits,
                cell.merges,
                cell.cache_hits,
                cell.cache_hits + cell.cache_misses,
                cell.measure_s,
            );
            if name == "none" {
                ratio_none = cell.snapshot.max_median_ratio;
                baseline = Some(results);
            }
            if s == 1.2 && name == "vnodes_splits_cache" {
                headline = Some((ratio_none, cell.snapshot.max_median_ratio));
            }
            cells.push(cell);
        }
    }

    // Headline self-assertion: at the paper-grade skew, full relief must
    // at least halve the max/median load ratio.
    let (before, after) = headline.expect("s=1.2 full-relief cell ran");
    let improvement = before / after.max(1e-12);
    println!("s=1.2 max/median: {before:.3} -> {after:.3} ({improvement:.2}x improvement)");
    assert!(
        improvement >= 2.0,
        "full relief must cut the s=1.2 max/median ratio by >= 2x, got {improvement:.2}x \
         ({before:.3} -> {after:.3})"
    );

    let cell_objs: Vec<String> = cells
        .iter()
        .map(|c| {
            JsonObj::new()
                .s("relief", c.name)
                .g("zipf_s", c.s)
                .u("migrations", c.migrations)
                .u("splits", c.splits)
                .u("merges", c.merges)
                .u("cache_hits", c.cache_hits)
                .u("cache_misses", c.cache_misses)
                .f("recall", c.recall, 6)
                .f("measure_s", c.measure_s, 4)
                .obj("load", c.snapshot.to_json_obj())
                .render()
        })
        .collect();
    let json = JsonObj::new()
        .obj(
            "workload",
            JsonObj::new()
                .u("peers", w.peers as u64)
                .u("items_per_peer", w.items as u64)
                .u("dim", w.dim as u64)
                .u("levels", w.levels as u64)
                .u("measure_queries", w.measure_queries as u64)
                .u("entry_pool", w.entry_pool as u64)
                .g("eps", w.eps),
        )
        .f("s12_ratio_no_relief", before, 3)
        .f("s12_ratio_full_relief", after, 3)
        .f("s12_improvement", improvement, 3)
        .arr("cells", &cell_objs)
        .render_pretty();
    std::fs::write("BENCH_load.json", &json).expect("write BENCH_load.json");
    println!("wrote BENCH_load.json");
}
