//! `hyperm-demo` — command-line tour of the Hyper-M library.
//!
//! ```text
//! hyperm-demo disseminate [--nodes N] [--items M] [--dim D] [--levels L] [--clusters K] [--baton]
//! hyperm-demo query       [--nodes N] [--items M] [--kind range|knn|point] [--queries Q]
//! hyperm-demo energy      [--nodes N] [--items M]
//! hyperm-demo help
//! ```
//!
//! Every subcommand builds a deterministic synthetic workload, so outputs
//! are reproducible; all knobs are optional.

use hyperm::baseline::{insert_all_items, PerItemCanConfig};
use hyperm::datagen::{generate_aloi_like, AloiConfig};
use hyperm::{
    Dataset, EnergyModel, EvalHarness, HypermConfig, HypermNetwork, KnnOptions, OverlayBackend,
};
use std::process::ExitCode;

mod cli;
use cli::{get, Flags};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "help".into());
    let opts = cli::parse_flags(args.collect());
    let run = match cmd.as_str() {
        "disseminate" => disseminate,
        "query" => query,
        "energy" => energy,
        "help" => {
            help();
            return ExitCode::SUCCESS;
        }
        other => {
            help();
            eprintln!("hyperm-demo: unknown subcommand {other:?}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hyperm-demo: {e}");
            ExitCode::from(2)
        }
    }
}

/// The demo network, or a message for a bad flag value or a failed
/// build.
fn build_network(
    opts: &Flags,
) -> Result<(HypermNetwork, hyperm::BuildReport, Vec<Dataset>), String> {
    let nodes: usize = get(opts, "nodes", 30, 1..)?;
    let items: usize = get(opts, "items", 60, 1..)?;
    let levels: usize = get(opts, "levels", 4, ..)?;
    let clusters: usize = get(opts, "clusters", 8, ..)?;
    let backend = if opts.contains_key("baton") {
        OverlayBackend::Baton
    } else {
        OverlayBackend::Can
    };

    // Histogram-style corpus dealt evenly onto nodes.
    let corpus = generate_aloi_like(&AloiConfig {
        classes: nodes,
        views_per_class: items,
        bins: 64,
        view_jitter: 0.15,
        seed: 1,
    });
    let peers: Vec<Dataset> = (0..nodes)
        .map(|p| {
            corpus
                .data
                .select(&(p * items..(p + 1) * items).collect::<Vec<_>>())
        })
        .collect();
    let cfg = HypermConfig::new(64)
        .with_levels(levels)
        .with_clusters_per_peer(clusters)
        .with_seed(7)
        .with_backend(backend);
    let (net, report) =
        HypermNetwork::build(peers.clone(), cfg).map_err(|e| format!("build failed: {e}"))?;
    Ok((net, report, peers))
}

fn disseminate(opts: &Flags) -> Result<(), String> {
    let (net, report, _) = build_network(opts)?;
    println!("Hyper-M network built");
    println!("  peers:              {}", net.len());
    println!("  levels (overlays):  {}", net.levels());
    println!("  items summarised:   {}", report.items_total);
    println!("  clusters published: {}", report.clusters_published);
    println!("  replicas stored:    {}", report.replicas);
    println!(
        "  insertion hops:     {} ({:.3}/item)",
        report.insertion.hops,
        report.avg_hops_per_item()
    );
    println!(
        "  bytes on air:       {:.1} KiB",
        report.insertion.bytes as f64 / 1024.0
    );
    println!("  parallel makespan:  {} rounds", report.makespan_rounds);
    println!("  overlay bootstrap:  {} hops", report.bootstrap.hops);
    Ok(())
}

fn query(opts: &Flags) -> Result<(), String> {
    let kind: String = get(opts, "kind", "range".to_string(), ..)?;
    let queries: usize = get(opts, "queries", 10, 1..)?;
    let k: usize = get(opts, "k", 10, 1..)?;
    let (net, _, _) = build_network(opts)?;
    let harness = EvalHarness::new(&net);
    let probes = harness.sample_queries(&net, queries, 3);
    match kind.as_str() {
        "range" => {
            let mut recall = 0.0;
            let mut msgs = 0u64;
            for q in &probes {
                let eps = harness.kth_distance(q, 20);
                let (pr, stats) = harness.eval_range(&net, 0, q, eps, None);
                recall += pr.recall;
                msgs += stats.messages;
            }
            println!("{queries} range queries (radius = 20-NN distance):");
            println!(
                "  mean recall:   {:.3} (precision always 1.0)",
                recall / queries as f64
            );
            println!("  msgs/query:    {:.1}", msgs as f64 / queries as f64);
        }
        "knn" => {
            let mut p = 0.0;
            let mut r = 0.0;
            let mut msgs = 0u64;
            for q in &probes {
                let e = harness.eval_knn(&net, 0, q, k, KnnOptions::default());
                p += e.retrieved.precision;
                r += e.retrieved.recall;
                msgs += e.stats.messages;
            }
            println!("{queries} k-nn queries (k = {k}):");
            println!(
                "  precision: {:.3}  recall: {:.3}",
                p / queries as f64,
                r / queries as f64
            );
            println!("  msgs/query: {:.1}", msgs as f64 / queries as f64);
        }
        "point" => {
            let mut found = 0usize;
            for q in &probes {
                if !net.point_query(0, q).matches.is_empty() {
                    found += 1;
                }
            }
            println!("{queries} point queries at held-in items: {found} exact hits");
        }
        other => {
            return Err(format!(
                "unknown query kind {other:?} (use range|knn|point)"
            ))
        }
    }
    Ok(())
}

fn energy(opts: &Flags) -> Result<(), String> {
    let (_, report, peers) = build_network(opts)?;
    let nodes = peers.len();
    let baseline = insert_all_items(&peers, &PerItemCanConfig::full_dim(nodes, 64, 7));
    let model = EnergyModel::bluetooth_class2();
    println!("dissemination energy (Bluetooth-class radio, overlay hops only):");
    // Per-item CAN inserts one item after another, so its makespan is
    // its total hop count (as in the energy_manet figure).
    println!(
        "  Hyper-M:      {:>9.3} J  ({} msgs, {:.0} KiB, makespan {} rounds)",
        model.op_joules(report.insertion),
        report.insertion.messages,
        report.insertion.bytes as f64 / 1024.0,
        report.makespan_rounds
    );
    println!(
        "  per-item CAN: {:>9.3} J  ({} msgs, {:.0} KiB, makespan {} rounds)",
        model.op_joules(baseline.totals),
        baseline.totals.messages,
        baseline.totals.bytes as f64 / 1024.0,
        baseline.totals.hops
    );
    println!(
        "  savings:      {:.1}x",
        model.op_joules(baseline.totals) / model.op_joules(report.insertion).max(1e-12)
    );
    Ok(())
}

fn help() {
    println!(
        "hyperm-demo — command-line tour of the Hyper-M library\n\n\
         USAGE:\n  hyperm-demo disseminate [--nodes N] [--items M] [--levels L] [--clusters K] [--baton]\n  \
         hyperm-demo query [--kind range|knn|point] [--queries Q] [--k K] [--nodes N] [--items M]\n  \
         hyperm-demo energy [--nodes N] [--items M]\n\n\
         All workloads are deterministic synthetic histogram corpora; see the\n\
         examples/ directory for library-level walkthroughs."
    );
}
