//! `hyperm-node` — a Hyper-M node daemon speaking length-prefixed frames
//! over TCP.
//!
//! ```text
//! hyperm-node head   --listen ADDR [--peers N] [--items M] [--dim D]
//!                    [--levels L] [--clusters K] [--seed S] [--trace PATH]
//! hyperm-node member --listen ADDR --head ADDR --id I [--items M] [--dim D]
//!                    [--seed S] [--trace PATH]
//! hyperm-node help
//! ```
//!
//! A **head** node builds a [`HypermNetwork`] from `--peers` deterministic
//! synthetic collections and serves the full protocol (put/get/query/
//! join/route/publish/fetch/monitor/shutdown). A **member** node
//! generates its own collection, joins the head's overlay with a `Join`
//! frame (becoming a real overlay peer), then serves as a relay: clients
//! may point `hyperm-client` at either node. Transport ids: the head is
//! peer 0 by convention; members pick a unique `--id` ≥ 1.
//!
//! All workloads are seeded, so a restarted cluster is bit-identical.
//!
//! `--trace PATH` turns on telemetry and streams the node's event log as
//! JSONL to `PATH`. The node runtime and the overlay network share one
//! recorder, so transport serve spans and overlay query spans land in a
//! single stream with one span-id space — `trace_query --stitch` can
//! merge the per-node files into one cross-process route tree.

use hyperm::datagen::{generate_aloi_like, AloiConfig};
use hyperm::telemetry::Recorder;
use hyperm::transport::{NodeRuntime, Role, TcpEndpoint};
use hyperm::{Dataset, HypermConfig, HypermNetwork};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "help".into());
    let opts = parse_flags(args.collect());
    match cmd.as_str() {
        "head" => head(&opts),
        "member" => member(&opts),
        _ => {
            help();
            ExitCode::SUCCESS
        }
    }
}

fn parse_flags(raw: Vec<String>) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut it = raw.into_iter().peekable();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            eprintln!("ignoring stray argument {flag:?}");
            continue;
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
            _ => "true".into(),
        };
        opts.insert(name.to_string(), value);
    }
    opts
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    opts.get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The node's recorder: JSONL-backed when `--trace PATH` is given,
/// otherwise the free disabled default.
fn recorder(opts: &HashMap<String, String>) -> Option<Recorder> {
    match opts.get("trace") {
        Some(path) => match Recorder::jsonl(path) {
            Ok(rec) => {
                println!("hyperm-node: tracing to {path}");
                Some(rec)
            }
            Err(e) => {
                eprintln!("hyperm-node: cannot open trace file {path}: {e}");
                None
            }
        },
        None => Some(Recorder::disabled()),
    }
}

/// A peer collection: `items` rows of the deterministic histogram-style
/// corpus, disjoint per (seed, slot) so every node brings distinct data.
fn collection(slot: usize, items: usize, dim: usize, seed: u64) -> Dataset {
    let corpus = generate_aloi_like(&AloiConfig {
        classes: 1,
        views_per_class: items,
        bins: dim,
        view_jitter: 0.15,
        seed: seed.wrapping_add(slot as u64),
    });
    corpus.data
}

fn head(opts: &HashMap<String, String>) -> ExitCode {
    let listen = opts
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7401".into());
    let peers: usize = get(opts, "peers", 3);
    let items: usize = get(opts, "items", 40);
    let dim: usize = get(opts, "dim", 16);
    let levels: usize = get(opts, "levels", 3);
    let clusters: usize = get(opts, "clusters", 4);
    let seed: u64 = get(opts, "seed", 7);
    let Some(rec) = recorder(opts) else {
        return ExitCode::FAILURE;
    };

    let data: Vec<Dataset> = (0..peers)
        .map(|p| collection(p, items, dim, seed))
        .collect();
    let cfg = HypermConfig::new(dim)
        .with_levels(levels)
        .with_clusters_per_peer(clusters)
        .with_seed(seed);
    let (net, report) = match HypermNetwork::build_traced(data, cfg, rec.clone()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("hyperm-node: build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let endpoint = match TcpEndpoint::bind(0, &listen) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("hyperm-node: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "hyperm-node head: {} peers, {} levels, {} clusters published, listening on {}",
        net.len(),
        net.levels(),
        report.clusters_published,
        endpoint.local_addr()
    );
    let mut runtime =
        NodeRuntime::new(endpoint, Role::Head(Box::new(net))).with_recorder(rec.clone());
    if let Err(e) = runtime.serve_until_shutdown() {
        eprintln!("hyperm-node: serve loop failed: {e}");
        return ExitCode::FAILURE;
    }
    rec.flush();
    println!("hyperm-node head: shut down cleanly");
    ExitCode::SUCCESS
}

fn member(opts: &HashMap<String, String>) -> ExitCode {
    let listen = opts
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let Some(head_addr) = opts.get("head") else {
        eprintln!("hyperm-node member: --head ADDR is required");
        return ExitCode::FAILURE;
    };
    let id: u64 = get(opts, "id", 1);
    let items: usize = get(opts, "items", 40);
    let dim: usize = get(opts, "dim", 16);
    let seed: u64 = get(opts, "seed", 7);
    if id == 0 {
        eprintln!("hyperm-node member: --id must be ≥ 1 (0 is the head)");
        return ExitCode::FAILURE;
    }
    let Some(rec) = recorder(opts) else {
        return ExitCode::FAILURE;
    };

    let endpoint = match TcpEndpoint::bind(id, &listen) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("hyperm-node: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let head_sock = match head_addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hyperm-node: bad --head address {head_addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = endpoint.connect(0, head_sock) {
        eprintln!("hyperm-node: cannot reach head at {head_addr}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "hyperm-node member {id}: listening on {}, head at {head_addr}",
        endpoint.local_addr()
    );

    // Join with our own collection: slot 1000+id keeps member data
    // disjoint from the head's initial peers.
    let data = collection(1000 + id as usize, items, dim, seed);
    let mut runtime = NodeRuntime::new(
        endpoint,
        Role::Member {
            head: 0,
            peer: None,
        },
    )
    .with_recorder(rec.clone());
    match runtime.join_network(&data, Duration::from_secs(30)) {
        Ok(peer) => println!("hyperm-node member {id}: joined as overlay peer {peer}"),
        Err(e) => {
            eprintln!("hyperm-node member {id}: join failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = runtime.serve_until_shutdown() {
        eprintln!("hyperm-node: serve loop failed: {e}");
        return ExitCode::FAILURE;
    }
    rec.flush();
    println!("hyperm-node member {id}: shut down cleanly");
    ExitCode::SUCCESS
}

fn help() {
    println!(
        "hyperm-node — Hyper-M node daemon (TCP, length-prefixed frames)

USAGE:
  hyperm-node head   --listen ADDR [--peers N] [--items M] [--dim D] \\
                     [--levels L] [--clusters K] [--seed S] [--trace PATH]
  hyperm-node member --listen ADDR --head ADDR --id I [--items M] [--dim D] \\
                     [--seed S] [--trace PATH]

The head owns the overlay network; members join it over the wire and
relay client requests. `--trace PATH` streams the node's telemetry as
JSONL to PATH (transport + overlay share one recorder). Stop any node
with `hyperm-client --node ADDR shutdown`."
    );
}
