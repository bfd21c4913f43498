//! `publish_paper`: disseminate the Sec. 5.1 corpus. One operation is one
//! item disseminated; the measured call is `HypermNetwork::build`.

use crate::setup::{self, Query, Run, EPS_NARROW};
use crate::stats::{median, percentile, tail_percentile, Digest};
use crate::trace::{totals, Tracer};
use crate::Outcome;
use hyperm_can::ObjectRef;
use hyperm_cluster::kmeans::kmeans;
use hyperm_cluster::{spheres_from_clustering, ClusterSphere, Dataset, KMeansConfig, KdTree};
use hyperm_core::{BuildReport, HypermConfig, HypermNetwork, Overlay, OverlayBackend, Peer};
use hyperm_sim::{NodeId, OpStats};
use hyperm_wavelet::decompose;
use std::time::{Duration, Instant};

/// Timed builds a run makes at least, however short `--seconds` is.
const MIN_BUILDS: usize = 5;

fn digest_report(r: &BuildReport) -> u64 {
    let mut d = Digest::default();
    for w in [
        r.insertion.hops,
        r.insertion.messages,
        r.insertion.bytes,
        r.bootstrap.hops,
        r.clusters_published,
        r.replicas,
        r.items_total,
        r.makespan_hops,
        r.makespan_rounds,
    ] {
        d.word(w);
    }
    d.value()
}

pub fn run(run: &Run) -> Outcome {
    let corpus = run.corpus();
    let config = run.config();
    let items = corpus.items as u64;

    let build = || {
        let data = corpus.peers.clone();
        let t = Instant::now();
        let (net, report) =
            HypermNetwork::build(data, config.clone()).expect("corpus is well-formed");
        let wall = t.elapsed().as_secs_f64();
        drop(net);
        (report, wall)
    };
    // Warm-up: the first build pays for faulting in the allocator's pages.
    let (first, _) = build();
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut walls = Vec::new();
    let mut differing = 0u64;
    while walls.len() < MIN_BUILDS || Instant::now() < deadline {
        let (report, wall) = build();
        differing += u64::from(report != first);
        walls.push(wall);
    }

    let builds = walls.len() as u64;
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let tail = tail_percentile(walls.len());
    let mut out = Outcome::new(builds * items, differing * items);
    out.digest = digest_report(&first);
    out.notes.push(format!(
        "{builds} timed builds of {items} items; wall {:.4}..{:.4} s; tail is p{tail}",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    ));
    out.set("setup_s", corpus.markov_s + corpus.distribute_s);
    out.set("throughput_ops_s", items as f64 / median(&walls));
    out.set("latency_p50_ms", median(&walls_ms));
    out.set("latency_tail_ms", percentile(&walls_ms, tail));
    // 1.0 iff every build reported the same clusters, replicas and hops.
    out.set("recall", if differing == 0 { 1.0 } else { 0.0 });
    out.set_costs(first.insertion, items);
    out
}

/// `Peer::summarize` taken apart: the same public calls in the same
/// order, one span each. The k-means seed is the library's derivation;
/// if that changes, the comparison with the composed call fails and this
/// has to follow.
fn replay_summarize(
    id: usize,
    items: &Dataset,
    config: &HypermConfig,
    tr: &mut Tracer,
    iterations: &mut u64,
) -> Vec<Vec<ClusterSphere>> {
    let root = tr.begin("bench", "replay");
    let subspaces = config.subspaces();
    let mut views: Vec<Dataset> = subspaces
        .iter()
        .map(|s| Dataset::with_capacity(s.dim(), items.len()))
        .collect();
    // One span per item: each decomposition is dropped before the next is
    // made, as in the composed call, so the allocator behaves the same.
    for row in items.rows() {
        let s = tr.begin("wavelet", "decompose");
        let dec = decompose(row, config.normalization).expect("power-of-two dim");
        tr.end(s);
        for (view, &sub) in views.iter_mut().zip(&subspaces) {
            view.push_row(dec.subspace(sub).expect("subspace exists"));
        }
    }
    let summaries = views
        .iter()
        .enumerate()
        .map(|(l, view)| {
            let cfg = KMeansConfig {
                k: config.clusters_per_peer,
                max_iter: config.kmeans_max_iter,
                tol: 1e-9,
                init: Default::default(),
                seed: config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((id as u64) << 20)
                    .wrapping_add(l as u64),
            };
            let s = tr.begin("cluster", "kmeans");
            let result = kmeans(view, &cfg);
            tr.end(s);
            *iterations += result.iterations as u64;
            let s = tr.begin("cluster", "spheres");
            let spheres = spheres_from_clustering(view, &result);
            tr.end(s);
            spheres
        })
        .collect();
    let s = tr.begin("cluster", "kdtree_build");
    std::hint::black_box(KdTree::build(items));
    tr.end(s);
    tr.end(root);
    summaries
}

/// What publishing every sphere of `net` into fresh overlays cost.
#[derive(Debug, Default, PartialEq)]
struct Published {
    insertion: OpStats,
    bootstrap: OpStats,
    clusters: u64,
    replicas: u64,
}

/// The publication loop of `HypermNetwork::build` on overlays of
/// `backend`, spans under `layer`; returns the overlays for querying.
fn replay_publish(
    net: &HypermNetwork,
    backend: OverlayBackend,
    layer: &'static str,
    tr: &mut Tracer,
) -> (Vec<Overlay>, Published) {
    let config = &net.config;
    let mut done = Published::default();
    let mut overlays: Vec<Overlay> = (0..net.levels())
        .map(|l| {
            let s = tr.begin(layer, "bootstrap");
            let overlay = Overlay::bootstrap(
                backend,
                config.can_dim(net.subspace(l)),
                config.seed.wrapping_add(l as u64 + 1),
                net.len(),
            );
            tr.end(s);
            done.bootstrap += overlay.bootstrap_stats();
            overlay
        })
        .collect();
    for peer in net.peers() {
        for (l, summary) in peer.summaries.iter().enumerate() {
            for (c, sphere) in summary.iter().enumerate() {
                let (key, slack) = net.keymap(l).to_key_slack(&sphere.centroid);
                let key_radius = net.keymap(l).to_key_radius(sphere.radius) + slack;
                let payload = ObjectRef {
                    peer: peer.id,
                    tag: c as u64,
                    items: sphere.items as u32,
                };
                let s = tr.begin(layer, "insert_sphere");
                let out = overlays[l].insert_sphere(
                    NodeId(peer.id),
                    key,
                    key_radius,
                    payload,
                    config.replicate,
                );
                tr.end(s);
                done.insertion += out.stats;
                done.clusters += 1;
                done.replicas += out.replicas as u64;
            }
        }
    }
    (overlays, done)
}

/// Phase-1 lookups of `qs` on standalone overlays, spans under `layer`.
fn replay_lookups(
    net: &HypermNetwork,
    overlays: &[Overlay],
    qs: &[Query],
    layer: &'static str,
    tr: &mut Tracer,
) {
    for q in qs {
        let dec = net.decompose_query(&q.centre);
        for (l, overlay) in overlays.iter().enumerate() {
            let (key, slack) = net.query_key_with_slack(&dec, l);
            let key_eps = net.query_key_radius(EPS_NARROW, l) + slack;
            let s = tr.begin(layer, "range_query");
            std::hint::black_box(overlay.range_query(NodeId(q.entry), &key, key_eps));
            tr.end(s);
        }
    }
}

/// Narrow lookups replayed on the BATON and VBI overlays (guard rows).
const GUARD_LOOKUPS: usize = 200;

/// The other two backends: `(backend, layer, insert metric, lookup metric)`.
const GUARDS: [(OverlayBackend, &str, &str, &str); 2] = [
    (
        OverlayBackend::Baton,
        "baton",
        "baton.insert_sphere_us_per_call",
        "baton.range_query_us_per_call",
    ),
    (
        OverlayBackend::Vbi,
        "vbi",
        "vbi.insert_sphere_us_per_call",
        "vbi.range_query_us_per_call",
    ),
];

/// Traced run. One pass over the corpus whatever `--seconds` says: the
/// replay only equals the composed build if it covers every peer.
pub fn run_traced(run: &Run, tr: &mut Tracer) -> Outcome {
    let corpus = run.corpus();
    let config = run.config();
    let (net, report, build_s) = setup::build_median(&corpus.peers, &config);

    let mut disagreements = 0u64;
    let mut iterations = 0u64;
    for (id, items) in corpus.peers.iter().enumerate() {
        tr.set_op(id as u64);
        let data = items.clone();
        let s = tr.begin("core", "summarize");
        let peer = Peer::summarize(id, data, &config);
        tr.end(s);
        let replayed = replay_summarize(id, items, &config, tr, &mut iterations);
        if replayed != peer.summaries || replayed != net.peer(id).summaries {
            disagreements += 1;
        }
    }
    tr.set_op(corpus.peers.len() as u64);
    let (_, can) = replay_publish(&net, OverlayBackend::Can, "can", tr);
    let composed = Published {
        insertion: report.insertion,
        bootstrap: report.bootstrap,
        clusters: report.clusters_published,
        replicas: report.replicas,
    };
    disagreements += u64::from(can != composed);

    // Guard rows: the same spheres and lookups on the other two backends.
    let qs = setup::queries(&corpus.peers, GUARD_LOOKUPS, run.seed);
    for (backend, layer, ..) in GUARDS {
        let (overlays, _) = replay_publish(&net, backend, layer, tr);
        replay_lookups(&net, &overlays, &qs, layer, tr);
    }

    let tot = totals(tr.spans());
    let get = |layer, name| tot.get(layer, name);
    let peers = corpus.peers.len() as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = Outcome::new(corpus.items as u64, disagreements);
    out.digest = digest_report(&report);
    out.set(
        "wavelet.decompose_us_per_item",
        get("wavelet", "decompose").ns_per_count() / 1e3,
    );
    let km = get("cluster", "kmeans");
    out.set("cluster.kmeans_ms_per_peer", ms(km.dur_ns) / peers);
    out.set(
        "cluster.kmeans_iters_per_call",
        iterations as f64 / km.spans as f64,
    );
    out.set(
        "cluster.spheres_us_per_peer",
        get("cluster", "spheres").dur_ns as f64 / 1e3 / peers,
    );
    out.set(
        "cluster.kdtree_build_ms_per_peer",
        ms(get("cluster", "kdtree_build").dur_ns) / peers,
    );
    out.set(
        "can.bootstrap_ms_per_level",
        get("can", "bootstrap").ns_per_span() / 1e6,
    );
    out.set(
        "can.insert_sphere_us_per_call",
        get("can", "insert_sphere").ns_per_span() / 1e3,
    );
    out.set(
        "can.replicas_per_sphere",
        can.replicas as f64 / can.clusters as f64,
    );
    out.set(
        "can.insert_hops_per_sphere",
        can.insertion.hops as f64 / can.clusters as f64,
    );
    for (_, layer, insert, range) in GUARDS {
        out.set(insert, get(layer, "insert_sphere").ns_per_span() / 1e3);
        out.set(range, get(layer, "range_query").ns_per_span() / 1e3);
    }
    let summarize = get("core", "summarize");
    out.set("core.summarize_ms_per_peer", ms(summarize.dur_ns) / peers);
    out.set("core.build_ms", build_s * 1e3);
    // `build` deals peers over all cores for summarisation (serially below
    // 2 000 items); the replay is serial, so its share of the build wall
    // is taken as serial ÷ cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if corpus.items < 2_000 {
        1
    } else {
        cores.min(corpus.peers.len())
    };
    let attributed_ms = ms(summarize.dur_ns) / threads as f64
        + ms(get("can", "bootstrap").dur_ns)
        + ms(get("can", "insert_sphere").dur_ns);
    out.set("core.build_unattributed_ms", build_s * 1e3 - attributed_ms);
    out.set("sim.makespan_rounds", report.makespan_rounds as f64);
    corpus.report_datagen(&mut out);
    out.notes.push(format!(
        "summarise self time outside its replayed parts: {:.3} ms/peer; {threads} summarise threads assumed",
        (ms(summarize.dur_ns) - ms(get("bench", "replay").dur_ns)) / peers
    ));
    out
}
