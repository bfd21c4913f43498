//! `churn_mix`: reads beside writes on one network. A seeded shuffle of
//! range and k-nn queries, republishing inserts, summary refreshes, joins,
//! graceful departures and crash + repair, so that an index or cache that
//! buys query speed by taxing the write path shows.

use crate::measure::measured_enough;
use crate::setup::{self, Corpus, Run, EPS_NARROW, KNN_K};
use crate::stats::{median, percentile, tail_percentile, Digest};
use crate::trace::{totals, Tracer};
use crate::Outcome;
use hyperm_cluster::Dataset;
use hyperm_core::{HypermNetwork, InsertPolicy, KnnOptions};
use hyperm_datagen::{generate_markov, MarkovConfig};
use hyperm_geometry::vecmath::sq_dist;
use hyperm_sim::OpStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Passes of `repair_overlays` after a crash, as the repo's tests use.
const REPAIR_PASSES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Narrow range query centred on row `.0` of the query set.
    Range(usize),
    /// `insert_item(.., Republish)` of row `.0` of the insert set.
    Insert(usize),
    Refresh,
    /// k-nn query centred on row `.0` of the query set.
    Knn(usize),
    /// `join_peer` with held-back collection `.0`.
    Join(usize),
    Depart,
    /// `crash_peer(.., true)`, `repair_overlays`, then every survivor
    /// refreshes its summaries.
    Crash,
}

impl Step {
    fn name(self) -> &'static str {
        match self {
            Step::Range(_) => "range_query",
            Step::Insert(_) => "insert_republish",
            Step::Refresh => "refresh",
            Step::Knn(_) => "knn_query",
            Step::Join(_) => "join_peer",
            Step::Depart => "depart",
            Step::Crash => "crash_repair",
        }
    }
}

/// Everything a pass needs besides the network it mutates.
struct Plan {
    steps: Vec<Step>,
    /// Query centres: items of the initially built peers.
    centres: Dataset,
    /// Items inserted by the `Insert` steps.
    inserts: Dataset,
    held_back: Vec<Dataset>,
    seed: u64,
    /// Every this-many-th range step is checked against a flat scan.
    verify_every: usize,
}

fn plan(run: &Run, built: &[Dataset], held_back: Vec<Dataset>) -> Plan {
    let (scale, seed) = (&run.scale, run.seed);
    let [range, insert, refresh, knn, join, depart, crash] = scale.churn_steps;
    assert_eq!(join, held_back.len(), "one join per held-back collection");
    let mut steps: Vec<Step> = (0..range)
        .map(Step::Range)
        .chain((0..insert).map(Step::Insert))
        .chain((0..refresh).map(|_| Step::Refresh))
        .chain((0..knn).map(|i| Step::Knn(range + i)))
        .chain((0..join).map(Step::Join))
        .chain((0..depart).map(|_| Step::Depart))
        .chain((0..crash).map(|_| Step::Crash))
        .collect();
    steps.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x4348_5552));
    let mut centres = Dataset::with_capacity(scale.dim, range + knn);
    for q in setup::queries(built, range + knn, seed) {
        centres.push_row(&q.centre);
    }
    let inserts = generate_markov(&MarkovConfig {
        count: insert,
        dim: scale.dim,
        seed: seed.wrapping_add(2),
        ..MarkovConfig::default()
    });
    Plan {
        steps,
        centres,
        inserts,
        held_back,
        seed,
        verify_every: (range / scale.verified_queries).max(1),
    }
}

/// What one pass over the plan measured.
#[derive(Default)]
struct Pass {
    /// Wall of every query step (range and k-nn), in ms.
    query_ms: Vec<f64>,
    /// Sum of every step's wall, in seconds.
    busy_s: f64,
    digest: Digest,
    range_stats: OpStats,
    range_queries: u64,
    failed: u64,
    /// Recall of each verified range step.
    recalls: Vec<f64>,
}

/// All items within `eps` of `q` on alive peers, by linear scan with the
/// flat-file oracle's own predicate. (`FlatIndex` copies its corpus, which
/// cannot be afforded at every verified step of a changing network.)
fn flat_scan(net: &HypermNetwork, q: &[f64], eps: f64) -> Vec<(usize, usize)> {
    let r2 = eps * eps;
    (0..net.len())
        .filter(|&p| net.is_alive(p))
        .flat_map(|p| {
            net.peer(p)
                .items
                .rows()
                .enumerate()
                .filter(move |(_, row)| sq_dist(row, q) <= r2 + 1e-12)
                .map(move |(i, _)| (p, i))
        })
        .collect()
}

fn alive_peer(net: &HypermNetwork, rng: &mut StdRng) -> usize {
    loop {
        let p = rng.gen_range(0..net.len());
        if net.is_alive(p) {
            return p;
        }
    }
}

fn fold_stats(d: &mut Digest, s: OpStats) {
    d.word(s.hops);
    d.word(s.messages);
    d.word(s.bytes);
}

/// Time `call` (and span it, when tracing): the only code on the clock.
fn on_clock<R>(
    tr: &mut Option<&mut Tracer>,
    step: (usize, Step),
    call: impl FnOnce() -> R,
) -> (R, Duration) {
    let span = tr.as_deref_mut().map(|tr| {
        tr.set_op(step.0 as u64);
        tr.begin("core", step.1.name())
    });
    let t = Instant::now();
    let result = call();
    let took = t.elapsed();
    if let (Some(tr), Some(span)) = (tr.as_deref_mut(), span) {
        tr.end(span);
    }
    (result, took)
}

/// Run the plan once on a copy of `start`. Only the library calls are on
/// the clock; peer choice, digesting and verification are not.
fn run_pass(plan: &Plan, start: &HypermNetwork, verify: bool, mut tr: Option<&mut Tracer>) -> Pass {
    // Each pass starts from the same network and hands the same
    // collections over to `join_peer`.
    let mut net = start.clone();
    let mut held_back = plan.held_back.clone();
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x5041_5353);
    let mut pass = Pass::default();
    for (n, &step) in plan.steps.iter().enumerate() {
        let peer = alive_peer(&net, &mut rng);
        let at = (n, step);
        let took = match step {
            Step::Range(c) => {
                let q = plan.centres.row(c);
                let (r, took) =
                    on_clock(&mut tr, at, || net.range_query(peer, q, EPS_NARROW, None));
                pass.digest.items(&r.items);
                pass.range_stats += r.stats;
                pass.range_queries += 1;
                pass.failed += u64::from(r.truncated);
                if verify && c % plan.verify_every == 0 {
                    let mut truth = flat_scan(&net, q, EPS_NARROW);
                    truth.sort_unstable();
                    let mut got = r.items;
                    got.sort_unstable();
                    let found = truth
                        .iter()
                        .filter(|t| got.binary_search(t).is_ok())
                        .count();
                    pass.recalls.push(if truth.is_empty() {
                        1.0
                    } else {
                        found as f64 / truth.len() as f64
                    });
                    pass.failed += u64::from(got != truth);
                }
                pass.query_ms.push(took.as_secs_f64() * 1e3);
                took
            }
            Step::Knn(c) => {
                let q = plan.centres.row(c);
                let (r, took) = on_clock(&mut tr, at, || {
                    net.knn_query(peer, q, KNN_K, KnnOptions::default())
                });
                let ids: Vec<(usize, usize)> = r.topk.iter().map(|t| t.0).collect();
                pass.digest.items(&ids);
                pass.failed += u64::from(r.truncated);
                pass.query_ms.push(took.as_secs_f64() * 1e3);
                took
            }
            Step::Insert(i) => {
                let item = plan.inserts.row(i);
                let (stats, took) = on_clock(&mut tr, at, || {
                    net.insert_item(peer, item, InsertPolicy::Republish)
                });
                fold_stats(&mut pass.digest, stats);
                took
            }
            Step::Refresh => {
                let (stats, took) = on_clock(&mut tr, at, || net.refresh_peer_summaries(peer));
                fold_stats(&mut pass.digest, stats);
                took
            }
            Step::Join(k) => {
                let items = std::mem::replace(&mut held_back[k], Dataset::new(1));
                let (joined, took) = on_clock(&mut tr, at, || net.join_peer(items));
                match joined {
                    Ok(report) => {
                        pass.digest.word(report.peer as u64);
                        pass.digest.word(report.clusters_published);
                        fold_stats(&mut pass.digest, report.insertion);
                    }
                    Err(_) => pass.failed += 1,
                }
                took
            }
            Step::Depart => {
                let (outcome, took) = on_clock(&mut tr, at, || net.depart_peer(peer));
                fold_stats(&mut pass.digest, outcome.stats);
                pass.digest.word(outcome.adoptions as u64);
                took
            }
            Step::Crash => {
                let ((outcome, repair, refresh), took) = on_clock(&mut tr, at, || {
                    let outcome = net.crash_peer(peer, true);
                    let repair = net.repair_overlays(REPAIR_PASSES);
                    // The replicas the crashed node stored are gone until
                    // their publishers refresh: the library's repair story
                    // ends with every survivor republishing, and only then
                    // is range recall 1.0 again.
                    let mut refresh = OpStats::zero();
                    for p in 0..net.len() {
                        if net.is_alive(p) {
                            refresh += net.refresh_peer_summaries(p);
                        }
                    }
                    (outcome, repair, refresh)
                });
                fold_stats(&mut pass.digest, outcome.stats);
                fold_stats(&mut pass.digest, repair);
                fold_stats(&mut pass.digest, refresh);
                took
            }
        };
        pass.busy_s += took.as_secs_f64();
    }
    pass
}

/// The built network and the plan to run on copies of it.
struct Ready {
    /// The corpus; its `peers` are the built ones, the rest are in `plan`.
    corpus: Corpus,
    net: HypermNetwork,
    plan: Plan,
    setup_s: f64,
}

fn ready(run: &Run) -> Ready {
    let scale = &run.scale;
    let mut corpus = setup::corpus(
        scale.peers,
        scale.peers * scale.churn_items_per_peer,
        scale.dim,
        run.corpus_seed,
    );
    let held_back = corpus.peers.split_off(scale.peers - scale.churn_held_back);
    let (net, _, build_s) = setup::build_median(&corpus.peers, &run.config());
    Ready {
        plan: plan(run, &corpus.peers, held_back),
        setup_s: corpus.markov_s + corpus.distribute_s + build_s,
        net,
        corpus,
    }
}

pub fn run(run: &Run) -> Outcome {
    let ready = ready(run);
    let steps = ready.plan.steps.len() as u64;

    // Whole passes until enough was measured; the first is also the one
    // checked against the flat scan (off the clock, like all bookkeeping).
    let start = Instant::now();
    let mut passes = vec![run_pass(&ready.plan, &ready.net, true, None)];
    while !measured_enough(start.elapsed(), run.seconds) {
        passes.push(run_pass(&ready.plan, &ready.net, false, None));
    }
    let reference = &passes[0];

    // A pass is seeded, so every pass must digest and cost the same.
    let differing = passes
        .iter()
        .filter(|p| p.digest != reference.digest || p.range_stats != reference.range_stats)
        .count() as u64;
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + differing * steps;
    let recall = reference.recalls.iter().sum::<f64>() / reference.recalls.len() as f64;
    let query_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.query_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = passes.iter().map(|p| steps as f64 / p.busy_s).collect();
    let tail = tail_percentile(query_ms.len());

    let mut out = Outcome::new(passes.len() as u64 * steps, failed);
    out.digest = reference.digest.value();
    out.notes.push(format!(
        "{} timed passes of {steps} steps; {} query samples; pass rates {:.1}..{:.1} steps/s; tail is p{tail}; {} range steps verified",
        passes.len(),
        query_ms.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
        reference.recalls.len()
    ));
    out.set("setup_s", ready.setup_s);
    out.set("throughput_ops_s", median(&rates));
    out.set("latency_p50_ms", median(&query_ms));
    out.set("latency_tail_ms", percentile(&query_ms, tail));
    out.set("recall", recall);
    out.set_costs(reference.range_stats, reference.range_queries);
    out
}

/// Traced run: one pass with a span around every step's library call; an
/// untraced pass beside it must digest the same.
pub fn run_traced(run: &Run, tr: &mut Tracer) -> Outcome {
    let ready = ready(run);
    let steps = ready.plan.steps.len() as u64;
    let reference = run_pass(&ready.plan, &ready.net, false, None);
    let traced = run_pass(&ready.plan, &ready.net, false, Some(tr));
    let disagree = traced.digest != reference.digest || traced.range_stats != reference.range_stats;

    let tot = totals(tr.spans());
    let get = |name| tot.get("core", name);
    let mut out = Outcome::new(steps, traced.failed + u64::from(disagree) * steps);
    out.digest = reference.digest.value();
    out.set(
        "core.insert_republish_us_per_item",
        get("insert_republish").ns_per_span() / 1e3,
    );
    out.set(
        "core.refresh_ms_per_peer",
        get("refresh").ns_per_span() / 1e6,
    );
    out.set("core.join_peer_ms", get("join_peer").ns_per_span() / 1e6);
    out.set("core.depart_ms", get("depart").ns_per_span() / 1e6);
    out.set(
        "core.crash_repair_ms",
        get("crash_repair").ns_per_span() / 1e6,
    );
    out.set(
        "bench.trace_overhead_pct",
        (traced.busy_s / reference.busy_s - 1.0) * 100.0,
    );
    ready.corpus.report_datagen(&mut out);
    out.notes.push(format!(
        "pass busy {:.4} s traced, {:.4} s untraced",
        traced.busy_s, reference.busy_s
    ));
    out
}
