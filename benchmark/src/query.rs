//! `range_narrow`, `range_wide` and `knn`: queries against the built
//! paper-scale network, in process.

use crate::measure::closed_loop;
use crate::setup::{self, Corpus, Query, Run, EPS_NARROW, EPS_WIDE, KNN_K};
use crate::stats::{digest_items, median, Digest};
use crate::trace::{totals, Tracer};
use crate::Outcome;
use hyperm_baseline::FlatIndex;
use hyperm_can::RangeOutcome;
use hyperm_core::score::{aggregate, level_scores, peers_to_cover};
use hyperm_core::{HypermNetwork, KnnOptions};
use hyperm_geometry::vecmath::{dist, sq_dist};
use hyperm_geometry::{intersection_fraction, solve_epsilon_for_k, ClusterView};
use hyperm_sim::{NodeId, OpStats};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Range(f64),
    Knn,
}

impl Kind {
    pub fn of(workload: &str) -> Kind {
        match workload {
            "range_narrow" => Kind::Range(EPS_NARROW),
            "range_wide" => Kind::Range(EPS_WIDE),
            "knn" => Kind::Knn,
            other => unreachable!("{other} is not an in-process query workload"),
        }
    }

    /// Length of this workload's query list.
    fn list_len(self, run: &Run) -> usize {
        run.list_len(match self {
            Kind::Range(eps) if eps == EPS_NARROW => run.scale.narrow_rate,
            Kind::Range(_) => run.scale.wide_rate,
            Kind::Knn => run.scale.knn_rate,
        })
    }
}

/// What one query returned, reduced to what must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub digest: u64,
    pub stats: OpStats,
    pub truncated: bool,
}

impl Answer {
    pub fn new(items: &[(usize, usize)], stats: OpStats, truncated: bool) -> Self {
        Answer {
            digest: digest_items(items),
            stats,
            truncated,
        }
    }
}

/// Run one composed query through the library's public entry point.
fn composed(net: &HypermNetwork, kind: Kind, q: &Query) -> (Answer, Vec<(usize, usize)>) {
    match kind {
        Kind::Range(eps) => {
            let r = net.range_query(q.entry, &q.centre, eps, None);
            (Answer::new(&r.items, r.stats, r.truncated), r.items)
        }
        Kind::Knn => {
            let r = net.knn_query(q.entry, &q.centre, KNN_K, KnnOptions::default());
            let ids: Vec<(usize, usize)> = r.topk.iter().map(|t| t.0).collect();
            (Answer::new(&ids, r.stats, r.truncated), ids)
        }
    }
}

/// The paper-scale network every query workload (and `tcp_query`) uses.
pub struct Built {
    pub corpus: Corpus,
    pub net: HypermNetwork,
    /// Corpus generation + distribution + median network build.
    pub setup_s: f64,
}

pub fn build(run: &Run) -> Built {
    let corpus = run.corpus();
    let (net, _, build_s) = setup::build_median(&corpus.peers, &run.config());
    let setup_s = corpus.markov_s + corpus.distribute_s + build_s;
    Built {
        corpus,
        net,
        setup_s,
    }
}

/// Recall of `verified` evenly spaced queries against the flat-scan oracle
/// (both cores, outside any timed region). Returns the mean recall and the
/// number of answers that missed a true item or returned a false one.
pub fn verify(
    net: &HypermNetwork,
    flat: &FlatIndex,
    kind: Kind,
    qs: &[Query],
    verified: usize,
) -> (f64, u64) {
    let picks: Vec<usize> = (0..verified.min(qs.len()))
        .map(|i| i * qs.len() / verified.min(qs.len()))
        .collect();
    let check = |i: usize| -> (f64, bool) {
        let q = &qs[i];
        let (_, got) = composed(net, kind, q);
        match kind {
            Kind::Range(eps) => {
                let mut truth = flat.range(&q.centre, eps);
                truth.sort_unstable();
                let mut got = got;
                got.sort_unstable();
                let found = truth
                    .iter()
                    .filter(|t| got.binary_search(t).is_ok())
                    .count();
                // Precision is 1 by construction (peers filter by true
                // distance), so any surplus is as wrong as a miss.
                (
                    found as f64 / truth.len() as f64,
                    found == truth.len() && got.len() == truth.len(),
                )
            }
            Kind::Knn => {
                // Recall@k by distance, so equidistant items (the corpus
                // can hold duplicates) count whichever copy is returned.
                let kth = flat.kth_distance(&q.centre, KNN_K);
                let hit = got
                    .iter()
                    .filter(|&&(p, i)| dist(net.peer(p).items.row(i), &q.centre) <= kth + 1e-12)
                    .count();
                (hit as f64 / KNN_K as f64, true)
            }
        }
    };
    let (left, right) = picks.split_at(picks.len() / 2);
    let results: Vec<(f64, bool)> = std::thread::scope(|s| {
        let other = s.spawn(|| right.iter().map(|&i| check(i)).collect::<Vec<_>>());
        let mut mine: Vec<(f64, bool)> = left.iter().map(|&i| check(i)).collect();
        mine.extend(other.join().expect("verification thread panicked"));
        mine
    });
    let recall = results.iter().map(|r| r.0).sum::<f64>() / results.len() as f64;
    let wrong = results.iter().filter(|r| !r.1).count() as u64;
    (recall, wrong)
}

/// Untraced run: the end-to-end metrics.
pub fn run(workload: &str, run: &Run) -> Outcome {
    let kind = Kind::of(workload);
    let built = build(run);
    let net = &built.net;
    let qs = setup::queries(&built.corpus.peers, kind.list_len(run), run.seed);

    let mut first: Vec<Option<Answer>> = vec![None; qs.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = closed_loop(qs.len(), run.seconds, |i| {
        let t = Instant::now();
        let (answer, _) = composed(net, kind, &qs[i]);
        let took = t.elapsed();
        attempted += 1;
        // Every repeat of a query must return what its first run did:
        // that is what makes the per-op counts exact.
        let same = *first[i].get_or_insert(answer) == answer;
        if answer.truncated || !same {
            failed += 1;
        }
        took
    });

    let flat = FlatIndex::from_peers(&built.corpus.peers);
    let (recall, wrong) = verify(net, &flat, kind, &qs, run.scale.verified_queries);
    failed += wrong;

    let answers: Vec<Answer> = first
        .into_iter()
        .map(|a| a.expect("list passed in full"))
        .collect();
    let mut out = Outcome::new(attempted, failed);
    out.digest = digest_answers(&answers).value();
    if workload == "range_narrow" {
        let head = &answers[..run.list_len(run.scale.tcp_rate).min(answers.len())];
        out.notes.push(format!(
            "digest_first_{} {}",
            head.len(),
            digest_answers(head).hex()
        ));
    }
    timed.report(&mut out);
    out.set("setup_s", built.setup_s);
    out.set("recall", recall);
    out.set_costs(answers.iter().map(|a| a.stats).sum(), answers.len() as u64);
    out
}

/// Digest of a list's item sets, in list order. Costs are left out so that
/// `tcp_query`, which enters at another peer, digests to the same value.
pub fn digest_answers(answers: &[Answer]) -> Digest {
    let mut d = Digest::default();
    for a in answers {
        d.word(a.digest);
    }
    d
}

/// The cost the library charges for one answered phase-2 fetch of `found`
/// items (`query::direct_fetch_cost`); the replay must re-derive it to
/// compare its `OpStats` with the composed call's.
fn direct_fetch(dim: usize, found: usize) -> OpStats {
    let q_bytes = 8 * (dim as u64 + 1) + 16;
    let resp_bytes = 8 * dim as u64 * found as u64 + 16;
    OpStats {
        hops: 2,
        messages: 2,
        bytes: q_bytes + resp_bytes,
        ..OpStats::zero()
    }
}

/// Counts taken at the replay's span boundaries.
#[derive(Default)]
struct Counts {
    range_messages: u64,
    range_matches: u64,
    contacted: u64,
    useful: u64,
}

/// One overlay lookup of the replay, in its own span; messages and matches
/// are counted at the same boundary.
fn lookup(
    net: &HypermNetwork,
    level: usize,
    q: &Query,
    key: &[f64],
    radius: f64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> RangeOutcome {
    let s = tr.begin("can", "range_query");
    let out = net.overlay(level).range_query(NodeId(q.entry), key, radius);
    tr.end(s);
    counts.range_messages += out.stats.messages;
    counts.range_matches += out.matches.len() as u64;
    out
}

/// Replay one range query from outside, one span per layer call.
fn replay_range(
    net: &HypermNetwork,
    q: &Query,
    eps: f64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<(usize, usize)>, OpStats) {
    let root = tr.begin("bench", "replay");
    let mut stats = OpStats::zero();
    let s = tr.begin("core", "decompose_query");
    let dec = net.decompose_query(&q.centre);
    tr.end(s);
    let mut per_level = Vec::with_capacity(net.levels());
    for l in 0..net.levels() {
        let s = tr.begin("core", "radius_translate");
        let (key, slack) = net.query_key_with_slack(&dec, l);
        let key_eps = net.query_key_radius(eps, l) + slack;
        tr.end(s);
        let RangeOutcome {
            matches,
            stats: cost,
            ..
        } = lookup(net, l, q, &key, key_eps, tr, counts);
        stats += cost;
        let dim = net.overlay(l).dim() as u32;
        let s = tr.begin("core", "level_scores");
        let scores = level_scores(&matches, &key, key_eps, dim);
        tr.end(s);
        // The Eq.-1 kernel inside `level_scores`, replayed on its own so
        // that its per-call cost is taken over many calls per span.
        let s = tr.begin("geometry", "intersection_fraction");
        for obj in &matches {
            let b = dist(&obj.centre, &key);
            std::hint::black_box(intersection_fraction(dim, obj.radius.max(0.0), key_eps, b));
        }
        tr.end_counted(s, matches.len() as u64);
        per_level.push(scores);
    }
    let s = tr.begin("core", "aggregate");
    let ranked = aggregate(&per_level, net.config.score_policy);
    tr.end(s);
    let phase2 = tr.begin("core", "phase2");
    let mut items = Vec::new();
    for ps in &ranked {
        let s = tr.begin("core", "local_range");
        let local = net.peer(ps.peer).local_range(&q.centre, eps);
        tr.end(s);
        stats += direct_fetch(q.centre.len(), local.len());
        counts.contacted += 1;
        counts.useful += u64::from(!local.is_empty());
        items.extend(local.into_iter().map(|i| (ps.peer, i)));
    }
    tr.end(phase2);
    tr.end(root);
    (items, stats)
}

/// Replay one k-nn query (Figure 5) from outside.
fn replay_knn(
    net: &HypermNetwork,
    q: &Query,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<(usize, usize)>, OpStats) {
    let opts = KnnOptions::default();
    let k = KNN_K;
    let root = tr.begin("bench", "replay");
    let mut stats = OpStats::zero();
    let s = tr.begin("core", "decompose_query");
    let dec = net.decompose_query(&q.centre);
    tr.end(s);
    let mut per_level = Vec::with_capacity(net.levels());
    for l in 0..net.levels() {
        let s = tr.begin("core", "radius_translate");
        let (key, slack) = net.query_key_with_slack(&dec, l);
        tr.end(s);
        let dim = net.overlay(l).dim() as u32;
        let diag = f64::from(dim).sqrt();
        let mut probe = (opts.probe_start * diag).max(1e-6);
        let clusters = loop {
            let RangeOutcome {
                matches,
                stats: cost,
                ..
            } = lookup(net, l, q, &key, probe, tr, counts);
            stats += cost;
            let in_view: f64 = matches.iter().map(|o| f64::from(o.payload.items)).sum();
            if in_view >= 2.0 * k as f64 || probe >= diag {
                break matches;
            }
            probe *= 2.0;
        };
        let views: Vec<ClusterView> = clusters
            .iter()
            .map(|o| ClusterView {
                centre_dist: dist(&o.centre, &key),
                radius: o.radius,
                items: f64::from(o.payload.items),
            })
            .collect();
        let s = tr.begin("geometry", "solve_epsilon");
        let eps_l = solve_epsilon_for_k(dim, &views, k as f64, 1e-6);
        tr.end(s);
        let search = eps_l + slack;
        let RangeOutcome {
            matches,
            stats: cost,
            ..
        } = lookup(net, l, q, &key, search, tr, counts);
        stats += cost;
        let s = tr.begin("core", "level_scores");
        let scores = level_scores(&matches, &key, search, dim);
        tr.end(s);
        per_level.push(scores);
    }
    let s = tr.begin("core", "aggregate");
    let ranked = aggregate(&per_level, net.config.score_policy);
    tr.end(s);
    let mut p = peers_to_cover(&ranked, k as f64);
    if p == 0 && !ranked.is_empty() {
        p = 1;
    }
    let selected = &ranked[..p.min(ranked.len())];
    let sum: f64 = selected.iter().map(|s| s.score).sum();
    let phase2 = tr.begin("core", "phase2");
    let mut retrieved: Vec<((usize, usize), f64)> = Vec::new();
    for ps in selected {
        let share = if sum > 0.0 {
            ps.score / sum
        } else {
            1.0 / selected.len() as f64
        };
        let want = ((opts.c * k as f64 * share).ceil() as usize).max(1);
        let s = tr.begin("core", "local_knn");
        let local = net.peer(ps.peer).local_knn(&q.centre, want);
        tr.end(s);
        stats += direct_fetch(q.centre.len(), local.len());
        counts.contacted += 1;
        counts.useful += u64::from(!local.is_empty());
        retrieved.extend(local.into_iter().map(|(i, d)| ((ps.peer, i), d)));
    }
    tr.end(phase2);
    retrieved.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let topk = retrieved.iter().take(k).map(|t| t.0).collect();
    tr.end(root);
    (topk, stats)
}

/// Queries of the traced run that also time the reference paths (flat
/// scan, point query): each costs tens of milliseconds, so only a few.
const REFERENCE_QUERIES: usize = 8;

/// Rows per `sq_dist` span: enough that the span's own cost vanishes.
const SQ_DIST_ROWS: usize = 256;

/// Traced run: the per-layer metrics.
pub fn run_traced(workload: &str, run: &Run, tr: &mut Tracer) -> Outcome {
    let kind = Kind::of(workload);
    let built = build(run);
    let net = &built.net;
    let qs = setup::queries(&built.corpus.peers, kind.list_len(run), run.seed);
    // Only range runs time the flat scan, and the index copies the corpus.
    let flat = match kind {
        Kind::Range(eps) => Some((FlatIndex::from_peers(&built.corpus.peers), eps)),
        Kind::Knn => None,
    };

    let mut counts = Counts::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut answers = Vec::new();
    // Walls of the composed call, of its replay with spans recorded, and
    // of the same replay with the recorder off.
    let (mut composed_ms, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    for (i, q) in qs.iter().enumerate() {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        tr.set_op(i as u64);
        let s = tr.begin("core", "composed_query");
        let t = Instant::now();
        let (answer, mut want) = composed(net, kind, q);
        composed_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(s);
        answers.push(answer);

        let replay = |tr: &mut Tracer, counts: &mut Counts| {
            let t = Instant::now();
            let out = match kind {
                Kind::Range(eps) => replay_range(net, q, eps, tr, counts),
                Kind::Knn => replay_knn(net, q, tr, counts),
            };
            (out, t.elapsed().as_secs_f64() * 1e3)
        };
        // Alternate which replay goes first so neither always runs warm.
        let mut scratch = Counts::default();
        let ((mut got, stats), on_ms, off_ms) = if i % 2 == 0 {
            let (out, on) = replay(tr, &mut counts);
            tr.set_enabled(false);
            let (_, off) = replay(tr, &mut scratch);
            tr.set_enabled(true);
            (out, on, off)
        } else {
            tr.set_enabled(false);
            let (_, off) = replay(tr, &mut scratch);
            tr.set_enabled(true);
            let (out, on) = replay(tr, &mut counts);
            (out, on, off)
        };
        traced_ms.push(on_ms);
        untraced_ms.push(off_ms);
        attempted += 1;
        want.sort_unstable();
        got.sort_unstable();
        if got != want || stats != answer.stats {
            failed += 1;
        }

        // The 512-d distance kernel of the phase-2 scan, on real rows.
        let rows = &net.peer(q.entry).items;
        let n = rows.len().min(SQ_DIST_ROWS);
        let s = tr.begin("geometry", "sq_dist");
        for r in 0..n {
            std::hint::black_box(sq_dist(rows.row(r), &q.centre));
        }
        tr.end_counted(s, n as u64);

        if i < REFERENCE_QUERIES {
            if let Some((flat, eps)) = &flat {
                let s = tr.begin("baseline", "flat_range");
                std::hint::black_box(flat.range(&q.centre, *eps));
                tr.end(s);
            }
            if kind == Kind::Range(EPS_NARROW) {
                let s = tr.begin("core", "point_query");
                let found = net.point_query(q.entry, &q.centre);
                tr.end(s);
                std::hint::black_box(found);
            }
        }
    }

    let tot = totals(tr.spans());
    let get = |layer, name| tot.get(layer, name);
    let per_query = |layer, name| get(layer, name).dur_ns as f64 / attempted as f64;
    let mut out = Outcome::new(attempted, failed);
    out.digest = digest_answers(&answers).value();
    out.set(
        "geometry.intersection_fraction_ns_per_call",
        get("geometry", "intersection_fraction").ns_per_count(),
    );
    out.set(
        "geometry.solve_epsilon_us_per_call",
        get("geometry", "solve_epsilon").ns_per_span() / 1e3,
    );
    out.set(
        "geometry.sq_dist_ns_per_call_512d",
        get("geometry", "sq_dist").ns_per_count(),
    );
    let range = get("can", "range_query");
    out.set("can.range_query_us_per_call", range.ns_per_span() / 1e3);
    if range.spans > 0 {
        out.set(
            "can.range_messages_per_call",
            counts.range_messages as f64 / range.spans as f64,
        );
        out.set(
            "can.range_matches_per_call",
            counts.range_matches as f64 / range.spans as f64,
        );
    }
    out.set(
        "core.query_decompose_us",
        get("core", "decompose_query").ns_per_span() / 1e3,
    );
    out.set(
        "core.radius_translate_us",
        per_query("core", "radius_translate") / 1e3,
    );
    let score_ns = per_query("core", "level_scores") + per_query("core", "aggregate");
    out.set("core.score_us_per_query", score_ns / 1e3);
    // Phase 1 is everything the replay does before the first fetch.
    let phase1_ns = per_query("core", "decompose_query")
        + per_query("core", "radius_translate")
        + per_query("can", "range_query")
        + per_query("geometry", "solve_epsilon")
        + score_ns;
    out.set("core.phase1_ms_per_query", phase1_ns / 1e6);
    out.set(
        "core.phase2_ms_per_query",
        per_query("core", "phase2") / 1e6,
    );
    let fetch = match kind {
        Kind::Range(_) => get("core", "local_range"),
        Kind::Knn => get("core", "local_knn"),
    };
    out.set("core.local_range_us_per_peer", fetch.ns_per_span() / 1e3);
    out.set(
        "core.peers_contacted_per_query",
        counts.contacted as f64 / attempted as f64,
    );
    if counts.contacted > 0 {
        out.set(
            "core.useful_peer_ratio",
            counts.useful as f64 / counts.contacted as f64,
        );
    }
    // Composed wall minus the untraced serial replay of its parts: what
    // the composed call spends outside them (per-level thread start-up
    // lands here; negative would mean the parallel levels pay off).
    out.set(
        "core.query_unattributed_ms",
        median(&composed_ms) - median(&untraced_ms),
    );
    out.set(
        "core.point_query_ms",
        get("core", "point_query").ns_per_span() / 1e6,
    );
    out.set(
        "baseline.flat_range_ms_per_query",
        get("baseline", "flat_range").ns_per_span() / 1e6,
    );
    out.set(
        "bench.trace_overhead_pct",
        (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
    );
    built.corpus.report_datagen(&mut out);
    out.notes.push(format!(
        "composed p50 {:.4} ms; replay p50 {:.4} ms traced, {:.4} ms untraced",
        median(&composed_ms),
        median(&traced_ms),
        median(&untraced_ms)
    ));
    out
}
