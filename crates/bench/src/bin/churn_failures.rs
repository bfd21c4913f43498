//! Churn resilience with the overlay repair engine (extension experiment;
//! DESIGN.md "Repair protocol").
//!
//! The paper's short-lived MANET implicitly assumes everyone stays for the
//! session; in reality devices crash, walk away and arrive late. This
//! experiment crash-stops a fraction `f` of peers and compares the
//! paper-faithful baseline (no repair: failures leave routing holes)
//! against the repair engine (zone takeover + background merges + one
//! soft-state refresh period):
//!
//! * recall against **all** originally published data tracks `1 − f`
//!   regardless of repair — the departed items are physically gone;
//! * recall against the **alive** peers' data stays at 1.0 with repair on:
//!   takeover re-owns the crashed zones and the refresh loop re-inserts
//!   the replicas that died with them. With repair off it degrades and
//!   queries report explicit failed routes instead of hanging.
//!
//! Two extra sections exercise the rest of the subsystem: queries over
//! lossy links (message-level fault injection with bounded retry) and a
//! Poisson churn schedule (crashes, departures and arrivals interleaved
//! with the refresh loop over sim time). Emits `BENCH_churn.json`.
//!
//! A final sweep crosses lossy publish (reliable ack/retransmit path)
//! with partition injection/healing, self-asserts the recovery bounds
//! (the CI chaos smoke), and emits `BENCH_faults.json`.

use hyperm_bench::{f1, f3, RetrievalWorkload, Scale, Table};
use hyperm_cluster::Dataset;
use hyperm_core::{HypermConfig, HypermNetwork, QueryBudget};
use hyperm_geometry::vecmath::sq_dist;
use hyperm_repair::{ChurnSchedule, RepairConfig, RepairEngine};
use hyperm_sim::{Backoff, FaultConfig, PartitionPlan};
use hyperm_telemetry::JsonObj;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const REFRESH_INTERVAL: u64 = 50;
const QUERIES: usize = 25;

/// Query workload drawn from the items of alive peers only, with truth
/// sets computed by direct scan. Reused verbatim across repair on/off so
/// the comparison is paired.
struct QuerySpec {
    q: Vec<f64>,
    eps: f64,
    truth_all: usize,
    truth_alive: usize,
}

fn draw_queries(net: &HypermNetwork, seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..QUERIES)
        .map(|_| {
            let (p, i) = loop {
                let p = rng.gen_range(0..net.len());
                if net.is_alive(p) {
                    break (p, rng.gen_range(0..net.peer(p).len()));
                }
            };
            let q = net.peer(p).items.row(i).to_vec();
            // 25th-NN distance over the full corpus as the radius.
            let mut d: Vec<f64> = (0..net.len())
                .flat_map(|pp| {
                    net.peer(pp)
                        .items
                        .rows()
                        .map(|row| {
                            row.iter()
                                .zip(&q)
                                .map(|(a, b)| (a - b) * (a - b))
                                .sum::<f64>()
                                .sqrt()
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let eps = d[25.min(d.len() - 1)];
            let mut truth_all = 0usize;
            let mut truth_alive = 0usize;
            for pp in 0..net.len() {
                // A plain scan, not `Peer::local_range`: the truth must
                // not come from the code the recall columns measure.
                let rows = net.peer(pp).items.rows();
                let hits = rows
                    .filter(|row| sq_dist(row, &q) <= eps * eps + 1e-12)
                    .count();
                truth_all += hits;
                if net.is_alive(pp) {
                    truth_alive += hits;
                }
            }
            QuerySpec {
                q,
                eps,
                truth_all,
                truth_alive,
            }
        })
        .collect()
}

#[derive(Default)]
struct CellReport {
    recall_all: f64,
    recall_alive: f64,
    msgs_per_query: f64,
    failed_routes: u64,
    repair_msgs: u64,
    repair_bytes: u64,
    refresh_msgs: u64,
    takeover_rounds: u64,
}

impl CellReport {
    fn json(&self) -> JsonObj {
        JsonObj::new()
            .f("recall_all", self.recall_all, 4)
            .f("recall_alive", self.recall_alive, 4)
            .f("msgs_per_query", self.msgs_per_query, 1)
            .u("failed_routes", self.failed_routes)
            .u("repair_messages", self.repair_msgs)
            .u("repair_bytes", self.repair_bytes)
            .u("refresh_messages", self.refresh_msgs)
            .u("takeover_rounds", self.takeover_rounds)
    }
}

/// Crash `victims`, let one refresh period elapse, then run the paired
/// query workload from peer 0 (never a victim).
fn run_cell(
    base: &HypermNetwork,
    victims: &[usize],
    repair: bool,
    specs: &[QuerySpec],
) -> CellReport {
    let cfg = RepairConfig::default()
        .with_enabled(repair)
        .with_refresh_interval(REFRESH_INTERVAL);
    let mut eng = RepairEngine::new(base.clone(), cfg);
    for &v in victims {
        eng.crash(v);
    }
    eng.advance_to(REFRESH_INTERVAL);
    let mut out = CellReport {
        repair_msgs: eng.stats().repair.messages,
        repair_bytes: eng.stats().repair.bytes,
        refresh_msgs: eng.stats().refresh.messages,
        takeover_rounds: eng.stats().max_takeover_rounds,
        ..CellReport::default()
    };
    let net = eng.network();
    let mut msgs = 0u64;
    for s in specs {
        let res = net.range_query(0, &s.q, s.eps, None);
        msgs += res.stats.messages;
        out.failed_routes += res.stats.failed_routes;
        out.recall_all += res.items.len() as f64 / s.truth_all.max(1) as f64;
        out.recall_alive += res.items.len() as f64 / s.truth_alive.max(1) as f64;
    }
    out.recall_all /= specs.len() as f64;
    out.recall_alive /= specs.len() as f64;
    out.msgs_per_query = msgs as f64 / specs.len() as f64;
    if repair {
        for l in 0..net.levels() {
            net.overlay(l).check_invariants();
        }
    }
    out
}

fn main() {
    let scale = Scale::from_env();
    let w = RetrievalWorkload::at(scale);
    println!(
        "Churn resilience with overlay repair ({} nodes, scale {scale:?})",
        w.nodes
    );
    let peers = w.build_peers(111);
    let dim = peers[0].dim();
    let cfg = HypermConfig::new(dim)
        .with_levels(4)
        .with_clusters_per_peer(10)
        .with_seed(113);
    let (base, _) = HypermNetwork::build(peers, cfg.clone()).unwrap();

    // --- Sweep: fail fraction × repair on/off (paired victims/queries). ---
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for fail_frac in [0.0f64, 0.1, 0.2, 0.3] {
        let mut rng = StdRng::seed_from_u64(117);
        let mut ids: Vec<usize> = (1..base.len()).collect();
        ids.shuffle(&mut rng);
        let n_fail = (fail_frac * base.len() as f64).round() as usize;
        let victims = &ids[..n_fail];

        // Truth over the post-crash alive set (same for both cells).
        let mut dead_net = base.clone();
        for &v in victims {
            dead_net.fail_peer(v);
        }
        let specs = draw_queries(&dead_net, 119);

        let on = run_cell(&base, victims, true, &specs);
        let off = run_cell(&base, victims, false, &specs);
        for (label, cell) in [("repair", &on), ("none", &off)] {
            rows.push(vec![
                format!("{:.0}%", fail_frac * 100.0),
                label.to_string(),
                f3(cell.recall_all),
                f3(cell.recall_alive),
                f1(cell.msgs_per_query),
                cell.failed_routes.to_string(),
                cell.repair_msgs.to_string(),
                cell.takeover_rounds.to_string(),
            ]);
        }
        sweep_json.push(
            JsonObj::new()
                .f("fail_frac", fail_frac, 2)
                .u("failed", n_fail as u64)
                .obj("repair", on.json())
                .obj("no_repair", off.json())
                .render(),
        );
    }
    Table::new(
        "range recall under crash-stop churn (25 queries, paired)",
        &[
            "failed",
            "mode",
            "recall all",
            "recall alive",
            "msgs/query",
            "failed routes",
            "repair msgs",
            "takeover rounds",
        ],
        rows,
    )
    .print();
    println!(
        "\nExpected shape: recall-vs-all tracks the surviving fraction in both\n\
         modes (dead items are gone); recall-vs-alive stays 1.000 with repair on\n\
         and degrades without it, where queries report explicit failed routes."
    );

    // --- Lossy links: fault injection with bounded retry, repair on. ---
    let drop_prob = 0.15;
    let fault_cfg = RepairConfig::default()
        .with_refresh_interval(REFRESH_INTERVAL)
        .with_fault_plan(
            FaultConfig::lossy(drop_prob)
                .with_seed(131)
                .with_dead_prob(0.02),
        );
    let mut eng = RepairEngine::new(base.clone(), fault_cfg);
    let mut rng = StdRng::seed_from_u64(117);
    let mut ids: Vec<usize> = (1..base.len()).collect();
    ids.shuffle(&mut rng);
    let victims = &ids[..(0.2 * base.len() as f64).round() as usize];
    for &v in victims {
        eng.crash(v);
    }
    eng.advance_to(REFRESH_INTERVAL);
    let specs = draw_queries(eng.network(), 119);
    let (mut rec, mut retries, mut failed) = (0.0f64, 0u64, 0u64);
    for s in &specs {
        let res = eng.network().range_query(0, &s.q, s.eps, None);
        rec += res.items.len() as f64 / s.truth_alive.max(1) as f64;
        retries += res.stats.retries;
        failed += res.stats.failed_routes;
    }
    rec /= specs.len() as f64;
    let report = eng.network().fault_report().unwrap_or_default();
    println!(
        "\nlossy links (drop {drop_prob}, dead 0.02, 20% crashed, repair on): \
         recall alive {}, {} retries, {} failed routes, injector: {} attempts / {} drops / {} dead hops",
        f3(rec),
        retries,
        failed,
        report.attempts,
        report.drops,
        report.dead_hops
    );
    let faults_json = JsonObj::new()
        .g("drop_prob", drop_prob)
        .g("dead_prob", 0.02)
        .g("fail_frac", 0.2)
        .f("recall_alive", rec, 4)
        .u("retries", retries)
        .u("failed_routes", failed)
        .u("attempts", report.attempts)
        .u("drops", report.drops)
        .u("dead_hops", report.dead_hops);

    // --- Poisson schedule: crashes, departures and arrivals over time. ---
    let horizon = 400u64;
    let mut eng = RepairEngine::new(
        base.clone(),
        RepairConfig::default().with_refresh_interval(REFRESH_INTERVAL),
    );
    let sched = ChurnSchedule::poisson(horizon, 0.01, 0.005, 0.005, 137).with_protect(vec![0]);
    let mut arrival_rng = StdRng::seed_from_u64(139);
    let srep = eng.run_schedule(&sched, |_| {
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0; dim];
        for _ in 0..20 {
            for x in row.iter_mut() {
                *x = arrival_rng.gen::<f64>();
            }
            ds.push_row(&row);
        }
        Some(ds)
    });
    for l in 0..eng.network().levels() {
        eng.network().overlay(l).check_invariants();
    }
    let specs = draw_queries(eng.network(), 119);
    let mut rec = 0.0f64;
    for s in &specs {
        let res = eng.network().range_query(0, &s.q, s.eps, None);
        rec += res.items.len() as f64 / s.truth_alive.max(1) as f64;
    }
    rec /= specs.len() as f64;
    println!(
        "\npoisson schedule over {horizon} ticks: {} crashes, {} departures, {} arrivals, \
         {} skipped; {} alive of {}; recall alive {}, max takeover {} rounds, {} maintenance msgs",
        srep.crashes,
        srep.departures,
        srep.arrivals,
        srep.skipped,
        eng.network().alive_count(),
        eng.network().len(),
        f3(rec),
        eng.stats().max_takeover_rounds,
        eng.stats().total_messages()
    );
    let poisson_json = JsonObj::new()
        .u("horizon", horizon)
        .u("crashes", srep.crashes)
        .u("departures", srep.departures)
        .u("arrivals", srep.arrivals)
        .u("skipped", srep.skipped)
        .u("alive", eng.network().alive_count() as u64)
        .u("peers", eng.network().len() as u64)
        .f("recall_alive", rec, 4)
        .u("max_takeover_rounds", eng.stats().max_takeover_rounds)
        .u("maintenance_messages", eng.stats().total_messages());

    let json = JsonObj::new()
        .obj(
            "workload",
            JsonObj::new()
                .u("nodes", base.len() as u64)
                .u("dim", dim as u64)
                .u("levels", 4)
                .u("queries", QUERIES as u64)
                .u("refresh_interval", REFRESH_INTERVAL),
        )
        .arr("sweep", &sweep_json)
        .obj("lossy_links", faults_json)
        .obj("poisson", poisson_json)
        .render_pretty();
    std::fs::write("BENCH_churn.json", &json).expect("write BENCH_churn.json");
    println!("wrote BENCH_churn.json");

    // --- Data-plane fault tolerance: lossy publish × partition sweep. ---
    //
    // Reliable publish (ack/retransmit + exponential backoff, residual
    // per-hop loss drop^9) and failure-aware budgeted fetches, crossed
    // with a half/half partition injected at t=20 and healed at t=120.
    // Mid-window the far component is dark so alive-peer recall dips; the
    // heal round's reconciliation plus bounded deferred-retry rounds must
    // bring it back to exactly 1.0. Every bound is asserted, so a plain
    // run doubles as the CI chaos smoke. Emits `BENCH_faults.json`.
    let specs = draw_queries(&base, 149);
    let n = base.len();
    let budget = QueryBudget::default();
    let measure = |net: &HypermNetwork| -> (f64, f64, f64) {
        let (mut rec, mut msgs, mut hops) = (0.0f64, 0u64, 0u64);
        for s in &specs {
            let res = net.range_query_budgeted(0, &s.q, s.eps, None, budget);
            rec += res.items.len() as f64 / s.truth_alive.max(1) as f64;
            msgs += res.stats.messages;
            hops += res.stats.hops;
        }
        let q = specs.len() as f64;
        (rec / q, msgs as f64 / q, hops as f64 / q)
    };
    let mut fault_rows = Vec::new();
    let mut fault_cells = Vec::new();
    for &drop in &[0.0f64, 0.1, 0.3] {
        for &split in &[false, true] {
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
            let mut eng = RepairEngine::new(base.clone(), cfg);
            eng.advance_to(70); // mid-window: one lossy refresh behind us
            let (rec_mid, msgs_mid, _) = measure(eng.network());
            eng.advance_to(150); // past the heal and one more refresh
            let mut drain_rounds = 0u64;
            while !eng.deferred_publishes().is_empty() && drain_rounds < 10 {
                eng.retry_deferred();
                drain_rounds += 1;
            }
            assert!(
                eng.deferred_publishes().is_empty(),
                "deferred publishes must drain within bounded retry rounds \
                 (drop {drop}, partition {split})"
            );
            let (rec_fin, msgs_fin, hops_fin) = measure(eng.network());
            assert!(
                rec_fin >= 0.999,
                "alive-peer recall must return to 1.0 after heal + drain \
                 (drop {drop}, partition {split}, got {rec_fin})"
            );
            if split {
                assert!(
                    rec_mid < 0.999,
                    "a live partition must dent mid-window recall (drop {drop}, got {rec_mid})"
                );
            }
            let report = eng.network().fault_report().unwrap_or_default();
            if drop > 0.0 {
                assert!(report.drops > 0, "the injector must have been exercised");
            }
            let st = eng.stats();
            fault_rows.push(vec![
                format!("{:.0}%", drop * 100.0),
                if split { "halves" } else { "none" }.to_string(),
                f3(rec_mid),
                f3(rec_fin),
                f1(msgs_mid),
                f1(msgs_fin),
                f1(hops_fin),
                st.publishes_deferred.to_string(),
                drain_rounds.to_string(),
            ]);
            fault_cells.push(
                JsonObj::new()
                    .g("drop_prob", drop)
                    .b("partition", split)
                    .f("recall_mid", rec_mid, 4)
                    .f("recall_final", rec_fin, 4)
                    .f("msgs_per_query_mid", msgs_mid, 1)
                    .f("msgs_per_query_final", msgs_fin, 1)
                    .f("hops_per_query_final", hops_fin, 1)
                    .u("publishes_deferred", st.publishes_deferred)
                    .u("publishes_recovered", st.publishes_recovered)
                    .u("publishes_abandoned", st.publishes_abandoned)
                    .u("drain_rounds", drain_rounds)
                    .u("injector_attempts", report.attempts)
                    .u("injector_drops", report.drops)
                    .u("injector_exhausted", report.exhausted)
                    .render(),
            );
        }
    }
    Table::new(
        "data-plane fault tolerance: drop × partition (budgeted queries, paired)",
        &[
            "drop",
            "partition",
            "recall mid",
            "recall final",
            "msgs/q mid",
            "msgs/q final",
            "hops/q final",
            "deferred",
            "drain rounds",
        ],
        fault_rows,
    )
    .print();
    println!(
        "\nExpected shape: mid-window recall dips only in partition cells (the far\n\
         half is dark); after the heal round and bounded deferred retries every\n\
         cell is back to alive-peer recall 1.000 — asserted above."
    );
    let faults = JsonObj::new()
        .obj(
            "workload",
            JsonObj::new()
                .u("nodes", n as u64)
                .u("dim", dim as u64)
                .u("queries", QUERIES as u64)
                .u("refresh_interval", REFRESH_INTERVAL)
                .u("partition_start", 20)
                .u("partition_end", 120),
        )
        .arr("cells", &fault_cells)
        .render_pretty();
    std::fs::write("BENCH_faults.json", &faults).expect("write BENCH_faults.json");
    println!("wrote BENCH_faults.json");
}
