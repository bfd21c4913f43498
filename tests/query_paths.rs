//! Pins every phase-2 path of the three query kinds to a digest.
//!
//! One seeded 12-peer network; {range, range with a peer budget, k-nn,
//! point} × {no budget, default budget, no fallback, hop deadline} × {all
//! alive, the two top-ranked candidates failed}. Each cell folds the
//! answer, all five `OpStats` fields, `peers_contacted`, `truncated` and
//! the traced JSONL stream into one FNV-1a digest. The table was measured
//! before the six fetch loops were folded into one walk; a refactor of the
//! query path must leave it unchanged.

use hyperm::telemetry::Recorder;
use hyperm::{Dataset, HypermConfig, HypermNetwork, KnnOptions, OpStats, QueryBudget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn stats(&mut self, s: OpStats) {
        for v in [s.hops, s.messages, s.bytes, s.retries, s.failed_routes] {
            self.u(v);
        }
    }
}

/// The network and the query vector: a row five of the twelve peers hold a
/// copy of, so even the point query ranks several candidates.
fn network() -> (HypermNetwork, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(16);
    let shared: Vec<f64> = (0..16).map(|_| 0.3 + rng.gen::<f64>() * 0.2).collect();
    let peers: Vec<Dataset> = (0..12)
        .map(|p| {
            let centre: f64 = rng.gen::<f64>() * 0.5;
            let mut ds = Dataset::new(16);
            if p % 2 == 1 && p != 11 {
                ds.push_row(&shared);
            }
            let mut row = [0.0f64; 16];
            for _ in 0..30 {
                for x in row.iter_mut() {
                    *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect();
    let cfg = HypermConfig::new(16)
        .with_levels(4)
        .with_clusters_per_peer(5)
        .with_seed(16);
    (HypermNetwork::build(peers, cfg).unwrap().0, shared)
}

#[derive(Clone, Copy)]
enum Kind {
    Range,
    RangeTop3,
    Knn,
    Point,
}

const FROM: usize = 0;
const EPS: f64 = 0.45;
const K: usize = 10;

/// Run one query; fold its answer and accounting into `h` and return the
/// ranked candidate peers.
fn run(
    net: &HypermNetwork,
    kind: Kind,
    q: &[f64],
    budget: Option<QueryBudget>,
    h: &mut Fnv,
) -> Vec<usize> {
    match kind {
        Kind::Range | Kind::RangeTop3 => {
            let cap = matches!(kind, Kind::RangeTop3).then_some(3);
            let r = match budget {
                None => net.range_query(FROM, q, EPS, cap),
                Some(b) => net.range_query_budgeted(FROM, q, EPS, cap, b),
            };
            for &(p, i) in &r.items {
                h.u(p as u64);
                h.u(i as u64);
            }
            h.stats(r.stats);
            h.u(r.peers_contacted as u64);
            h.u(u64::from(r.truncated));
            r.ranked.iter().map(|s| s.peer).collect()
        }
        Kind::Knn => {
            // Capped below the candidate count so the fallback window exists.
            let opts = KnnOptions {
                peer_budget: Some(3),
                ..KnnOptions::default()
            };
            let r = match budget {
                None => net.knn_query(FROM, q, K, opts),
                Some(b) => net.knn_query_budgeted(FROM, q, K, opts, b),
            };
            for &((p, i), d) in &r.retrieved {
                h.u(p as u64);
                h.u(i as u64);
                h.u(d.to_bits());
            }
            h.stats(r.stats);
            h.u(r.peers_contacted as u64);
            h.u(u64::from(r.truncated));
            r.ranked.iter().map(|s| s.peer).collect()
        }
        Kind::Point => {
            let r = match budget {
                None => net.point_query(FROM, q),
                Some(b) => net.point_query_budgeted(FROM, q, b),
            };
            for &(p, i) in &r.matches {
                h.u(p as u64);
                h.u(i as u64);
            }
            h.stats(r.stats);
            h.u(r.candidates.len() as u64);
            h.u(u64::from(r.truncated));
            r.candidates
        }
    }
}

fn cell(
    base: &HypermNetwork,
    q: &[f64],
    kind: Kind,
    budget: Option<QueryBudget>,
    kill: bool,
) -> u64 {
    let mut net = base.clone();
    if kill {
        let ranked = run(&net, kind, q, None, &mut Fnv::new());
        assert!(
            ranked.len() > 3,
            "need live candidates behind the dead ones"
        );
        for &p in &ranked[..2] {
            net.fail_peer(p);
        }
    }
    let (rec, ring) = Recorder::ring(1 << 16);
    net.set_recorder(rec);
    let mut h = Fnv::new();
    run(&net, kind, q, budget, &mut h);
    assert_eq!(ring.dropped(), 0);
    for e in ring.events() {
        h.bytes(e.to_json_line().as_bytes());
        h.bytes(b"\n");
    }
    h.0
}

/// `[kind][budget][alive, two dead]`, in the order of `KINDS` × `budgets()`.
const EXPECTED: [[[u64; 2]; 4]; 4] = [
    [
        [0x62ca_af41_38cb_c96f, 0x6195_e669_dd72_4cdc],
        [0x62ca_af41_38cb_c96f, 0xdd76_9844_5522_64db],
        [0x62ca_af41_38cb_c96f, 0xdd76_9844_5522_64db],
        [0x7a48_656f_68ba_cf69, 0x8e1b_9b01_4451_dc55],
    ],
    [
        [0x6437_aa26_55a0_9462, 0x4ada_34b8_a66e_3634],
        [0x6437_aa26_55a0_9462, 0x1f90_dae4_2942_f798],
        [0x6437_aa26_55a0_9462, 0xaefb_64b0_9258_d4f0],
        [0x7a48_656f_68ba_cf69, 0x8e1b_9b01_4451_dc55],
    ],
    [
        [0x2261_18e9_3028_2616, 0x96d3_4e98_74a9_6294],
        [0x2261_18e9_3028_2616, 0xad54_0fba_22b0_e687],
        [0x2261_18e9_3028_2616, 0xcb61_5668_1349_4dd7],
        [0xff4c_dbf0_d4f8_f280, 0x66c3_bd26_209a_89b8],
    ],
    [
        [0xee2f_861a_a91c_79ef, 0x6578_891e_20db_249c],
        [0xee2f_861a_a91c_79ef, 0x6ded_86e9_c690_8950],
        [0xee2f_861a_a91c_79ef, 0x6ded_86e9_c690_8950],
        [0x9035_436e_226a_e444, 0xb268_659d_eff2_f435],
    ],
];

const KINDS: [(Kind, &str); 4] = [
    (Kind::Range, "range"),
    (Kind::RangeTop3, "range top-3"),
    (Kind::Knn, "knn"),
    (Kind::Point, "point"),
];

fn budgets() -> [(Option<QueryBudget>, &'static str); 4] {
    let b = QueryBudget::default();
    [
        (None, "no budget"),
        (Some(b), "default"),
        (Some(b.with_fallback(false)), "no fallback"),
        (Some(b.with_deadline(3)), "deadline 3"),
    ]
}

#[test]
fn every_phase2_path_matches_its_pinned_digest() {
    let (base, q) = network();
    let mut got = [[[0u64; 2]; 4]; 4];
    for (k, &(kind, _)) in KINDS.iter().enumerate() {
        for (b, &(budget, _)) in budgets().iter().enumerate() {
            got[k][b] = [
                cell(&base, &q, kind, budget, false),
                cell(&base, &q, kind, budget, true),
            ];
        }
    }
    if got != EXPECTED {
        for (k, (_, kind)) in KINDS.iter().enumerate() {
            for (b, (_, budget)) in budgets().iter().enumerate() {
                for (d, state) in ["alive", "two dead"].iter().enumerate() {
                    let (g, e) = (got[k][b][d], EXPECTED[k][b][d]);
                    if g != e {
                        eprintln!("{kind} / {budget} / {state}: {g:#018x}, pinned {e:#018x}");
                    }
                }
            }
        }
        panic!("phase-2 digests moved; measured table:\n{got:#018x?}");
    }
}

/// The matrix is only a pin if its cells exercise different paths: dead
/// candidates, the fallback window and the deadline must each move the
/// digest of every kind they apply to.
#[test]
fn matrix_cells_are_distinct_where_the_paths_differ() {
    let e = &EXPECTED;
    for (k, (_, kind)) in KINDS.iter().enumerate() {
        for [alive, dead] in e[k] {
            assert_ne!(alive, dead, "{kind}: dead candidates unseen");
        }
        assert_ne!(e[k][0][1], e[k][1][1], "{kind}: budget accounting unseen");
        assert_ne!(e[k][1][0], e[k][3][0], "{kind}: deadline unseen");
    }
    // Fallback applies where a target smaller than the candidate list
    // exists: capped range and k-nn.
    for k in [1, 2] {
        assert_ne!(e[k][1][1], e[k][2][1], "{}: fallback unseen", KINDS[k].1);
    }
}
