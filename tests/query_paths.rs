//! Pins every phase-2 path of the three query kinds to a digest.
//!
//! One seeded 12-peer network; {range, range with a peer budget, k-nn,
//! point} × {no budget, default budget, no fallback, hop deadline} × {all
//! alive, the two top-ranked candidates failed}. Each cell folds the
//! answer, all five `OpStats` fields, `peers_contacted`, `truncated` and
//! the traced JSONL stream into one FNV-1a digest. The table was measured
//! before the six fetch loops were folded into one walk; a refactor of the
//! query path must leave it unchanged.
//!
//! Beside it, a float-free digest of each cell folds the same answers and
//! counts plus the ranked peer order, with every float dropped: the k-nn
//! distances and each event's float-valued fields (`score`, `eps_l`, …).
//! A change that only rounds the geometry differently moves the first
//! table and must leave the second alone.

use hyperm::telemetry::{Event, Recorder, Value};
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

/// A cell's two digests: `raw` as pinned in `EXPECTED`, `free` without
/// floats as pinned in `FLOAT_FREE`.
struct Digests {
    raw: Fnv,
    free: Fnv,
}

impl Digests {
    fn new() -> Self {
        Digests {
            raw: Fnv::new(),
            free: Fnv::new(),
        }
    }
    /// An integer both digests fold.
    fn u(&mut self, v: u64) {
        self.raw.u(v);
        self.free.u(v);
    }
    fn stats(&mut self, s: OpStats) {
        self.raw.stats(s);
        self.free.stats(s);
    }
    fn event(&mut self, e: &Event) {
        self.raw.bytes(e.to_json_line().as_bytes());
        self.raw.bytes(b"\n");
        let ints = Event {
            fields: e
                .fields
                .iter()
                .filter(|(_, v)| !matches!(v, Value::F64(_)))
                .cloned()
                .collect(),
            ..e.clone()
        };
        self.free.bytes(ints.to_json_line().as_bytes());
        self.free.bytes(b"\n");
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
/// ranked candidate peers (whose order only the float-free digest folds).
fn run(
    net: &HypermNetwork,
    kind: Kind,
    q: &[f64],
    budget: Option<QueryBudget>,
    h: &mut Digests,
) -> Vec<usize> {
    let ranked: Vec<usize> = match kind {
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
                h.raw.u(d.to_bits());
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
    };
    for &p in &ranked {
        h.free.u(p as u64);
    }
    ranked
}

fn cell(
    base: &HypermNetwork,
    q: &[f64],
    kind: Kind,
    budget: Option<QueryBudget>,
    kill: bool,
) -> (u64, u64) {
    let mut net = base.clone();
    if kill {
        let ranked = run(&net, kind, q, None, &mut Digests::new());
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
    let mut h = Digests::new();
    run(&net, kind, q, budget, &mut h);
    assert_eq!(ring.dropped(), 0);
    for e in ring.events() {
        h.event(&e);
    }
    (h.raw.0, h.free.0)
}

/// `[kind][budget][alive, two dead]`, in the order of `KINDS` × `budgets()`.
/// The range and k-nn rows were re-pinned when the cap fraction moved from
/// the incomplete beta to closed forms (Eq. 5 and its odd-`d`
/// counterpart): their events' float fields round differently, while
/// `FLOAT_FREE` and the point rows did not move. The k-nn row was re-pinned
/// again when the Eq. 8 solver started near its root instead of at the
/// bracket midpoint: only each level's `eps_l` and flood `radius` moved, in
/// their last digits. Every cell was re-pinned when the 1-d CAN levels (A
/// and D_0) gained finger links: route hops on those levels moved, so did
/// the `route_hop` events (40 of 240 fewer over the matrix, 40 of the 200
/// left through a finger), the `hops`/`messages`/`bytes` of every
/// `overlay_lookup` and `query` span and each cell's `OpStats`. Answers,
/// ranked peers and Eq. 1 scores are identical with fingers on and off,
/// and `with_fingers(false)` reproduces the previous table.
const EXPECTED: Table = [
    [
        [0xecaf_46af_39fb_35a0, 0x3dca_c326_6b70_efc3],
        [0xecaf_46af_39fb_35a0, 0xb7a4_f29e_bb8b_bab6],
        [0xecaf_46af_39fb_35a0, 0xb7a4_f29e_bb8b_bab6],
        [0x93de_65e8_eae6_77eb, 0x3360_b203_e35f_3d42],
    ],
    [
        [0x38cf_3a7f_0449_b789, 0x1ba2_6d29_f434_cf23],
        [0x38cf_3a7f_0449_b789, 0x1c61_67c0_533d_b9b0],
        [0x38cf_3a7f_0449_b789, 0xfb2f_5b33_5784_d13f],
        [0x93de_65e8_eae6_77eb, 0x3360_b203_e35f_3d42],
    ],
    [
        [0xacf0_8b2e_56e7_0c45, 0x68a5_a5c2_376b_6606],
        [0xacf0_8b2e_56e7_0c45, 0xfd2b_e8bf_7511_e0b6],
        [0xacf0_8b2e_56e7_0c45, 0x45fc_cfc4_a2d0_cc85],
        [0x9fb1_f146_1217_428c, 0x09e2_c18e_1052_b5d1],
    ],
    [
        [0xabe0_2821_1cbf_4306, 0x3554_83cf_dd7b_3489],
        [0xabe0_2821_1cbf_4306, 0xb015_c1bd_73c1_d4cd],
        [0xabe0_2821_1cbf_4306, 0xb015_c1bd_73c1_d4cd],
        [0xc4fb_3cf0_7f98_c2ca, 0x4f06_9d2e_924b_7734],
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

/// The float-free digest of each cell, in the layout of `EXPECTED`,
/// measured before the cap kernel moved to closed forms, and re-pinned
/// for the same cause as `EXPECTED`: route hops on levels A and D_0.
const FLOAT_FREE: Table = [
    [
        [0xa5ed_3ecd_b78e_3683, 0x8bf7_801f_09a1_e1b4],
        [0xa5ed_3ecd_b78e_3683, 0xeaaf_34ee_7e20_fc0b],
        [0xa5ed_3ecd_b78e_3683, 0xeaaf_34ee_7e20_fc0b],
        [0xee6b_ce8f_ac41_4df8, 0xc945_b39a_5317_5df5],
    ],
    [
        [0xddcb_9ac6_5cdf_aab6, 0x5cec_7be6_58e2_7b22],
        [0xddcb_9ac6_5cdf_aab6, 0x90a1_dbc1_ed0d_4157],
        [0xddcb_9ac6_5cdf_aab6, 0xd5d9_8652_f526_dfae],
        [0xee6b_ce8f_ac41_4df8, 0xc945_b39a_5317_5df5],
    ],
    [
        [0xeaea_ed50_4779_9447, 0xa3ce_208a_624b_99e5],
        [0xeaea_ed50_4779_9447, 0xbc6d_f2ee_8395_3a7f],
        [0xeaea_ed50_4779_9447, 0x77c8_888d_a6da_321f],
        [0xa30a_2a8b_3e6b_c5dd, 0xd999_db7a_3f52_6000],
    ],
    [
        [0x43eb_6c56_85f3_6b29, 0x1045_0676_909f_91d0],
        [0x43eb_6c56_85f3_6b29, 0x6e34_c0c6_195e_f68c],
        [0x43eb_6c56_85f3_6b29, 0x6e34_c0c6_195e_f68c],
        [0xa207_64fd_9ad6_ee99, 0x42a0_5257_0dcc_a363],
    ],
];

type Table = [[[u64; 2]; 4]; 4];

/// Print each cell of `got` that differs from `pinned`; true if any did.
fn report(table: &str, got: &Table, pinned: &Table) -> bool {
    for (k, (_, kind)) in KINDS.iter().enumerate() {
        for (b, (_, budget)) in budgets().iter().enumerate() {
            for (d, state) in ["alive", "two dead"].iter().enumerate() {
                let (g, e) = (got[k][b][d], pinned[k][b][d]);
                if g != e {
                    eprintln!("{table}: {kind} / {budget} / {state}: {g:#018x}, pinned {e:#018x}");
                }
            }
        }
    }
    got != pinned
}

#[test]
fn every_phase2_path_matches_its_pinned_digest() {
    let (base, q) = network();
    let mut raw = [[[0u64; 2]; 4]; 4];
    let mut free = [[[0u64; 2]; 4]; 4];
    for (k, &(kind, _)) in KINDS.iter().enumerate() {
        for (b, &(budget, _)) in budgets().iter().enumerate() {
            for (d, kill) in [false, true].into_iter().enumerate() {
                (raw[k][b][d], free[k][b][d]) = cell(&base, &q, kind, budget, kill);
            }
        }
    }
    let raw_moved = report("raw", &raw, &EXPECTED);
    let free_moved = report("float-free", &free, &FLOAT_FREE);
    assert!(
        !free_moved,
        "answers, counts or events moved; measured float-free table:\n{free:#018x?}"
    );
    assert!(
        !raw_moved,
        "phase-2 digests moved; measured table:\n{raw:#018x?}"
    );
}

/// The matrix is only a pin if its cells exercise different paths: dead
/// candidates, the fallback window and the deadline must each move the
/// digest of every kind they apply to, in both tables.
#[test]
fn matrix_cells_are_distinct_where_the_paths_differ() {
    for e in [&EXPECTED, &FLOAT_FREE] {
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
}
