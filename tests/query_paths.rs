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

mod common;

use common::without_scan_counts;
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
        let e = &without_scan_counts(e);
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
///
/// Every cell was re-pinned again when each cluster came to be published
/// as its (near-)minimum enclosing ball instead of its centroid ball; the
/// cause is the sphere centres and radii. Range answers, ranked peers,
/// hops and messages are identical in all 16 range cells; the Eq. 1
/// `score`s and 16 flood bytes per query moved. The k-nn rows moved in
/// their answers (which neighbours and distances), ranked order, bytes and
/// events. The point query ranks 5 candidates, not 6 (peer 6 no longer
/// matches), so it pays 2 fewer hops and messages and one fewer `fetch`.
/// Its untruncated alive answers are identical; the "two dead" cells fail
/// the top two candidates, now peers 1 and 9 instead of 1 and 6, and with
/// 1 and 6 failed the answer is the previous one. Under the hop deadline
/// the freed slot reaches peer 9, which holds a copy.
const EXPECTED: Table = [
    [
        [0x249a_8e82_7f50_bf06, 0x7b5d_7572_f2a3_93d4],
        [0x249a_8e82_7f50_bf06, 0xac4b_a6e2_79dc_a8f7],
        [0x249a_8e82_7f50_bf06, 0xac4b_a6e2_79dc_a8f7],
        [0xadfb_c968_2064_bcf3, 0x2606_0a1e_7fc4_812c],
    ],
    [
        [0xfb39_c63f_3dcb_02f6, 0xc20a_e22e_117c_0655],
        [0xfb39_c63f_3dcb_02f6, 0x9db9_fd2d_418b_d36f],
        [0xfb39_c63f_3dcb_02f6, 0x61ed_5951_1539_0d41],
        [0xadfb_c968_2064_bcf3, 0x2606_0a1e_7fc4_812c],
    ],
    [
        [0xb88b_de49_fe5a_760e, 0x7c2e_6f99_125b_3a52],
        [0xb88b_de49_fe5a_760e, 0x6f19_e683_8e0b_1a06],
        [0xb88b_de49_fe5a_760e, 0x746f_8d47_c3a4_3771],
        [0x28f9_6f3f_27f4_c014, 0xf737_c365_b111_de8a],
    ],
    [
        [0xa7a0_0af0_a93c_973a, 0x2bde_899a_4ddc_5a86],
        [0xa7a0_0af0_a93c_973a, 0x99ac_f5c7_9abd_c686],
        [0xa7a0_0af0_a93c_973a, 0x99ac_f5c7_9abd_c686],
        [0xfd15_90cb_952c_c476, 0xff32_49e6_0466_92e5],
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
/// for the same causes as `EXPECTED`: route hops on levels A and D_0, then
/// the minimum-enclosing-ball spheres.
const FLOAT_FREE: Table = [
    [
        [0xebba_2d30_75f6_a509, 0xeb08_1eb2_953f_3d83],
        [0xebba_2d30_75f6_a509, 0xfceb_8d57_c2be_0fe2],
        [0xebba_2d30_75f6_a509, 0xfceb_8d57_c2be_0fe2],
        [0xad73_6eee_e3b9_05de, 0xc0c7_176d_10ae_ae51],
    ],
    [
        [0x5a56_1e80_5b20_660d, 0x4146_bc52_c675_ab40],
        [0x5a56_1e80_5b20_660d, 0x0693_bfed_1c5a_80c0],
        [0x5a56_1e80_5b20_660d, 0xeb6e_530d_6372_18b4],
        [0xad73_6eee_e3b9_05de, 0xc0c7_176d_10ae_ae51],
    ],
    [
        [0xe208_3133_781f_d597, 0x4fea_649f_4d61_7ef0],
        [0xe208_3133_781f_d597, 0x6db6_a066_428c_b12f],
        [0xe208_3133_781f_d597, 0xe0ef_e36a_5503_db56],
        [0x4fd4_4bc3_5f89_70c3, 0x799b_1768_b9e1_268e],
    ],
    [
        [0xe7b8_81df_cd26_4b05, 0x55b2_ec1d_5c3e_6075],
        [0xe7b8_81df_cd26_4b05, 0x4dd4_f3cb_af57_f1f1],
        [0xe7b8_81df_cd26_4b05, 0x4dd4_f3cb_af57_f1f1],
        [0x4fe6_e3b7_8b24_92bb, 0x3d74_1c06_5da9_2bd6],
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
