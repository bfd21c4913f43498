//! A Hyper-M peer: local items, their wavelet views, and the published
//! cluster summaries.
//!
//! Step *i1*/*i2* of the paper's Figure 2 happen here: every local item is
//! decomposed with the DWT ("this process could be done offline, and it
//! does not add to the overall time complexity"), the coefficients of each
//! published subspace are collected into a per-level dataset, and k-means
//! summarises each level into `K_p` cluster spheres. Each sphere is its
//! cluster's (near-)minimum enclosing ball, not the centroid ball
//! (`hyperm_cluster::spheres_from_clustering`): the same members and
//! count, a radius that still reaches the farthest member, and so the same
//! no-false-dismissal argument.
//!
//! Summarising costs only the arithmetic its output needs, and every
//! level view and k-means partition is bit-identical to the plain
//! per-item `decompose` followed by the textbook Lloyd loop:
//!
//! * the DWT is `hyperm_wavelet::haar_pyramid` over one scratch buffer per
//!   peer, asked for the kept subspaces only (below). For a 512-d item and
//!   four levels it computes 511 pair averages but only the 31 differences
//!   of `D_0..D_4`, and allocates nothing. The kernel is compiled once per
//!   convention, so the paper's `/ 2` is a constant division, which the
//!   compiler may lower to `* 0.5`: the same value, since halving is exact
//!   and both round the one exact quotient alike, subnormals included;
//! * k-means assigns rows with one kernel for the Lloyd loop and the final
//!   pass, instantiated at the published widths 1, 2, 4 and 8. Distances
//!   accumulate `d·d` from coordinate 0, a tie goes to the lower centroid
//!   index (strict `<`), each cluster's sum is taken in row order, and the
//!   RNG draws are those of the seeding alone.
//!
//! The same per-level coefficients are the peer's only index. A local
//! range, k-nn or point lookup (step *s3*) is one filter-and-refine scan:
//! walk the published subspaces coarse to fine, carry each item's running
//! lower bound `Σ_l c_l²·‖coeff_l(item) − coeff_l(q)‖² ≤ ‖item − q‖²`
//! (`hyperm_wavelet::theory::sq_radius_contraction` has the argument),
//! drop the item once the bound passes what the query can still accept,
//! and pay the full-dimensional `sq_dist` only for the survivors. The
//! refine test decides membership, so answers are those of a linear scan;
//! the filter's threshold is widened by
//! `hyperm_wavelet::theory::lower_bound_limit`, so rounding never
//! dismisses a row the refine test would accept.
//!
//! The first level, the 1-d approximation `A`, is read through a sorted
//! index rather than a pass over every item. A peer keeps its items in
//! `(A, index)` order (`Coarse`: a `u32` index and an `f64` key, 12 bytes
//! per item, ≈ 1.2 MB at paper scale), built by `summarize` and kept in
//! order by `push_item`. The term `w·(a − a_q)²` does not grow as `a` nears
//! `a_q` from either side, in `f64` too: `a − a_q` rounds monotonically in
//! `a`, and so do squaring and scaling by `w ≥ 0`. So the items whose term
//! is within the threshold are one run of the sorted keys. A
//! `partition_point` finds its start and a gallop from there its end, both
//! asking the dense pass's own question, so they find exactly those items,
//! with the same bound bits. On a narrow query (eps 0.05) the run holds
//! ≈ 1 % of a peer's items, on a wide one (eps 0.5) ≈ 7 %. Items whose `A`
//! is NaN are left out of the index: the filter never keeps them, and
//! `total_cmp` would sort a negative NaN first.
//!
//! The run is refined in the index's own order, coefficient order, and is
//! never put back in index order: `D_0`, `D_1` and `D_2` each take one
//! pass over the items still in it, then each survivor meets the guard
//! (below) and the refine. An item's bound is the same sum of the same
//! terms in the same level order whichever items went before it, so the
//! kept set and every bound bit are those of an index-order pass. A pass
//! per level rather than a chain per item keeps the loads of one level
//! independent of each other, so their cache misses overlap: on the
//! benchmark's `range_wide`, phase 2 read 0.11–0.14 ms per query against
//! 0.16 ms for the per-item chain. Only what is returned is ordered: a
//! range scan sorts its answers ascending, and a point lookup returns the
//! least matching index. The query's own peak magnitude, which widens
//! every threshold, is read once per query by the composed queries and
//! handed to each contacted peer's scan.
//!
//! Before each refine, a **guard** extends the item's bound with the next
//! finer subspaces, which the peer keeps but does not publish (`D_3` and
//! `D_4` at four levels, so 32 coefficients per item in all). An item the
//! longer sum already rules out is skipped: its refine could not have
//! accepted it, so answers do not change, but its 512-d row is not read.
//! The guard is checked per refine and not folded into the filter pass,
//! because a k-nn scan bounds every item and refines only a few: a peer far
//! from the query refines hundreds of rows for one answer, and the guard
//! skips most of them for the cost of reading 24 coefficients each.
//!
//! A k-nn scan has no threshold to filter by until it has k answers, so it
//! bounds every item. It does not walk the `A` index outward instead: its
//! stop radius, the k-th distance, spans most of a peer's `A` range, and
//! two prototypes of such a walk, bit-identical, ran 1.35–1.7× slower on
//! the benchmark's `knn` (one read 529 → 371 q/s, pinned, seed 1). It
//! bounds them in one dense pass per published level, with a kernel
//! instantiated at the widths 1, 2, 4 and 8 that adds each term in the
//! range scan's order, so every bound is the same `f64` — and refines them
//! in ascending `(bound, index)` order until the bound passes the k-th
//! distance. At paper scale it pops ≈ 56 of ≈ 1,400 items, so it does not
//! order them all: `select_nth_unstable` moves the next batch (32, then
//! 128, 512, …) of smallest keys to the front and only that batch is
//! sorted. The keys are unique, so the hand-out order is a full sort's,
//! and the refined sequence, distances and answer are bit for bit those
//! of a heap over every item.

use crate::config::HypermConfig;
use hyperm_cluster::kmeans::kmeans;
use hyperm_cluster::{spheres_from_clustering, ClusterSphere, Dataset, KMeansConfig};
use hyperm_geometry::vecmath::sq_dist;
use hyperm_wavelet::{
    decompose, haar_pyramid, lower_bound_limit, sq_radius_contraction, Decomposition,
    Normalization, Subspace,
};
use std::collections::BinaryHeap;

/// Wavelet coefficients per item the local scans may read: the published
/// subspaces, then as many whole finer subspaces as fit (the refine guard).
const SCAN_COEFFS: usize = 32;

/// One device and its local collection.
#[derive(Debug, Clone)]
pub struct Peer {
    /// Peer index (also its CAN node id in every overlay).
    pub id: usize,
    /// Original-space items (rows). Append through [`Peer::push_item`]
    /// only: the local scans are sound while row *i* of every view is
    /// item *i*.
    pub items: Dataset,
    /// Per kept subspace: the items' coefficients in that subspace (row
    /// i ↔ item i). The first `published` are the level views; the rest
    /// are the refine guard's.
    views: Vec<Dataset>,
    /// Per published subspace: the cluster-sphere summaries (step *i2*).
    pub summaries: Vec<Vec<ClusterSphere>>,
    /// The kept subspaces, coarse to fine, and the convention they were
    /// computed in — what it takes to decompose a query the way the items
    /// were.
    subspaces: Vec<Subspace>,
    /// How many of `subspaces` are published.
    published: usize,
    normalization: Normalization,
    /// Largest `|coordinate|` over all items: the scale of the
    /// coefficients' rounding error (see `lower_bound_limit`).
    peak: f64,
    /// The items sorted by their approximation coefficient: where the
    /// range and point scans start.
    coarse: Coarse,
}

/// The items' approximation coefficients `keys`, ascending, with each
/// one's item index in `rows`: sorted by `(A, index)`, 12 bytes per item.
/// Items whose coefficient is NaN are left out — the filter never keeps
/// them, and `total_cmp` would sort a negative NaN first.
#[derive(Debug, Clone)]
struct Coarse {
    keys: Vec<f64>,
    rows: Vec<u32>,
}

/// An item index as [`Coarse`] stores it.
fn row_index(i: usize) -> u32 {
    u32::try_from(i).expect("a peer holds fewer than 2^32 items")
}

impl Coarse {
    /// The index of a 1-wide view of the items' approximation coefficients.
    fn build(view: &Dataset) -> Coarse {
        debug_assert_eq!(view.dim(), 1, "the approximation is one coefficient");
        let mut pairs: Vec<(f64, u32)> = view
            .as_flat()
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.is_nan())
            .map(|(i, &a)| (a, row_index(i)))
            .collect();
        pairs.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        let (keys, rows) = pairs.into_iter().unzip();
        Coarse { keys, rows }
    }

    /// Index item `i`, whose coefficient is `a`. `i` is above every index
    /// held, so it goes after every key not above `a`.
    fn insert(&mut self, a: f64, i: usize) {
        if a.is_nan() {
            return;
        }
        let at = self.keys.partition_point(|k| k.total_cmp(&a).is_le());
        self.keys.insert(at, a);
        self.rows.insert(at, row_index(i));
    }

    /// `(coefficient, index)` of every item whose coefficient `keep`
    /// accepts, ascending by coefficient, given that `keep` accepts one
    /// contiguous run of the keys: it may reject a prefix of those below
    /// `centre` and a suffix of those from `centre` up, nothing else. A
    /// binary search finds the run's start; its end is galloped to from
    /// there (reach 1, 2, 4, … keys past the start until `keep` rejects
    /// one or the keys run out) and searched for within the last step, so
    /// a run of `m` keys costs `O(log m)` tests rather than `O(log n)`.
    fn window(
        &self,
        centre: f64,
        keep: impl Fn(f64) -> bool,
    ) -> impl Iterator<Item = (f64, usize)> + '_ {
        let lo = self.keys.partition_point(|&a| a < centre && !keep(a));
        let rest = &self.keys[lo..];
        // `keep` accepts `rest[..known]`; `reach` is the next key to test.
        let (mut known, mut reach) = (0, 1);
        while reach <= rest.len() && keep(rest[reach - 1]) {
            known = reach;
            reach *= 2;
        }
        let end = (reach - 1).min(rest.len());
        let hi = lo + known + rest[known..end].partition_point(|&a| keep(a));
        self.keys[lo..hi]
            .iter()
            .zip(&self.rows[lo..hi])
            .map(|(&a, &i)| (a, i as usize))
    }
}

/// Largest `|coordinate|` of a vector: 0 when empty, NaNs skipped — the
/// value of `v.iter().fold(0.0, |m, x| m.max(x.abs()))`, bit for bit.
///
/// Every operand is a non-negative magnitude or a NaN, which never
/// compares larger, so the maximum does not depend on the order it is
/// taken in. That lets four lanes fold independently, each step one
/// compare-and-keep instead of `f64::max`'s NaN-checking sequence.
///
/// A query's peak is read once per query: the composed queries pass it to
/// every contacted peer's scan.
pub(crate) fn peak(v: &[f64]) -> f64 {
    fn larger(m: f64, x: &f64) -> f64 {
        let a = x.abs();
        if a > m {
            a
        } else {
            m
        }
    }
    let mut lanes = [0.0f64; 4];
    let quads = v.chunks_exact(4);
    let rest = quads.remainder();
    for quad in quads {
        for (m, x) in lanes.iter_mut().zip(quad) {
            *m = larger(*m, x);
        }
    }
    lanes.iter().chain(rest).fold(0.0, larger)
}

/// Panics unless every coordinate of the query centre `q` is finite: a
/// NaN would reach the overlays as a NaN radius, and an infinite one
/// would match no item at all.
pub(crate) fn assert_finite_centre(q: &[f64]) {
    assert_finite("query centre", q);
}

/// Panics unless every coordinate of `v` is finite, naming `v` as `what`.
pub(crate) fn assert_finite(what: &str, v: &[f64]) {
    if let Some(i) = v.iter().position(|x| !x.is_finite()) {
        panic!("{what} must be finite, coordinate {i} is {}", v[i]);
    }
}

/// The published subspaces, then the finer ones the refine guard keeps:
/// whole subspaces while the first `SCAN_COEFFS` coefficients hold them
/// and the data has them.
fn kept_subspaces(config: &HypermConfig) -> Vec<Subspace> {
    let mut kept = config.subspaces();
    while kept.len() < config.max_levels() {
        let next = Subspace::Detail(kept.len() as u32 - 1);
        if next.range().end > SCAN_COEFFS {
            break;
        }
        kept.push(next);
    }
    kept
}

/// The refine guard of one scan: per guard subspace, its view, the query's
/// coefficients there and `c_l²`.
struct Guard<'a>(Vec<(&'a Dataset, &'a [f64], f64)>);

impl Guard<'_> {
    /// Whether item `i`, whose filter bound is `bound`, may still be within
    /// `limit` (a [`Peer::guard_limit`]) once the guard subspaces are added.
    fn admits(&self, i: usize, bound: f64, limit: f64) -> bool {
        let total = self.0.iter().fold(bound, |acc, &(view, coeffs, w)| {
            acc + w * sq_dist(view.row(i), coeffs)
        });
        total <= limit
    }
}

/// One level's term `w·‖row − coeffs‖²` for each `D`-wide row of `rows`
/// (or `coeffs.len()`-wide when `D` is 0): written to `bounds[i]` when
/// `first`, else added to it. The published widths get an instantiation
/// with the width a constant, so the distance loop unrolls.
fn add_level<const D: usize>(
    bounds: &mut [f64],
    rows: &[f64],
    coeffs: &[f64],
    w: f64,
    first: bool,
) {
    let dim = if D == 0 { coeffs.len() } else { D };
    debug_assert_eq!(dim, coeffs.len(), "add_level: width");
    // Re-sliced so the compiler sees the constant width and unrolls.
    let coeffs = &coeffs[..dim];
    for (bound, row) in bounds.iter_mut().zip(rows.chunks_exact(dim)) {
        let term = w * sq_dist(row, coeffs);
        *bound = if first { term } else { *bound + term };
    }
}

/// First batch [`Ascending`] sorts, and the factor each later one grows
/// by: a k-nn scan usually stops inside the first batch, and a far one
/// that does not reaches the end in a few.
const FIRST_BATCH: usize = 32;
const BATCH_GROWTH: usize = 4;

/// The k-nn scan's key of item `i`: `(bound bits, i)` in one integer, so
/// keys are unique and their order is the pair's.
fn key(bound: f64, i: usize) -> u128 {
    (u128::from(bound.to_bits()) << 64) | i as u128
}

/// `(bound, i)` back from a [`key`].
fn unkey(key: u128) -> (f64, usize) {
    (f64::from_bits((key >> 64) as u64), key as u64 as usize)
}

/// Keys handed out in ascending order, a batch at a time:
/// `select_nth_unstable` moves the next batch's keys to the front of those
/// left, and only that batch is sorted. Keys are unique, so every batch
/// holds exactly the smallest keys left and the sequence is a full sort's
/// — a min-heap's pop order — for the cost of the batches reached.
struct Ascending {
    keys: Vec<u128>,
    /// Next key to hand out.
    next: usize,
    /// `keys[..sorted]` are the smallest, in order.
    sorted: usize,
    /// Size of the next batch.
    batch: usize,
}

impl Ascending {
    fn new(keys: Vec<u128>) -> Self {
        Self {
            keys,
            next: 0,
            sorted: 0,
            batch: FIRST_BATCH,
        }
    }
}

impl Iterator for Ascending {
    type Item = u128;

    fn next(&mut self) -> Option<u128> {
        if self.next == self.sorted {
            let rest = &mut self.keys[self.sorted..];
            let take = self.batch.min(rest.len());
            if take < rest.len() {
                rest.select_nth_unstable(take);
            }
            rest[..take].sort_unstable();
            self.sorted += take;
            self.batch = self.batch.saturating_mul(BATCH_GROWTH);
        }
        let key = self.keys.get(self.next).copied()?;
        self.next += 1;
        Some(key)
    }
}

impl Peer {
    /// Decompose and summarise `items` according to `config`.
    ///
    /// The k-means seed is derived from `(config.seed, id, level)` so the
    /// whole network build is reproducible while peers stay decorrelated.
    ///
    /// # Panics
    /// If `items` is empty, is not `data_dim` wide, or holds a NaN or
    /// infinite coordinate (which k-means cannot cluster).
    pub fn summarize(id: usize, items: Dataset, config: &HypermConfig) -> Peer {
        match Self::try_summarize(id, items, config) {
            Ok(peer) => peer,
            Err((row, coordinate)) => {
                panic!("peer {id}: item {row} has a non-finite coordinate {coordinate}")
            }
        }
    }

    /// [`Peer::summarize`], or `(row, coordinate)` of the first NaN or
    /// infinite coordinate in `items`. The check rides on what summarising
    /// reads anyway: a NaN makes an item's approximation coefficient NaN
    /// (it is a scaled sum of every coordinate) and an infinity makes its
    /// peak magnitude infinite, so only an item that trips either is
    /// scanned.
    pub(crate) fn try_summarize(
        id: usize,
        items: Dataset,
        config: &HypermConfig,
    ) -> Result<Peer, (usize, usize)> {
        assert!(!items.is_empty(), "peer {id} has no items");
        assert_eq!(items.dim(), config.data_dim, "peer {id} dimension mismatch");
        let subspaces = kept_subspaces(config);

        // Run the pyramid once per item, computing the kept subspaces only,
        // in one scratch buffer; scatter them into per-subspace datasets.
        let mut views: Vec<Dataset> = subspaces
            .iter()
            .map(|s| Dataset::with_capacity(s.dim(), items.len()))
            .collect();
        let mut scratch = Vec::new();
        let mut peak_seen = 0.0f64;
        for (i, row) in items.rows().enumerate() {
            let coeffs = haar_pyramid(row, config.normalization, &subspaces, &mut scratch)
                .expect("power-of-two dim");
            let row_peak = peak(row);
            if !(row_peak.is_finite() && coeffs[0].is_finite()) {
                if let Some(c) = row.iter().position(|x| !x.is_finite()) {
                    return Err((i, c));
                }
            }
            for (view, &s) in views.iter_mut().zip(&subspaces) {
                view.push_row(&coeffs[s.range()]);
            }
            peak_seen = peak_seen.max(row_peak);
        }

        // Cluster each published level independently.
        let published = config.levels;
        let summaries: Vec<Vec<ClusterSphere>> = views[..published]
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
                let result = kmeans(view, &cfg);
                spheres_from_clustering(view, &result)
            })
            .collect();

        let coarse = Coarse::build(&views[0]);
        Ok(Peer {
            id,
            items,
            views,
            summaries,
            subspaces,
            published,
            normalization: config.normalization,
            peak: peak_seen,
            coarse,
        })
    }

    /// Number of local items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the peer holds no items (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Per published subspace: the items' coefficients in that subspace
    /// (row i ↔ item i).
    pub fn level_views(&self) -> &[Dataset] {
        &self.views[..self.published]
    }

    /// Append `item`, whose decomposition is `dec`, to the collection and
    /// to every view — the one place a peer grows, so the rows stay
    /// aligned. Summaries are the caller's business (see `maintenance`).
    pub fn push_item(&mut self, item: &[f64], dec: &Decomposition) {
        assert_eq!(item.len(), self.items.dim(), "item dimension mismatch");
        self.check_decomposition(dec);
        self.items.push_row(item);
        for (view, &s) in self.views.iter_mut().zip(&self.subspaces) {
            view.push_row(dec.subspace(s).expect("subspace exists"));
        }
        let approx = dec.subspace(Subspace::Approx).expect("subspace exists");
        self.coarse.insert(approx[0], self.items.len() - 1);
        self.peak = self.peak.max(peak(item));
    }

    /// Exact local range scan in the **original** space: indices of items
    /// within `eps` of `q`, ascending. This is the "retrieve the actual
    /// data items" step (s3) — precision is 100% because the peer decides
    /// by true distance; the wavelet filter only spares it most of them.
    ///
    /// # Panics
    /// If `eps` is negative or NaN, or `q` is not finite.
    pub fn local_range(&self, q: &[f64], eps: f64) -> Vec<usize> {
        self.local_range_with(q, &self.decompose(q), peak(q), eps)
    }

    /// Exact local k-nn in the original space: `(local index, distance)`
    /// pairs, the `k` smallest by `(distance, index)`, closest first.
    pub fn local_knn(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        self.local_knn_with(q, &self.decompose(q), peak(q), k)
    }

    /// Exact-match local lookup: the least index of an item equal to `q`.
    pub fn local_point(&self, q: &[f64]) -> Option<usize> {
        self.local_point_with(q, &self.decompose(q), peak(q))
    }

    /// [`Peer::local_range`] for a query whose decomposition `dec` and
    /// [`peak`] `q_peak` the caller already holds. The filter hands out
    /// survivors in the coarse index's order; only the answers are sorted.
    pub(crate) fn local_range_with(
        &self,
        q: &[f64],
        dec: &Decomposition,
        q_peak: f64,
        eps: f64,
    ) -> Vec<usize> {
        assert!(eps >= 0.0, "negative radius {eps}");
        let accept = eps * eps + 1e-12;
        let magnitude = self.magnitude(q_peak);
        let guard = self.guard(dec);
        let guard_limit = self.guard_limit(accept, magnitude);
        let mut found: Vec<usize> = self
            .filter(dec, self.limit(accept, magnitude))
            .into_iter()
            .filter(|&(i, bound)| guard.admits(i, bound, guard_limit))
            .map(|(i, _)| i)
            .filter(|&i| sq_dist(self.items.row(i), q) <= accept)
            .collect();
        found.sort_unstable();
        found
    }

    /// [`Peer::local_knn`] for an already decomposed query. Items are
    /// refined in ascending lower-bound order until the bound rules out
    /// beating the k-th best found; the guard skips those it rules out
    /// on the way.
    pub(crate) fn local_knn_with(
        &self,
        q: &[f64],
        dec: &Decomposition,
        q_peak: f64,
        k: usize,
    ) -> Vec<(usize, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let magnitude = self.magnitude(q_peak);
        // Every item's published bound, in one dense pass per level.
        // `nearest` hands them out by ascending `(bound bits, index)` —
        // for non-negative floats the bits' order is numeric order —
        // sorting only the batches it reaches, so the few that get refined
        // cost little more than the pass. Keys are unique, so that is the
        // order a min-heap of every item would pop them in: the refined
        // sequence, every distance and `best` are the heap scan's. A NaN
        // bound, an item `filter(dec, ∞)` drops, has bits above +∞'s: all
        // of them come last, and the scan stops at the first. `best`
        // keeps the k smallest `(distance bits, index)` with the k-th on
        // top.
        let keys: Vec<u128> = self
            .bounds(dec)
            .into_iter()
            .enumerate()
            .map(|(i, bound)| key(bound, i))
            .collect();
        let mut best: BinaryHeap<(u64, usize)> = BinaryHeap::with_capacity(k.min(keys.len()) + 1);
        let nearest = Ascending::new(keys);
        // A skipped item is worse than the k-th best, so it would have
        // left `best` as it was: the refined sequence, and with it `stop`,
        // is the unguarded one.
        let guard = self.guard(dec);
        let (mut stop, mut guard_stop) = (f64::INFINITY, f64::INFINITY);
        for (bound, i) in nearest.map(unkey) {
            if bound.is_nan() || bound > stop {
                break;
            }
            if !guard.admits(i, bound, guard_stop) {
                continue;
            }
            let d = sq_dist(self.items.row(i), q).sqrt();
            best.push((d.to_bits(), i));
            if best.len() > k {
                best.pop();
            }
            if let (true, Some(&(kth, _))) = (best.len() == k, best.peek()) {
                let kth = f64::from_bits(kth);
                stop = self.limit(kth * kth, magnitude);
                guard_stop = self.guard_limit(kth * kth, magnitude);
            }
        }
        best.into_sorted_vec()
            .into_iter()
            .map(|(bits, i)| (i, f64::from_bits(bits)))
            .collect()
    }

    /// [`Peer::local_point`] for an already decomposed query. The filter
    /// hands out survivors in the coarse index's order, so the answer is
    /// the least matching index, not the first one met.
    pub(crate) fn local_point_with(
        &self,
        q: &[f64],
        dec: &Decomposition,
        q_peak: f64,
    ) -> Option<usize> {
        const SAME: f64 = 1e-18;
        let magnitude = self.magnitude(q_peak);
        let guard = self.guard(dec);
        let guard_limit = self.guard_limit(SAME, magnitude);
        self.filter(dec, self.limit(SAME, magnitude))
            .into_iter()
            .filter(|&(i, bound)| guard.admits(i, bound, guard_limit))
            .map(|(i, _)| i)
            .filter(|&i| sq_dist(self.items.row(i), q) < SAME)
            .min()
    }

    /// Decompose a query the way the items were.
    fn decompose(&self, q: &[f64]) -> Decomposition {
        assert_eq!(q.len(), self.items.dim(), "query dimension mismatch");
        assert_finite_centre(q);
        decompose(q, self.normalization).expect("power-of-two dim")
    }

    fn check_decomposition(&self, dec: &Decomposition) {
        assert_eq!(dec.dim(), self.items.dim(), "decomposition dimension");
        assert_eq!(
            dec.normalization(),
            self.normalization,
            "decomposition convention"
        );
    }

    /// `max|itemᵢ| + max|qᵢ|`, given the query's [`peak`] `q_peak`: what
    /// the coefficients' rounding error scales with.
    fn magnitude(&self, q_peak: f64) -> f64 {
        self.peak + q_peak
    }

    /// The filter threshold under which no item with `sq_dist(item, q) ≤
    /// sq_accept` is dismissed.
    fn limit(&self, sq_accept: f64, magnitude: f64) -> f64 {
        lower_bound_limit(sq_accept, self.items.dim(), self.published, magnitude)
    }

    /// [`Peer::limit`] for a bound summed over every kept subspace.
    fn guard_limit(&self, sq_accept: f64, magnitude: f64) -> f64 {
        lower_bound_limit(sq_accept, self.items.dim(), self.subspaces.len(), magnitude)
    }

    /// Per kept subspace in `range`: its view, the query's coefficients
    /// there, and `c_l²`.
    fn levels<'a>(
        &'a self,
        dec: &'a Decomposition,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (&'a Dataset, &'a [f64], f64)> {
        let dim = self.items.dim();
        self.views[range.clone()]
            .iter()
            .zip(&self.subspaces[range])
            .map(move |(view, &s)| {
                let weight = sq_radius_contraction(dim, s, self.normalization);
                (view, dec.subspace(s).expect("subspace exists"), weight)
            })
    }

    /// The refine guard for the query `dec`.
    fn guard<'a>(&'a self, dec: &'a Decomposition) -> Guard<'a> {
        Guard(
            self.levels(dec, self.published..self.subspaces.len())
                .collect(),
        )
    }

    /// The filter pass: `(index, lower bound)` of every item whose bound,
    /// summed over the published subspaces coarse to fine, never passed
    /// `limit` — in the coarse index's `(A, index)` order.
    ///
    /// The first level reads only the coarse index's window: the term
    /// `w·(a − a_q)²` does not grow as `a` nears `a_q` from either side, in
    /// `f64` too (each rounding step is monotone), so the items whose term
    /// is within `limit` are one run of the sorted coefficients — exactly
    /// those a pass over every item keeps, with the same bounds. The finer
    /// levels then run as one pass each over the survivors, in the run's
    /// own order: an item's bound is the same sum of the same terms in the
    /// same level order whichever items went before it, so the kept set and
    /// its bits do not depend on the order items are visited in.
    fn filter(&self, dec: &Decomposition, limit: f64) -> Vec<(usize, f64)> {
        self.check_decomposition(dec);
        debug_assert!(
            self.views.iter().all(|v| v.len() == self.items.len()),
            "peer {}: a view is out of step with the items",
            self.id
        );
        debug_assert_eq!(
            self.coarse.rows.len(),
            self.views[0]
                .as_flat()
                .iter()
                .filter(|a| !a.is_nan())
                .count(),
            "peer {}: the coarse index is out of step with the items",
            self.id
        );
        let mut levels = self.levels(dec, 0..self.published);
        let Some((_, coeffs, w)) = levels.next() else {
            return Vec::new();
        };
        let term = |a: f64| w * sq_dist(&[a], coeffs);
        let mut alive: Vec<(usize, f64)> = self
            .coarse
            .window(coeffs[0], |a| term(a) <= limit)
            .map(|(a, i)| (i, term(a)))
            .collect();
        for (view, coeffs, w) in levels {
            alive.retain_mut(|(i, bound)| {
                *bound += w * sq_dist(view.row(*i), coeffs);
                *bound <= limit
            });
        }
        alive
    }

    /// Every item's lower bound summed over the published subspaces, in
    /// index order: the bounds `filter(dec, ∞)` keeps, bit for bit, and
    /// NaN for the items it drops. One dense pass per level, each term
    /// added in `filter`'s order.
    fn bounds(&self, dec: &Decomposition) -> Vec<f64> {
        self.check_decomposition(dec);
        debug_assert!(
            self.views.iter().all(|v| v.len() == self.items.len()),
            "peer {}: a view is out of step with the items",
            self.id
        );
        let mut bounds = vec![0.0; self.items.len()];
        for (l, (view, coeffs, w)) in self.levels(dec, 0..self.published).enumerate() {
            let (rows, first) = (view.as_flat(), l == 0);
            match view.dim() {
                1 => add_level::<1>(&mut bounds, rows, coeffs, w, first),
                2 => add_level::<2>(&mut bounds, rows, coeffs, w, first),
                4 => add_level::<4>(&mut bounds, rows, coeffs, w, first),
                8 => add_level::<8>(&mut bounds, rows, coeffs, w, first),
                _ => add_level::<0>(&mut bounds, rows, coeffs, w, first),
            }
        }
        bounds
    }

    /// Total wire bytes of all published summaries (what dissemination
    /// actually transfers, vs. `8·dim·len` for the raw items).
    pub fn summary_bytes(&self) -> u64 {
        self.summaries
            .iter()
            .flatten()
            .map(|s| s.wire_bytes() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::InsertPolicy;
    use crate::network::HypermNetwork;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn items(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0; dim];
        for _ in 0..n {
            for x in row.iter_mut() {
                *x = rng.gen();
            }
            ds.push_row(&row);
        }
        ds
    }

    fn config() -> HypermConfig {
        HypermConfig::new(16)
            .with_levels(3)
            .with_clusters_per_peer(4)
    }

    #[test]
    fn summarize_produces_per_level_structures() {
        let peer = Peer::summarize(0, items(50, 16, 1), &config());
        assert_eq!(peer.level_views().len(), 3);
        assert_eq!(peer.summaries.len(), 3);
        assert_eq!(peer.level_views()[0].dim(), 1); // A
        assert_eq!(peer.level_views()[1].dim(), 1); // D0
        assert_eq!(peer.level_views()[2].dim(), 2); // D1
        for (views, summary) in peer.level_views().iter().zip(&peer.summaries) {
            assert_eq!(views.len(), 50);
            assert!(summary.len() <= 4);
            assert_eq!(summary.iter().map(|s| s.items).sum::<usize>(), 50);
        }
    }

    #[test]
    fn summaries_cover_their_level_views() {
        let peer = Peer::summarize(3, items(40, 16, 2), &config());
        for (view, summary) in peer.level_views().iter().zip(&peer.summaries) {
            for row in view.rows() {
                assert!(
                    summary.iter().any(|s| s.contains(row)),
                    "coefficient row escapes all spheres"
                );
            }
        }
    }

    #[test]
    fn local_queries_are_exact() {
        let ds = Dataset::from_rows(&[[0.0; 16], [0.5; 16], [1.0; 16]]);
        let peer = Peer::summarize(0, ds, &config());
        let q = [0.0f64; 16];
        assert_eq!(peer.local_range(&q, 0.1), vec![0]);
        assert_eq!(peer.local_range(&q, 2.1), vec![0, 1]);
        let knn = peer.local_knn(&q, 2);
        assert_eq!(knn[0].0, 0);
        assert_eq!(knn[1].0, 1);
        assert_eq!(peer.local_point(&[0.5; 16]), Some(1));
        assert_eq!(peer.local_point(&[0.4; 16]), None);
    }

    /// What a linear scan of the rows answers: the oracle of the scan's
    /// property test, sharing nothing with the filter.
    fn linear_range(items: &Dataset, q: &[f64], eps: f64) -> Vec<usize> {
        let rows = items.rows().enumerate();
        rows.filter(|(_, row)| sq_dist(row, q) <= eps * eps + 1e-12)
            .map(|(i, _)| i)
            .collect()
    }

    /// `(index, distance bits)` of the `k` smallest by `(distance, index)`.
    fn linear_knn(items: &Dataset, q: &[f64], k: usize) -> Vec<(usize, u64)> {
        let mut all: Vec<(usize, f64)> = items
            .rows()
            .map(|row| sq_dist(row, q).sqrt())
            .enumerate()
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
    }

    /// The next `f64` below a positive one.
    fn one_ulp_below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Range, k-nn and point scans answer exactly what a linear scan
        /// does — on tight clusters at magnitudes up to 10⁶ (where the
        /// coefficients' rounding error is far larger than the query
        /// radius), with duplicated rows, with rows appended after
        /// `summarize`, at radii sitting exactly on an item's distance.
        #[test]
        fn scans_answer_what_a_linear_scan_does(
            log_dim in 3u32..10,
            levels in 1usize..5,
            orthonormal in any::<bool>(),
            exponent in 0i32..7,
            spread_exponent in 0i32..13,
            republish in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let dim = 1usize << log_dim;
            let magnitude = 10f64.powi(exponent);
            let spread = magnitude * 10f64.powi(-spread_exponent);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cfg = HypermConfig::new(dim)
                .with_levels(levels)
                .with_clusters_per_peer(3)
                .with_seed(seed);
            cfg.data_bounds = (-magnitude, magnitude);
            if orthonormal {
                cfg.normalization = Normalization::Orthonormal;
            }

            // Rows scattered `spread` around a centre of size `magnitude`.
            let centre: Vec<f64> =
                (0..dim).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * magnitude).collect();
            let mut near_centre = |rng: &mut StdRng| -> Vec<f64> {
                centre
                    .iter()
                    .map(|c| (c + (rng.gen::<f64>() - 0.5) * spread).clamp(-magnitude, magnitude))
                    .collect()
            };
            let mut ds = Dataset::new(dim);
            for _ in 0..rng.gen_range(1..30usize) {
                ds.push_row(&near_centre(&mut rng));
            }
            let duplicate = ds.row(0).to_vec();
            ds.push_row(&duplicate);
            let other = Dataset::from_rows(&[near_centre(&mut rng)]);
            let (mut net, _) = HypermNetwork::build(vec![ds, other], cfg).unwrap();

            // Post-build rows: a fresh one, one more copy of row 0, and
            // row 0 moved by a constant. A query half-way along that move
            // differs from both ends in the approximation only, where the
            // lower bound is the distance itself: nothing but the slack
            // keeps them, and which is nearer is a matter of rounding.
            let policy =
                if republish { InsertPolicy::Republish } else { InsertPolicy::StaleSummaries };
            let copy = net.peer(0).items.row(0).to_vec();
            let shift = (rng.gen::<f64>() - 0.5) * spread;
            let shifted: Vec<f64> = copy.iter().map(|x| x + shift).collect();
            let mirrored: Vec<f64> = shifted.iter().map(|x| x + shift).collect();
            for item in [near_centre(&mut rng), copy.clone(), mirrored] {
                net.insert_item(0, &item, policy);
            }
            let peer = net.peer(0);
            let n = peer.len();
            prop_assert!(peer.level_views().iter().all(|v| v.len() == n));

            for q in [copy, shifted, near_centre(&mut rng)] {
                let truth = linear_knn(&peer.items, &q, n);
                let mut radii = vec![0.0, magnitude * 4.0 * (dim as f64).sqrt()];
                for &(_, bits) in [truth.first(), truth.get(n / 2), truth.last()]
                    .into_iter()
                    .flatten()
                {
                    let d = f64::from_bits(bits);
                    radii.push(d);
                    if d > 0.0 {
                        radii.push(one_ulp_below(d));
                    }
                }
                for eps in radii {
                    prop_assert_eq!(
                        peer.local_range(&q, eps),
                        linear_range(&peer.items, &q, eps),
                        "eps {}", eps
                    );
                }
                for k in [0, 1, 2, 4, n, n + 5] {
                    let got: Vec<(usize, u64)> = peer
                        .local_knn(&q, k)
                        .into_iter()
                        .map(|(i, d)| (i, d.to_bits()))
                        .collect();
                    prop_assert_eq!(&got[..], &truth[..k.min(n)], "k {}", k);
                }
                prop_assert_eq!(
                    peer.local_point(&q),
                    peer.items.rows().position(|row| sq_dist(row, &q) < 1e-18)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// k-nn answers what a linear scan does when the scan runs through
        /// several batches: rows of a few groups whose published
        /// coefficients are the same bit for bit — they differ only by
        /// zero-mean steps within each block of `dim / 8` coordinates,
        /// which `D_3` and finer see — so every group's items tie on their
        /// bound and only the index orders them.
        #[test]
        fn knn_across_batches_answers_what_a_linear_scan_does(
            log_dim in 5u32..8,
            rows in 100usize..=400,
            groups in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let dim = 1usize << log_dim;
            let mut rng = StdRng::seed_from_u64(seed);
            // Multiples of 1/8 of small size: every pair average and
            // difference of the pyramid is exact, so the blocks' means
            // (and with them A, D_0, D_1, D_2) are the base's exactly.
            let dyadic = |rng: &mut StdRng, range: std::ops::Range<i32>| {
                f64::from(rng.gen_range(range)) / 8.0
            };
            let bases: Vec<Vec<f64>> = (0..groups)
                .map(|_| (0..dim).map(|_| dyadic(&mut rng, 0..64)).collect())
                .collect();
            let member = |rng: &mut StdRng, base: &[f64]| -> Vec<f64> {
                let mut row = base.to_vec();
                let mut size = 2;
                while size <= dim / 8 {
                    for window in row.chunks_exact_mut(size) {
                        let step = dyadic(rng, -2..3);
                        let (up, down) = window.split_at_mut(size / 2);
                        up.iter_mut().for_each(|x| *x += step);
                        down.iter_mut().for_each(|x| *x -= step);
                    }
                    size *= 2;
                }
                row
            };
            let mut ds = Dataset::new(dim);
            for _ in 0..rows {
                let g = rng.gen_range(0..groups);
                ds.push_row(&member(&mut rng, &bases[g]));
            }
            let cfg = HypermConfig::new(dim).with_levels(4).with_clusters_per_peer(3).with_seed(seed);
            let peer = Peer::summarize(0, ds, &cfg);
            let n = peer.len();

            let stored = peer.items.row(rng.gen_range(0..n)).to_vec();
            let moved = member(&mut rng, &bases[0]);
            let elsewhere: Vec<f64> = (0..dim).map(|_| dyadic(&mut rng, 0..64)).collect();
            for q in [stored, bases[0].clone(), moved, elsewhere] {
                let bounds = peer.bounds(&peer.decompose(&q));
                let mut distinct: Vec<u64> = bounds.iter().map(|b| b.to_bits()).collect();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert!(distinct.len() <= groups, "{} bounds", distinct.len());

                let truth = linear_knn(&peer.items, &q, n);
                for k in [1, 10, 33, n, n + 5] {
                    let got: Vec<(usize, u64)> = peer
                        .local_knn(&q, k)
                        .into_iter()
                        .map(|(i, d)| (i, d.to_bits()))
                        .collect();
                    prop_assert_eq!(&got[..], &truth[..k.min(n)], "k {}", k);
                }
            }
        }
    }

    /// The filter with a dense first level, as it was before the coarse
    /// index: every item's `A` term, then the finer levels on the
    /// survivors. The reference of the windowed filter's property test.
    fn dense_filter(peer: &Peer, dec: &Decomposition, limit: f64) -> Vec<(usize, u64)> {
        let mut levels = peer.levels(dec, 0..peer.published);
        let (view, coeffs, w) = levels.next().unwrap();
        let mut alive: Vec<(usize, f64)> = view
            .rows()
            .map(|row| w * sq_dist(row, coeffs))
            .enumerate()
            .filter(|&(_, bound)| bound <= limit)
            .collect();
        for (view, coeffs, w) in levels {
            alive.retain_mut(|(i, bound)| {
                *bound += w * sq_dist(view.row(*i), coeffs);
                *bound <= limit
            });
        }
        alive.into_iter().map(|(i, b)| (i, b.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The windowed filter keeps exactly the items, with exactly the
        /// bound bits, of the dense first-level pass — on corpora of few
        /// distinct dyadic values (so many items tie on `A`), with rows of
        /// `+0.0` and of `-0.0`, rows with a NaN coordinate, rows appended
        /// after `summarize`, queries below the smallest and above the
        /// largest `A`, and `eps = 0`.
        #[test]
        fn windowed_filter_keeps_what_the_dense_pass_does(
            log_dim in 2u32..6,
            levels in 1usize..4,
            orthonormal in any::<bool>(),
            rows in 1usize..40,
            appended in 0usize..12,
            seed in any::<u64>(),
        ) {
            let dim = 1usize << log_dim;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cfg = HypermConfig::new(dim)
                .with_levels(levels.min(log_dim as usize + 1))
                .with_clusters_per_peer(3)
                .with_seed(seed);
            if orthonormal {
                cfg.normalization = Normalization::Orthonormal;
            }
            // Multiples of 1/8 from a short list: averages are exact, and
            // rows often share their mean.
            let row = |rng: &mut StdRng| -> Vec<f64> {
                match rng.gen_range(0..8) {
                    0 => vec![0.0; dim],
                    1 => vec![-0.0; dim],
                    _ => (0..dim).map(|_| f64::from(rng.gen_range(-4..5)) / 8.0).collect(),
                }
            };
            let mut ds = Dataset::new(dim);
            for _ in 0..rows {
                ds.push_row(&row(&mut rng));
            }
            let mut peer = Peer::summarize(0, ds, &cfg);
            for j in 0..appended {
                let mut item = if j % 3 == 0 {
                    peer.items.row(rng.gen_range(0..peer.len())).to_vec()
                } else {
                    row(&mut rng)
                };
                if j % 4 == 1 {
                    item[rng.gen_range(0..dim)] = f64::NAN;
                }
                let dec = decompose(&item, peer.normalization).unwrap();
                peer.push_item(&item, &dec);
            }
            // The index is the one `summarize` would build over every row.
            let rebuilt = Coarse::build(&peer.views[0]);
            let bits = |c: &Coarse| c.keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&peer.coarse), bits(&rebuilt));
            prop_assert_eq!(&peer.coarse.rows, &rebuilt.rows);

            // A stored row, and the same row a hair higher, whose `A` sits
            // just above that item's.
            let stored = peer.items.row(rng.gen_range(0..peer.len())).to_vec();
            let nudged: Vec<f64> = stored.iter().map(|x| x + 1e-12).collect();
            let queries = [
                stored,
                nudged,
                vec![0.0; dim],
                vec![-0.0; dim],
                vec![-1.0; dim],
                vec![1.0; dim],
                row(&mut rng),
            ];
            for q in queries {
                if q.iter().any(|x| x.is_nan()) {
                    continue;
                }
                let dec = peer.decompose(&q);
                let magnitude = peer.magnitude(peak(&q));
                let mut limits = vec![0.0, f64::INFINITY];
                for eps in [0.0, 0.05, 0.25, 1.0] {
                    limits.push(peer.limit(eps * eps + 1e-12, magnitude));
                    limits.push(peer.limit(eps * eps, magnitude));
                }
                // Limits sitting exactly on some item's bound.
                let on_bound = dense_filter(&peer, &dec, f64::INFINITY);
                for &(_, b) in on_bound.iter().take(3) {
                    limits.push(f64::from_bits(b));
                }
                for limit in limits {
                    // The window scan hands out survivors in coefficient
                    // order; the dense pass in index order.
                    let mut got: Vec<(usize, u64)> = peer
                        .filter(&dec, limit)
                        .into_iter()
                        .map(|(i, b)| (i, b.to_bits()))
                        .collect();
                    got.sort_unstable_by_key(|&(i, _)| i);
                    prop_assert_eq!(got, dense_filter(&peer, &dec, limit), "limit {}", limit);
                }
            }
        }
    }

    #[test]
    fn batches_hand_out_a_full_sort() {
        let values = [0.0, 0.5, 1.0, 1e300, f64::INFINITY, f64::NAN, -f64::NAN];
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0, 1, 2, 31, 32, 33, 100, 160, 161, 700, 2000] {
            // Few distinct bounds, so most keys tie on the bound and
            // straddle the batch boundaries.
            let keys: Vec<u128> = (0..n)
                .map(|i| key(values[rng.gen_range(0..values.len())], i))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let handed: Vec<u128> = Ascending::new(keys).collect();
            assert_eq!(handed, sorted, "n {n}");
            // Every NaN bound comes after every number, +∞ included, so a
            // scan that stops at the first NaN drops exactly the NaNs.
            let first_nan = handed.iter().position(|&k| unkey(k).0.is_nan());
            let numbers = handed.iter().filter(|&&k| !unkey(k).0.is_nan()).count();
            assert_eq!(first_nan.unwrap_or(n), numbers, "n {n}");
        }
        assert_eq!(unkey(key(0.25, 7)), (0.25, 7));
    }

    #[test]
    fn knn_never_answers_a_nan_row() {
        let mut peer = Peer::summarize(0, items(40, 16, 7), &config());
        let mut nan_row = peer.items.row(3).to_vec();
        nan_row[5] = f64::NAN;
        let dec = decompose(&nan_row, peer.normalization).unwrap();
        peer.push_item(&nan_row, &dec);
        let q = peer.items.row(3).to_vec();
        let got: Vec<(usize, u64)> = peer
            .local_knn(&q, 41)
            .into_iter()
            .map(|(i, d)| (i, d.to_bits()))
            .collect();
        // `total_cmp` sorts the NaN distance last, so the truth is the
        // 40 finite rows.
        assert_eq!(got, linear_knn(&peer.items, &q, 40));
    }

    #[test]
    #[should_panic(expected = "query centre must be finite, coordinate 4 is NaN")]
    fn local_knn_rejects_a_nan_centre() {
        let peer = Peer::summarize(0, items(20, 16, 6), &config());
        let mut q = [0.5; 16];
        q[4] = f64::NAN;
        peer.local_knn(&q, 3);
    }

    #[test]
    #[should_panic(expected = "query centre must be finite, coordinate 9 is inf")]
    fn local_range_rejects_an_infinite_centre() {
        let peer = Peer::summarize(0, items(20, 16, 6), &config());
        let mut q = [0.5; 16];
        q[9] = f64::INFINITY;
        peer.local_range(&q, 0.1);
    }

    /// The scans' rounding slack scales with `max|itemᵢ| + max|qᵢ|`, the
    /// items' peak taken over every row, appended ones included. Answers
    /// alone do not pin it: on the property tests' corpora the limit's
    /// relative widening already covers the roundings that occur.
    #[test]
    fn magnitude_is_both_peaks_after_appends() {
        let mut peer = Peer::summarize(0, items(20, 16, 8), &config());
        let mut big = peer.items.row(2).to_vec();
        big[11] = -7.5;
        let dec = decompose(&big, peer.normalization).unwrap();
        peer.push_item(&big, &dec);
        let fold = |v: &[f64]| v.iter().fold(0.0, |m: f64, x| m.max(x.abs()));
        let items_peak = fold(peer.items.as_flat());
        assert_eq!(items_peak, 7.5);
        for q in [vec![0.0; 16], vec![-0.25; 16], vec![3.0; 16]] {
            let magnitude = peer.magnitude(peak(&q));
            assert_eq!(magnitude.to_bits(), (items_peak + fold(&q)).to_bits());
            let accept = 0.25 + 1e-12;
            let limit = lower_bound_limit(accept, 16, peer.published, magnitude);
            assert_eq!(peer.limit(accept, magnitude).to_bits(), limit.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "negative radius -0.5")]
    fn local_range_rejects_a_negative_radius() {
        let peer = Peer::summarize(0, items(20, 16, 6), &config());
        peer.local_range(&[0.5; 16], -0.5);
    }

    #[test]
    #[should_panic(expected = "negative radius NaN")]
    fn local_range_rejects_a_nan_radius() {
        let peer = Peer::summarize(0, items(20, 16, 6), &config());
        peer.local_range(&[0.5; 16], f64::NAN);
    }

    /// `(key bits, index)` of the run two plain `partition_point`s find:
    /// the reference of the galloped window end.
    fn searched_window(c: &Coarse, centre: f64, keep: impl Fn(f64) -> bool) -> Vec<(u64, usize)> {
        let lo = c.keys.partition_point(|&a| a < centre && !keep(a));
        let hi = lo + c.keys[lo..].partition_point(|&a| keep(a));
        (lo..hi)
            .map(|j| (c.keys[j].to_bits(), c.rows[j] as usize))
            .collect()
    }

    /// The galloped window holds exactly the run the two searches find: a
    /// tied run of every length from 0 to n (2^j − 1, 2^j and 2^j + 1
    /// among them) with and without keys below and above it, a run that
    /// reaches the last key, every key, empty runs below and above every
    /// key, and runs over many short tied groups.
    #[test]
    fn galloped_window_ends_where_a_binary_search_does() {
        let coarse = |keys: &[f64]| {
            let mut view = Dataset::new(1);
            keys.iter().for_each(|&k| view.push_row(&[k]));
            Coarse::build(&view)
        };
        let check = |c: &Coarse, centre: f64, radius: f64| {
            let keep = |a: f64| (a - centre).abs() <= radius;
            let got: Vec<(u64, usize)> = c
                .window(centre, keep)
                .map(|(a, i)| (a.to_bits(), i))
                .collect();
            assert_eq!(
                got,
                searched_window(c, centre, keep),
                "keys {:?} centre {centre} radius {radius}",
                c.keys
            );
            got.len()
        };
        for n in [
            0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 100,
        ] {
            for run in 0..=n {
                for below in [0, (n - run) / 2, n - run] {
                    let above = n - run - below;
                    let keys = [vec![0.25; below], vec![0.5; run], vec![0.75; above]].concat();
                    let c = coarse(&keys);
                    assert_eq!(check(&c, 0.5, 0.125), run);
                    assert_eq!(check(&c, 0.5, 1.0), n);
                    assert_eq!(check(&c, -1.0, 0.125), 0);
                    assert_eq!(check(&c, 2.0, 0.125), 0);
                    check(&c, 0.375, 0.125);
                    check(&c, 0.625, 0.125);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let n = rng.gen_range(0..300);
            let keys: Vec<f64> = (0..n)
                .map(|_| f64::from(rng.gen_range(0..16)) / 16.0)
                .collect();
            let c = coarse(&keys);
            for _ in 0..20 {
                let centre = f64::from(rng.gen_range(-4..20)) / 16.0;
                let radius = f64::from(rng.gen_range(0..20)) / 16.0;
                check(&c, centre, radius);
            }
        }
    }

    #[test]
    fn peak_is_the_left_fold_bit_for_bit() {
        let special = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -f64::MAX,
            1.0,
            -1.0,
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for len in (0..=12).chain([511, 512]) {
            for _ in 0..200 {
                let v: Vec<f64> = (0..len)
                    .map(|_| {
                        if rng.gen_range(0..3) == 0 {
                            special[rng.gen_range(0..special.len())]
                        } else {
                            (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-5..5))
                        }
                    })
                    .collect();
                let fold = v.iter().fold(0.0, |m: f64, x| m.max(x.abs()));
                assert_eq!(peak(&v).to_bits(), fold.to_bits(), "{v:?}");
            }
        }
    }

    #[test]
    fn summaries_are_much_smaller_than_items() {
        let peer = Peer::summarize(0, items(500, 16, 3), &config());
        let raw_bytes = 8 * 16 * 500u64;
        assert!(
            peer.summary_bytes() * 10 < raw_bytes,
            "{} vs {}",
            peer.summary_bytes(),
            raw_bytes
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Peer::summarize(7, items(30, 16, 4), &config());
        let b = Peer::summarize(7, items(30, 16, 4), &config());
        assert_eq!(a.summaries, b.summaries);
    }
}
