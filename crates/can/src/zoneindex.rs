//! Host-side spatial index over CAN zones.
//!
//! The flooding operations in [`crate::ops`] decide, for every neighbour
//! edge they cross, whether the neighbour's zone overlaps a query ball —
//! an `O(d)` geometric test per edge, plus an `O(n)` visited bitmap per
//! flood. Neither affects the *simulated* cost model (hops are charged per
//! newly visited node, a function of the visited set only), but both
//! dominate host wall-clock on large overlays.
//!
//! [`ZoneIndex`] is a coarse uniform grid over the leading one or two key
//! dimensions. Each grid cell lists every node whose zone overlaps the
//! cell, so the set of zones possibly overlapping a query ball is found by
//! scanning only the cells under the ball's bounding box — sublinear in
//! the overlay size for local queries. The index is purely host-side
//! machinery: it changes which zones are *examined*, never which zones are
//! *visited*, so all simulated hop/message/byte counts are bit-identical
//! with and without it (asserted by the tests below).
//!
//! Zones never wrap the torus (they come from recursive halving of
//! `[0,1)^d`) and the overlap test used by floods
//! ([`crate::zone::Zone::intersects_sphere`]) is Euclidean, so the grid
//! does not need seam handling.

use crate::zone::Zone;

/// Grid cells per indexed dimension. 32 cells in 1-d / 32×32 in 2-d keeps
/// cell occupancy at a handful of zones for the network sizes the paper
/// simulates, while the whole structure stays a few kilobytes.
const GRID_RES: usize = 32;

/// A coarse uniform grid over the first `min(dim, 2)` key dimensions,
/// mapping cells to the nodes whose zones overlap them.
#[derive(Debug, Clone)]
pub struct ZoneIndex {
    /// Number of leading key dimensions the grid spans (1 or 2).
    dims: usize,
    /// Cells per indexed dimension.
    res: usize,
    /// `res^dims` buckets of node ids.
    cells: Vec<Vec<u32>>,
    /// One past the largest id ever inserted: the width of the dedup
    /// bitmap.
    id_bound: usize,
}

impl ZoneIndex {
    /// An empty index for a `dim`-dimensional key space.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let dims = dim.min(2);
        let res = GRID_RES;
        ZoneIndex {
            dims,
            res,
            cells: vec![Vec::new(); res.pow(dims as u32)],
            id_bound: 0,
        }
    }

    /// Inclusive cell range covered by the interval `[lo, hi)` in one
    /// dimension. Exact split boundaries (dyadic rationals) land exactly on
    /// cell edges, so `ceil(hi·res) − 1` excludes a cell the zone only
    /// touches at its open upper face.
    fn interval_cells(&self, lo: f64, hi: f64) -> (usize, usize) {
        let a = ((lo * self.res as f64).floor() as isize).clamp(0, self.res as isize - 1) as usize;
        let b = (((hi * self.res as f64).ceil() as isize) - 1)
            .clamp(a as isize, self.res as isize - 1) as usize;
        (a, b)
    }

    /// Inclusive cell range under `[lo, hi]` for a query box (closed on
    /// both sides: a ball touching a cell boundary may overlap zones on
    /// either side of it).
    fn query_cells(&self, lo: f64, hi: f64) -> (usize, usize) {
        let a = ((lo * self.res as f64).floor() as isize).clamp(0, self.res as isize - 1) as usize;
        let b = ((hi * self.res as f64).floor() as isize).clamp(a as isize, self.res as isize - 1)
            as usize;
        (a, b)
    }

    /// Every cell index under the zone's footprint.
    fn zone_cells(&self, zone: &Zone) -> Vec<usize> {
        let (x0, x1) = self.interval_cells(zone.lo()[0], zone.hi()[0]);
        let mut out = Vec::with_capacity(x1 - x0 + 1);
        if self.dims == 1 {
            out.extend(x0..=x1);
        } else {
            let (y0, y1) = self.interval_cells(zone.lo()[1], zone.hi()[1]);
            for x in x0..=x1 {
                for y in y0..=y1 {
                    out.push(x * self.res + y);
                }
            }
        }
        out
    }

    /// Register `id` under every cell its zone overlaps.
    pub fn insert(&mut self, id: u32, zone: &Zone) {
        self.id_bound = self.id_bound.max(id as usize + 1);
        for c in self.zone_cells(zone) {
            self.cells[c].push(id);
        }
    }

    /// Remove `id` from every cell of `zone` (the zone it was inserted
    /// with — callers must pass the *old* bounds when a zone shrinks).
    pub fn remove(&mut self, id: u32, zone: &Zone) {
        for c in self.zone_cells(zone) {
            if let Some(pos) = self.cells[c].iter().position(|&x| x == id) {
                self.cells[c].swap_remove(pos);
            }
        }
    }

    /// Node ids whose zones *may* overlap the Euclidean ball
    /// `(centre, radius)` — a superset of the true overlap set, sorted and
    /// deduplicated. Callers filter with the exact
    /// [`Zone::intersects_sphere`] test.
    pub fn candidates(&self, centre: &[f64], radius: f64) -> Vec<u32> {
        debug_assert!(centre.len() >= self.dims);
        let (x0, x1) = self.query_cells(centre[0] - radius, centre[0] + radius);
        let (y0, y1) = if self.dims == 1 {
            (0, 0)
        } else {
            self.query_cells(centre[1] - radius, centre[1] + radius)
        };
        let stride = self.stride();
        self.unique_ids((x0..=x1).flat_map(|x| (y0..=y1).map(move |y| x * stride + y)))
    }

    /// Index step of the first grid coordinate: a cell is `x * stride + y`,
    /// with `y` always 0 on a 1-d grid.
    fn stride(&self) -> usize {
        if self.dims == 1 {
            1
        } else {
            self.res
        }
    }

    /// The ids listed in `cells`, sorted and deduplicated. A zone spanning
    /// several cells is listed in each, so the ids are deduplicated through
    /// a bitmap over node ids and read back from it in ascending order.
    fn unique_ids(&self, cells: impl IntoIterator<Item = usize>) -> Vec<u32> {
        let mut seen = vec![0u64; self.id_bound.div_ceil(64)];
        for c in cells {
            for &id in &self.cells[c] {
                seen[id as usize / 64] |= 1 << (id % 64);
            }
        }
        let mut out = Vec::new();
        for (w, &bits) in seen.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                out.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }

    /// Cells under `[lo, hi]` in one dimension, inflated by one cell on
    /// each side so zones merely *abutting* the box are found too, and
    /// wrapped across the 0/1 seam (CAN's neighbour relation wraps).
    fn abut_cells(&self, lo: f64, hi: f64) -> Vec<usize> {
        let cell = 1.0 / self.res as f64;
        let (a, b) = self.query_cells(lo - cell, hi + cell);
        let mut out: Vec<usize> = (a..=b).collect();
        if lo <= cell {
            out.push(self.res - 1);
        }
        if hi >= 1.0 - cell {
            out.push(0);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Node ids whose zones may overlap **or abut** the box `[lo, hi]`
    /// (including across the torus seam) — a superset of the geometric
    /// neighbours of a zone with those bounds, sorted and deduplicated.
    /// Callers filter with the exact [`Zone::is_neighbour`] test.
    pub fn box_candidates(&self, lo: &[f64], hi: &[f64]) -> Vec<u32> {
        debug_assert!(lo.len() >= self.dims && hi.len() >= self.dims);
        let xs = self.abut_cells(lo[0], hi[0]);
        let ys = if self.dims == 1 {
            vec![0]
        } else {
            self.abut_cells(lo[1], hi[1])
        };
        let stride = self.stride();
        self.unique_ids(
            xs.iter()
                .flat_map(|&x| ys.iter().map(move |&y| x * stride + y)),
        )
    }

    /// Every node id currently registered anywhere in the grid, sorted and
    /// deduplicated — the index's notion of the live membership, used by
    /// invariant checks to catch staleness.
    pub fn ids(&self) -> Vec<u32> {
        self.unique_ids(0..self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The enumeration before the bitmap: every listed id of the cells
    /// under the ball, concatenated, sorted and deduplicated.
    fn candidates_by_sort(idx: &ZoneIndex, centre: &[f64], radius: f64) -> Vec<u32> {
        let (x0, x1) = idx.query_cells(centre[0] - radius, centre[0] + radius);
        let mut out = Vec::new();
        if idx.dims == 1 {
            for x in x0..=x1 {
                out.extend_from_slice(&idx.cells[x]);
            }
        } else {
            let (y0, y1) = idx.query_cells(centre[1] - radius, centre[1] + radius);
            for x in x0..=x1 {
                for y in y0..=y1 {
                    out.extend_from_slice(&idx.cells[x * idx.res + y]);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// [`candidates_by_sort`]'s counterpart for [`ZoneIndex::box_candidates`].
    fn box_candidates_by_sort(idx: &ZoneIndex, lo: &[f64], hi: &[f64]) -> Vec<u32> {
        let xs = idx.abut_cells(lo[0], hi[0]);
        let mut out = Vec::new();
        if idx.dims == 1 {
            for &x in &xs {
                out.extend_from_slice(&idx.cells[x]);
            }
        } else {
            let ys = idx.abut_cells(lo[1], hi[1]);
            for &x in &xs {
                for &y in &ys {
                    out.extend_from_slice(&idx.cells[x * idx.res + y]);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bitmap enumeration returns exactly the sorted, deduplicated
        /// set the old sort returned — for balls, boxes and the whole grid —
        /// over random split partitions in 1, 2 and 4 dimensions, with ids
        /// offset past one and two 64-bit words and some zones removed
        /// again (a dead node deregisters).
        #[test]
        fn candidates_equal_the_sorted_enumeration(
            dim in 1usize..5,
            splits in 1usize..160,
            offset in 0usize..4,
            picks in prop::collection::vec(any::<prop::sample::Index>(), 160),
            dead in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
            queries in prop::collection::vec((-0.2..1.2f64, -0.2..1.2f64, 0.0..0.4f64), 1..12),
        ) {
            let mut zones = vec![Zone::whole(dim)];
            for pick in &picks[..splits] {
                let z = zones.swap_remove(pick.index(zones.len()));
                let (a, b) = z.split(z.longest_dim());
                zones.push(a);
                zones.push(b);
            }
            let offset = [0u32, 37, 64, 100][offset];
            let mut idx = ZoneIndex::new(dim);
            for (i, z) in zones.iter().enumerate() {
                idx.insert(offset + i as u32, z);
            }
            for d in &dead {
                let i = d.index(zones.len());
                idx.remove(offset + i as u32, &zones[i]);
            }
            let mut all: Vec<u32> = idx.cells.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(idx.ids(), all);
            for &(x, y, r) in &queries {
                let mut centre = vec![0.5; dim];
                centre[0] = x;
                if dim > 1 {
                    centre[1] = y;
                }
                prop_assert_eq!(
                    idx.candidates(&centre, r),
                    candidates_by_sort(&idx, &centre, r)
                );
                let lo: Vec<f64> = centre.iter().map(|c| c - r).collect();
                let hi: Vec<f64> = centre.iter().map(|c| c + r).collect();
                prop_assert_eq!(
                    idx.box_candidates(&lo, &hi),
                    box_candidates_by_sort(&idx, &lo, &hi)
                );
            }
        }
    }

    #[test]
    fn whole_zone_is_everywhere() {
        let mut idx = ZoneIndex::new(2);
        idx.insert(0, &Zone::whole(2));
        for x in [0.0, 0.31, 0.99] {
            for y in [0.01, 0.5, 0.97] {
                assert_eq!(idx.candidates(&[x, y], 0.0), vec![0]);
            }
        }
    }

    #[test]
    fn candidates_superset_of_overlaps() {
        // Build a random-ish partition by repeated splits and check that
        // every zone overlapping a query ball is always enumerated.
        let mut zones = vec![Zone::whole(2)];
        for i in 0..40usize {
            let j = (i * 7) % zones.len();
            let z = zones.swap_remove(j);
            let (a, b) = z.split(z.longest_dim());
            zones.push(a);
            zones.push(b);
        }
        let mut idx = ZoneIndex::new(2);
        for (i, z) in zones.iter().enumerate() {
            idx.insert(i as u32, z);
        }
        for k in 0..50usize {
            let c = [(k as f64 * 0.37) % 1.0, (k as f64 * 0.61 + 0.13) % 1.0];
            let r = (k as f64 * 0.017) % 0.3;
            let cand = idx.candidates(&c, r);
            for (i, z) in zones.iter().enumerate() {
                if z.intersects_sphere(&c, r) {
                    assert!(
                        cand.binary_search(&(i as u32)).is_ok(),
                        "zone {i} overlaps ball {c:?} r={r} but was not a candidate"
                    );
                }
            }
        }
    }

    #[test]
    fn remove_then_query_misses_it() {
        let mut idx = ZoneIndex::new(1);
        let z = Zone::from_bounds(vec![0.25], vec![0.5]);
        idx.insert(7, &z);
        assert_eq!(idx.candidates(&[0.3], 0.01), vec![7]);
        idx.remove(7, &z);
        assert!(idx.candidates(&[0.3], 0.01).is_empty());
    }

    #[test]
    fn query_ball_clipped_to_unit_box() {
        let mut idx = ZoneIndex::new(2);
        idx.insert(1, &Zone::from_bounds(vec![0.0, 0.0], vec![0.5, 0.5]));
        // Ball centred outside the unit box still finds boundary zones.
        assert_eq!(idx.candidates(&[-0.2, 0.1], 0.3), vec![1]);
        assert!(idx.candidates(&[1.4, 0.9], 0.2).is_empty());
    }
}
