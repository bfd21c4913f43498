//! Zipf-skewed query workloads (hot-spot load experiments).
//!
//! The paper evaluates *data* skew (Section 5.3) but queries its networks
//! uniformly. Real photo-sharing traffic is anything but uniform: a few
//! popular objects draw most lookups, which concentrates phase-1 floods on
//! the overlay zones covering the popular keys — the hot-spot problem the
//! `hyperm-load` relief mechanisms attack. [`ZipfWorkload`] makes that
//! workload reproducible: a fixed pool of query centres, ranked by
//! popularity, drawn with the classic Zipf law
//!
//! ```text
//! P(rank = r) ∝ 1 / r^s ,   r = 1..R
//! ```
//!
//! `s = 0` degenerates to the uniform workload (every centre equally
//! likely), `s ≈ 0.8` is mild skew, `s ≥ 1.2` is the heavy skew of web
//! and P2P request traces. Draws use one seeded [`StdRng`] and an exact
//! inverse-CDF table — no wall clock, no rejection loops — so a given
//! `(pool, s, seed)` triple yields a byte-identical centre sequence on
//! every run and platform.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic Zipf query workload over a box domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfConfig {
    /// Number of distinct query centres (the popularity ranks).
    pub ranks: usize,
    /// Zipf skew exponent `s ≥ 0` (`0` = uniform).
    pub s: f64,
    /// Dimensionality of the query centres.
    pub dim: usize,
    /// Lower bound of every coordinate.
    pub lo: f64,
    /// Upper bound of every coordinate (centres land in `[lo, hi]`).
    pub hi: f64,
    /// RNG seed (pool placement and draw order both derive from it).
    pub seed: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        Self {
            ranks: 64,
            s: 1.2,
            dim: 16,
            lo: 0.0,
            hi: 1.0,
            seed: 0,
        }
    }
}

/// A seeded Zipf-ranked query-centre generator. See the module docs.
#[derive(Debug, Clone)]
pub struct ZipfWorkload {
    /// Query centres, index 0 = most popular rank.
    pool: Vec<Vec<f64>>,
    /// Cumulative rank distribution; `cdf[r]` = P(rank ≤ r), ending at 1.
    cdf: Vec<f64>,
    s: f64,
    rng: StdRng,
}

impl ZipfWorkload {
    /// A workload whose centre pool is drawn uniformly from the
    /// `cfg`-described box (ranks are assigned in draw order).
    pub fn generate(cfg: &ZipfConfig) -> Self {
        assert!(cfg.ranks > 0, "need at least one query centre");
        assert!(cfg.dim > 0, "zero-dimensional centres");
        assert!(
            cfg.hi > cfg.lo && cfg.lo.is_finite() && cfg.hi.is_finite(),
            "bad domain [{}, {}]",
            cfg.lo,
            cfg.hi
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pool = (0..cfg.ranks)
            .map(|_| {
                (0..cfg.dim)
                    .map(|_| rng.gen_range(cfg.lo..cfg.hi))
                    .collect()
            })
            .collect();
        Self::from_pool(pool, cfg.s, cfg.seed.wrapping_add(0x5EED_21FF))
    }

    /// A workload over an explicit centre pool — e.g. rows of the dataset
    /// under test, so popular queries hit real data. `pool[0]` is the most
    /// popular rank. Draws use `StdRng::seed_from_u64(seed)`.
    pub fn from_pool(pool: Vec<Vec<f64>>, s: f64, seed: u64) -> Self {
        assert!(!pool.is_empty(), "empty centre pool");
        assert!(
            s >= 0.0 && s.is_finite(),
            "skew exponent must be ≥ 0, got {s}"
        );
        let dim = pool[0].len();
        assert!(
            pool.iter().all(|c| c.len() == dim),
            "ragged centre pool (dim {dim} expected)"
        );
        // Exact inverse-CDF table: weight(r) = (r+1)^-s, normalised.
        let mut cdf: Vec<f64> = Vec::with_capacity(pool.len());
        let mut acc = 0.0;
        for r in 0..pool.len() {
            acc += ((r + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        // Pin the tail exactly so a u ~ [0,1) draw can never fall past it.
        // (The pool is non-empty — asserted above — so the cdf has a last
        // element.)
        *cdf.last_mut().expect("non-empty cdf") = 1.0;
        ZipfWorkload {
            pool,
            cdf,
            s,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The skew exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Number of popularity ranks (distinct centres).
    pub fn ranks(&self) -> usize {
        self.pool.len()
    }

    /// Exact probability of drawing rank `r`.
    pub fn pmf(&self, r: usize) -> f64 {
        let lo = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - lo
    }

    /// Draw the next popularity rank (0-based).
    pub fn next_rank(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        // First rank whose cumulative mass exceeds the draw.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.pool.len() - 1)
    }

    /// Draw the next query centre (a clone of the ranked pool entry).
    pub fn next_center(&mut self) -> Vec<f64> {
        let r = self.next_rank();
        self.pool[r].clone()
    }

    /// Draw `n` ranks (test/bench convenience).
    pub fn ranks_iter(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next_rank()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(s: f64, seed: u64) -> ZipfConfig {
        ZipfConfig {
            ranks: 50,
            s,
            dim: 8,
            lo: 0.25,
            hi: 0.75,
            seed,
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = ZipfWorkload::generate(&cfg(1.2, 7));
        let mut b = ZipfWorkload::generate(&cfg(1.2, 7));
        for _ in 0..500 {
            // Byte-equal centres: the draws come from the same seeded RNG.
            let (ca, cb) = (a.next_center(), b.next_center());
            let bits_a: Vec<u64> = ca.iter().map(|x| x.to_bits()).collect();
            let bits_b: Vec<u64> = cb.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ZipfWorkload::generate(&cfg(1.2, 1));
        let mut b = ZipfWorkload::generate(&cfg(1.2, 2));
        let ra = a.ranks_iter(200);
        let rb = b.ranks_iter(200);
        assert_ne!(ra, rb);
    }

    #[test]
    fn centers_stay_in_domain() {
        let c = cfg(0.8, 3);
        let mut w = ZipfWorkload::generate(&c);
        for _ in 0..200 {
            let centre = w.next_center();
            assert_eq!(centre.len(), c.dim);
            assert!(centre.iter().all(|&x| (c.lo..=c.hi).contains(&x)));
        }
    }

    #[test]
    fn s_zero_is_uniform() {
        let mut w = ZipfWorkload::generate(&cfg(0.0, 4));
        let n = 50_000;
        let mut counts = vec![0u64; w.ranks()];
        for _ in 0..n {
            counts[w.next_rank()] += 1;
        }
        let expect = n as f64 / counts.len() as f64;
        for &c in &counts {
            // 4σ tolerance for a binomial count around n/R.
            let sigma = (expect * (1.0 - 1.0 / counts.len() as f64)).sqrt();
            assert!(
                (c as f64 - expect).abs() < 4.0 * sigma + 1.0,
                "rank count {c} too far from uniform {expect}"
            );
        }
    }

    #[test]
    fn empirical_rank_frequency_slope_matches_s() {
        // log f(r) ≈ -s · log r + const: least-squares slope over the head
        // of the distribution must recover s within tolerance.
        for &s in &[0.8, 1.2] {
            let mut w = ZipfWorkload::generate(&cfg(s, 5));
            let n = 200_000;
            let mut counts = vec![0u64; w.ranks()];
            for _ in 0..n {
                counts[w.next_rank()] += 1;
            }
            // Head ranks only — tail counts are noisy.
            let pts: Vec<(f64, f64)> = counts
                .iter()
                .enumerate()
                .take(20)
                .filter(|(_, &c)| c > 0)
                .map(|(r, &c)| (((r + 1) as f64).ln(), (c as f64).ln()))
                .collect();
            let m = pts.len() as f64;
            let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
            let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
            let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
            let slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
            assert!((slope + s).abs() < 0.1, "slope {slope} should be ≈ -{s}");
        }
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let w = ZipfWorkload::generate(&cfg(1.2, 6));
        let total: f64 = (0..w.ranks()).map(|r| w.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for r in 1..w.ranks() {
            assert!(
                w.pmf(r) <= w.pmf(r - 1) + 1e-15,
                "pmf must be non-increasing"
            );
        }
    }

    #[test]
    fn explicit_pool_is_used_verbatim() {
        let pool = vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]];
        let mut w = ZipfWorkload::from_pool(pool.clone(), 2.0, 9);
        assert_eq!(w.ranks(), 3);
        assert_eq!(w.pool, pool);
        // Heavy skew: the top rank dominates.
        let draws = w.ranks_iter(1000);
        let top = draws.iter().filter(|&&r| r == 0).count();
        assert!(top > 700, "rank 0 drew {top}/1000 under s=2");
        for r in draws {
            assert!(r < 3);
        }
    }
}
