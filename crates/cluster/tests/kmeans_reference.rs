//! `kmeans` against the Lloyd loop it replaced, kept here verbatim (plus a
//! repair counter) as the oracle: centroids, assignment, iterations,
//! inertia and convergence must be bit-equal for every width the
//! fixed-width assignment kernel specialises (1, 2, 4, 8) and the slice
//! fallback (3, 5, 16), with duplicated rows (distance ties), fewer rows
//! than `k`, forced empty-cluster repairs, and both seeding methods.

use hyperm_cluster::kmeans::{kmeans, nearest_centroid};
use hyperm_cluster::{Dataset, InitMethod, KMeansConfig, KMeansResult};
use hyperm_geometry::vecmath::sq_dist;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The Lloyd loop as it stood before the fixed-width kernel, verbatim but
/// for the returned count of empty-cluster repairs.
fn reference(data: &Dataset, config: &KMeansConfig) -> (KMeansResult, usize) {
    assert!(config.k > 0, "k must be positive");
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    let n = data.len();
    let k = config.k.min(n);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut repairs = 0;

    let mut centroids = match config.init {
        InitMethod::Forgy => init_forgy(data, k, &mut rng),
        InitMethod::PlusPlus => init_plusplus(data, k, &mut rng),
    };

    let mut assignment = vec![0u32; n];
    let mut iterations = 0;
    let mut converged = false;

    for iter in 0..config.max_iter {
        iterations = iter + 1;
        // Assignment step.
        for (i, row) in data.rows().enumerate() {
            assignment[i] = reference_nearest(row, &centroids).0 as u32;
        }
        // Update step.
        let mut sums = vec![0.0; k * data.dim()];
        let mut counts = vec![0usize; k];
        for (i, row) in data.rows().enumerate() {
            let c = assignment[i] as usize;
            counts[c] += 1;
            for (s, &x) in sums[c * data.dim()..(c + 1) * data.dim()]
                .iter_mut()
                .zip(row)
            {
                *s += x;
            }
        }
        // Empty-cluster repair: reseat an empty centroid on the point
        // farthest from its current centroid.
        for c in 0..k {
            if counts[c] == 0 {
                repairs += 1;
                let (far_idx, _) = data
                    .rows()
                    .enumerate()
                    .map(|(i, row)| (i, sq_dist(row, centroids.row(assignment[i] as usize))))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("non-empty dataset");
                sums[c * data.dim()..(c + 1) * data.dim()].copy_from_slice(data.row(far_idx));
                counts[c] = 1;
                // Steal the point so its old cluster loses it next round.
                assignment[far_idx] = c as u32;
            }
        }
        let mut max_shift = 0.0f64;
        for c in 0..k {
            let inv = 1.0 / counts[c] as f64;
            let new: Vec<f64> = sums[c * data.dim()..(c + 1) * data.dim()]
                .iter()
                .map(|s| s * inv)
                .collect();
            max_shift = max_shift.max(sq_dist(&new, centroids.row(c)));
            centroids.row_mut(c).copy_from_slice(&new);
        }
        if max_shift <= config.tol {
            converged = true;
            break;
        }
    }

    // Final assignment against the final centroids, and inertia.
    let mut inertia = 0.0;
    for (i, row) in data.rows().enumerate() {
        let (c, d2) = reference_nearest(row, &centroids);
        assignment[i] = c as u32;
        inertia += d2;
    }

    let result = KMeansResult {
        centroids,
        assignment,
        inertia,
        iterations,
        converged,
    };
    (result, repairs)
}

fn reference_nearest(row: &[f64], centroids: &Dataset) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, cent) in centroids.rows().enumerate() {
        let d2 = sq_dist(row, cent);
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

fn init_forgy(data: &Dataset, k: usize, rng: &mut StdRng) -> Dataset {
    let mut indices: Vec<usize> = (0..data.len()).collect();
    indices.shuffle(rng);
    data.select(&indices[..k])
}

fn init_plusplus(data: &Dataset, k: usize, rng: &mut StdRng) -> Dataset {
    let n = data.len();
    let mut centroids = Dataset::with_capacity(data.dim(), k);
    let first = rng.gen_range(0..n);
    centroids.push_row(data.row(first));
    // d2[i] = squared distance to nearest chosen centroid so far.
    let mut d2: Vec<f64> = data.rows().map(|r| sq_dist(r, centroids.row(0))).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= f64::EPSILON {
            // All remaining mass at zero distance (duplicate points): pick
            // uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push_row(data.row(idx));
        let new_c = centroids.len() - 1;
        for (i, row) in data.rows().enumerate() {
            let nd = sq_dist(row, centroids.row(new_c));
            if nd < d2[i] {
                d2[i] = nd;
            }
        }
    }
    centroids
}

/// `rows` rows of width `dim` in one of three shapes: continuous values,
/// a handful of grid values (many exact ties), or every row the same (all
/// ties; every cluster but the first starts empty).
fn dataset(dim: usize, rows: usize, shape: u32, rng: &mut StdRng) -> Dataset {
    let mut ds = Dataset::new(dim);
    let same: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for _ in 0..rows {
        let row: Vec<f64> = match shape {
            0 => (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect(),
            1 => (0..dim).map(|_| rng.gen_range(0..3) as f64 * 0.5).collect(),
            _ => same.clone(),
        };
        ds.push_row(&row);
    }
    ds
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn kmeans_matches_the_reference_lloyd_loop_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(27);
    let mut repairs = 0;
    let mut cases = 0;
    for dim in [1, 2, 3, 4, 5, 8, 16] {
        for rows in [1, 3, 9, 40, 120] {
            for shape in 0..3 {
                let data = dataset(dim, rows, shape, &mut rng);
                for init in [InitMethod::Forgy, InitMethod::PlusPlus] {
                    for (k, max_iter) in [(1, 50), (4, 50), (10, 3), (10, 50)] {
                        let cfg = KMeansConfig {
                            k,
                            max_iter,
                            tol: 1e-9,
                            init,
                            seed: rng.gen(),
                        };
                        let got = kmeans(&data, &cfg);
                        let (want, repaired) = reference(&data, &cfg);
                        let case = format!("dim {dim} rows {rows} shape {shape} {init:?} k {k}");
                        assert_eq!(got.centroids.dim(), want.centroids.dim(), "{case}");
                        assert_eq!(
                            bits(got.centroids.as_flat()),
                            bits(want.centroids.as_flat()),
                            "{case}: centroids"
                        );
                        assert_eq!(got.assignment, want.assignment, "{case}: assignment");
                        assert_eq!(got.iterations, want.iterations, "{case}: iterations");
                        assert_eq!(
                            got.inertia.to_bits(),
                            want.inertia.to_bits(),
                            "{case}: inertia"
                        );
                        assert_eq!(got.converged, want.converged, "{case}: converged");
                        for row in data.rows() {
                            let (c, d2) = nearest_centroid(row, &got.centroids);
                            let (rc, rd2) = reference_nearest(row, &got.centroids);
                            assert_eq!((c, d2.to_bits()), (rc, rd2.to_bits()), "{case}");
                        }
                        repairs += repaired;
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 7 * 5 * 3 * 2 * 4);
    assert!(repairs > 0, "no case exercised the empty-cluster repair");
}
