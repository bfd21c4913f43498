//! Small dense-vector helpers shared across the workspace.
//!
//! All Hyper-M vectors are plain `&[f64]` slices; these free functions keep
//! distance computations allocation-free and in one audited place.

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance between two equal-length vectors.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Euclidean norm of a vector.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// In-place `a += b`.
#[inline]
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// In-place `a *= s`.
#[inline]
pub fn scale(a: &mut [f64], s: f64) {
    for x in a.iter_mut() {
        *x *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn norm_works() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[0.5, 0.5]);
        assert_eq!(a, vec![1.5, 2.5]);
        scale(&mut a, 2.0);
        assert_eq!(a, vec![3.0, 5.0]);
    }
}
