//! Sample statistics and result digests.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; p50 is [`median`].
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    if p == 50 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * p as usize).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p99 / p90 / p50 that leaves at least ten samples beyond
/// it. Below twenty samples nothing qualifies and the median is all the
/// sample supports, so 50 is returned there too.
pub fn tail_percentile(samples: usize) -> u32 {
    if samples >= 1000 {
        99
    } else if samples >= 100 {
        90
    } else {
        50
    }
}

/// Incremental FNV-1a (64-bit) over the words of every operation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in an item set, order-independently (sorted first) and
    /// length-prefixed so adjacent sets cannot alias.
    pub fn items(&mut self, items: &[(usize, usize)]) {
        let mut sorted = items.to_vec();
        sorted.sort_unstable();
        self.word(sorted.len() as u64);
        for (p, i) in sorted {
            self.word(p as u64);
            self.word(i as u64);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one item set on its own.
pub fn digest_items(items: &[(usize, usize)]) -> u64 {
    let mut d = Digest::default();
    d.items(items);
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 leaves n/100 samples beyond it, p90 leaves n/10.
        assert_eq!(tail_percentile(999), 90);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(99), 50);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(15), 50);
        for n in [100usize, 1000, 5000] {
            let p = tail_percentile(n) as usize;
            assert!(n * (100 - p) / 100 >= 10, "{n} samples, p{p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.5);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn digest_is_stable_and_order_independent_within_a_set() {
        // Pinned value: a changed hash function would silently break
        // comparisons against committed history.
        assert_eq!(
            digest_items(&[(1, 2), (0, 7)]),
            digest_items(&[(0, 7), (1, 2)])
        );
        assert_eq!(
            format!("{:016x}", digest_items(&[(0, 7), (1, 2)])),
            "fc6cb2d9d1a9d563"
        );
        assert_ne!(digest_items(&[(0, 7)]), digest_items(&[(7, 0)]));
        // Set boundaries matter: {a},{b} is not {a,b}.
        let mut split = Digest::default();
        split.items(&[(0, 1)]);
        split.items(&[(0, 2)]);
        let mut joined = Digest::default();
        joined.items(&[(0, 1), (0, 2)]);
        assert_ne!(split, joined);
    }
}
