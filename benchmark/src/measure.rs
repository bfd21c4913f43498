//! The closed measuring loop: one caller, the next operation is issued
//! only after the previous one returned.

use crate::stats::{median, percentile, tail_percentile};
use std::time::{Duration, Instant};

/// Equal parts a pass is cut into to show how the rate varied within it.
pub const ROUNDS: usize = 5;

/// Whether a timed region that has run whole passes for `elapsed` may stop:
/// at least half of `--seconds` must have been measured. A pass is sized to
/// take about `--seconds`, so a region measures between half and one and a
/// half times that, always in whole passes.
pub fn measured_enough(elapsed: Duration, seconds: f64) -> bool {
    elapsed.as_secs_f64() >= seconds / 2.0
}

/// Latency samples and per-round rates of one timed region.
#[derive(Debug, Default)]
pub struct Timed {
    pub latencies_ms: Vec<f64>,
    pub passes: usize,
    /// `(operations, busy seconds)` of each round of each pass.
    pub rounds: Vec<(u64, f64)>,
}

impl Timed {
    /// Operations per second of busy time, over all passes. (Rounds hold
    /// different queries, so their rates differ by design; they are shown
    /// as spread, not folded into the headline.)
    pub fn throughput_ops_s(&self) -> f64 {
        let ops: u64 = self.rounds.iter().map(|r| r.0).sum();
        let busy: f64 = self.rounds.iter().map(|r| r.1).sum();
        ops as f64 / busy
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// `(percentile used, its value)`: the highest percentile the sample
    /// count supports.
    pub fn tail_ms(&self) -> (u32, f64) {
        let p = tail_percentile(self.latencies_ms.len());
        (p, percentile(&self.latencies_ms, p))
    }

    /// Set the three timing metrics and note how they were sampled.
    pub fn report(&self, out: &mut crate::Outcome) {
        out.set("throughput_ops_s", self.throughput_ops_s());
        out.set("latency_p50_ms", self.p50_ms());
        let (p, tail) = self.tail_ms();
        out.set("latency_tail_ms", tail);
        let rates: Vec<f64> = self.rounds.iter().map(|&(n, s)| n as f64 / s).collect();
        out.notes.push(format!(
            "{} samples in {} passes; round rates {:.2}..{:.2} ops/s; tail is p{p}",
            self.latencies_ms.len(),
            self.passes,
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            rates.iter().copied().fold(0.0, f64::max),
        ));
    }
}

/// Run `op(i)` over `0..n`: an unrecorded warm-up on the head of the list,
/// then whole passes until [`measured_enough`]. Whole passes, so that every
/// query weighs the same in the pooled samples. `op` returns the time the
/// measured call itself took, so whatever checking it does around the call
/// stays outside the reported latency and rates.
pub fn closed_loop(n: usize, seconds: f64, mut op: impl FnMut(usize) -> Duration) -> Timed {
    assert!(n > 0, "empty operation list");
    for i in 0..(n / 20).max(1) {
        op(i);
    }
    let start = Instant::now();
    let mut timed = Timed::default();
    loop {
        for round in 0..ROUNDS {
            let (mut ops, mut busy) = (0u64, 0.0f64);
            for i in round * n / ROUNDS..(round + 1) * n / ROUNDS {
                let took = op(i).as_secs_f64();
                ops += 1;
                busy += took;
                timed.latencies_ms.push(took * 1e3);
            }
            if ops > 0 {
                timed.rounds.push((ops, busy));
            }
        }
        timed.passes += 1;
        if measured_enough(start.elapsed(), seconds) {
            return timed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_runs_whole_passes_after_a_warm_up() {
        let mut seen = [0u32; 7];
        let timed = closed_loop(7, 0.001, |i| {
            seen[i] += 1;
            std::thread::sleep(Duration::from_micros(100));
            Duration::from_micros(10)
        });
        assert_eq!(timed.latencies_ms.len(), 7 * timed.passes);
        // Only the head of the list is warmed up, and it is not recorded.
        assert_eq!(seen[0], timed.passes as u32 + 1);
        assert_eq!(seen[6], timed.passes as u32);
        assert!((timed.throughput_ops_s() - 1e5).abs() < 1.0);
    }
}
