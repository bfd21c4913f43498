//! Message-level fault injection.
//!
//! The paper's MANET setting loses messages all the time — radios fade,
//! devices sleep, owners walk away mid-query — yet the baseline simulator
//! assumed every hop succeeds. [`FaultInjector`] perturbs individual hop
//! deliveries: a message can be **dropped** (retransmitted up to a bounded
//! retry budget), **delayed** (extra ticks on the critical path), or hit a
//! **dead recipient** (no retry helps; the sender must reroute around it).
//!
//! Each logical hop is resolved by an attempt loop over its own timeline:
//! the first transmission fires at `t = 0`, every retransmission fires
//! one retry gap after the drop it answers — the configured
//! [`Backoff`] schedule: a fixed one-tick spacing by default, or an
//! exponential one with deterministic seeded jitter — and the returned
//! tick count is the sim-time the hop occupied, so delays and
//! retries lengthen an operation's *rounds* (critical path) exactly like
//! any other hop.
//!
//! The injector is deterministic: a seeded [`StdRng`] drives all rolls, and
//! queries run their levels serially, so the same seed replays the same
//! fault sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Retransmission backoff: fixed or exponential spacing with
/// deterministic seeded jitter.
///
/// The gap before retransmission `a + 1` (i.e. after attempt `a`
/// dropped) is
///
/// ```text
/// gap(a) = min(cap, base · factorᵃ + jitter(a))
/// ```
///
/// where `jitter(a)` is a hash of `(seed, a)` reduced into
/// `0..=jitter` — no RNG state, so the schedule is a pure function of the
/// config and replays identically on every run. Gaps are made monotone
/// non-decreasing in `a` (a running maximum) and never exceed `cap` or
/// fall below 1 tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Gap before the first retransmission (ticks, clamped to ≥ 1).
    pub base: u64,
    /// Multiplier applied per further retry (clamped to ≥ 1).
    pub factor: u64,
    /// Ceiling on any single gap (ticks, clamped to ≥ 1).
    pub cap: u64,
    /// Maximum extra ticks of deterministic jitter per gap (0 = none).
    pub jitter: u64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            base: 1,
            factor: 2,
            cap: 16,
            jitter: 0,
            seed: 0,
        }
    }
}

/// SplitMix64 finaliser: a cheap, well-mixed stateless hash.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Backoff {
    /// Fixed spacing: every gap is `ticks` (clamped to ≥ 1), no jitter.
    pub fn fixed(ticks: u64) -> Self {
        Self {
            base: ticks,
            factor: 1,
            cap: ticks,
            ..Self::default()
        }
    }

    /// Plain exponential schedule (`base · 2ᵃ`, capped, no jitter).
    pub fn exponential(base: u64, cap: u64) -> Self {
        Self {
            base,
            cap,
            ..Self::default()
        }
    }

    /// Builder-style jitter profile: up to `jitter` extra ticks per gap,
    /// drawn deterministically from `seed`.
    pub fn with_jitter(mut self, jitter: u64, seed: u64) -> Self {
        self.jitter = jitter;
        self.seed = seed;
        self
    }

    /// The gap (ticks) between dropped attempt `attempt` (0-based) and its
    /// retransmission. Deterministic, monotone non-decreasing in
    /// `attempt`, in `1..=cap.max(1)`.
    pub fn gap(&self, attempt: u32) -> u64 {
        let cap = self.cap.max(1);
        let base = self.base.max(1);
        let factor = self.factor.max(1);
        let mut widest = 0u64;
        // Running maximum keeps the schedule monotone even when jitter
        // draws shrink between consecutive attempts.
        for a in 0..=attempt {
            let raw = base.saturating_mul(factor.saturating_pow(a));
            let j = if self.jitter == 0 {
                0
            } else {
                splitmix64(self.seed ^ u64::from(a).wrapping_mul(0xA24B_AED4_963E_E407))
                    % (self.jitter + 1)
            };
            widest = widest.max(raw.saturating_add(j).min(cap));
        }
        widest
    }

    /// The first `retries` gaps, in order — the full retransmission
    /// schedule for a hop with that retry budget.
    pub fn schedule(&self, retries: u32) -> Vec<u64> {
        (0..retries).map(|a| self.gap(a)).collect()
    }
}

/// Per-hop fault probabilities and the retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a transmission is lost (retransmitted up to
    /// [`FaultConfig::max_retries`] times).
    pub drop_prob: f64,
    /// Probability that a delivered transmission is delayed.
    pub delay_prob: f64,
    /// Maximum extra ticks a delayed delivery adds (uniform in
    /// `1..=max_delay`).
    pub max_delay: u64,
    /// Probability that the hop's recipient is unresponsive for the whole
    /// operation (a crashed-but-undetected owner): no retry helps, the
    /// sender must reroute around it.
    pub dead_prob: f64,
    /// Retransmissions allowed per hop before giving up.
    pub max_retries: u32,
    /// Ticks between a drop and its retransmission, per attempt (at
    /// least one tick is always burnt per retry gap). Default
    /// [`Backoff::fixed`]`(1)`.
    pub backoff: Backoff,
    /// RNG seed for the fault rolls.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 4,
            dead_prob: 0.0,
            max_retries: 3,
            backoff: Backoff::fixed(1),
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A lossy-link profile: messages drop with `drop_prob`, everything
    /// else at defaults.
    pub fn lossy(drop_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "probability range");
        Self {
            drop_prob,
            ..Self::default()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style delay profile.
    pub fn with_delay(mut self, delay_prob: f64, max_delay: u64) -> Self {
        assert!((0.0..=1.0).contains(&delay_prob), "probability range");
        self.delay_prob = delay_prob;
        self.max_delay = max_delay.max(1);
        self
    }

    /// Builder-style dead-recipient probability.
    pub fn with_dead_prob(mut self, dead_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&dead_prob), "probability range");
        self.dead_prob = dead_prob;
        self
    }

    /// Builder-style retransmission schedule (replaces the fixed
    /// one-tick spacing).
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Builder-style per-hop retransmit budget. Residual loss after the
    /// ack/retransmit loop is `drop_prob^(1 + retries)`, so the budget
    /// directly sets the delivery guarantee a lossy link can offer.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }
}

/// Aggregate fault counters since injector creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Transmissions attempted (first sends + retransmissions).
    pub attempts: u64,
    /// Transmissions lost.
    pub drops: u64,
    /// Deliveries delayed.
    pub delays: u64,
    /// Hops that hit an unresponsive recipient.
    pub dead_hops: u64,
    /// Hops abandoned after exhausting the retry budget.
    pub exhausted: u64,
}

/// How one logical hop resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopDelivery {
    /// The message arrived after `attempts` transmissions, `ticks` of sim
    /// time after the first send.
    Delivered {
        /// Transmissions used (1 = no drop).
        attempts: u32,
        /// Sim-time ticks the hop occupied (≥ 1).
        ticks: u64,
    },
    /// The message never arrived: dead recipient or retry budget exhausted.
    Unreachable {
        /// Transmissions wasted.
        attempts: u32,
        /// Sim-time ticks burnt before giving up.
        ticks: u64,
    },
}

/// Deterministic per-hop fault roller (see the module docs).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    report: FaultReport,
}

impl FaultInjector {
    /// Build an injector from a configuration (seeds the RNG).
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            report: FaultReport::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn report(&self) -> FaultReport {
        self.report
    }

    /// Resolve one logical hop: play the transmission/retry timeline and
    /// report how (and whether) the message got through.
    pub fn hop(&mut self) -> HopDelivery {
        // `t` is the send time of transmission `attempt`.
        let (mut attempt, mut t) = (0u32, 0u64);
        loop {
            self.report.attempts += 1;
            if self.rng.gen::<f64>() < self.cfg.dead_prob {
                // Recipient is down: retrying cannot help, but the sender
                // still waits out one ack gap before concluding that.
                self.report.dead_hops += 1;
                return HopDelivery::Unreachable {
                    attempts: attempt + 1,
                    ticks: t + self.cfg.backoff.gap(attempt),
                };
            }
            if self.rng.gen::<f64>() < self.cfg.drop_prob {
                self.report.drops += 1;
                if attempt < self.cfg.max_retries {
                    t += self.cfg.backoff.gap(attempt);
                    attempt += 1;
                    continue;
                }
                self.report.exhausted += 1;
                return HopDelivery::Unreachable {
                    attempts: attempt + 1,
                    ticks: t + self.cfg.backoff.gap(attempt),
                };
            }
            let mut ticks = t + 1;
            if self.rng.gen::<f64>() < self.cfg.delay_prob {
                self.report.delays += 1;
                ticks += self.rng.gen_range(1..=self.cfg.max_delay.max(1));
            }
            return HopDelivery::Delivered {
                attempts: attempt + 1,
                ticks,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_hops_are_clean() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        for _ in 0..50 {
            assert_eq!(
                inj.hop(),
                HopDelivery::Delivered {
                    attempts: 1,
                    ticks: 1
                }
            );
        }
        assert_eq!(inj.report().drops, 0);
        assert_eq!(inj.report().attempts, 50);
    }

    #[test]
    fn drops_trigger_bounded_retries() {
        let mut inj = FaultInjector::new(FaultConfig::lossy(1.0).with_seed(1));
        // Certain drop: every hop exhausts max_retries + 1 attempts.
        let out = inj.hop();
        match out {
            HopDelivery::Unreachable { attempts, ticks } => {
                assert_eq!(attempts, 4); // 1 + max_retries(3)
                assert!(ticks >= 3);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(inj.report().exhausted, 1);
    }

    #[test]
    fn moderate_loss_usually_delivers_with_retries() {
        let mut inj = FaultInjector::new(FaultConfig::lossy(0.3).with_seed(2));
        let mut delivered = 0u32;
        let mut retried = 0u32;
        for _ in 0..500 {
            match inj.hop() {
                HopDelivery::Delivered { attempts, .. } => {
                    delivered += 1;
                    if attempts > 1 {
                        retried += 1;
                    }
                }
                HopDelivery::Unreachable { .. } => {}
            }
        }
        // P(4 consecutive drops) = 0.81% — overwhelmingly delivered.
        assert!(delivered > 480, "delivered {delivered}");
        assert!(retried > 50, "retried {retried}");
    }

    #[test]
    fn dead_recipient_fails_without_retry() {
        let mut inj = FaultInjector::new(FaultConfig::default().with_dead_prob(1.0));
        match inj.hop() {
            HopDelivery::Unreachable { attempts, .. } => assert_eq!(attempts, 1),
            other => panic!("expected unreachable, got {other:?}"),
        }
        assert_eq!(inj.report().dead_hops, 1);
    }

    #[test]
    fn delays_stretch_ticks() {
        let mut inj = FaultInjector::new(FaultConfig::default().with_delay(1.0, 5).with_seed(3));
        for _ in 0..50 {
            match inj.hop() {
                HopDelivery::Delivered { ticks, .. } => {
                    assert!((2..=6).contains(&ticks), "ticks {ticks}")
                }
                other => panic!("expected delivery, got {other:?}"),
            }
        }
        assert_eq!(inj.report().delays, 50);
    }

    #[test]
    fn same_seed_same_sequence() {
        let cfg = FaultConfig::lossy(0.4).with_delay(0.3, 4).with_seed(9);
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        for _ in 0..200 {
            assert_eq!(a.hop(), b.hop());
        }
        assert_eq!(a.report(), b.report());
    }

    /// Regression: with a zero-tick retry spacing the retransmissions were
    /// scheduled with a clamped (≥ 1 tick) gap but the `Unreachable`
    /// accounting used the raw value, under-counting burnt sim time by one
    /// tick per hop. Both sides now share [`Backoff::gap`]'s clamp.
    #[test]
    fn zero_retry_timeout_still_burns_a_tick_per_gap() {
        let cfg = FaultConfig {
            drop_prob: 1.0,
            backoff: Backoff::fixed(0),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg);
        match inj.hop() {
            HopDelivery::Unreachable { attempts, ticks } => {
                assert_eq!(attempts, 4);
                // Retransmits at t = 1, 2, 3; final gap burnt before
                // giving up lands the hop at t = 4, not 3.
                assert_eq!(ticks, 4);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        let dead = FaultConfig {
            dead_prob: 1.0,
            backoff: Backoff::fixed(0),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(dead);
        match inj.hop() {
            HopDelivery::Unreachable { attempts, ticks } => {
                assert_eq!(attempts, 1);
                assert_eq!(ticks, 1, "a dead hop still burns its ack gap");
            }
            other => panic!("expected unreachable, got {other:?}"),
        }
    }

    #[test]
    fn backoff_gaps_grow_and_cap() {
        let b = Backoff::exponential(2, 10);
        assert_eq!(b.schedule(5), vec![2, 4, 8, 10, 10]);
        // Degenerate inputs are clamped rather than wedging the timeline.
        let z = Backoff {
            base: 0,
            factor: 0,
            cap: 0,
            jitter: 0,
            seed: 0,
        };
        assert_eq!(z.schedule(3), vec![1, 1, 1]);
        assert_eq!(Backoff::fixed(3).schedule(4), vec![3, 3, 3, 3]);
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let b = Backoff::exponential(1, 64).with_jitter(3, 42);
        let first = b.schedule(6);
        assert_eq!(first, b.schedule(6), "same seed must replay exactly");
        for w in first.windows(2) {
            assert!(w[0] <= w[1], "gaps must be monotone: {first:?}");
        }
        assert!(first.iter().all(|&g| (1..=64).contains(&g)));
        let other = Backoff::exponential(1, 64).with_jitter(3, 43);
        assert_ne!(first, other.schedule(6), "different seeds should differ");
    }

    #[test]
    fn backoff_spaces_retransmissions_in_hop_timeline() {
        let cfg = FaultConfig::lossy(1.0)
            .with_seed(1)
            .with_backoff(Backoff::exponential(2, 100));
        let mut inj = FaultInjector::new(cfg);
        match inj.hop() {
            HopDelivery::Unreachable { attempts, ticks } => {
                assert_eq!(attempts, 4);
                // Drops at t = 0, 2, 6, 14; the last gap (16) is burnt
                // before the hop is abandoned.
                assert_eq!(ticks, 14 + 16);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    impl FaultInjector {
        /// The event-queue timeline `hop` replaced, kept as the reference
        /// the attempt loop must reproduce draw for draw. Only one event
        /// is ever in flight, so a heap of `(time, attempt)` pops in the
        /// order the old queue's `(time, sequence)` did.
        fn hop_via_queue(&mut self) -> HopDelivery {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            // (time, attempt); each retransmission is a later event.
            let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            queue.push(Reverse((0, 0)));
            while let Some(Reverse((time, attempt))) = queue.pop() {
                self.report.attempts += 1;
                if self.rng.gen::<f64>() < self.cfg.dead_prob {
                    // Recipient is down: retrying cannot help, but the sender
                    // still waits out one ack gap before concluding that.
                    self.report.dead_hops += 1;
                    return HopDelivery::Unreachable {
                        attempts: attempt + 1,
                        ticks: time + self.cfg.backoff.gap(attempt),
                    };
                }
                if self.rng.gen::<f64>() < self.cfg.drop_prob {
                    self.report.drops += 1;
                    if attempt < self.cfg.max_retries {
                        queue.push(Reverse((time + self.cfg.backoff.gap(attempt), attempt + 1)));
                        continue;
                    }
                    self.report.exhausted += 1;
                    return HopDelivery::Unreachable {
                        attempts: attempt + 1,
                        ticks: time + self.cfg.backoff.gap(attempt),
                    };
                }
                let mut ticks = time + 1;
                if self.rng.gen::<f64>() < self.cfg.delay_prob {
                    self.report.delays += 1;
                    ticks += self.rng.gen_range(1..=self.cfg.max_delay.max(1));
                }
                return HopDelivery::Delivered {
                    attempts: attempt + 1,
                    ticks,
                };
            }
            unreachable!("the first transmission is always queued")
        }
    }

    #[test]
    fn attempt_loop_replays_the_event_queue_timeline() {
        let backoffs = [
            Backoff::default(),
            Backoff::fixed(3),
            Backoff::exponential(2, 100),
            Backoff::exponential(1, 64).with_jitter(3, 42),
        ];
        let mut hops = 0;
        for seed in 0..8u64 {
            for &drop in &[0.0, 0.2, 0.6, 1.0] {
                for &dead in &[0.0, 0.05, 0.5] {
                    for (b, &backoff) in backoffs.iter().enumerate() {
                        let cfg = FaultConfig::lossy(drop)
                            .with_seed(seed)
                            .with_dead_prob(dead)
                            .with_delay(0.3, 4)
                            .with_max_retries(b as u32)
                            .with_backoff(backoff);
                        let (mut fast, mut reference) =
                            (FaultInjector::new(cfg), FaultInjector::new(cfg));
                        for _ in 0..40 {
                            assert_eq!(fast.hop(), reference.hop_via_queue(), "{cfg:?}");
                            assert_eq!(fast.report(), reference.report(), "{cfg:?}");
                            hops += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(hops, 8 * 4 * 3 * 4 * 40);
    }
}
