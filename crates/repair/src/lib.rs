//! Overlay repair engine: churn scheduling, takeover-driven zone repair
//! and soft-state replica refresh for a Hyper-M network.
//!
//! The paper's MANET session is short-lived but not static: devices crash,
//! walk away, and arrive late. [`hyperm_core`] provides the mechanisms —
//! overlay-level crash/leave with CAN zone takeover
//! (`HypermNetwork::crash_peer` / `depart_peer`), background fragment
//! merges (`repair_overlays`) and soft-state summary republish
//! (`refresh_peer_summaries`). This crate provides the *policy* that ties
//! them to simulated time:
//!
//! * [`RepairEngine`] owns a network and a sim clock. Churn events go
//!   through it; with repair enabled it runs the takeover + background
//!   merge after every failure and fires each alive peer's periodic
//!   summary refresh, which restores the replicas lost on crashed zones —
//!   so range-query recall over alive peers' data returns to 1.0.
//! * [`ChurnSchedule`] draws Poisson crash/departure/arrival processes
//!   over a sim-time horizon (exponential inter-arrival times, seeded),
//!   and [`RepairEngine::run_schedule`] executes them in time order,
//!   interleaving the refresh loop.
//!
//! The engine never decides *who* crashes at schedule-build time: victims
//! are sampled at execution among the currently alive, unprotected peers,
//! so a schedule stays valid for any interleaving of joins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]
// Panic-free hot path: no unwrap/expect, panic!/unreachable! or
// unchecked indexing outside tests without a written reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
#![expect(
    clippy::indexing_slicing,
    reason = "overlay and node indices are dense and validated by the repair planner before use"
)]

use hyperm_cluster::Dataset;
use hyperm_core::{ChurnOutcome, HypermNetwork, JoinError};
use hyperm_sim::{FaultConfig, OpStats, PartitionPlan};
use hyperm_telemetry::{Name, SpanId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Budget of background merge passes run after each churn event.
const MAX_REPAIR_PASSES: usize = 32;

/// Policy knobs of the repair engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Master switch: with `false`, crashes leave routing holes (no
    /// takeover) and the refresh loop is off — the paper-faithful baseline
    /// the `churn` figure compares against.
    pub enabled: bool,
    /// Sim-time ticks between two summary refreshes of the same peer. The
    /// soft-state TTL story: every published sphere is re-inserted at this
    /// period, so replicas lost to a crash are absent for at most one
    /// period (plus the takeover detection time), and a sphere whose
    /// publish failed is absent for at most one period.
    pub refresh_interval: u64,
    /// Optional message-level fault plan installed on query traffic.
    pub fault_plan: Option<FaultConfig>,
    /// Optional network partition: applied when the clock reaches
    /// `plan.start`, healed at `plan.end`. Healing triggers reconciliation
    /// (background merges + a full re-publication round) when repair is
    /// enabled.
    pub partition_plan: Option<PartitionPlan>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            refresh_interval: 50,
            fault_plan: None,
            partition_plan: None,
        }
    }
}

impl RepairConfig {
    /// Builder-style master switch.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Builder-style refresh period override.
    pub fn with_refresh_interval(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "refresh interval must be positive");
        self.refresh_interval = ticks;
        self
    }

    /// Builder-style fault plan.
    pub fn with_fault_plan(mut self, plan: FaultConfig) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style partition plan.
    pub fn with_partition_plan(mut self, plan: PartitionPlan) -> Self {
        self.partition_plan = Some(plan);
        self
    }
}

/// Aggregate counters of everything the engine did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairStats {
    /// Crash-stop failures processed.
    pub crashes: u64,
    /// Graceful departures processed.
    pub departures: u64,
    /// Live joins processed.
    pub arrivals: u64,
    /// Summary refreshes fired (one per peer per due period).
    pub refreshes: u64,
    /// Repair-protocol message cost: detection, takeover claims, zone and
    /// replica handoffs, background merges, neighbour updates.
    pub repair: OpStats,
    /// Soft-state republish message cost (invalidations + re-inserts),
    /// plus each round's finger upkeep on the 1-d CAN levels
    /// ([`HypermNetwork::fix_fingers`]).
    pub refresh: OpStats,
    /// Worst takeover latency observed, in sim ticks (detection timeout +
    /// handshake; the ISSUE's "takeover latency in sim time").
    pub max_takeover_rounds: u64,
    /// Sphere publishes that a refresh round could not land fully (route
    /// dead-ended or coverage incomplete), summed over every round.
    pub publishes_failed: u64,
}

impl RepairStats {
    /// Total maintenance messages (repair + refresh).
    pub fn total_messages(&self) -> u64 {
        self.repair.messages + self.refresh.messages
    }
}

/// A Hyper-M network plus a sim clock and the repair/refresh policy.
#[derive(Debug)]
pub struct RepairEngine {
    net: HypermNetwork,
    cfg: RepairConfig,
    now: u64,
    /// Per peer: when its summaries were last (re)published.
    last_refresh: Vec<u64>,
    /// Partition lifecycle: applied at `plan.start`, healed at `plan.end`.
    partition_applied: bool,
    partition_healed: bool,
    partition_span: SpanId,
    stats: RepairStats,
}

impl RepairEngine {
    /// Wrap a freshly built network. Installs the fault plan, if any;
    /// publication time is taken as `t = 0` for every peer's refresh
    /// timer.
    pub fn new(mut net: HypermNetwork, cfg: RepairConfig) -> Self {
        net.set_fault_plan(cfg.fault_plan);
        net.recorder().set_time(0);
        let n = net.len();
        Self {
            net,
            cfg,
            now: 0,
            last_refresh: vec![0; n],
            partition_applied: false,
            partition_healed: false,
            partition_span: SpanId::NONE,
            stats: RepairStats::default(),
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &HypermNetwork {
        &self.net
    }

    /// Current sim time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Counters so far.
    pub fn stats(&self) -> &RepairStats {
        &self.stats
    }

    /// The policy in force.
    pub fn config(&self) -> &RepairConfig {
        &self.cfg
    }

    /// Advance the clock to `t`, firing every engine event that falls due
    /// on the way, in time order: partition transitions (split at
    /// `plan.start`, heal at `plan.end` — these fire even with repair
    /// disabled, they are environment, not policy) and periodic summary
    /// refreshes (repair enabled only). At equal times a transition fires
    /// before a refresh; refreshing peers tie-break by id, so runs are
    /// deterministic.
    pub fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "time cannot go backwards");
        loop {
            // Next engine event within [now, t]: (time, priority, peer).
            let mut next: Option<(u64, u8, usize)> = None;
            if let Some(plan) = &self.cfg.partition_plan {
                if !self.partition_applied && plan.start <= t {
                    next = Some((plan.start, 0, usize::MAX));
                } else if self.partition_applied && !self.partition_healed && plan.end <= t {
                    next = Some((plan.end, 0, usize::MAX));
                }
            }
            if self.cfg.enabled {
                let due = (0..self.net.len())
                    .filter(|&p| self.net.is_alive(p))
                    .map(|p| (self.last_refresh[p] + self.cfg.refresh_interval, 1u8, p))
                    .filter(|&(d, _, _)| d <= t)
                    .min();
                next = match (next, due) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            let Some((due_t, prio, peer)) = next else {
                break;
            };
            self.now = self.now.max(due_t);
            self.net.recorder().set_time(self.now);
            if prio == 0 {
                if !self.partition_applied {
                    self.apply_partition();
                } else {
                    self.heal_partition();
                }
            } else {
                self.refresh_peer(peer);
            }
        }
        self.now = t;
        // Trace events fired after this point carry the new sim time.
        self.net.recorder().set_time(self.now);
    }

    /// Install the configured partition on the network: links across
    /// components are severed in every overlay and for phase-2 fetches.
    fn apply_partition(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "apply_partition is only called after the caller checked partition_plan.is_some()"
        )]
        let plan = self.cfg.partition_plan.as_ref().expect("no partition plan");
        let map = plan.component_map(self.net.len());
        let components = plan.components.len();
        let (start, end) = (plan.start, plan.end);
        self.net.set_partition(Some(map));
        self.partition_applied = true;
        let tel = self.net.recorder();
        if tel.is_enabled() {
            self.partition_span = tel.span(
                SpanId::NONE,
                Name::Partition,
                vec![
                    ("components", components.into()),
                    ("start", start.into()),
                    ("end", end.into()),
                ],
            );
        }
        if let Some(m) = tel.metrics() {
            m.add(Name::Partition, 1);
        }
    }

    /// Heal the partition and reconcile: background merges, then one full
    /// re-publication round, so summaries that could not cross the split
    /// land again (repair enabled only).
    fn heal_partition(&mut self) {
        self.net.set_partition(None);
        self.partition_healed = true;
        let tel = self.net.recorder().clone();
        if tel.is_enabled() {
            tel.count_event(
                self.partition_span,
                Name::Heal,
                vec![("t", self.now.into())],
            );
            tel.end(
                self.partition_span,
                Name::Partition,
                vec![("healed_at", self.now.into())],
            );
        }
        if self.cfg.enabled {
            self.stats.repair += self.net.repair_overlays(MAX_REPAIR_PASSES);
            self.refresh_all();
        }
    }

    /// Republish one peer's summaries now (restores its replicas
    /// everywhere, including zones re-owned after a crash) and pay its
    /// finger upkeep round. Spheres whose fault-aware publish fails are
    /// counted; the peer's next refresh republishes them with the rest.
    pub fn refresh_peer(&mut self, peer: usize) {
        let report = self.net.refresh_peer_summaries_report(peer);
        self.stats.refresh += report.stats + self.net.fix_fingers(peer);
        self.stats.refreshes += 1;
        self.stats.publishes_failed += report.failed;
        self.last_refresh[peer] = self.now;
    }

    /// Republish every alive peer's summaries now — the "one full refresh
    /// period elapsed" fast-forward used by tests and experiments.
    pub fn refresh_all(&mut self) {
        for p in 0..self.net.len() {
            if self.net.is_alive(p) {
                self.refresh_peer(p);
            }
        }
    }

    /// Crash-stop `peer` at the current time. With repair enabled: zone
    /// takeover, then background merges. Returns the churn outcome (the
    /// repair-off baseline only pays detection).
    pub fn crash(&mut self, peer: usize) -> ChurnOutcome {
        let out = self.net.crash_peer(peer, self.cfg.enabled);
        self.stats.crashes += 1;
        self.stats.repair += out.stats;
        self.stats.max_takeover_rounds = self.stats.max_takeover_rounds.max(out.takeover_rounds);
        if self.cfg.enabled {
            self.stats.repair += self.net.repair_overlays(MAX_REPAIR_PASSES);
        }
        out
    }

    /// Graceful departure of `peer` at the current time (always performs
    /// the zone/replica handoff — a leaving node cooperates even when the
    /// failure-repair machinery is disabled).
    pub fn depart(&mut self, peer: usize) -> ChurnOutcome {
        let out = self.net.depart_peer(peer);
        self.stats.departures += 1;
        self.stats.repair += out.stats;
        self.stats.max_takeover_rounds = self.stats.max_takeover_rounds.max(out.takeover_rounds);
        self.stats.repair += self.net.repair_overlays(MAX_REPAIR_PASSES);
        out
    }

    /// A latecomer joins with its collection (delegates to
    /// [`HypermNetwork::join_peer`]).
    pub fn join(&mut self, items: Dataset) -> Result<usize, JoinError> {
        let report = self.net.join_peer(items)?;
        self.stats.arrivals += 1;
        self.last_refresh.push(self.now);
        let tel = self.net.recorder();
        if tel.is_enabled() {
            tel.event(
                hyperm_telemetry::SpanId::NONE,
                Name::Join,
                vec![("peer", report.peer.into())],
            );
        }
        Ok(report.peer)
    }

    /// Execute a churn schedule: events fire in time order with the
    /// refresh loop interleaved; victims are drawn uniformly from the
    /// alive peers not in `schedule.protect`. Events that cannot fire
    /// (nobody left to kill, arrival generator exhausted) are skipped and
    /// counted in the report.
    pub fn run_schedule<F>(&mut self, schedule: &ChurnSchedule, mut make_peer: F) -> ScheduleReport
    where
        F: FnMut(usize) -> Option<Dataset>,
    {
        let mut rng = StdRng::seed_from_u64(schedule.seed ^ 0x5eed_c0de);
        let mut report = ScheduleReport::default();
        for ev in &schedule.events {
            self.advance_to(ev.time);
            match ev.kind {
                ChurnEventKind::Crash | ChurnEventKind::Depart => {
                    let victims: Vec<usize> = (0..self.net.len())
                        .filter(|&p| self.net.is_alive(p) && !schedule.protect.contains(&p))
                        .collect();
                    if victims.len() <= 1 || self.net.alive_count() <= 2 {
                        report.skipped += 1;
                        continue;
                    }
                    let victim = victims[rng.gen_range(0..victims.len())];
                    let out = match ev.kind {
                        ChurnEventKind::Crash => {
                            report.crashes += 1;
                            self.crash(victim)
                        }
                        _ => {
                            report.departures += 1;
                            self.depart(victim)
                        }
                    };
                    report.max_takeover_rounds =
                        report.max_takeover_rounds.max(out.takeover_rounds);
                }
                ChurnEventKind::Arrive => match make_peer(self.net.len()) {
                    Some(items) => {
                        if self.join(items).is_ok() {
                            report.arrivals += 1;
                        } else {
                            report.skipped += 1;
                        }
                    }
                    None => report.skipped += 1,
                },
            }
        }
        self.advance_to(schedule.horizon);
        report
    }
}

/// What happened while executing a [`ChurnSchedule`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Crash events executed.
    pub crashes: u64,
    /// Departure events executed.
    pub departures: u64,
    /// Arrival events executed.
    pub arrivals: u64,
    /// Events skipped (no eligible victim / no data for an arrival).
    pub skipped: u64,
    /// Worst takeover latency among the executed events (sim ticks).
    pub max_takeover_rounds: u64,
}

/// Kind of a scheduled churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// Crash-stop failure of a random alive peer.
    Crash,
    /// Graceful departure of a random alive peer.
    Depart,
    /// A new peer arrives and joins.
    Arrive,
}

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Sim time at which the event fires.
    pub time: u64,
    /// What happens.
    pub kind: ChurnEventKind,
}

/// A pre-drawn sequence of churn events over a sim-time horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSchedule {
    /// Events in non-decreasing time order.
    pub events: Vec<ChurnEvent>,
    /// End of the simulated session (the engine advances here after the
    /// last event, letting trailing refreshes fire).
    pub horizon: u64,
    /// Peers never selected as victims (e.g. the querying peer).
    pub protect: Vec<usize>,
    /// Seed for victim selection at execution time.
    pub seed: u64,
}

impl ChurnSchedule {
    /// Draw independent Poisson processes for crashes, departures and
    /// arrivals over `[0, horizon]`. Rates are events per tick; a rate of
    /// 0 disables that process. Inter-arrival gaps are exponential
    /// (`dt = −ln(1−u)/rate`), rounded up to at least one tick.
    pub fn poisson(
        horizon: u64,
        crash_rate: f64,
        depart_rate: f64,
        arrival_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(horizon > 0, "empty horizon");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for (rate, kind) in [
            (crash_rate, ChurnEventKind::Crash),
            (depart_rate, ChurnEventKind::Depart),
            (arrival_rate, ChurnEventKind::Arrive),
        ] {
            assert!(rate >= 0.0 && rate.is_finite(), "bad rate {rate}");
            if rate <= 0.0 {
                continue;
            }
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / rate;
                // `t` can go NaN-free infinite only via ln(0); either way
                // anything not strictly inside the horizon ends the draw.
                if t >= horizon as f64 || !t.is_finite() {
                    break;
                }
                events.push(ChurnEvent {
                    time: (t.ceil() as u64).max(1),
                    kind,
                });
            }
        }
        events.sort_by_key(|e| e.time);
        Self {
            events,
            horizon,
            protect: Vec::new(),
            seed,
        }
    }

    /// Builder-style victim protection list.
    pub fn with_protect(mut self, protect: Vec<usize>) -> Self {
        self.protect = protect;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperm_core::HypermConfig;
    use hyperm_sim::NodeId;
    use hyperm_telemetry::Recorder;

    fn data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(8);
        let mut row = [0.0f64; 8];
        let centre: f64 = rng.gen::<f64>() * 0.5;
        for _ in 0..n {
            for x in row.iter_mut() {
                *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
            }
            ds.push_row(&row);
        }
        ds
    }

    fn build(n_peers: usize, seed: u64) -> HypermNetwork {
        let peers: Vec<Dataset> = (0..n_peers)
            .map(|p| data(seed * 100 + p as u64, 20))
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(3)
            .with_seed(seed);
        HypermNetwork::build(peers, cfg).unwrap().0
    }

    /// A refresh round charges the republish plus exactly
    /// `CanOverlay::fix_fingers` on the 1-d levels (A, D_0), and no upkeep
    /// on the 2-d and 4-d levels or with fingers off.
    #[test]
    fn refresh_round_charges_finger_upkeep_on_1d_levels_only() {
        for fingers in [true, false] {
            let peers: Vec<Dataset> = (0..24).map(|p| data(900 + p, 20)).collect();
            let cfg = HypermConfig::new(8)
                .with_levels(4)
                .with_clusters_per_peer(3)
                .with_seed(9)
                .with_fingers(fingers);
            let net = HypermNetwork::build(peers, cfg).unwrap().0;
            let peer = 5;
            let upkeep: Vec<OpStats> = (0..net.levels())
                .map(|l| net.overlay(l).as_can().unwrap().fix_fingers(NodeId(peer)))
                .collect();
            for (l, u) in upkeep.iter().enumerate() {
                let charged = fingers && net.overlay(l).dim() == 1;
                assert_eq!(*u != OpStats::zero(), charged, "level {l}: {u:?}");
            }
            let upkeep: OpStats = upkeep.into_iter().sum();
            assert_eq!(net.fix_fingers(peer), upkeep);
            let republish = net.clone().refresh_peer_summaries_report(peer).stats;
            let mut eng = RepairEngine::new(net, RepairConfig::default());
            eng.refresh_peer(peer);
            assert_eq!(eng.stats().refresh, republish + upkeep);
        }
    }

    #[test]
    fn crash_then_refresh_restores_alive_recall() {
        let mut eng = RepairEngine::new(build(10, 1), RepairConfig::default());
        eng.crash(4);
        eng.crash(7);
        eng.refresh_all();
        let net = eng.network();
        // Every alive item is still found.
        for p in 0..net.len() {
            if !net.is_alive(p) || p == 4 || p == 7 {
                continue;
            }
            let q = net.peer(p).items.row(0).to_vec();
            let res = net.range_query(0, &q, 1e-9, None);
            assert!(res.items.contains(&(p, 0)), "peer {p} item lost");
        }
        assert!(eng.stats().crashes == 2 && eng.stats().refreshes > 0);
        assert!(eng.stats().max_takeover_rounds >= hyperm_can::DETECT_TICKS);
    }

    #[test]
    fn advance_fires_periodic_refreshes() {
        let cfg = RepairConfig::default().with_refresh_interval(10);
        let mut eng = RepairEngine::new(build(4, 2), cfg);
        eng.advance_to(35);
        // 4 peers × 3 due periods (t=10, 20, 30).
        assert_eq!(eng.stats().refreshes, 12);
        assert_eq!(eng.now(), 35);
    }

    #[test]
    fn disabled_engine_skips_refresh_and_takeover() {
        let cfg = RepairConfig::default().with_enabled(false);
        let mut eng = RepairEngine::new(build(6, 3), cfg);
        eng.crash(2);
        eng.advance_to(1_000);
        assert_eq!(eng.stats().refreshes, 0);
        assert_eq!(eng.stats().max_takeover_rounds, 0);
        // The hole is real: overlay invariants are intentionally broken,
        // but queries still terminate (no panic) and may just miss data.
        let net = eng.network();
        let q = net.peer(1).items.row(0).to_vec();
        let _ = net.range_query(0, &q, 0.2, None);
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_ordered() {
        let a = ChurnSchedule::poisson(500, 0.02, 0.01, 0.005, 9);
        let b = ChurnSchedule::poisson(500, 0.02, 0.01, 0.005, 9);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        assert!(a.events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(a.events.iter().all(|e| e.time >= 1 && e.time <= 500));
    }

    #[test]
    fn schedule_execution_respects_protection() {
        let net = build(8, 4);
        let mut eng = RepairEngine::new(net, RepairConfig::default());
        let sched = ChurnSchedule::poisson(300, 0.03, 0.01, 0.0, 11).with_protect(vec![0]);
        let report = eng.run_schedule(&sched, |_| None);
        assert!(eng.network().is_alive(0), "protected peer was killed");
        assert!(report.crashes + report.departures > 0);
        assert_eq!(eng.now(), 300);
        // Structure stays sound under repair.
        for l in 0..eng.network().levels() {
            eng.network().overlay(l).check_invariants();
        }
    }

    #[test]
    fn partition_splits_then_heals_with_full_recall() {
        let net = build(10, 6);
        let plan = PartitionPlan::halves(10, 20, 120);
        let cfg = RepairConfig::default()
            .with_refresh_interval(25)
            .with_partition_plan(plan);
        let mut eng = RepairEngine::new(net, cfg);

        // Mid-window the split is in force: cross-component fetches are
        // severed and refreshes from either side fail the spheres whose
        // owner zone sits across the divide.
        eng.advance_to(60);
        assert!(eng.network().partition_active(), "split not applied");
        assert!(!eng.network().peers_connected(0, 9));
        assert!(eng.network().peers_connected(0, 1));

        // Past plan.end the engine heals, reconciles and re-publishes;
        // recall over every alive peer's data is 1.0 again within the
        // bounded repair rounds (here: the heal round itself plus one
        // refresh period).
        eng.advance_to(200);
        assert!(!eng.network().partition_active(), "partition never healed");
        assert!(eng.stats().publishes_failed > 0, "the split failed nothing");
        let net = eng.network();
        for p in 0..net.len() {
            let q = net.peer(p).items.row(0).to_vec();
            let res = net.range_query(0, &q, 1e-9, None);
            assert!(res.items.contains(&(p, 0)), "peer {p} item lost post-heal");
        }
    }

    #[test]
    fn partition_transitions_fire_even_with_repair_disabled() {
        let cfg = RepairConfig::default()
            .with_enabled(false)
            .with_partition_plan(PartitionPlan::halves(6, 10, 30));
        let mut eng = RepairEngine::new(build(6, 7), cfg);
        eng.advance_to(15);
        assert!(eng.network().partition_active());
        eng.advance_to(40);
        assert!(!eng.network().partition_active());
        assert_eq!(eng.stats().refreshes, 0, "refresh loop must stay off");
    }

    /// The heal round republishes each sphere once: every `replica` event
    /// it emits is a replica the stores hold afterwards, none superseded
    /// within the tick.
    #[test]
    fn heal_places_each_sphere_once() {
        let mut net = build(10, 6);
        let (rec, ring) = Recorder::ring(1 << 16);
        net.set_recorder(rec);
        let cfg = RepairConfig::default()
            .with_refresh_interval(25)
            .with_partition_plan(PartitionPlan::halves(10, 20, 120));
        let mut eng = RepairEngine::new(net, cfg);
        eng.advance_to(119);
        ring.drain();
        // The heal fires at 120; no periodic refresh is due before 125.
        eng.advance_to(120);
        assert!(!eng.network().partition_active(), "partition never healed");
        assert_eq!(ring.dropped(), 0, "ring too small for the heal round");
        let placed = ring
            .drain()
            .iter()
            .filter(|e| e.name == Name::Replica)
            .count();
        let net = eng.network();
        let stored: usize = (0..net.levels())
            .map(|l| {
                let can = net.overlay(l).as_can().unwrap();
                can.nodes().map(|node| node.store.len()).sum::<usize>()
            })
            .sum();
        assert_eq!(placed, stored, "the heal placed some sphere twice");
    }

    #[test]
    fn total_loss_counts_failed_publishes() {
        let cfg = RepairConfig::default()
            .with_refresh_interval(10)
            .with_fault_plan(FaultConfig::lossy(1.0).with_seed(42));
        let net = build(6, 8);
        let spheres: usize = (0..net.len())
            .flat_map(|p| net.peer(p).summaries.iter().map(Vec::len))
            .sum();
        let mut eng = RepairEngine::new(net, cfg);
        eng.advance_to(60);
        let st = eng.stats();
        assert_eq!(st.refreshes, 36, "6 peers x 6 due periods");
        assert!(st.publishes_failed > 0, "nothing failed under 100% loss");
        assert!(
            st.publishes_failed <= 6 * spheres as u64,
            "a round fails each sphere at most once"
        );
    }

    #[test]
    fn arrivals_join_through_schedule() {
        let mut eng = RepairEngine::new(build(5, 5), RepairConfig::default());
        let sched = ChurnSchedule::poisson(200, 0.0, 0.0, 0.02, 13);
        let expected = sched.events.len() as u64;
        let report = eng.run_schedule(&sched, |id| Some(data(900 + id as u64, 10)));
        assert_eq!(report.arrivals, expected);
        assert_eq!(eng.network().len(), 5 + expected as usize);
    }
}
