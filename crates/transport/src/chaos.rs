//! Fault-injecting transport wrapper: deterministic chaos for any
//! [`Transport`].
//!
//! [`ChaosEndpoint`] wraps an inner endpoint and perturbs its **send**
//! path — drops, duplicates, delays, forced disconnects, and a partition
//! window — so the retry/reconnect machinery in the runtime and client
//! can be exercised against mem and TCP transports alike. All decisions
//! are pure functions of `(seed, destination, per-direction counter)`
//! via splitmix64, so a chaos schedule replays identically run after run
//! regardless of thread timing: the nth frame towards peer `p` meets the
//! same fate every time.
//!
//! The receive path passes through untouched (chaos on one direction of
//! a link is the other side's send chaos), and so do transport-internal
//! frames that never cross this wrapper — e.g. the TCP `Hello`
//! handshake, which [`crate::TcpEndpoint`] writes on its own socket
//! before the wrapper sees anything. Chaos therefore models a lossy
//! *link*, not a broken handshake.

use crate::{Envelope, PeerId, Transport, TransportError};
use hyperm_can::Message;
use hyperm_sim::splitmix64;
use hyperm_telemetry::sync::{assert_unlocked, Guard, Mutex};
use std::collections::BTreeMap;
use std::time::Duration;

/// What a [`ChaosEndpoint`] does to outbound frames. All probabilities
/// are per-mille (0..=1000); everything defaults to "no chaos".
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the per-direction decision stream.
    pub seed: u64,
    /// Probability (‰) an outbound frame is silently dropped: the send
    /// reports success but nothing is delivered — exactly what a lossy
    /// MANET link does to an unacked datagram.
    pub drop_per_mille: u16,
    /// Probability (‰) an outbound frame is delivered twice (retransmit
    /// duplicate). Duplicates carry the same `req_id`.
    pub dup_per_mille: u16,
    /// Probability (‰) an outbound frame is delayed before delivery.
    /// The delay is applied sender-side, so per-link FIFO is preserved.
    pub delay_per_mille: u16,
    /// Upper bound on an injected delay, in milliseconds (the actual
    /// delay is seeded-uniform in `1..=max_delay_ms`).
    pub max_delay_ms: u64,
    /// Every nth frame per direction fails with a truncate-disconnect
    /// (`Io`) error instead of being sent, as if the peer reset the
    /// connection mid-write. `0` disables.
    pub disconnect_every: u64,
    /// A partition window `[start, end)` in per-direction frame counts:
    /// while a direction's counter is inside it, every send fails with
    /// an `Io` error. `None` disables.
    pub partition: Option<(u64, u64)>,
}

impl ChaosConfig {
    /// A config that injects nothing (useful as a builder base).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            max_delay_ms: 0,
            disconnect_every: 0,
            partition: None,
        }
    }

    /// This config with a drop probability.
    pub fn with_drop(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// This config with a duplication probability.
    pub fn with_dup(mut self, per_mille: u16) -> Self {
        self.dup_per_mille = per_mille;
        self
    }

    /// This config with a delay probability and bound.
    pub fn with_delay(mut self, per_mille: u16, max_delay_ms: u64) -> Self {
        self.delay_per_mille = per_mille;
        self.max_delay_ms = max_delay_ms;
        self
    }

    /// This config with a forced disconnect every `n` frames.
    pub fn with_disconnect_every(mut self, n: u64) -> Self {
        self.disconnect_every = n;
        self
    }

    /// This config with a partition window `[start, end)`.
    pub fn with_partition(mut self, start: u64, end: u64) -> Self {
        self.partition = Some((start, end));
        self
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::quiet(0)
    }
}

/// Counters of what the chaos layer actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames offered to the wrapper.
    pub attempted: u64,
    /// Frames silently dropped (send reported `Ok`).
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delayed before delivery.
    pub delayed: u64,
    /// Sends failed with a forced disconnect.
    pub disconnects: u64,
    /// Sends refused inside the partition window.
    pub partitioned: u64,
}

struct ChaosState {
    /// Per-destination frame counters: the decision-stream index.
    counters: BTreeMap<PeerId, u64>,
    stats: ChaosStats,
}

/// A [`Transport`] whose outbound frames suffer seeded, deterministic
/// chaos. See the module docs for the fault model.
pub struct ChaosEndpoint<T: Transport> {
    inner: T,
    config: ChaosConfig,
    state: Mutex<ChaosState>,
}

impl<T: Transport> ChaosEndpoint<T> {
    /// Wrap `inner` with the given chaos schedule.
    pub fn new(inner: T, config: ChaosConfig) -> Self {
        Self {
            inner,
            config,
            state: Mutex::new(ChaosState {
                counters: BTreeMap::new(),
                stats: ChaosStats::default(),
            }),
        }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// What the chaos layer has done so far.
    pub fn stats(&self) -> ChaosStats {
        self.lock().stats
    }

    fn lock(&self) -> Guard<'_, ChaosState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

/// The decision word for frame `n` towards `to` under `seed`. Lane
/// splits the word into independent sub-streams (drop/dup/delay).
fn roll(seed: u64, to: PeerId, n: u64, lane: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(to)) ^ n.wrapping_mul(2).wrapping_add(lane))
}

impl<T: Transport> Transport for ChaosEndpoint<T> {
    fn local(&self) -> PeerId {
        self.inner.local()
    }

    fn send_tagged(&self, to: PeerId, req_id: u64, msg: &Message) -> Result<(), TransportError> {
        let cfg = self.config;
        // Take this frame's slot in the direction's decision stream and
        // decide its fate while holding the lock, then act on it after
        // releasing (delays must not serialize unrelated directions).
        let (n, fate) = {
            let mut st = self.lock();
            let n = {
                let c = st.counters.entry(to).or_insert(0);
                let n = *c;
                *c += 1;
                n
            };
            st.stats.attempted += 1;
            let fate = if cfg
                .partition
                .is_some_and(|(start, end)| n >= start && n < end)
            {
                st.stats.partitioned += 1;
                Fate::Partitioned
            } else if cfg.disconnect_every > 0 && n > 0 && n % cfg.disconnect_every == 0 {
                st.stats.disconnects += 1;
                Fate::Disconnect
            } else if roll(cfg.seed, to, n, 0) % 1000 < u64::from(cfg.drop_per_mille) {
                st.stats.dropped += 1;
                Fate::Drop
            } else {
                let dup = roll(cfg.seed, to, n, 1) % 1000 < u64::from(cfg.dup_per_mille);
                let delay = cfg.max_delay_ms > 0
                    && roll(cfg.seed, to, n, 2) % 1000 < u64::from(cfg.delay_per_mille);
                if dup {
                    st.stats.duplicated += 1;
                }
                if delay {
                    st.stats.delayed += 1;
                }
                Fate::Deliver { dup, delay }
            };
            (n, fate)
        };
        match fate {
            Fate::Partitioned => Err(TransportError::Io("chaos: partitioned".into())),
            Fate::Disconnect => Err(TransportError::Io("chaos: connection truncated".into())),
            // The link ate the frame: the sender cannot tell, so this is
            // a success as far as the send contract goes.
            Fate::Drop => Ok(()),
            Fate::Deliver { dup, delay } => {
                if delay {
                    let ms = roll(cfg.seed, to, n, 3) % cfg.max_delay_ms.max(1) + 1;
                    assert_unlocked();
                    std::thread::sleep(Duration::from_millis(ms));
                }
                self.inner.send_tagged(to, req_id, msg)?;
                if dup {
                    self.inner.send_tagged(to, req_id, msg)?;
                }
                Ok(())
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        self.inner.recv_timeout(timeout)
    }

    fn peers(&self) -> Vec<PeerId> {
        self.inner.peers()
    }

    fn close(&self) {
        self.inner.close();
    }
}

enum Fate {
    Partitioned,
    Disconnect,
    Drop,
    Deliver { dup: bool, delay: bool },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemHub;

    fn deliveries(seed: u64, frames: u64) -> Vec<u64> {
        let hub = MemHub::new(1024);
        let a = ChaosEndpoint::new(
            hub.endpoint(1),
            ChaosConfig::quiet(seed).with_drop(300).with_dup(100),
        );
        let b = hub.endpoint(2);
        for seq in 0..frames {
            a.send_tagged(2, seq + 1, &Message::Ping { seq }).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(env) = b.recv_timeout(Duration::from_millis(20)) {
            got.push(env.req_id);
        }
        got
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let first = deliveries(42, 64);
        let second = deliveries(42, 64);
        assert_eq!(first, second, "same seed must replay the same fate");
        assert_ne!(
            first.len() as u64,
            64,
            "a 30% drop rate over 64 frames should lose something"
        );
        assert_ne!(deliveries(7, 64), first, "different seed, different fate");
    }

    #[test]
    fn duplicates_repeat_the_req_id() {
        let got = deliveries(42, 64);
        let mut seen = std::collections::BTreeMap::new();
        for id in &got {
            *seen.entry(*id).or_insert(0u32) += 1;
        }
        assert!(
            seen.values().any(|&c| c == 2),
            "a 10% dup rate over 64 frames should duplicate at least one"
        );
        assert!(seen.values().all(|&c| c <= 2), "at most one duplicate each");
    }

    #[test]
    fn disconnect_and_partition_fail_the_send() {
        let hub = MemHub::new(64);
        let a = ChaosEndpoint::new(
            hub.endpoint(1),
            ChaosConfig::quiet(0).with_disconnect_every(2),
        );
        let _b = hub.endpoint(2);
        assert!(a.send(2, &Message::Monitor).is_ok());
        assert!(a.send(2, &Message::Monitor).is_ok());
        assert!(matches!(
            a.send(2, &Message::Monitor),
            Err(TransportError::Io(_))
        ));
        let p = ChaosEndpoint::new(hub.endpoint(3), ChaosConfig::quiet(0).with_partition(0, 2));
        assert!(matches!(
            p.send(2, &Message::Monitor),
            Err(TransportError::Io(_))
        ));
        assert!(matches!(
            p.send(2, &Message::Monitor),
            Err(TransportError::Io(_))
        ));
        assert!(p.send(2, &Message::Monitor).is_ok());
        assert_eq!(p.stats().partitioned, 2);
        assert_eq!(a.stats().disconnects, 1);
    }

    #[test]
    fn delayed_frames_still_arrive_in_order() {
        // Runs the delay sleep, which must happen after the state lock
        // is released (debug builds check it).
        let hub = MemHub::new(64);
        let a = ChaosEndpoint::new(hub.endpoint(1), ChaosConfig::quiet(0).with_delay(1000, 1));
        let b = hub.endpoint(2);
        for seq in 0..4 {
            a.send_tagged(2, seq + 1, &Message::Ping { seq }).unwrap();
        }
        let got: Vec<u64> = (0..4)
            .map(|_| b.recv_timeout(Duration::from_secs(5)).unwrap().req_id)
            .collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
        assert_eq!(a.stats().delayed, 4);
    }
}
