//! Fault-injecting transport wrapper: deterministic chaos for any
//! [`Transport`].
//!
//! [`ChaosEndpoint`] wraps an inner endpoint and perturbs its **send**
//! path with two faults — silent drops and forced truncate-disconnects —
//! so the retry/reconnect machinery in the runtime and client can be
//! exercised against mem and TCP transports alike. Partitions and delays
//! are the simulator's (`PartitionPlan`, `FaultConfig::delay_prob`), and
//! duplication is not injected at all: `Put` and `Publish` get one attempt
//! because a second copy would double-apply. All decisions are pure
//! functions of `(seed, destination, per-direction counter)` via
//! splitmix64, so a chaos schedule replays identically run after run
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
use hyperm_telemetry::sync::{Guard, Mutex};
use std::collections::BTreeMap;
use std::time::Duration;

/// What a [`ChaosEndpoint`] does to outbound frames; everything defaults
/// to "no chaos".
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the per-direction decision stream.
    pub seed: u64,
    /// Probability (‰, 0..=1000) an outbound frame is silently dropped:
    /// the send reports success but nothing is delivered — exactly what
    /// a lossy MANET link does to an unacked datagram.
    pub drop_per_mille: u16,
    /// Every nth frame per direction fails with a truncate-disconnect
    /// (`Io`) error instead of being sent, as if the peer reset the
    /// connection mid-write. `0` disables.
    pub disconnect_every: u64,
}

impl ChaosConfig {
    /// A config that injects nothing (useful as a builder base).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop_per_mille: 0,
            disconnect_every: 0,
        }
    }

    /// This config with a drop probability.
    pub fn with_drop(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// This config with a forced disconnect every `n` frames.
    pub fn with_disconnect_every(mut self, n: u64) -> Self {
        self.disconnect_every = n;
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
    /// Sends failed with a forced disconnect.
    pub disconnects: u64,
}

struct ChaosState {
    /// Per-destination frame counters: the decision-stream index.
    counters: BTreeMap<PeerId, u64>,
    stats: ChaosStats,
}

/// A [`Transport`] whose outbound frames are dropped or fail with a
/// forced disconnect on a seeded, deterministic schedule. See the module
/// docs for the fault model.
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

/// The drop word for frame `n` towards `to` under `seed`. The stream is
/// indexed by `2n`; recorded schedules (`drop_stream_is_pinned`, the
/// `cluster_chaos` drop replay) depend on that index, so keep it.
fn roll(seed: u64, to: PeerId, n: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(to)) ^ n.wrapping_mul(2))
}

impl<T: Transport> Transport for ChaosEndpoint<T> {
    fn local(&self) -> PeerId {
        self.inner.local()
    }

    fn send_tagged(&self, to: PeerId, req_id: u64, msg: &Message) -> Result<(), TransportError> {
        let cfg = self.config;
        // Take this frame's slot in the direction's decision stream and
        // decide its fate while holding the lock; send after releasing it.
        let fate = {
            let mut st = self.lock();
            let n = {
                let c = st.counters.entry(to).or_insert(0);
                let n = *c;
                *c += 1;
                n
            };
            st.stats.attempted += 1;
            if cfg.disconnect_every > 0 && n > 0 && n % cfg.disconnect_every == 0 {
                st.stats.disconnects += 1;
                Fate::Disconnect
            } else if roll(cfg.seed, to, n) % 1000 < u64::from(cfg.drop_per_mille) {
                st.stats.dropped += 1;
                Fate::Drop
            } else {
                Fate::Deliver
            }
        };
        match fate {
            Fate::Disconnect => Err(TransportError::Io("chaos: connection truncated".into())),
            // The link ate the frame: the sender cannot tell, so this is
            // a success as far as the send contract goes.
            Fate::Drop => Ok(()),
            Fate::Deliver => self.inner.send_tagged(to, req_id, msg),
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
    Disconnect,
    Drop,
    Deliver,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemHub;

    fn deliveries(seed: u64, frames: u64) -> Vec<u64> {
        let hub = MemHub::new(1024);
        let a = ChaosEndpoint::new(hub.endpoint(1), ChaosConfig::quiet(seed).with_drop(300));
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
    fn drop_stream_is_pinned() {
        // Bit `seq` is set when `Ping { seq }` arrived, so the mask is the
        // drop stream of seed 42 towards peer 2 over its first 64 frames.
        let hub = MemHub::new(1024);
        let a = ChaosEndpoint::new(hub.endpoint(1), ChaosConfig::quiet(42).with_drop(300));
        let b = hub.endpoint(2);
        for seq in 0..64 {
            a.send_tagged(2, seq + 1, &Message::Ping { seq }).unwrap();
        }
        let mut mask = 0u64;
        while let Ok(env) = b.recv_timeout(Duration::from_millis(20)) {
            mask |= 1 << (env.req_id - 1);
        }
        assert_eq!(mask, 0x7ba5_aec1_bb6b_7ddf, "{mask:#018x}");
        assert_eq!(a.stats().dropped, u64::from(64 - mask.count_ones()));
    }

    #[test]
    fn disconnect_fails_the_send() {
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
        assert_eq!(a.stats().disconnects, 1);
    }
}
