//! Popular-summary cache on query entry peers (hot-spot relief).
//!
//! Zipf-skewed workloads hammer the overlay nodes whose zones cover the
//! popular query centres: phase 1 of every repeated query re-floods the
//! same region and re-charges the same owners. The [`SummaryCache`] lets a
//! query *entry* peer remember the per-level scores a phase-1 lookup
//! produced (in the dense form the ranking reads), keyed by the exact
//! `(entry peer, level, key, ε)` tuple, and answer repeats locally —
//! zero overlay traffic, zero load on the hot zone's host.
//!
//! **Correctness contract (Theorem 4.1 preserved).** A hit replays the
//! *exact* candidate map the cold path produced, so the cache never prunes
//! a candidate — and conservative invalidation guarantees the replay is
//! never stale:
//!
//! * an **epoch counter** is bumped by [`crate::HypermNetwork`] on every
//!   mutable overlay access (publish, refresh, churn, repair, partition
//!   changes all route through `overlay_mut`) — one bump invalidates every
//!   cached entry, so a hit can only serve a map computed against the
//!   overlay state *currently in force*;
//! * a **TTL in refresh rounds** bounds the lifetime of entries even on a
//!   mutation-free timeline, mirroring the soft-state TTL of the published
//!   summaries themselves;
//! * the cache deactivates itself while message-level fault injection is
//!   live: a hit would skip the injector's RNG draws and desynchronise
//!   the fault timeline of later queries.
//!
//! The cache is shared behind an `Arc` (entry peers of one simulated
//! network share the host process), guarded by a `Mutex` over a `BTreeMap`
//! so iteration order — and therefore eviction — is deterministic.

use crate::score::LevelScores;
use hyperm_telemetry::sync::{Guard, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Exact identity of one cached phase-1 lookup.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CacheKey {
    level: usize,
    from_peer: usize,
    /// Query key coordinates, bit-exact (`f64::to_bits`).
    key_bits: Vec<u64>,
    /// Key-space search radius, bit-exact.
    eps_bits: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    scores: LevelScores,
    /// Epoch the entry was computed in; any later mutation invalidates it.
    epoch: u64,
    /// Refresh round the entry was inserted in (TTL base).
    round: u64,
    /// Insertion sequence number — the eviction order when full.
    seq: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: BTreeMap<CacheKey, CacheEntry>,
    seq: u64,
}

/// Entry-peer cache of phase-1 level score maps. See the module docs for
/// the invalidation contract.
#[derive(Debug)]
pub struct SummaryCache {
    ttl_rounds: u64,
    max_entries: usize,
    active: AtomicBool,
    epoch: AtomicU64,
    round: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<Inner>,
}

impl SummaryCache {
    /// A cache whose entries survive `ttl_rounds` refresh rounds (min 1)
    /// and that holds at most `max_entries` lookups (min 1), evicting the
    /// oldest insertion when full.
    pub fn new(ttl_rounds: u64, max_entries: usize) -> Self {
        SummaryCache {
            ttl_rounds: ttl_rounds.max(1),
            max_entries: max_entries.max(1),
            active: AtomicBool::new(true),
            epoch: AtomicU64::new(0),
            round: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "cache operations cannot panic while holding the lock, so it is never poisoned"
    )]
    fn lock(&self) -> Guard<'_, Inner> {
        self.inner.lock().expect("summary cache lock poisoned")
    }

    fn key(&self, from_peer: usize, level: usize, key: &[f64], eps: f64) -> CacheKey {
        CacheKey {
            level,
            from_peer,
            key_bits: key.iter().map(|x| x.to_bits()).collect(),
            eps_bits: eps.to_bits(),
        }
    }

    /// Look up the score map of a previous identical phase-1 lookup.
    /// Returns `None` (a miss) when absent, epoch-stale, TTL-expired, or
    /// while the cache is deactivated; stale entries are dropped on sight.
    pub fn lookup(
        &self,
        from_peer: usize,
        level: usize,
        key: &[f64],
        eps: f64,
    ) -> Option<LevelScores> {
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        let k = self.key(from_peer, level, key, eps);
        let epoch = self.epoch.load(Ordering::Relaxed);
        let round = self.round.load(Ordering::Relaxed);
        let mut inner = self.lock();
        match inner.map.get(&k) {
            Some(e) if e.epoch == epoch && round.saturating_sub(e.round) < self.ttl_rounds => {
                let scores = e.scores.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(scores)
            }
            Some(_) => {
                inner.map.remove(&k);
                drop(inner);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Remember the score map a cold phase-1 lookup just produced. Evicts
    /// the oldest insertion when the cache is full. No-op while
    /// deactivated.
    pub fn insert(
        &self,
        from_peer: usize,
        level: usize,
        key: &[f64],
        eps: f64,
        scores: &LevelScores,
    ) {
        if !self.active.load(Ordering::Relaxed) {
            return;
        }
        let k = self.key(from_peer, level, key, eps);
        let epoch = self.epoch.load(Ordering::Relaxed);
        let round = self.round.load(Ordering::Relaxed);
        let mut inner = self.lock();
        if !inner.map.contains_key(&k) && inner.map.len() >= self.max_entries {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.map.insert(
            k,
            CacheEntry {
                scores: scores.clone(),
                epoch,
                round,
                seq,
            },
        );
    }

    /// Invalidate every entry: called on any mutable overlay access
    /// (publish, refresh, churn, repair, partition install/heal).
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Advance the refresh-round clock and sweep entries whose TTL (or
    /// epoch) has expired. Returns how many entries were evicted.
    pub fn advance_round(&self) -> u64 {
        let round = self.round.fetch_add(1, Ordering::Relaxed) + 1;
        let epoch = self.epoch.load(Ordering::Relaxed);
        let mut inner = self.lock();
        let before = inner.map.len();
        let ttl = self.ttl_rounds;
        inner
            .map
            .retain(|_, e| e.epoch == epoch && round.saturating_sub(e.round) < ttl);
        let evicted = (before - inner.map.len()) as u64;
        drop(inner);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// (De)activate the cache. Deactivated while a message-level fault
    /// plan is installed: hits would skip the injector's RNG draws and
    /// desynchronise the fault timeline of subsequent queries.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::Relaxed);
    }

    /// Whether lookups are currently served.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Served lookups so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Missed lookups so far (includes stale drops).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted so far (staleness, TTL sweeps, capacity).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Live entries (some may be stale until touched or swept).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(pairs: &[(usize, f64)]) -> LevelScores {
        let mut s = LevelScores::default();
        for &(peer, score) in pairs {
            s.add(peer, score);
        }
        s
    }

    #[test]
    fn hit_after_insert_is_exact() {
        let c = SummaryCache::new(4, 64);
        let s = scores(&[(3, 1.5), (7, 0.25)]);
        assert!(c.lookup(0, 1, &[0.5, 0.5], 0.1).is_none());
        c.insert(0, 1, &[0.5, 0.5], 0.1, &s);
        assert_eq!(c.lookup(0, 1, &[0.5, 0.5], 0.1), Some(s));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn key_is_exact_per_peer_level_point_and_radius() {
        let c = SummaryCache::new(4, 64);
        let s = scores(&[(1, 1.0)]);
        c.insert(0, 1, &[0.5], 0.1, &s);
        assert!(c.lookup(1, 1, &[0.5], 0.1).is_none(), "other entry peer");
        assert!(c.lookup(0, 2, &[0.5], 0.1).is_none(), "other level");
        assert!(c.lookup(0, 1, &[0.5001], 0.1).is_none(), "other point");
        assert!(c.lookup(0, 1, &[0.5], 0.2).is_none(), "other radius");
        assert!(c.lookup(0, 1, &[0.5], 0.1).is_some());
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let c = SummaryCache::new(4, 64);
        c.insert(0, 0, &[0.5], 0.1, &scores(&[(1, 1.0)]));
        c.bump_epoch();
        assert!(c.lookup(0, 0, &[0.5], 0.1).is_none());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn ttl_expires_after_configured_rounds() {
        let c = SummaryCache::new(2, 64);
        c.insert(0, 0, &[0.5], 0.1, &scores(&[(1, 1.0)]));
        assert_eq!(c.advance_round(), 0);
        assert!(c.lookup(0, 0, &[0.5], 0.1).is_some(), "one round: alive");
        assert_eq!(c.advance_round(), 1, "second round sweeps it");
        assert!(c.lookup(0, 0, &[0.5], 0.1).is_none());
    }

    #[test]
    fn capacity_evicts_oldest_insertion() {
        let c = SummaryCache::new(8, 2);
        c.insert(0, 0, &[0.1], 0.1, &scores(&[(1, 1.0)]));
        c.insert(0, 0, &[0.2], 0.1, &scores(&[(2, 1.0)]));
        c.insert(0, 0, &[0.3], 0.1, &scores(&[(3, 1.0)]));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(0, 0, &[0.1], 0.1).is_none(), "oldest evicted");
        assert!(c.lookup(0, 0, &[0.2], 0.1).is_some());
        assert!(c.lookup(0, 0, &[0.3], 0.1).is_some());
    }

    #[test]
    fn deactivated_cache_serves_and_stores_nothing() {
        let c = SummaryCache::new(4, 64);
        c.insert(0, 0, &[0.5], 0.1, &scores(&[(1, 1.0)]));
        c.set_active(false);
        assert!(c.lookup(0, 0, &[0.5], 0.1).is_none());
        c.insert(0, 0, &[0.6], 0.1, &scores(&[(2, 1.0)]));
        c.set_active(true);
        assert!(
            c.lookup(0, 0, &[0.6], 0.1).is_none(),
            "not stored while off"
        );
        assert!(c.lookup(0, 0, &[0.5], 0.1).is_some(), "old entry intact");
    }
}
