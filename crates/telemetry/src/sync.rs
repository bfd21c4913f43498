//! The workspace's one lock type, and the one place its lock order is
//! decided.
//!
//! The paper's protocol holds no locks; the tooling around it does
//! (telemetry, transport, the overlay's fault slot).
//! Every one of those locks is a [`Mutex`] from this module and carries
//! a `Rank`: a thread may take a lock only while every lock it already
//! holds ranks strictly higher. That allows exactly one nesting, a
//! `Rank::Leaf` under the recorder's `Rank::Sink` (the ring sink's
//! buffer, taken inside `Sink::record`), and no two leaves at once.
//! [`Mutex::new`] makes a leaf; only this crate can make the sink.
//!
//! In debug builds, which is what `cargo test` runs, a thread-local list
//! of held locks checks every acquisition and panics, naming both locks,
//! on a re-entrant or out-of-rank one. [`assert_unlocked`] marks the
//! calls that may block (frame I/O, dials, mailbox sends and receives,
//! sleeps) and panics if this thread holds any lock there. Release
//! builds compile the checks away: [`Mutex`] is then a plain newtype
//! over `std::sync::Mutex`, with no extra field and no thread-local.
//!
//! A [`Guard`] cannot leave its thread, so a guard moved into a spawned
//! thread is a compile error (E0277, `Guard: !Send`):
//!
//! ```compile_fail,E0277
//! use hyperm_telemetry::sync::Mutex;
//! static SLOT: Mutex<u32> = Mutex::new(0);
//! let guard = SLOT.lock().unwrap();
//! std::thread::spawn(move || drop(guard));
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "this module is the one wrapper over std's mutex; everything else uses it"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, LockResult, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// A lock's place in the workspace's lock order. A thread may take a
/// lock only while every lock it holds ranks strictly higher. The set is
/// closed: a new nesting needs a new variant here, not a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Rank {
    /// A lock that never has another lock taken under it.
    Leaf,
    /// The recorder's sink lock: `Sink::record` may take one leaf (the
    /// ring sink's buffer) under it.
    Sink,
}

/// A mutual-exclusion lock with a rank (see the module docs). Mirrors
/// the parts of `std::sync::Mutex` the workspace uses, poisoning
/// included.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl<T> Mutex<T> {
    /// A leaf lock around `value`: no lock may be taken while it is held.
    pub const fn new(value: T) -> Self {
        Self::ranked(Rank::Leaf, value)
    }

    /// A lock of rank `rank` around `value`.
    pub(crate) const fn ranked(rank: Rank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Self {
            inner: std::sync::Mutex::new(value),
            #[cfg(debug_assertions)]
            rank,
        }
    }

    /// Block until the lock is free and take it. `Err` carries the guard
    /// when a previous holder panicked, as with `std::sync::Mutex::lock`.
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread already holds this lock or a
    /// lock that does not rank strictly higher.
    #[track_caller]
    pub fn lock(&self) -> LockResult<Guard<'_, T>> {
        #[cfg(debug_assertions)]
        let held = held::acquire(
            std::ptr::from_ref(self) as usize,
            self.rank,
            std::any::type_name::<T>(),
        );
        let wrap = |inner| Guard {
            inner,
            #[cfg(debug_assertions)]
            held,
        };
        match self.inner.lock() {
            Ok(inner) => Ok(wrap(inner)),
            Err(poisoned) => Err(PoisonError::new(wrap(poisoned.into_inner()))),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Proof that a [`Mutex`] is held; the lock is released when it drops.
pub struct Guard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: held::Token,
}

impl<'a, T> Guard<'a, T> {
    /// Release the lock, block on `cv` until notified or `dur` has
    /// passed, and take the lock again, as `Condvar::wait_timeout`.
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread holds any other lock: it would
    /// stay held for the whole wait.
    #[track_caller]
    pub fn wait_timeout(
        self,
        cv: &Condvar,
        dur: Duration,
    ) -> LockResult<(Self, WaitTimeoutResult)> {
        #[cfg(debug_assertions)]
        held::assert_none_but(Some(self.held.0));
        let Guard {
            inner,
            #[cfg(debug_assertions)]
            held,
        } = self;
        let wrap = |(inner, timed_out)| {
            let guard = Guard {
                inner,
                #[cfg(debug_assertions)]
                held,
            };
            (guard, timed_out)
        };
        match cv.wait_timeout(inner, dur) {
            Ok(woken) => Ok(wrap(woken)),
            Err(poisoned) => Err(PoisonError::new(wrap(poisoned.into_inner()))),
        }
    }
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Mark a call that may block: in debug builds, panic if this thread
/// holds any [`Mutex`]. A no-op in release builds.
#[track_caller]
#[inline]
pub fn assert_unlocked() {
    #[cfg(debug_assertions)]
    held::assert_none_but(None);
}

/// The debug-build bookkeeping: this thread's held locks, in order.
#[cfg(debug_assertions)]
mod held {
    use super::Rank;
    use std::cell::RefCell;

    struct Held {
        id: usize,
        rank: Rank,
        name: &'static str,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// One entry of this thread's held list, by lock address; dropping
    /// it removes the entry.
    pub(super) struct Token(pub(super) usize);

    impl Drop for Token {
        fn drop(&mut self) {
            // `try_with`: a guard may drop while the thread tears down.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(at) = held.iter().rposition(|h| h.id == self.0) {
                    held.remove(at);
                }
            });
        }
    }

    /// Check that lock `id` (`name`, of rank `rank`) may be taken now and
    /// enter it in the held list.
    #[track_caller]
    pub(super) fn acquire(id: usize, rank: Rank, name: &'static str) -> Token {
        let clash = HELD.with_borrow(|held| {
            held.iter()
                .find(|h| h.id == id || h.rank <= rank)
                .map(|h| (h.id == id, h.name, h.rank))
        });
        match clash {
            Some((true, _, _)) => panic!("re-entrant lock: `{name}` is already held"),
            Some((false, outer, outer_rank)) => panic!(
                "lock order: taking `{name}` ({rank:?}) while holding `{outer}` \
                 ({outer_rank:?}); only a lower rank may nest"
            ),
            None => {}
        }
        HELD.with_borrow_mut(|held| held.push(Held { id, rank, name }));
        Token(id)
    }

    /// Panic if this thread holds any lock other than `except`.
    #[track_caller]
    pub(super) fn assert_none_but(except: Option<usize>) {
        let other =
            HELD.with_borrow(|held| held.iter().find(|h| Some(h.id) != except).map(|h| h.name));
        if let Some(name) = other {
            panic!("blocking call while holding `{name}`");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_under_sink_is_allowed() {
        let sink = Mutex::ranked(Rank::Sink, 1);
        let leaf = Mutex::new(2);
        let s = sink.lock().unwrap();
        let l = leaf.lock().unwrap();
        assert_eq!(*s + *l, 3);
        drop(s);
        drop(l);
        // Both entries left the held list, in either drop order.
        assert_unlocked();
        let _again = leaf.lock().unwrap();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock order"))]
    fn leaf_under_leaf_panics() {
        let a = Mutex::new(1);
        let b = Mutex::new(2);
        let _a = a.lock().unwrap();
        let _b = b.lock().unwrap();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock order"))]
    fn sink_under_leaf_panics() {
        let leaf = Mutex::new(1);
        let sink = Mutex::ranked(Rank::Sink, 2);
        let _l = leaf.lock().unwrap();
        let _s = sink.lock().unwrap();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "re-entrant"))]
    fn reentrant_lock_panics() {
        let m = Mutex::new(1);
        let _first = m.lock().unwrap();
        // In release this would deadlock; debug panics first.
        if cfg!(debug_assertions) {
            let _second = m.lock().unwrap();
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "blocking call while holding")
    )]
    fn assert_unlocked_panics_under_a_guard() {
        let m = Mutex::new(1);
        let _g = m.lock().unwrap();
        assert_unlocked();
    }

    #[test]
    fn poison_is_reported_with_the_guard() {
        let m = std::sync::Arc::new(Mutex::new(5));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*g, 5);
    }

    #[test]
    fn wait_timeout_releases_and_retakes_the_lock() {
        use std::sync::Arc;
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let mut flag = shared.0.lock().unwrap();
        let remote = Arc::clone(&shared);
        // The lock is held before the notifier starts, so it can only set
        // the flag while the wait below has released it.
        let notifier = std::thread::spawn(move || {
            *remote.0.lock().unwrap() = true;
            remote.1.notify_one();
        });
        while !*flag {
            flag = flag
                .wait_timeout(&shared.1, Duration::from_secs(5))
                .unwrap()
                .0;
        }
        notifier.join().unwrap();
        // Still held after the wait, and still tracked as held.
        #[cfg(debug_assertions)]
        assert!(std::panic::catch_unwind(assert_unlocked).is_err());
        drop(flag);
        assert_unlocked();
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "blocking call while holding")
    )]
    fn wait_timeout_under_another_lock_panics() {
        let outer = Mutex::ranked(Rank::Sink, ());
        let inner = Mutex::new(());
        let cv = Condvar::new();
        let _o = outer.lock().unwrap();
        let i = inner.lock().unwrap();
        let _ = i.wait_timeout(&cv, Duration::from_millis(1));
    }
}
