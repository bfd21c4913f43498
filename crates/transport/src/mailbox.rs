//! A bounded multi-producer mailbox: the per-peer inbox behind every
//! transport endpoint.
//!
//! The channel is hand-built on `Mutex` + two `Condvar`s, because
//! `std::sync::mpsc` cannot time out a send on a full queue. Capacity
//! is a hard bound: a sender faced with a full mailbox *blocks*
//! (up to its timeout) instead of growing the queue — this is the
//! backpressure contract DESIGN.md's Transport section documents. Slow
//! receivers therefore throttle their senders; on the TCP path the
//! blocked reader thread additionally stops draining the socket, so the
//! kernel's flow control extends the backpressure to the remote writer.

use hyperm_telemetry::sync::{assert_unlocked, Guard, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// Why a send did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The mailbox was closed by the receiver.
    Closed,
    /// The mailbox stayed full for the whole timeout (backpressure).
    Full,
}

/// Why a receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// The mailbox is closed and drained.
    Closed,
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A bounded FIFO mailbox. Cloning yields another handle to the same
/// queue (any handle may send, receive or close).
pub struct Mailbox<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Mailbox<T> {
    /// A mailbox holding at most `capacity` queued messages (min 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                capacity: capacity.max(1),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the mailbox has been closed.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    fn lock(&self) -> Guard<'_, State<T>> {
        // A poisoned mailbox means a peer thread panicked mid-push; the
        // queue itself is still structurally sound, so keep going.
        match self.shared.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Enqueue, blocking up to `timeout` while the mailbox is full.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendError> {
        self.push(value, Some(Instant::now() + timeout))
    }

    /// Enqueue without blocking.
    pub fn try_send(&self, value: T) -> Result<(), SendError> {
        self.send_timeout(value, Duration::ZERO)
    }

    /// Enqueue, blocking indefinitely while full (TCP reader threads use
    /// this so socket flow control carries the backpressure).
    pub fn send_blocking(&self, value: T) -> Result<(), SendError> {
        self.push(value, None)
    }

    /// Enqueue, blocking while full until `deadline` (`None`: forever).
    fn push(&self, value: T, deadline: Option<Instant>) -> Result<(), SendError> {
        assert_unlocked();
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(SendError::Closed);
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(value);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            // A `Duration::MAX` wait never times out; the loop re-checks
            // either way.
            let left = match deadline {
                None => Duration::MAX,
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(SendError::Full);
                    }
                    deadline - now
                }
            };
            state = wait(state, &self.shared.not_full, left);
        }
    }

    /// Dequeue, blocking up to `timeout` while empty.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        assert_unlocked();
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if state.closed {
                return Err(RecvError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            state = wait(state, &self.shared.not_empty, deadline - now);
        }
    }

    /// Dequeue without blocking.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        let mut state = self.lock();
        if let Some(v) = state.queue.pop_front() {
            self.shared.not_full.notify_one();
            return Ok(v);
        }
        if state.closed {
            Err(RecvError::Closed)
        } else {
            Err(RecvError::Timeout)
        }
    }

    /// Close the mailbox: senders fail immediately, receivers drain what
    /// is left and then get [`RecvError::Closed`].
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

/// Sleep on `cv` for up to `dur`, then hold the lock again (poisoning
/// ignored, as in [`Mailbox::lock`]).
fn wait<'a, T>(state: Guard<'a, State<T>>, cv: &Condvar, dur: Duration) -> Guard<'a, State<T>> {
    match state.wait_timeout(cv, dur) {
        Ok((g, _)) => g,
        Err(p) => p.into_inner().0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_capacity() {
        let mb = Mailbox::bounded(2);
        mb.try_send(1).unwrap();
        mb.try_send(2).unwrap();
        assert_eq!(mb.try_send(3), Err(SendError::Full));
        assert_eq!(mb.try_recv(), Ok(1));
        mb.try_send(3).unwrap();
        assert_eq!(mb.try_recv(), Ok(2));
        assert_eq!(mb.try_recv(), Ok(3));
        assert_eq!(mb.try_recv(), Err(RecvError::Timeout));
    }

    #[test]
    fn close_fails_senders_but_drains_receivers() {
        let mb = Mailbox::bounded(4);
        mb.try_send(7).unwrap();
        mb.close();
        assert_eq!(mb.try_send(8), Err(SendError::Closed));
        assert_eq!(mb.try_recv(), Ok(7));
        assert_eq!(mb.try_recv(), Err(RecvError::Closed));
        assert_eq!(
            mb.recv_timeout(Duration::from_millis(1)),
            Err(RecvError::Closed)
        );
    }

    #[test]
    fn blocked_sender_resumes_when_receiver_drains() {
        let mb = Mailbox::bounded(1);
        mb.try_send(0u64).unwrap();
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || mb2.send_timeout(1, Duration::from_secs(5)));
        // Give the sender a moment to block against the full queue.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(mb.try_recv(), Ok(0));
        t.join().unwrap().unwrap();
        assert_eq!(mb.recv_timeout(Duration::from_secs(1)), Ok(1));
    }

    #[test]
    fn blocking_send_unblocked_by_close() {
        let mb = Mailbox::bounded(1);
        mb.try_send(0u64).unwrap();
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || mb2.send_blocking(1));
        std::thread::sleep(Duration::from_millis(20));
        mb.close();
        assert_eq!(t.join().unwrap(), Err(SendError::Closed));
    }

    #[test]
    fn send_timeout_blocked_on_full_queue_woken_by_close() {
        // The close/backpressure race: a sender parked in `send_timeout`
        // against a full queue must be woken by `close()` with a clean
        // `Closed` — not left to run out its timeout — and the item that
        // was already queued must still drain loss-free afterwards.
        let mb = Mailbox::bounded(1);
        mb.try_send(10u64).unwrap();
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || {
            let t0 = Instant::now();
            let out = mb2.send_timeout(11, Duration::from_secs(30));
            (out, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.close();
        let (out, waited) = t.join().unwrap();
        assert_eq!(out, Err(SendError::Closed));
        assert!(
            waited < Duration::from_secs(5),
            "close must wake the blocked sender, not let it time out ({waited:?})"
        );
        assert_eq!(mb.try_recv(), Ok(10), "queued item survives the close");
        assert_eq!(mb.try_recv(), Err(RecvError::Closed));
    }

    #[test]
    fn recv_timeout_drains_everything_queued_at_close() {
        // Close with multiple items queued: every one of them must come
        // out before `Closed` surfaces, regardless of receive pacing.
        let mb = Mailbox::bounded(8);
        for v in 0..5u64 {
            mb.try_send(v).unwrap();
        }
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match mb2.recv_timeout(Duration::from_secs(5)) {
                    Ok(v) => got.push(v),
                    Err(RecvError::Closed) => return got,
                    Err(RecvError::Timeout) => panic!("drain must not time out"),
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.close();
        assert_eq!(t.join().unwrap(), vec![0, 1, 2, 3, 4], "drain is loss-free");
    }
}
