//! The one correlated-request path: a retry driver, the tag-correlated
//! reply wait, and the [`request`] routine built from the two.
//! [`Client`](super::Client) requests, the member's head-forward and
//! `join_network` all go through [`request`]; `TcpEndpoint`'s redial
//! reuses [`retry`], so this is the only place in the crate that sleeps
//! out a [`Backoff`] gap.

use crate::{Envelope, PeerId, Transport, TransportError};
use hyperm_can::Message;
use hyperm_sim::Backoff;
use hyperm_telemetry::sync::assert_unlocked;
use hyperm_telemetry::{Name, Recorder, SpanId};
use std::time::{Duration, Instant};

/// Smallest effective reply timeout. A literal `Duration::ZERO` would
/// make the deadline check fail before the first receive even when the
/// reply is already queued; clamping to one tick keeps zero-timeout
/// policies live (mirrors [`Backoff::gap`]'s ≥ 1 tick clamp).
pub const MIN_TIMEOUT: Duration = Duration::from_millis(10);

/// Timeout and retry policy of a correlated request. [`Default`] is the
/// [`Client`](super::Client)'s; a member's head-forward
/// ([`NodeRuntime::forward`](super::NodeRuntime::forward)) starts from
/// fewer attempts and a lower backoff cap.
#[derive(Debug, Clone, Copy)]
pub struct RequestPolicy {
    /// Per-attempt reply timeout ([`MIN_TIMEOUT`]-clamped at use).
    pub timeout: Duration,
    /// Total attempts for idempotent request kinds. The others (`Put`,
    /// `Publish`, `Shutdown`) always get exactly one attempt regardless.
    pub attempts: u32,
    /// Backoff schedule between attempts, in ticks.
    pub backoff: Backoff,
    /// Wall-clock length of one backoff tick.
    pub retry_tick: Duration,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(30),
            attempts: 3,
            backoff: Backoff::exponential(1, 8),
            retry_tick: Duration::from_millis(25),
        }
    }
}

/// What one try decided — and, as [`retry`]'s return value, how the
/// whole run ended.
pub(crate) enum Attempt<T> {
    /// Succeeded.
    Done(T),
    /// Failed in a way another try cannot fix.
    Fatal(TransportError),
    /// Failed, and worth another try. Returned from [`retry`]: the last
    /// try's error, with the attempt budget spent.
    Again(TransportError),
}

/// The retry driver: run `try_once` up to `attempts` times (at least
/// once), sleeping out the next `backoff` gap (in `tick`s) before each
/// retry and then telling `on_retry` its 1-based number.
pub(crate) fn retry<T>(
    attempts: u32,
    backoff: &Backoff,
    tick: Duration,
    mut on_retry: impl FnMut(u32),
    mut try_once: impl FnMut() -> Attempt<T>,
) -> Attempt<T> {
    let mut attempt = 0;
    loop {
        match try_once() {
            Attempt::Again(_) if attempt + 1 < attempts => {}
            settled => return settled,
        }
        let gap = u32::try_from(backoff.gap(attempt)).unwrap_or(u32::MAX);
        assert_unlocked();
        std::thread::sleep(tick.saturating_mul(gap));
        attempt += 1;
        on_retry(attempt);
    }
}

/// Send `msg` to `to` and return its reply.
///
/// Every attempt is stamped with a fresh non-zero correlation tag from
/// `next_tag`, and only a reply echoing the *current* attempt's tag is
/// returned: a late answer to an attempt that already timed out must not
/// satisfy a later one. Requests the protocol declares idempotent
/// ([`Message::is_idempotent`]) are resent under `policy` (`retry`
/// telemetry per resend, `gave_up` once the budget is spent); everything
/// else gets one attempt. A refusal is the peer's
/// authoritative answer and a closed endpoint cannot recover by
/// resending, so both end the request at once. `tel` is where the
/// telemetry goes; `park` receives every envelope that arrives
/// meanwhile and is not a reply from `to`.
pub(crate) fn request<T: Transport>(
    transport: &T,
    to: PeerId,
    msg: &Message,
    policy: &RequestPolicy,
    mut next_tag: impl FnMut() -> u64,
    tel: (&Recorder, SpanId),
    mut park: impl FnMut(Envelope),
) -> Result<Message, TransportError> {
    let want = Message::reply_kind_of(msg.kind())
        .ok_or(TransportError::Rejected("not a request message"))?;
    let attempts = if msg.is_idempotent() {
        policy.attempts.max(1)
    } else {
        1
    };
    let (recorder, span) = tel;
    let outcome = retry(
        attempts,
        &policy.backoff,
        policy.retry_tick,
        |attempt| {
            recorder.count_event(
                span,
                Name::Retry,
                vec![
                    ("attempt", u64::from(attempt).into()),
                    ("kind", msg.kind_name().into()),
                ],
            );
        },
        || {
            let req_id = next_tag();
            let reply = transport.send_tagged(to, req_id, msg).and_then(|()| {
                await_reply(transport, to, want, req_id, policy.timeout, tel, &mut park)
            });
            match reply {
                Ok(reply) => Attempt::Done(reply),
                Err(e @ (TransportError::Rejected(_) | TransportError::Closed)) => {
                    Attempt::Fatal(e)
                }
                Err(e) => Attempt::Again(e),
            }
        },
    );
    match outcome {
        Attempt::Done(reply) => Ok(reply),
        Attempt::Fatal(e) => Err(e),
        Attempt::Again(e) => {
            if attempts > 1 {
                recorder.count_event(
                    span,
                    Name::GaveUp,
                    vec![
                        ("kind", msg.kind_name().into()),
                        ("attempts", u64::from(attempts).into()),
                    ],
                );
            }
            Err(e)
        }
    }
}

/// Wait for a `want`-kind (or failure-`Ack`) message from `from`
/// carrying the correlation tag `req_id`, handing unrelated traffic to
/// `park`. Replies from `from` with the right shape but a *stale* tag —
/// answers to an attempt that already timed out — are counted and
/// discarded (never parked: a backlog would replay them into the next
/// wait and mis-correlate).
fn await_reply<T: Transport>(
    transport: &T,
    from: PeerId,
    want: u8,
    req_id: u64,
    timeout: Duration,
    (recorder, span): (&Recorder, SpanId),
    mut park: impl FnMut(Envelope),
) -> Result<Message, TransportError> {
    let deadline = Instant::now() + timeout.max(MIN_TIMEOUT);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(TransportError::Timeout);
        }
        let env = transport.recv_timeout(deadline - now)?;
        let is_reply = env.from == from
            && (env.msg.kind() == want || matches!(env.msg, Message::Ack { ok: false, .. }));
        if !is_reply {
            park(env);
            continue;
        }
        if env.req_id != req_id {
            recorder.count_event(
                span,
                Name::StaleReply,
                vec![
                    ("from", env.from.into()),
                    ("kind", env.msg.kind_name().into()),
                ],
            );
            continue;
        }
        if let Message::Ack { ok: false, .. } = env.msg {
            return Err(TransportError::Rejected("request refused by node"));
        }
        return Ok(env.msg);
    }
}
