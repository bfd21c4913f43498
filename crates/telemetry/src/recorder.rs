//! The [`Recorder`] handle and its sinks.
//!
//! A `Recorder` is a cheap-clone handle threaded through the overlay,
//! query, and repair code. The default (`Recorder::disabled`) carries no
//! allocation and every method is a branch on `None` — provably free for
//! the simulation: telemetry only *observes* host-side, it never touches
//! the simulated [`OpStats`] accounting (asserted by the integration
//! tests).
//!
//! Sinks receive the flat [`Event`] records:
//! * [`RingHandle`] — bounded in-memory buffer, drained by the forensics
//!   tooling;
//! * [`JsonlSink`] — one JSON object per line, appended to a file;
//! * the no-op default — no sink at all.
//!
//! Handles can be *scoped* to a wavelet level ([`Recorder::scoped`]):
//! scoped clones share the sink, metrics, clock and id allocator but tag
//! every event with their level and carry their own *scope* slot — the
//! span that overlay-internal events attach to. The per-level CAN
//! overlays each own a scoped handle; the query layer points each level's
//! scope at the current `overlay_lookup` span before calling into the
//! overlay. A slot holds one span, so trace one query at a time per
//! network.

use crate::event::{Event, EventClass, Fields, SpanId};
use crate::metrics::Metrics;
use crate::sync::{Mutex, Rank};
use crate::taxonomy::Name;
use hyperm_sim::{OpKind, OpStats};
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Receiver of trace events. Implementations must be `Send`: a recorder
/// keeps its sink behind a mutex and may be shared across threads (a
/// node's serve thread and its TCP reader threads, or callers querying
/// one network from several threads). `record` runs under the sink
/// lock, so it may take one leaf lock (the ring buffer's, see
/// [`crate::sync`]) but must not emit to a recorder.
pub trait Sink: Send {
    /// Consume one event.
    fn record(&mut self, ev: &Event);
    /// Flush buffered output (file sinks).
    fn flush(&mut self) {}
}

struct RingBuf {
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

/// Shared handle onto a ring-buffer sink: clone it, hand one clone to
/// [`Recorder::with_sink`] via [`RingHandle::sink`], keep the other to
/// read the captured events back.
#[derive(Clone)]
pub struct RingHandle {
    buf: Arc<Mutex<RingBuf>>,
}

impl RingHandle {
    /// New ring buffer keeping the most recent `cap` events.
    pub fn new(cap: usize) -> Self {
        Self {
            buf: Arc::new(Mutex::new(RingBuf {
                cap: cap.max(1),
                events: VecDeque::new(),
                dropped: 0,
            })),
        }
    }

    /// A [`Sink`] feeding this buffer.
    pub fn sink(&self) -> Box<dyn Sink> {
        Box::new(RingSink {
            buf: self.buf.clone(),
        })
    }

    /// Copy out the buffered events (oldest first).
    pub fn events(&self) -> Vec<Event> {
        let buf = self.buf.lock().expect("ring poisoned");
        buf.events.iter().cloned().collect()
    }

    /// Drain the buffer, returning the events (oldest first).
    pub fn drain(&self) -> Vec<Event> {
        let mut buf = self.buf.lock().expect("ring poisoned");
        buf.events.drain(..).collect()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().expect("ring poisoned").dropped
    }
}

struct RingSink {
    buf: Arc<Mutex<RingBuf>>,
}

impl Sink for RingSink {
    fn record(&mut self, ev: &Event) {
        let mut buf = self.buf.lock().expect("ring poisoned");
        if buf.events.len() == buf.cap {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(ev.clone());
    }
}

/// File sink writing one JSON object per line.
pub struct JsonlSink {
    out: BufWriter<std::fs::File>,
    lines: u64,
}

impl JsonlSink {
    /// Create (truncate) `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(std::fs::File::create(path)?),
            lines: 0,
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, ev: &Event) {
        // Benchmark-grade best effort: an I/O error on a telemetry line
        // must not abort the traced operation.
        if writeln!(self.out, "{}", ev.to_json_line()).is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// A sink that forwards to two others (e.g. ring buffer + JSONL file).
pub struct TeeSink(Box<dyn Sink>, Box<dyn Sink>);

impl TeeSink {
    /// Forward every event to both `a` and `b`.
    pub fn new(a: Box<dyn Sink>, b: Box<dyn Sink>) -> Self {
        Self(a, b)
    }
}

impl Sink for TeeSink {
    fn record(&mut self, ev: &Event) {
        self.0.record(ev);
        self.1.record(ev);
    }

    fn flush(&mut self) {
        self.0.flush();
        self.1.flush();
    }
}

struct Inner {
    sink: Mutex<Box<dyn Sink>>,
    metrics: Metrics,
    next_span: AtomicU64,
    seq: AtomicU64,
    clock: AtomicU64,
}

/// Cheap-clone tracing + metrics handle. See the module docs.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    level: Option<u8>,
    scope: Arc<AtomicU64>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.is_some())
            .field("level", &self.level)
            .finish()
    }
}

impl Recorder {
    /// The no-op default: every method is free.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Recorder feeding `sink`.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                sink: Mutex::ranked(Rank::Sink, sink),
                metrics: Metrics::new(),
                next_span: AtomicU64::new(1),
                seq: AtomicU64::new(0),
                clock: AtomicU64::new(0),
            })),
            level: None,
            scope: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Recorder with a ring-buffer sink; returns the read handle too.
    pub fn ring(cap: usize) -> (Self, RingHandle) {
        let handle = RingHandle::new(cap);
        (Self::with_sink(handle.sink()), handle)
    }

    /// Recorder writing JSONL to `path` (truncates).
    pub fn jsonl(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(JsonlSink::create(path)?)))
    }

    /// Whether tracing is on. Call sites guard field construction with
    /// this so the disabled path allocates nothing.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone tagged with wavelet level `level`, with its own scope
    /// slot. Shares sink, metrics, clock and id allocator.
    pub fn scoped(&self, level: usize) -> Recorder {
        Recorder {
            inner: self.inner.clone(),
            level: Some(level.min(u8::MAX as usize) as u8),
            scope: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Point this handle's scope at `span`: events emitted through this
    /// handle with [`Recorder::scope`] as parent attach there.
    pub fn set_scope(&self, span: SpanId) {
        self.scope.store(span.0, Ordering::Relaxed);
    }

    /// Current scope span.
    pub fn scope(&self) -> SpanId {
        SpanId(self.scope.load(Ordering::Relaxed))
    }

    /// Set the sim clock; subsequent events are stamped with `t`.
    pub fn set_time(&self, t: u64) {
        if let Some(inner) = &self.inner {
            inner.clock.store(t, Ordering::Relaxed);
        }
    }

    /// Current sim-clock reading.
    pub fn time(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.clock.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    fn emit(&self, class: EventClass, name: Name, span: SpanId, parent: SpanId, fields: Fields) {
        let Some(inner) = &self.inner else { return };
        let ev = Event {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            t: inner.clock.load(Ordering::Relaxed),
            class,
            name,
            span,
            parent,
            level: self.level,
            fields,
        };
        inner.sink.lock().expect("sink poisoned").record(&ev);
    }

    /// Open a span under `parent` (use [`SpanId::NONE`] for a root).
    /// Returns [`SpanId::NONE`] when disabled.
    pub fn span(&self, parent: SpanId, name: Name, fields: Fields) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
        self.emit(EventClass::Start, name, id, parent, fields);
        id
    }

    /// Close `span`; `fields` carry its outcome. No-op when disabled or
    /// `span` is [`SpanId::NONE`].
    pub fn end(&self, span: SpanId, name: Name, fields: Fields) {
        if span.is_none() {
            return;
        }
        self.emit(EventClass::End, name, span, SpanId::NONE, fields);
    }

    /// Emit an instantaneous event under `parent`.
    ///
    /// The name is a [`Name`], so only taxonomy rows compile: a string
    /// literal does not,
    ///
    /// ```compile_fail
    /// # use hyperm_telemetry::{Recorder, SpanId};
    /// Recorder::disabled().event(SpanId::NONE, "mystery_event", vec![]);
    /// ```
    ///
    /// and neither does a counter-only aggregate:
    ///
    /// ```compile_fail
    /// # use hyperm_telemetry::{Counter, Recorder, SpanId};
    /// Recorder::disabled().event(SpanId::NONE, Counter::Queries, vec![]);
    /// ```
    pub fn event(&self, parent: SpanId, name: Name, fields: Fields) {
        if self.inner.is_none() {
            return;
        }
        self.emit(EventClass::Instant, name, parent, parent, fields);
    }

    /// Emit an instantaneous event under `parent` and bump the metrics
    /// counter of the same name: the pair every countable occurrence
    /// (`retry`, `gave_up`, `stale_reply`, …) is reported as.
    pub fn count_event(&self, parent: SpanId, name: Name, fields: Fields) {
        let Some(inner) = &self.inner else { return };
        self.emit(EventClass::Instant, name, parent, parent, fields);
        inner.metrics.add(name, 1);
    }

    /// The metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_ref().map(|i| &i.metrics)
    }

    /// Record an operation's cost into the metrics registry (no-op when
    /// disabled).
    pub fn record_op(&self, kind: OpKind, level: Option<usize>, stats: OpStats) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_op(kind, level, stats);
        }
    }

    /// Record an operation's host latency (no-op when disabled).
    pub fn record_latency_s(&self, kind: OpKind, level: Option<usize>, secs: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_latency_s(kind, level, secs);
        }
    }

    /// Flush the sink (file sinks buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            // Under the sink lock: it serializes sink IO, so flushing
            // outside it would race concurrent `record` writes.
            inner.sink.lock().expect("sink poisoned").flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let s = rec.span(SpanId::NONE, Name::Query, vec![]);
        assert!(s.is_none());
        rec.event(s, Name::RouteHop, vec![("from", 1u64.into())]);
        rec.end(s, Name::Query, vec![]);
        rec.record_op(OpKind::RangeQuery, None, OpStats::one_hop(8));
        rec.set_time(42);
        assert_eq!(rec.time(), 0);
        assert!(rec.metrics().is_none());
    }

    #[test]
    fn ring_captures_span_tree_and_clock() {
        let (rec, ring) = Recorder::ring(16);
        rec.set_time(7);
        let q = rec.span(SpanId::NONE, Name::Query, vec![("eps", 0.1f64.into())]);
        let lrec = rec.scoped(2);
        lrec.set_scope(q);
        lrec.event(
            lrec.scope(),
            Name::RouteHop,
            vec![("from", 0u64.into()), ("to", 3u64.into())],
        );
        rec.set_time(9);
        rec.end(q, Name::Query, vec![("hops", 1u64.into())]);
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].class, EventClass::Start);
        assert_eq!(evs[0].span, q);
        assert_eq!(evs[0].t, 7);
        assert_eq!(evs[1].name, Name::RouteHop);
        assert_eq!(evs[1].parent, q);
        assert_eq!(evs[1].level, Some(2));
        assert_eq!(evs[2].class, EventClass::End);
        assert_eq!(evs[2].t, 9);
        assert_eq!(ring.dropped(), 0);
        // Sequence numbers are dense from 0.
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn ring_evicts_oldest_when_full() {
        let (rec, ring) = Recorder::ring(2);
        for _ in 0..5 {
            rec.event(SpanId::NONE, Name::RouteHop, vec![]);
        }
        assert_eq!(ring.events().len(), 2);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.events().is_empty());
    }

    #[test]
    fn scoped_handles_share_ids_but_not_scope() {
        let (rec, ring) = Recorder::ring(16);
        let a = rec.scoped(0);
        let b = rec.scoped(1);
        let sa = a.span(SpanId::NONE, Name::OverlayLookup, vec![]);
        let sb = b.span(SpanId::NONE, Name::OverlayLookup, vec![]);
        assert_ne!(sa, sb, "span ids must be globally unique");
        a.set_scope(sa);
        b.set_scope(sb);
        assert_eq!(a.scope(), sa);
        assert_eq!(b.scope(), sb);
        assert_eq!(rec.scope(), SpanId::NONE, "parent handle scope untouched");
        let levels: Vec<_> = ring.events().iter().map(|e| e.level).collect();
        assert_eq!(levels, vec![Some(0), Some(1)]);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir =
            std::env::temp_dir().join(format!("hyperm-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let rec = Recorder::jsonl(&path).unwrap();
            let s = rec.span(SpanId::NONE, Name::Query, vec![]);
            rec.event(s, Name::RouteHop, vec![("from", 1u64.into())]);
            rec.end(s, Name::Query, vec![]);
            rec.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"seq\": 0"));
        assert!(lines[1].contains("\"name\": \"route_hop\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
