//! Structured trace events: spans, instants and their field values.
//!
//! Every emission is a flat [`Event`] record; span structure is encoded by
//! the (`span`, `parent`) id pair so streams can be written to JSONL one
//! line at a time and the tree reconstructed later (see
//! [`crate::forensics`]). Timestamps are **sim-clock ticks** (see
//! [`crate::Recorder::set_time`]), never host time, so two runs with the
//! same seed produce identical streams.

use crate::json::JsonObj;
use crate::taxonomy::Name;

/// Identifier of a span. `SpanId::NONE` (0) means "no span" — used both
/// as the parent of root spans and as the return value of
/// [`crate::Recorder::span`] when tracing is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id (no parent / tracing disabled).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Compact distributed trace context carried inside wire frames
/// (query/fetch/publish) so spans opened on the receiving node can be
/// stitched under the sender's span after the fact.
///
/// `TraceCtx::NONE` (all zeroes) means "untraced": the codec always
/// encodes the two words, so frame layout — and therefore the byte
/// streams the bit-identity tests compare — is independent of whether
/// tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// Identity shared by every span of one distributed operation. 0 =
    /// untraced.
    pub trace_id: u64,
    /// Span id *in the sending node's stream* that the receiver's serve
    /// span should be stitched under. 0 = no parent.
    pub parent_span: u64,
}

impl TraceCtx {
    /// The untraced context (all zeroes on the wire).
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
    };

    /// A context rooted at `parent` within trace `trace_id`.
    pub fn new(trace_id: u64, parent: SpanId) -> Self {
        Self {
            trace_id,
            parent_span: parent.0,
        }
    }

    /// Whether this is the untraced context.
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }

    /// This context with the parent span replaced — what a relaying node
    /// does before forwarding a frame, so the next hop parents under the
    /// relay's own serve span.
    pub fn reparent(self, parent: SpanId) -> Self {
        Self {
            trace_id: self.trace_id,
            parent_span: parent.0,
        }
    }
}

/// Whether an event opens a span, closes one, or is instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Opens the span identified by [`Event::span`].
    Start,
    /// Closes the span identified by [`Event::span`]; fields carry the
    /// span's outcome (costs, counts).
    End,
    /// A point event attached to the span identified by [`Event::span`].
    Instant,
}

impl EventClass {
    /// Short stable name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Start => "start",
            EventClass::End => "end",
            EventClass::Instant => "event",
        }
    }
}

/// A field value. Deliberately tiny — telemetry carries counters, ids and
/// the occasional rendered string (zone bounds), not arbitrary payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter / id.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point measurement.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Pre-rendered text (peer names, zone bounds, reasons).
    Str(String),
}

impl Value {
    /// The value as `u64` if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Render for the human-readable route tree (`k=v`).
    pub fn render(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) => format!("{v:.4}"),
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => s.clone(),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Field list attached to an event. Keys are static names from the event
/// taxonomy (see DESIGN.md "Observability").
pub type Fields = Vec<(&'static str, Value)>;

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number (per recorder).
    pub seq: u64,
    /// Sim-clock ticks at emission.
    pub t: u64,
    /// Start / End / Instant.
    pub class: EventClass,
    /// Event name from the taxonomy (`query`, `overlay_lookup`,
    /// `route_hop`, `drop`, …).
    pub name: Name,
    /// Span this record belongs to (its own id for Start/End).
    pub span: SpanId,
    /// Parent span (meaningful on Start and Instant records).
    pub parent: SpanId,
    /// Wavelet level the emitting recorder handle is scoped to, if any.
    pub level: Option<u8>,
    /// Event-specific fields.
    pub fields: Fields,
}

impl Event {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Field as `u64`, if present and unsigned.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.field(name).and_then(Value::as_u64)
    }

    /// Encode as one JSON line (the JSONL sink format).
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObj::new()
            .u("seq", self.seq)
            .u("t", self.t)
            .s("ev", self.class.name())
            .s("name", self.name.as_str())
            .u("span", self.span.0)
            .u("parent", self.parent.0);
        if let Some(l) = self.level {
            o = o.u("level", u64::from(l));
        }
        for (k, v) in &self.fields {
            o = match v {
                Value::U64(x) => o.u(k, *x),
                Value::I64(x) => o.i(k, *x),
                Value::F64(x) => o.g(k, *x),
                Value::Bool(x) => o.b(k, *x),
                Value::Str(x) => o.s(k, x),
            };
        }
        o.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_roundtrips_fields() {
        let ev = Event {
            seq: 3,
            t: 17,
            class: EventClass::Instant,
            name: Name::RouteHop,
            span: SpanId(5),
            parent: SpanId(2),
            level: Some(1),
            fields: vec![
                ("from", 4u64.into()),
                ("to", 9u64.into()),
                ("ok", true.into()),
            ],
        };
        let line = ev.to_json_line();
        assert_eq!(
            line,
            r#"{"seq": 3, "t": 17, "ev": "event", "name": "route_hop", "span": 5, "parent": 2, "level": 1, "from": 4, "to": 9, "ok": true}"#
        );
    }

    #[test]
    fn field_lookup() {
        let ev = Event {
            seq: 0,
            t: 0,
            class: EventClass::Start,
            name: Name::Query,
            span: SpanId(1),
            parent: SpanId::NONE,
            level: None,
            fields: vec![("eps", 0.25f64.into()), ("from", 7u64.into())],
        };
        assert_eq!(ev.u64_field("from"), Some(7));
        assert_eq!(ev.field("eps").and_then(Value::as_f64), Some(0.25));
        assert!(ev.field("missing").is_none());
    }
}
