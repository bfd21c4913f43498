//! One accounted operation: how a sphere's publish, a refresh, the churn
//! steps and the three query kinds report to a [`Recorder`], as
//! `open → level* → close`. Untraced, each step is one branch: fields are
//! built by closures that never run, so nothing is allocated.

use hyperm_sim::{OpKind, OpStats};
use hyperm_telemetry::{Fields, Name, Recorder, SpanId};

/// The `hops`, `messages` and `bytes` fields most spans end with.
pub(crate) fn cost_fields(s: &OpStats) -> Fields {
    vec![
        ("hops", s.hops.into()),
        ("messages", s.messages.into()),
        ("bytes", s.bytes.into()),
    ]
}

/// An operation in flight: its span and the cost accumulated so far.
pub(crate) struct Op {
    rec: Recorder,
    name: Name,
    pub(crate) kind: OpKind,
    /// The op's span (`NONE` untraced).
    pub(crate) span: SpanId,
    /// Every level's cost, plus whatever the caller adds.
    pub(crate) stats: OpStats,
}

/// One level's share of an op, as the level's body sees it. Its events
/// attach to the level overlay's scope: the lookup span, else the op's.
pub(crate) struct Level {
    /// The level's cost: its cell, and its share of the op's.
    pub(crate) stats: OpStats,
    /// What a traced lookup span ends with after its cost.
    tail: Option<Fields>,
}

impl Level {
    /// Set the lookup span's closing `fields` (built only when traced).
    pub(crate) fn tail(&mut self, fields: impl FnOnce() -> Fields) {
        if let Some(tail) = &mut self.tail {
            *tail = fields();
        }
    }
}

impl Op {
    /// Start a `kind` op: a `name` span under `parent` on `rec`.
    pub(crate) fn open(
        rec: &Recorder,
        parent: SpanId,
        kind: OpKind,
        name: Name,
        fields: impl FnOnce() -> Fields,
    ) -> Op {
        let span = rec.is_enabled().then(|| rec.span(parent, name, fields()));
        Op {
            rec: rec.clone(),
            name,
            kind,
            span: span.unwrap_or(SpanId::NONE),
            stats: OpStats::zero(),
        }
    }

    /// Run `body` as level `l`'s share, with the level overlay's recorder
    /// `overlay` scoped to the op — or, given a `lookup`'s start fields, to
    /// an `overlay_lookup` child span on `overlay`, which then also records
    /// the level's `(kind, Some(l))` cell.
    pub(crate) fn level<T>(
        &mut self,
        l: usize,
        overlay: &Recorder,
        lookup: Option<&dyn Fn() -> Fields>,
        body: impl FnOnce(&mut Level) -> T,
    ) -> T {
        let traced = overlay.is_enabled();
        let span = match lookup {
            Some(fields) if traced => overlay.span(self.span, Name::OverlayLookup, fields()),
            _ => self.span,
        };
        let mut lv = Level {
            stats: OpStats::zero(),
            tail: (traced && lookup.is_some()).then(Vec::new),
        };
        overlay.set_scope(span);
        let out = body(&mut lv);
        overlay.set_scope(SpanId::NONE);
        if let Some(tail) = lv.tail {
            let fields = [cost_fields(&lv.stats), tail].concat();
            overlay.end(span, Name::OverlayLookup, fields);
        }
        let cell = if lookup.is_some() { overlay } else { &self.rec };
        cell.record_op(self.kind, Some(l), lv.stats);
        self.stats += lv.stats;
        out
    }

    /// End the span with `fields` of the op's total cost, record the
    /// whole-op `(kind, None)` cell and return that cost.
    pub(crate) fn close(self, fields: impl FnOnce(&OpStats) -> Fields) -> OpStats {
        if self.rec.is_enabled() {
            self.rec.end(self.span, self.name, fields(&self.stats));
        }
        self.rec.record_op(self.kind, None, self.stats);
        self.stats
    }
}
