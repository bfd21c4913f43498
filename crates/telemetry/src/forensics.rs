//! Query forensics: reconstruct the span tree from a flat event stream
//! and render it for humans.
//!
//! Used by the `trace_query` bin: capture a query's events in a ring
//! buffer, [`Trace::from_events`] them back into a tree, then
//! [`Trace::render`] the per-level route tree and
//! [`Trace::phase_totals`] the per-phase cost breakdown.
//!
//! The cluster observability plane (PR 8) added the cross-process side:
//! [`parse_jsonl`] reads a node's JSONL sink back into events, and
//! [`merge_streams`] stitches several nodes' streams into ONE route tree.
//! Stitching keys off the wire-level trace context: a serve span whose
//! start record carries `ctx_span > 0` is re-parented under span
//! `ctx_span` of the stream belonging to the peer named by its `from`
//! field. Span ids are remapped to a fresh namespace (per-node allocators
//! all start at 1), and every span gains a `node` field naming its origin.

use crate::event::{Event, EventClass, SpanId, Value};
use crate::json::JsonValue;
use crate::sync::Mutex;
use crate::taxonomy::Name;
use std::collections::BTreeMap;

/// A reconstructed span: its start record, optional end record, child
/// spans and attached instant events, in emission order.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span id.
    pub id: SpanId,
    /// Span name (from the start record).
    pub name: Name,
    /// Level tag of the emitting handle, if any.
    pub level: Option<u8>,
    /// The opening record (carries the input fields).
    pub start: Event,
    /// The closing record (carries the outcome fields), if seen.
    pub end: Option<Event>,
    /// Indices into [`Trace::spans`] of child spans.
    pub children: Vec<usize>,
    /// Instant events attached to this span.
    pub events: Vec<Event>,
}

/// A reconstructed trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All spans, in start order.
    pub spans: Vec<SpanNode>,
    /// Indices of root spans (parent [`SpanId::NONE`] or unseen).
    pub roots: Vec<usize>,
    /// Instant events whose parent span was never started (e.g. scope
    /// left unset), in emission order.
    pub orphans: Vec<Event>,
}

/// One row of the per-phase breakdown: how many spans/events of a given
/// name were seen and the numeric fields they carried, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// Span or event name.
    pub name: Name,
    /// Number of spans (counted at end) or instant events.
    pub count: u64,
    /// Sum per numeric field name, over end-record fields (spans) or
    /// event fields (instants).
    pub fields: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Rebuild the tree from a flat stream (as drained from a ring
    /// buffer or parsed off JSONL).
    pub fn from_events(events: &[Event]) -> Trace {
        let mut trace = Trace::default();
        let mut index: BTreeMap<SpanId, usize> = BTreeMap::new();
        for ev in events {
            match ev.class {
                EventClass::Start => {
                    let idx = trace.spans.len();
                    trace.spans.push(SpanNode {
                        id: ev.span,
                        name: ev.name,
                        level: ev.level,
                        start: ev.clone(),
                        end: None,
                        children: Vec::new(),
                        events: Vec::new(),
                    });
                    index.insert(ev.span, idx);
                    match index.get(&ev.parent) {
                        Some(&p) if !ev.parent.is_none() => trace.spans[p].children.push(idx),
                        _ => trace.roots.push(idx),
                    }
                }
                EventClass::End => {
                    if let Some(&idx) = index.get(&ev.span) {
                        trace.spans[idx].end = Some(ev.clone());
                    } else {
                        trace.orphans.push(ev.clone());
                    }
                }
                EventClass::Instant => match index.get(&ev.span) {
                    Some(&idx) => trace.spans[idx].events.push(ev.clone()),
                    None => trace.orphans.push(ev.clone()),
                },
            }
        }
        trace
    }

    /// Aggregate spans and events by name: the per-phase cost breakdown.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        // Keyed by wire string: rows come out in name order.
        let mut totals: BTreeMap<&'static str, PhaseTotal> = BTreeMap::new();
        let mut fold = |name: Name, fields: &[(&'static str, Value)]| {
            let row = totals.entry(name.as_str()).or_insert_with(|| PhaseTotal {
                name,
                count: 0,
                fields: BTreeMap::new(),
            });
            row.count += 1;
            for (k, v) in fields {
                if let Some(x) = v.as_f64() {
                    *row.fields.entry(k).or_insert(0.0) += x;
                }
            }
        };
        for s in &self.spans {
            match &s.end {
                Some(end) => fold(s.name, &end.fields),
                None => fold(s.name, &s.start.fields),
            }
            for ev in &s.events {
                fold(ev.name, &ev.fields);
            }
        }
        for ev in &self.orphans {
            fold(ev.name, &ev.fields);
        }
        totals.into_values().collect()
    }

    /// Render the tree as indented text: one line per span (inputs, then
    /// `=> outcome` fields) and per instant event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &r in &self.roots {
            self.render_span(r, 0, &mut out);
        }
        if !self.orphans.is_empty() {
            out.push_str("(unparented)\n");
            for ev in &self.orphans {
                out.push_str(&format!("  {}\n", render_line(ev)));
            }
        }
        out
    }

    fn render_span(&self, idx: usize, depth: usize, out: &mut String) {
        let s = &self.spans[idx];
        let pad = "  ".repeat(depth);
        let mut line = format!("{pad}{}", s.name);
        if let Some(l) = s.level {
            line.push_str(&format!(" level={l}"));
        }
        for (k, v) in &s.start.fields {
            line.push_str(&format!(" {k}={}", v.render()));
        }
        if let Some(end) = &s.end {
            if !end.fields.is_empty() {
                line.push_str(" =>");
                for (k, v) in &end.fields {
                    line.push_str(&format!(" {k}={}", v.render()));
                }
            }
        }
        out.push_str(&line);
        out.push('\n');
        // Interleave events and child spans in emission order (seq).
        let mut items: Vec<(u64, Result<usize, &Event>)> = Vec::new();
        for &c in &s.children {
            items.push((self.spans[c].start.seq, Ok(c)));
        }
        for ev in &s.events {
            items.push((ev.seq, Err(ev)));
        }
        items.sort_by_key(|(seq, _)| *seq);
        for (_, item) in items {
            match item {
                Ok(c) => self.render_span(c, depth + 1, out),
                Err(ev) => {
                    out.push_str(&format!("{}{}\n", "  ".repeat(depth + 1), render_line(ev)));
                }
            }
        }
    }

    /// All spans named `name`, in start order.
    pub fn spans_named(&self, name: Name) -> Vec<&SpanNode> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Count of instant events named `name` anywhere in the trace.
    pub fn event_count(&self, name: Name) -> usize {
        self.spans
            .iter()
            .flat_map(|s| s.events.iter())
            .chain(self.orphans.iter())
            .filter(|e| e.name == name)
            .count()
    }
}

/// Field keys interned by [`intern`].
static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Intern a field key so it can live in [`Event::fields`]
/// (`&'static str`). Each distinct key leaks once, bounded by the
/// vocabulary of the parsed streams.
fn intern(s: &str) -> &'static str {
    let mut cache = match INTERNED.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some(&hit) = cache.iter().find(|&&c| c == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    cache.push(leaked);
    leaked
}

/// Decode one JSONL line (as written by [`Event::to_json_line`]) whose
/// `name` is `name` back into an [`Event`]. `None` when required keys
/// are missing/ill-typed.
fn event_from_json(v: &JsonValue, name: Name) -> Option<Event> {
    let fields_in = v.as_obj()?;
    let u = |key: &str| v.get(key).and_then(JsonValue::as_u64);
    let class = match v.get("ev")?.as_str()? {
        "start" => EventClass::Start,
        "end" => EventClass::End,
        "event" => EventClass::Instant,
        _ => return None,
    };
    let level = match v.get("level") {
        Some(l) => Some(u8::try_from(l.as_u64()?).ok()?),
        None => None,
    };
    let mut ev = Event {
        seq: u("seq")?,
        t: u("t")?,
        class,
        name,
        span: SpanId(u("span")?),
        parent: SpanId(u("parent")?),
        level,
        fields: Vec::new(),
    };
    for (k, val) in fields_in {
        if matches!(
            k.as_str(),
            "seq" | "t" | "ev" | "name" | "span" | "parent" | "level"
        ) {
            continue;
        }
        let value = match val {
            JsonValue::Bool(b) => Value::Bool(*b),
            JsonValue::Str(s) => Value::Str(s.clone()),
            JsonValue::Num(n) => match val.as_u64() {
                Some(x) => Value::U64(x),
                None if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                    Value::I64(*n as i64)
                }
                None => Value::F64(*n),
            },
            // Events never carry nested containers; tolerate and skip.
            _ => continue,
        };
        ev.fields.push((intern(k), value));
    }
    Some(ev)
}

/// Parse a JSONL sink's contents back into events. Blank lines are
/// skipped; a malformed line, or one whose name is not a [`Name`], is an
/// error naming its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let v = JsonValue::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let not_event = || format!("line {n}: not an event");
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(not_event)?;
        let name =
            Name::parse(name).ok_or_else(|| format!("line {n}: unknown event name {name:?}"))?;
        out.push(event_from_json(&v, name).ok_or_else(not_event)?);
    }
    Ok(out)
}

/// Merge per-node event streams — `(node id, events)` pairs, where the
/// node id is the peer's **transport id** (what `from`/`ctx` fields on
/// the wire refer to) — into one cross-process [`Trace`].
///
/// Unlike [`Trace::from_events`], linking is order-independent: a child
/// span is attached to its parent even when the parent's start appears
/// later in the merged order (per-node clocks are not synchronised).
pub fn merge_streams(streams: &[(u64, Vec<Event>)]) -> Trace {
    // Pass 1: give every span a fresh id unique across nodes.
    let mut id_map: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut next = 1u64;
    for (node, events) in streams {
        for ev in events {
            if ev.class == EventClass::Start && id_map.insert((*node, ev.span.0), next).is_none() {
                next += 1;
            }
        }
    }
    // Pass 2: rewrite events — remapped ids, a global seq preserving
    // per-stream order, cross-process re-parenting, and a `node` tag.
    let mut merged = Vec::new();
    let mut seq = 0u64;
    for (node, events) in streams {
        for ev in events {
            let mut out = ev.clone();
            out.seq = seq;
            seq += 1;
            out.span = SpanId(id_map.get(&(*node, ev.span.0)).copied().unwrap_or(0));
            out.parent = SpanId(id_map.get(&(*node, ev.parent.0)).copied().unwrap_or(0));
            if ev.class == EventClass::Start {
                // Wire trace context: re-parent under the sender's span.
                if out.parent.is_none() {
                    if let (Some(ctx_span), Some(sender)) =
                        (ev.u64_field("ctx_span"), ev.u64_field("from"))
                    {
                        if let Some(&p) = id_map.get(&(sender, ctx_span)) {
                            out.parent = SpanId(p);
                        }
                    }
                }
                if ev.field("node").is_none() {
                    out.fields.push(("node", Value::U64(*node)));
                }
            }
            merged.push(out);
        }
    }
    link_events(&merged)
}

/// Order-independent tree build: create every span first, then attach
/// ends/instants and link children (sorted by start seq).
fn link_events(events: &[Event]) -> Trace {
    let mut trace = Trace::default();
    let mut index: BTreeMap<SpanId, usize> = BTreeMap::new();
    for ev in events {
        if ev.class == EventClass::Start {
            let idx = trace.spans.len();
            trace.spans.push(SpanNode {
                id: ev.span,
                name: ev.name,
                level: ev.level,
                start: ev.clone(),
                end: None,
                children: Vec::new(),
                events: Vec::new(),
            });
            index.insert(ev.span, idx);
        }
    }
    for ev in events {
        match ev.class {
            EventClass::Start => {}
            EventClass::End => match index.get(&ev.span) {
                Some(&idx) => {
                    // First end wins (a well-formed stream has one).
                    if trace.spans[idx].end.is_none() {
                        trace.spans[idx].end = Some(ev.clone());
                    }
                }
                None => trace.orphans.push(ev.clone()),
            },
            EventClass::Instant => match index.get(&ev.span) {
                Some(&idx) => trace.spans[idx].events.push(ev.clone()),
                None => trace.orphans.push(ev.clone()),
            },
        }
    }
    for idx in 0..trace.spans.len() {
        let parent = trace.spans[idx].start.parent;
        match index.get(&parent) {
            Some(&p) if !parent.is_none() && p != idx => trace.spans[p].children.push(idx),
            _ => trace.roots.push(idx),
        }
    }
    // Span indices ascend in start order, so sorted children render in
    // merged-stream order.
    for s in &mut trace.spans {
        s.children.sort_unstable();
    }
    trace
}

fn render_line(ev: &Event) -> String {
    let mut line = ev.name.to_string();
    if let Some(l) = ev.level {
        line.push_str(&format!(" level={l}"));
    }
    for (k, v) in &ev.fields {
        line.push_str(&format!(" {k}={}", v.render()));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn tree_reconstruction_and_breakdown() {
        let (rec, ring) = Recorder::ring(64);
        let q = rec.span(SpanId::NONE, Name::Query, vec![("eps", 0.2f64.into())]);
        let l0 = rec.scoped(0);
        let look = l0.span(q, Name::OverlayLookup, vec![]);
        l0.event(
            look,
            Name::RouteHop,
            vec![("from", 0u64.into()), ("to", 2u64.into())],
        );
        l0.event(
            look,
            Name::RouteHop,
            vec![("from", 2u64.into()), ("to", 5u64.into())],
        );
        l0.end(look, Name::OverlayLookup, vec![("hops", 2u64.into())]);
        rec.event(
            q,
            Name::Fetch,
            vec![("peer", 5u64.into()), ("bytes", 128u64.into())],
        );
        rec.end(q, Name::Query, vec![("hops", 4u64.into())]);
        let trace = Trace::from_events(&ring.events());

        assert_eq!(trace.roots.len(), 1);
        let root = &trace.spans[trace.roots[0]];
        assert_eq!(root.name, Name::Query);
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.events.len(), 1);
        let child = &trace.spans[root.children[0]];
        assert_eq!(child.name, Name::OverlayLookup);
        assert_eq!(child.level, Some(0));
        assert_eq!(child.events.len(), 2);
        assert!(child.end.is_some());
        assert!(trace.orphans.is_empty());

        let totals = trace.phase_totals();
        let hops_row = totals.iter().find(|t| t.name == Name::RouteHop).unwrap();
        assert_eq!(hops_row.count, 2);
        let lookup_row = totals
            .iter()
            .find(|t| t.name == Name::OverlayLookup)
            .unwrap();
        assert_eq!(lookup_row.fields.get("hops"), Some(&2.0));
        assert_eq!(trace.event_count(Name::RouteHop), 2);
        assert_eq!(trace.spans_named(Name::OverlayLookup).len(), 1);

        let text = trace.render();
        assert!(text.starts_with("query eps=0.2"));
        assert!(text.contains("\n  overlay_lookup level=0 => hops=2\n"));
        assert!(text.contains("\n    route_hop level=0 from=0 to=2\n"));
        assert!(text.contains("\n  fetch peer=5 bytes=128\n"));
    }

    #[test]
    fn orphans_are_kept() {
        let (rec, ring) = Recorder::ring(8);
        rec.event(SpanId(99), Name::Drop, vec![]);
        let trace = Trace::from_events(&ring.events());
        assert_eq!(trace.orphans.len(), 1);
        assert_eq!(trace.event_count(Name::Drop), 1);
        assert!(trace.render().contains("(unparented)"));
    }

    #[test]
    fn jsonl_roundtrips_through_parser() {
        let (rec, ring) = Recorder::ring(16);
        rec.set_time(5);
        let q = rec.span(SpanId::NONE, Name::Query, vec![("eps", 0.25f64.into())]);
        let l1 = rec.scoped(1);
        l1.event(
            q,
            Name::RouteHop,
            vec![
                ("from", 2u64.into()),
                ("ok", true.into()),
                ("why", "detour".into()),
                ("bias", (-3i64).into()),
            ],
        );
        rec.end(q, Name::Query, vec![("hops", 1u64.into())]);
        let events = ring.events();
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json_line()))
            .collect();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        // Interning is stable: parsing twice yields pointer-equal keys.
        let again = parse_jsonl(&text).unwrap();
        assert!(std::ptr::eq(parsed[0].fields[0].0, again[0].fields[0].0));
        assert!(parse_jsonl("{\"seq\": 1}\n").is_err());
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("\n\n").unwrap().is_empty());
    }

    #[test]
    fn unknown_name_is_an_error_and_is_not_interned() {
        let good = r#"{"seq": 0, "t": 0, "ev": "event", "name": "drop", "span": 0, "parent": 0}"#;
        let bad = r#"{"seq": 1, "t": 0, "ev": "event", "name": "mystery_event", "span": 0, "parent": 0, "mystery_key": 1}"#;
        let err = parse_jsonl(&format!("{good}\n\n{bad}\n")).unwrap_err();
        assert_eq!(err, "line 3: unknown event name \"mystery_event\"");
        let interned = INTERNED.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!interned.contains(&"mystery_event"));
        assert!(!interned.contains(&"mystery_key"));
    }

    #[test]
    fn merge_stitches_streams_via_trace_ctx() {
        // Member node 20: a serve span that forwarded a query.
        let (mrec, mring) = Recorder::ring(16);
        let mserve = mrec.span(
            SpanId::NONE,
            Name::Serve,
            vec![("from", 99u64.into()), ("kind", "query".into())],
        );
        mrec.event(mserve, Name::Forward, vec![("kind", "query".into())]);
        mrec.end(mserve, Name::Serve, vec![]);

        // Head node 10: its serve span carries the member's trace context
        // (ctx_span = member serve span id, from = member's peer id), and
        // the query span nests under the serve span in the same stream.
        let (hrec, hring) = Recorder::ring(16);
        let hserve = hrec.span(
            SpanId::NONE,
            Name::Serve,
            vec![
                ("from", 20u64.into()),
                ("kind", "query".into()),
                ("ctx_trace", 42u64.into()),
                ("ctx_span", mserve.0.into()),
            ],
        );
        let q = hrec.span(hserve, Name::Query, vec![("eps", 0.2f64.into())]);
        hrec.end(q, Name::Query, vec![("hops", 3u64.into())]);
        hrec.end(hserve, Name::Serve, vec![]);

        // Head stream listed FIRST: linking must not depend on order.
        let trace = merge_streams(&[(10, hring.events()), (20, mring.events())]);
        assert_eq!(
            trace.roots.len(),
            1,
            "one stitched tree:\n{}",
            trace.render()
        );
        let root = &trace.spans[trace.roots[0]];
        assert_eq!(root.name, Name::Serve);
        assert_eq!(root.start.u64_field("node"), Some(20));
        assert_eq!(root.children.len(), 1);
        let head_serve = &trace.spans[root.children[0]];
        assert_eq!(head_serve.name, Name::Serve);
        assert_eq!(head_serve.start.u64_field("node"), Some(10));
        assert_eq!(head_serve.start.u64_field("ctx_trace"), Some(42));
        assert_eq!(head_serve.children.len(), 1);
        let query = &trace.spans[head_serve.children[0]];
        assert_eq!(query.name, Name::Query);
        assert!(query.end.is_some());
        assert!(trace.orphans.is_empty());
        // Remapped ids are unique.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.spans.len());
    }

    #[test]
    fn merge_without_ctx_keeps_streams_as_separate_roots() {
        let mk = |name: Name| {
            let (rec, ring) = Recorder::ring(8);
            let s = rec.span(SpanId::NONE, name, vec![]);
            rec.end(s, name, vec![]);
            ring.events()
        };
        let trace = merge_streams(&[(1, mk(Name::Query)), (2, mk(Name::Publish))]);
        assert_eq!(trace.roots.len(), 2);
        assert_eq!(trace.spans.len(), 2);
    }
}
