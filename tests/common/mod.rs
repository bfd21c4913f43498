//! Helpers shared by the digest-pinning integration tests.

use hyperm::telemetry::{Event, EventClass, Value};

/// `e` without the `scanned` and `hits` fields of a flood's end event —
/// host-side scan counts added after the digests were measured — once
/// they are checked against the flood's `matches`: the store scan tests at
/// least the spheres it hits, and a flood matches each sphere once however
/// many replicas it hits.
pub(crate) fn without_scan_counts(e: &Event) -> Event {
    let mut e = e.clone();
    if e.name.as_str() != "flood" || e.class != EventClass::End {
        return e;
    }
    let field = |name: &str| {
        e.fields.iter().find_map(|(k, v)| match v {
            Value::U64(n) if *k == name => Some(*n),
            _ => None,
        })
    };
    if let Some(matches) = field("matches") {
        let (scanned, hits) = (field("scanned").unwrap(), field("hits").unwrap());
        assert!(
            scanned >= hits && hits >= matches,
            "flood scan counts: {e:?}"
        );
    }
    e.fields.retain(|(k, _)| !matches!(*k, "scanned" | "hits"));
    e
}
