//! A tiny JSON writer and parser.
//!
//! The workspace has no serde (no crates.io access). This module is its
//! one JSON path: a composable object builder with *per-field* number
//! formatting control, because the reports fix the number of decimals
//! per key (`"qps": {:.2}`, `"recall": {:.6}`, …) and a re-run must
//! repeat them byte for byte (`FIGURES.json` is diffed against its
//! committed copy).
//!
//! Two render modes:
//! * [`JsonObj::render`] — single line, `{"k": v, "k2": v2}`;
//! * [`JsonObj::render_pretty`] — top-level keys one per line at 2-space
//!   indent, closing `}` and trailing newline (the `FIGURES.json`
//!   layout). Nested objects stay inline; arrays added with
//!   [`JsonObj::arr`] put one element per line at 4-space indent.
//!
//! The observability plane (PR 8) added the read side: [`JsonValue`] is a
//! recursive-descent parser for the documents this workspace itself
//! produces — telemetry JSONL streams, node stats snapshots, and the
//! committed `FIGURES.json` the figure pin tests read. Objects preserve key
//! order (the JSONL event decoder relies on field order).

/// Escape a string for a JSON string literal (quotes added by caller).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Single-line array of values in `Display` form: `[a, b, c]`, empty
/// `[]`. The inline layout of histogram bucket rows and heat (nest it
/// for rows of rows); [`JsonObj::arr`] is the one-per-line one.
pub fn inline_arr<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let body = items
        .into_iter()
        .map(|it| it.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{body}]")
}

/// An ordered JSON object under construction. Values are rendered at
/// insertion time, so each field picks its own formatting.
#[derive(Debug, Clone, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a pre-rendered JSON value verbatim.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Unsigned integer field.
    pub fn u(self, key: &str, v: u64) -> Self {
        self.raw(key, v.to_string())
    }

    /// Signed integer field.
    pub fn i(self, key: &str, v: i64) -> Self {
        self.raw(key, v.to_string())
    }

    /// Boolean field.
    pub fn b(self, key: &str, v: bool) -> Self {
        self.raw(key, v.to_string())
    }

    /// Float field in `Display` format (`0.25` → `0.25`), as the old
    /// reports did for workload parameters.
    pub fn g(self, key: &str, v: f64) -> Self {
        self.raw(key, format!("{v}"))
    }

    /// Float field with a fixed number of decimals (`{:.prec$}`).
    pub fn f(self, key: &str, v: f64, prec: usize) -> Self {
        self.raw(key, format!("{v:.prec$}"))
    }

    /// Escaped string field.
    pub fn s(self, key: &str, v: &str) -> Self {
        self.raw(key, format!("\"{}\"", escape(v)))
    }

    /// Nested object, rendered inline.
    pub fn obj(self, key: &str, o: JsonObj) -> Self {
        let rendered = o.render();
        self.raw(key, rendered)
    }

    /// Array of pre-rendered values, one element per line at 4-space
    /// indent (the `"sweep": [...]` layout). Empty arrays render `[]`.
    pub fn arr(self, key: &str, items: &[String]) -> Self {
        if items.is_empty() {
            return self.raw(key, "[]");
        }
        let body = items
            .iter()
            .map(|it| format!("    {it}"))
            .collect::<Vec<_>>()
            .join(",\n");
        self.raw(key, format!("[\n{body}\n  ]"))
    }

    /// Single-line rendering: `{"k": v, "k2": v2}`.
    pub fn render(&self) -> String {
        let body = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }

    /// Report rendering: top-level keys one per line at 2-space indent,
    /// trailing newline.
    pub fn render_pretty(&self) -> String {
        let body = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{}\": {v}", escape(k)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n}}\n")
    }
}

/// A parse error: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON document. Numbers are `f64` (every number this
/// workspace writes fits: counters stay below 2^53 in practice), object
/// keys keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as the ordered field list if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Nested lookup: `get(a).get(b)…` over a key path.
    pub fn path(&self, keys: &[&str]) -> Option<&JsonValue> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }
}

/// Nesting depth bound: hostile input must not blow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let s =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(s, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate halves render as U+FFFD: the writer
                            // never emits them, so only hostile input hits
                            // this.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so bytes
                    // are valid UTF-8; find the scalar's byte length).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let v: f64 = s.parse().map_err(|_| self.err("invalid number"))?;
        if !v.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(JsonValue::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_matches_handrolled() {
        let got = JsonObj::new()
            .f("total_s", 1.25, 6)
            .f("qps", 160.0, 2)
            .f("p50_ms", 6.1, 4)
            .render();
        let want = format!(
            "{{\"total_s\": {:.6}, \"qps\": {:.2}, \"p50_ms\": {:.4}}}",
            1.25, 160.0, 6.1
        );
        assert_eq!(got, want);
    }

    #[test]
    fn pretty_matches_handrolled_layout() {
        let got = JsonObj::new()
            .obj("workload", JsonObj::new().u("peers", 120).g("eps", 0.25))
            .u("cores", 4)
            .f("recall", 1.0, 6)
            .render_pretty();
        let want = "{\n  \"workload\": {\"peers\": 120, \"eps\": 0.25},\n  \"cores\": 4,\n  \"recall\": 1.000000\n}\n";
        assert_eq!(got, want);
    }

    #[test]
    fn array_layout_and_empty() {
        let items = vec!["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()];
        let got = JsonObj::new().arr("sweep", &items).render_pretty();
        let want = "{\n  \"sweep\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]\n}\n";
        assert_eq!(got, want);
        assert_eq!(JsonObj::new().arr("sweep", &[]).render(), "{\"sweep\": []}");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(
            JsonObj::new().s("k", "x\"y").render(),
            "{\"k\": \"x\\\"y\"}"
        );
    }

    #[test]
    fn parser_roundtrips_writer_output() {
        let doc = JsonObj::new()
            .obj("workload", JsonObj::new().u("peers", 120).g("eps", 0.25))
            .u("cores", 4)
            .i("delta", -3)
            .b("ok", true)
            .raw("nothing", "null")
            .s("name", "a\"b\nc")
            .arr("sweep", &["{\"a\": 1}".to_string(), "[1, 2]".to_string()])
            .f("recall", 1.0, 6)
            .render_pretty();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.path(&["workload", "peers"]).unwrap().as_u64(), Some(120));
        assert_eq!(v.path(&["workload", "eps"]).unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("cores").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("delta").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("nothing"), Some(&JsonValue::Null));
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\nc"));
        let sweep = v.get("sweep").unwrap().as_arr().unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].get("a").unwrap().as_u64(), Some(1));
        assert_eq!(sweep[1].as_arr().unwrap().len(), 2);
        assert_eq!(v.get("recall").unwrap().as_f64(), Some(1.0));
        // Key order is preserved.
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys[0], "workload");
        assert_eq!(keys[keys.len() - 1], "recall");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\": }",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "1e999",
            "nul",
            "\"bad \\q escape\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is an error, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn parser_handles_unicode_and_escapes() {
        let v = JsonValue::parse(r#"{"k": "café → done", "t": "\ttab"}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("café → done"));
        assert_eq!(v.get("t").unwrap().as_str(), Some("\ttab"));
    }

    #[test]
    fn u64_extraction_guards_domain() {
        assert_eq!(JsonValue::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("1.5").unwrap().as_f64(), Some(1.5));
    }
}
