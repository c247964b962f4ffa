//! The workspace's shared hand-rolled JSON toolkit — a value type with
//! a recursive-descent parser, a pretty two-space [`Writer`], and the
//! JSON-Lines event exporter — all dependency-free because the
//! workspace's serde is a no-op shim.
//!
//! Only what the telemetry exporters and bench reports need: objects,
//! arrays, strings, finite numbers, booleans and null. Object keys keep
//! insertion order so emitted files diff cleanly across runs.

use crate::event::Event;
use std::fmt;
use std::io;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers round-trip up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer (truncating), if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    /// Arrays and objects nest at most [`MAX_DEPTH`] levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(value)
    }
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: the
/// parser recurses once per level, so the input must not pick the depth
/// of the stack.
pub const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nested too deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
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
                    let escaped = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for bench
                            // files; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // The run up to the next quote or backslash, validated
                    // once: a long literal parses in linear time.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (with escaping).
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Renders a finite `f64` so it round-trips through [`Json::parse`].
pub fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        out.push_str(&format!("{value}"));
    } else {
        out.push_str("null");
    }
}

/// Renders one event as a single JSON object (no trailing newline).
pub fn event_to_json(event: &Event) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"ts_us\":");
    out.push_str(&event.ts_us.to_string());
    out.push_str(",\"kind\":");
    push_str_lit(&mut out, event.kind.as_str());
    out.push_str(",\"name\":");
    push_str_lit(&mut out, event.name);
    if event.span_id != 0 {
        out.push_str(",\"span\":");
        out.push_str(&event.span_id.to_string());
    }
    if event.parent_id != 0 {
        out.push_str(",\"parent\":");
        out.push_str(&event.parent_id.to_string());
    }
    if let Some(dur) = event.dur_us {
        out.push_str(",\"dur_us\":");
        out.push_str(&dur.to_string());
    }
    if let Some(value) = event.value {
        out.push_str(",\"value\":");
        push_f64(&mut out, value);
    }
    if !event.labels.is_empty() {
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in event.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, k);
            out.push(':');
            push_str_lit(&mut out, v);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Writes `events` as JSON-Lines: one object per line.
pub fn write_jsonl<W: io::Write>(writer: &mut W, events: &[Event]) -> io::Result<()> {
    for event in events {
        writeln!(writer, "{}", event_to_json(event))?;
    }
    Ok(())
}

/// An indentation-aware object/array writer for pretty two-space JSON.
pub struct Writer {
    out: String,
    depth: usize,
    /// Whether the current container already has a member.
    needs_comma: Vec<bool>,
}

impl Writer {
    /// A writer positioned at the document root.
    pub fn new() -> Self {
        Self {
            out: String::with_capacity(1024),
            depth: 0,
            needs_comma: Vec::new(),
        }
    }

    fn newline_item(&mut self) {
        if let Some(seen) = self.needs_comma.last_mut() {
            if *seen {
                self.out.push(',');
            }
            *seen = true;
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    fn close_container(&mut self, bracket: char) {
        let had_items = self.needs_comma.pop().unwrap_or(false);
        self.depth -= 1;
        if had_items {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
        self.out.push(bracket);
    }

    /// Opens an object; at the root or as an array element.
    pub fn open_obj(&mut self) {
        self.newline_item();
        self.out.push('{');
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Opens an object as the value of `key`.
    pub fn open_obj_field(&mut self, key: &str) {
        self.newline_item();
        push_str_lit(&mut self.out, key);
        self.out.push_str(": {");
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost object.
    pub fn close_obj(&mut self) {
        self.close_container('}');
    }

    /// Opens an array as the value of `key`.
    pub fn open_arr_field(&mut self, key: &str) {
        self.newline_item();
        push_str_lit(&mut self.out, key);
        self.out.push_str(": [");
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost array.
    pub fn close_arr(&mut self) {
        self.close_container(']');
    }

    /// Writes a string member.
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.newline_item();
        push_str_lit(&mut self.out, key);
        self.out.push_str(": ");
        push_str_lit(&mut self.out, value);
    }

    /// Writes an unsigned-integer member.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.newline_item();
        push_str_lit(&mut self.out, key);
        self.out.push_str(": ");
        self.out.push_str(&value.to_string());
    }

    /// Writes a number member.
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.newline_item();
        push_str_lit(&mut self.out, key);
        self.out.push_str(": ");
        push_f64(&mut self.out, value);
    }

    /// The finished document plus a trailing newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn escapes_and_omits_empty_fields() {
        let e = Event {
            ts_us: 7,
            kind: EventKind::Point,
            name: "x.y",
            span_id: 0,
            parent_id: 0,
            dur_us: None,
            value: Some(1.5),
            labels: vec![("key \"q\"".into(), "line\nbreak".into())],
        };
        assert_eq!(
            event_to_json(&e),
            r#"{"ts_us":7,"kind":"point","name":"x.y","value":1.5,"labels":{"key \"q\"":"line\nbreak"}}"#
        );
    }

    #[test]
    fn span_end_carries_ids_and_duration() {
        let e = Event {
            ts_us: 10,
            kind: EventKind::SpanEnd,
            name: "phase.map",
            span_id: 3,
            parent_id: 1,
            dur_us: Some(250),
            value: None,
            labels: vec![],
        };
        assert_eq!(
            event_to_json(&e),
            r#"{"ts_us":10,"kind":"span_end","name":"phase.map","span":3,"parent":1,"dur_us":250}"#
        );
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"s": "x\ny", "t": true, "n": null}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("n"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse(r#""\q""#).is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn strings_keep_escapes_and_multibyte_runs() {
        let v = Json::parse(r#"["a\"é\u00e9\n€", "", "x\\"]"#).unwrap();
        let items: Vec<_> = v.as_arr().unwrap().iter().map(|s| s.as_str()).collect();
        assert_eq!(items, [Some("a\"éé\n€"), Some(""), Some("x\\")]);
        let long = "ü".repeat(100_000);
        assert_eq!(
            Json::parse(&format!("\"{long}\"")).unwrap().as_str(),
            Some(&long[..])
        );
    }

    #[test]
    fn writer_output_parses_back() {
        let mut w = Writer::new();
        w.open_obj();
        w.str_field("name", "bench \"quoted\"");
        w.u64_field("count", 42);
        w.f64_field("ratio", 0.125);
        w.open_arr_field("items");
        w.open_obj();
        w.str_field("k", "v");
        w.close_obj();
        w.close_arr();
        w.open_obj_field("empty");
        w.close_obj();
        w.close_obj();
        let text = w.finish();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("bench \"quoted\""));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.125));
        assert_eq!(v.get("items").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("empty").unwrap().as_obj(), Some(&[][..]));
    }
}
